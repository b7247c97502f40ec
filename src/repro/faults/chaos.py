"""Chaos-soak harness: run a protocol through a link-fault timeline and
check invariants that must hold no matter what the network did.

Two ways in:

* ``run_soak(CHAOS, protocol, scenario)`` — a *finite* transfer under a
  fault scenario, the :data:`CHAOS` harness of the soak kernel
  (:mod:`repro.soak`): exactly-once in-order delivery, no wedged RTO
  timers (at heal time and at the end), post-fault goodput recovery and
  completion, and — like every harness — an event queue that drains
  after close.

* :func:`measure_fault_response` — an *open-ended* transfer for the
  benchmark: per-phase goodput (before / during / after the faults),
  goodput retention, and time-to-recover after the last fault settles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import soak
from repro.experiments.runner import build_connection, build_topology
from repro.faults.churn import RECOVERY_FRACTION, wire_churn
from repro.faults.scenario import FaultScenario
from repro.metrics.collectors import MetricsSuite
from repro.metrics.stats import mean
from repro.workloads.sources import BulkSource


def _size(protocol: str, scenario: FaultScenario) -> soak.Sizing:
    """At 2 x 0.6 Mb/s a 2 MB transfer needs ~13 s clean, so it is still
    mid-flight throughout the preset fault window ([8, 18) s) and must
    *survive* the faults — yet finishes with ample slack inside the 40 s
    run once the network heals."""
    return soak.Sizing(
        soak.uniform_paths(scenario.n_paths, 6e5, 0.03),
        total_bytes=2_000_000,
        duration_s=40.0,
    )


CHAOS = soak.Harness(
    "chaos",
    soak.bulk_source,
    steps=(soak.arm_timeline, soak.heal_probe),
    invariants=(
        soak.exactly_once_in_order,
        soak.no_wedged_timers,
        soak.completes_after_heal,
    ),
    size=_size,
)

#: The open-ended probe's clean paths: fast enough that a phase's mean
#: goodput is many packets per one-second bin.
_PROBE_BANDWIDTH_BPS = 4e6
_PROBE_DELAY_S = 0.03


@dataclass
class FaultBenchResult:
    """Per-phase goodput response of one protocol to one scenario."""

    protocol: str
    scenario_name: str
    duration_s: float
    pre_mbps: float
    during_mbps: float
    post_mbps: float
    retention: float  # during / pre
    recovery_s: Optional[float]  # None = never reached 80 % of pre


def measure_fault_response(
    protocol: str,
    scenario: FaultScenario,
    seed: int = 1,
    duration_s: float = 40.0,
    base_loss: float = 0.01,
) -> FaultBenchResult:
    """Goodput retention and recovery time for an open-ended transfer.

    Phases: *pre* is [1 s, first event) — the first second of slow-start
    is skipped when judging the baseline — *during* is [first event,
    settle), including handover blackouts, and *post* runs from settle
    to the end. A lifecycle scenario gets its churn controller. For a
    permanent removal (no re-add) the during window is empty and
    retention reads 0 by convention; *post* then shows the surviving-path
    capacity, and ``recovery_s`` stays ``None`` whenever the survivors
    cannot reach :data:`~repro.faults.churn.RECOVERY_FRACTION` of the
    multi-path baseline — a real capacity loss, not a bug.
    """
    settle = scenario.settle_time
    if duration_s <= settle:
        raise ValueError(
            f"duration {duration_s}s leaves no recovery window after the "
            f"last event settles at {settle}s"
        )
    trace, network, paths = build_topology(
        soak.uniform_paths(
            scenario.n_paths, _PROBE_BANDWIDTH_BPS, _PROBE_DELAY_S, base_loss
        ),
        seed,
    )
    sim = network.sim
    metrics = MetricsSuite(trace, bin_width_s=1.0)
    connection = build_connection(
        protocol, sim, [paths[index] for index in scenario.active_paths],
        BulkSource(), seed, trace,
    )
    controller = None
    if scenario.has_churn:
        controller = wire_churn(sim, network, paths, connection, scenario, trace)
    scenario.apply(sim, paths, trace=trace, lifecycle=controller)
    connection.start()
    sim.run(until=duration_s)

    series = metrics.goodput.series(duration_s)  # (midpoint, MB/s) per 1 s bin
    fault_start = scenario.fault_start

    def phase_mean(lo: float, hi: float) -> float:
        rates = [rate for t, rate in series if lo <= t < hi]
        return mean(rates) if rates else 0.0

    pre = phase_mean(1.0, fault_start)
    during = phase_mean(fault_start, settle)
    recovery: Optional[float] = None
    for t, rate in series:
        if t >= settle and rate >= RECOVERY_FRACTION * pre:
            recovery = t - settle
            break
    connection.close()
    return FaultBenchResult(
        protocol=protocol,
        scenario_name=scenario.name,
        duration_s=duration_s,
        pre_mbps=pre,
        during_mbps=during,
        post_mbps=phase_mean(settle, duration_s),
        retention=during / pre if pre > 0 else 0.0,
        recovery_s=recovery,
    )
