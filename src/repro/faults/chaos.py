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
  goodput retention, time-to-recover after the last fault settles and
  the whole run's goodput. Every fault, corruption and trace goodput
  ledger of the catalog is measured by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro import soak
from repro.experiments.runner import build_connection, build_topology
from repro.faults.churn import phase_mean, recovery, timeline_size, wire_churn
from repro.faults.scenario import FaultScenario
from repro.metrics.collectors import MetricsSuite
from repro.net.topology import PathConfig
from repro.workloads.sources import BulkSource


CHAOS = soak.Harness(
    "chaos",
    soak.bulk_source,
    steps=(soak.arm_timeline, soak.heal_probe),
    invariants=(
        soak.exactly_once_in_order,
        soak.no_wedged_timers,
        soak.completes_after_heal,
    ),
    size=timeline_size,
)

#: The open-ended probe's clean paths: fast enough that a phase's mean
#: goodput is many packets per one-second bin.
PROBE_BANDWIDTH_BPS = 4e6
PROBE_DELAY_S = 0.03


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
    goodput_mbps: float  # whole run, Mb/s


def measure_fault_response(
    protocol: str,
    scenario: FaultScenario,
    paths: Sequence[PathConfig],
    seed: int = 1,
    duration_s: float = 40.0,
) -> FaultBenchResult:
    """Goodput retention and recovery time for an open-ended transfer
    over ``paths`` (one per scenario path).

    Phases: *pre* is [1 s, first event) — the first second of slow-start
    is skipped when judging the baseline — *during* is [first event,
    settle), including handover blackouts, and *post* runs from settle
    to the end (:func:`~repro.faults.churn.recovery` is the rule). A
    lifecycle scenario gets its churn controller. For a permanent
    removal (no re-add) the during window is empty and retention reads 0
    by convention; *post* then shows the surviving-path capacity, and
    ``recovery_s`` stays ``None`` whenever the survivors cannot reach
    :data:`~repro.faults.churn.RECOVERY_FRACTION` of the multi-path
    baseline — a real capacity loss, not a bug. A timeline whose first
    event is at t = 0 shapes the whole run: pre and retention read 0, and
    ``goodput_mbps`` (delivered bytes over the run) is its measure.
    """
    settle = scenario.settle_time
    if duration_s <= settle:
        raise ValueError(
            f"duration {duration_s}s leaves no recovery window after the "
            f"last event settles at {settle}s"
        )
    trace, network, built = build_topology(paths, seed)
    sim = network.sim
    metrics = MetricsSuite(trace, bin_width_s=1.0)
    connection = build_connection(
        protocol, sim, [built[index] for index in scenario.active_paths],
        BulkSource(), seed, trace,
    )
    controller = None
    if scenario.has_churn:
        controller = wire_churn(sim, network, built, connection, scenario, trace)
    injector = scenario.apply(sim, built, trace=trace, lifecycle=controller)
    connection.start()
    sim.run(until=duration_s)

    series = metrics.goodput.series(duration_s)  # (midpoint, MB/s) per 1 s bin
    pre, recovered_at = recovery(series, scenario)
    during = phase_mean(series, scenario.fault_start, settle)
    goodput = connection.delivered_bytes * 8.0 / duration_s / 1e6
    injector.stop_players()  # a looped replay must not outlive the run
    connection.close()
    return FaultBenchResult(
        protocol=protocol,
        scenario_name=scenario.name,
        duration_s=duration_s,
        pre_mbps=pre,
        during_mbps=during,
        post_mbps=phase_mean(series, settle, duration_s),
        retention=during / pre if pre > 0 else 0.0,
        recovery_s=None if recovered_at is None else recovered_at - settle,
        goodput_mbps=goodput,
    )
