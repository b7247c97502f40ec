"""Trace-soak harness: byte-verified transfers through replayed channels.

The chaos and corruption harnesses attack the network with *synthetic*
faults — a loss rate, a bandwidth factor, a flap. This one replays the
*time structure* of real links (:mod:`repro.traces`): GPRS fade trains,
LEO handover sawtooths, incast collapse, recorded drive/walk tests. The
transfer runs with flow control on and real payload bytes flowing
(FMTCP with ``coding="real"``), because a trace's deep-fade minutes are
exactly where receive-buffer pressure and scheduler failover interact.

:data:`TRACES` is the soak kernel's (:mod:`repro.soak`) harness for
trace scenarios: the corruption harness's byte identity, the
exhaustion harness's bounded memory and watchdog interplay, the chaos
harness's post-heal completion (presets restore the channel at
``scenario.heal_time``), plus its own :func:`trace_played` and
:func:`no_false_clean_fail`.

:func:`measure_trace_goodput` is the benchmark probe: steady-state
goodput of an open-ended transfer with a trace riding path 1 for the
whole run, which the ``trace_response`` catalog entry sweeps across
trace families (:mod:`repro.experiments.catalog`).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro import soak
from repro.core.config import FmtcpConfig
from repro.experiments.runner import build_connection, build_topology
from repro.mptcp.connection import MptcpConfig
from repro.traces.generators import resolve_trace
from repro.traces.model import LinkTrace
from repro.traces.player import TracePlayer
from repro.workloads.sources import BulkSource


def count_trace_ticks(run: soak.Run) -> None:
    """Step: count ``trace.sample`` records. Declared before
    :func:`~repro.soak.arm_timeline` so the player's ``live``
    guard sees a listener."""
    def on_tick(record) -> None:
        run.report.trace_ticks += 1

    run.trace.subscribe("trace.sample", on_tick)
    run.closers.append(lambda: run.trace.unsubscribe("trace.sample", on_tick))


def trace_played(run: soak.Run) -> Iterator[str]:
    """The trace actually played: at least one tick mutated the links (a
    run that never replays anything passes vacuously)."""
    if run.report.trace_ticks == 0:
        yield "trace never applied a sample: the scenario exercises nothing"


def no_false_clean_fail(run: soak.Run) -> Iterator[str]:
    """Watchdog interplay: it must not clean-fail a transfer that
    completes (the other half — no silent hang — is
    :func:`~repro.soak.completes_or_fails_cleanly`)."""
    report = run.report
    if report.completed and report.watchdog_failed:
        yield (
            "watchdog clean-failed a transfer that completed "
            f"(escalation {report.watchdog_escalation})"
        )


#: The receiver's whole memory allowance, in each stack's own units.
_RECV_BUDGET_BYTES = 131_072


def _size(protocol: str, scenario) -> soak.Sizing:
    """Traces carry *absolute* regimes (GPRS bottoms out near 30 kb/s; the
    WiFi ladder tops out above the baseline, so a replay can also
    *improve* its path). The clean baseline is 2 x 0.2 Mb/s — the
    320 KiB transfer needs ~7 s clean, so it is mid-flight through the
    preset replay window ([2, 18) s) and must survive whatever the trace
    does to path 1, yet finishes well inside the 40 s run once the
    restore event heals the channel. Flow control is on and FMTCP codes
    real bytes."""
    units = soak.receive_units(protocol, _RECV_BUDGET_BYTES)
    if protocol == "fmtcp":
        config = FmtcpConfig(coding="real", flow_control=True, recv_window_blocks=units)
    else:
        config = MptcpConfig(flow_control=True, recv_buffer_chunks=units)
    return soak.Sizing(
        soak.uniform_paths(scenario.n_paths, 2e5, 0.03),
        total_bytes=327_680,
        duration_s=40.0,
        config=config,
    )


TRACES = soak.Harness(
    "traces",
    soak.random_payload,
    steps=(count_trace_ticks, soak.arm_timeline, soak.guard, soak.heal_probe),
    invariants=(
        soak.bounded_memory,
        soak.exactly_once_in_order,
        soak.byte_identical,
        trace_played,
        no_false_clean_fail,
        soak.completes_or_fails_cleanly,
        soak.completes_after_heal,
        soak.no_wedged_timers,
    ),
    size=_size,
)

#: The goodput probe's clean paths; the trace rides path 1.
_PROBE_BANDWIDTH_BPS = 6e5
_PROBE_DELAY_S = 0.03


def measure_trace_goodput(
    protocol: str,
    trace_spec,
    seed: int = 1,
    duration_s: float = 20.0,
) -> float:
    """Steady-state goodput (Mb/s) with ``trace_spec`` riding path 1's
    forward links for the whole run (path 0 stays at the clean baseline).
    A ``None``/empty spec leaves both paths pristine — the no-trace
    baseline draws no extra randomness."""
    trace, network, paths = build_topology(
        soak.uniform_paths(2, _PROBE_BANDWIDTH_BPS, _PROBE_DELAY_S), seed
    )
    sim = network.sim
    connection = build_connection(protocol, sim, paths, BulkSource(), seed, trace)
    player: Optional[TracePlayer] = None
    if trace_spec:
        # "loop" so short traces keep shaping the channel all run long.
        replay = resolve_trace(trace_spec)
        if replay.end_policy != "loop":
            replay = LinkTrace(replay.name, replay.samples, end_policy="loop")
        player = TracePlayer(sim, paths[1].forward_links, replay, bus=trace)
        player.start()
    connection.start()
    sim.run(until=duration_s)
    goodput = connection.delivered_bytes * 8.0 / duration_s / 1e6
    if player is not None:
        player.stop()
    connection.close()
    return goodput
