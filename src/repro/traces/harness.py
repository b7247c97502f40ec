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

The ``trace_response`` catalog entry (:mod:`repro.experiments.catalog`)
sweeps trace families riding path 1 for a whole open-ended run, each a
timeline that starts the replay at t = 0, through
:func:`repro.faults.chaos.measure_fault_response`.
"""

from __future__ import annotations

from typing import Iterator

from repro import soak
from repro.core.config import FmtcpConfig
from repro.mptcp.connection import MptcpConfig


def count_trace_ticks(run: soak.Run) -> None:
    """Step: count ``trace.sample`` records, one per sample the player
    applied (a change of the sample in force). Declared before
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
