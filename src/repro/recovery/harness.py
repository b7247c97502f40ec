"""Crash-recovery soak harness and its benchmark probe.

The :data:`RECOVERY` harness of the soak kernel (:mod:`repro.soak`)
drives one finite transfer with **real payload** through an endpoint
crash/restart timeline
(:data:`~repro.faults.scenario.RECOVERY_SCENARIOS`), a
:class:`~repro.recovery.manager.RecoveryManager` handling the crashes
and a :class:`~repro.robustness.watchdog.Watchdog` guaranteeing clean
failure. The source is wrapped in a
:class:`~repro.workloads.sources.ReplayableSource` so every recovery
epoch can re-pull committed stream bytes, and the delivered payload is
compared byte-for-byte against the source transcript
(:func:`~repro.soak.byte_identical`) no matter how many crashes
interrupted the transfer. The harness's own invariants are
:func:`bounded_recovery`, :func:`epoch_accounting` and
:func:`no_wedged_timers_on_live_epoch`.

Seeded determinism across restart epochs is asserted by the soak test
(two runs of the same seed must produce identical
:meth:`~repro.soak.SoakReport.fingerprint` values).

:func:`measure_recovery` is the benchmark probe behind the
``recovery_response`` catalog entry: the same transfer with and without
the crash timeline, yielding goodput retention (clean completion time /
crashed completion time), recovery-latency decomposition and the
checkpoint-size asymmetry (FMTCP O(1) frontier vs MPTCP chunk map).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator

from repro import soak
from repro.core.config import FmtcpConfig
from repro.experiments.runner import build_connection
from repro.faults.churn import churn_controller
from repro.faults.scenario import FaultScenario
from repro.recovery.manager import ReconnectPolicy, RecoveryManager
from repro.robustness.watchdog import WatchdogConfig
from repro.sim.rng import RngStreams
from repro.workloads.sources import RandomPayloadSource, ReplayableSource

#: The soak paths' one-way delay; the manager's hello handshake takes one
#: clean round trip of it.
_DELAY_S = 0.03
#: At soak bandwidths the bottleneck queue inflates RTOs to seconds, so
#: the consecutive-RTO ladder can lag a heartbeat-style timeout; a 2.5 s
#: detection ceiling keeps detection inside the presets' crash->restart
#: spacing. Fresh (post-handover) subflows still detect faster via the
#: RTO ladder.
_POLICY = ReconnectPolicy(max_detect_s=2.5)
#: Every resolvable outage must resume within this long of the restart.
_RECOVERY_BOUND_S = 8.0


def replayable_payload(expected_bytes: int, seed: int) -> ReplayableSource:
    """Real payload end to end — the byte-identity invariant needs actual
    data through the fountain encoder / DSS checksum machinery — that a
    recovery epoch can rewind to its sender checkpoint."""
    rng = RngStreams(seed).get("recovery:payload")
    return ReplayableSource(RandomPayloadSource(expected_bytes, rng=rng))


def _expected_completion(scenario: FaultScenario) -> bool:
    """Whether every crash in the timeline is eventually restarted."""
    down = 0
    for event in scenario.events:
        if event.kind in ("crash_sender", "crash_receiver"):
            down += 1
        elif event.kind == "restart":
            down = 0  # restart(None) revives every down endpoint
    return down == 0


def recovery_manager(run: soak.Run) -> None:
    """Step: the watchdog and the :class:`RecoveryManager` whose epoch
    builder rebuilds the connection through the one transfer builder."""
    report, scenario, source = run.report, run.scenario, run.source

    def rebuild(epoch: int, resume) -> Any:
        # Rewind the replayable source to the sender checkpoint (clamped —
        # a post-completion crash may checkpoint a frontier byte-offset
        # past the final short unit) and rebuild on whatever path set is
        # active *now*.
        source.rewind(min(resume.sender_byte_offset, source.granted_bytes))
        if run.controller is not None:
            active = sorted(run.controller._subflow_of_path)
        else:
            active = list(scenario.active_paths)
        run.connection = build_connection(
            report.protocol, run.sim, [run.paths[index] for index in active],
            source, report.seed, run.trace, config=run.config, sink=run.sink,
            epoch=epoch, resume=resume,
        )
        if run.controller is not None:
            run.controller.rebind(run.connection, active)
        return run.connection

    # The stall floor (6 s) sits above the presets' worst healthy outage
    # window (~3.5 s), so the stall ladder only fires on genuine wedges —
    # the manager escalates budget exhaustion itself through
    # :meth:`~repro.robustness.watchdog.Watchdog.fail`.
    soak.ride_watchdog(run, WatchdogConfig(min_stall_s=6.0))
    manager = run.manager = RecoveryManager(
        run.sim,
        run.connection,
        rebuild,
        RngStreams(report.seed),
        policy=_POLICY,
        trace=run.trace,
        watchdog=run.watchdog,
        hello_rtt_s=2.0 * _DELAY_S,
    )

    def collect() -> None:
        stats = manager.stats()
        report.crashes = manager.crashes
        report.resumes = manager.resumes
        report.attempts = manager.attempts_total
        report.epochs = manager.epoch
        report.recovery_state = manager.state
        report.outages = stats["outages"]
        report.max_outage_s = max(
            (outage.get("outage_s", 0.0) for outage in report.outages), default=0.0
        )
        report.checkpoint_bytes = stats["checkpoint_bytes"]

    run.starters.append(manager.start)
    run.collectors.append(collect)
    run.closers.append(manager.close)  # the manager's own timers must drain too


def bounded_recovery(run: soak.Run) -> Iterator[str]:
    """Every resolvable outage resumes within ``_RECOVERY_BOUND_S`` of the
    endpoint restart, and half-open detection stays within the policy's
    ``max_detect_s``."""
    bound = _RECOVERY_BOUND_S
    ceiling = _POLICY.max_detect_s
    for outage in run.report.outages:
        resume_at = outage.get("resume_at")
        if resume_at is not None:
            since = outage.get("restart_at", outage["crash_at"])
            if resume_at - since > bound:
                yield (
                    f"recovery exceeded bound: {outage['kind']} at "
                    f"t={outage['crash_at']:.1f}s resumed "
                    f"{resume_at - since:.2f}s after restart (bound {bound:.1f}s)"
                )
        detect_s = outage.get("detect_s")
        if detect_s is not None and detect_s > ceiling + 0.5:
            yield (
                f"half-open detection took {detect_s:.2f}s, past the "
                f"{ceiling:.1f}s policy ceiling"
            )


def epoch_accounting(run: soak.Run) -> Iterator[str]:
    """One resume per recovery epoch, attempts at least covering resumes,
    every applied crash either resumed or terminally failed."""
    report = run.report
    if report.epochs != report.resumes:
        yield f"epoch/resume mismatch: epoch {report.epochs}, resumes {report.resumes}"
    if report.expect_complete and report.resumes != report.crashes:
        yield (
            f"unresolved outage: {report.crashes} crashes but only "
            f"{report.resumes} resumes in a fully-restarted timeline"
        )
    if run.scenario.has_endpoint_faults and report.crashes == 0:
        yield "scenario has crash events but none were applied"
    if report.attempts < report.resumes:
        yield (
            f"attempt accounting broken: {report.attempts} attempts "
            f"for {report.resumes} resumes"
        )


def no_wedged_timers_on_live_epoch(run: soak.Run) -> Iterator[str]:
    """Only a live epoch owes armed timers — after a terminal give-up the
    manager has deliberately torn the connection down (timers cancelled,
    in-flight abandoned), which is the clean-fail contract, not a wedge."""
    if run.report.recovery_state == "running":
        yield from soak.wedged_timers(run.connection, "at end")


def _size(protocol: str, scenario: FaultScenario) -> soak.Sizing:
    """At two clean 250 kb/s paths the 600 kB transfer is mid-flight at
    the presets' first crash (t=8 s within a ~10 s clean completion), so
    every crash interrupts live state. It starts on the scenario's active
    paths and must complete exactly when every crash is restarted."""
    return soak.Sizing(
        soak.uniform_paths(scenario.n_paths, 2.5e5, _DELAY_S),
        total_bytes=600_000,
        duration_s=40.0,
        config=FmtcpConfig(coding="real") if protocol == "fmtcp" else None,
        active_paths=scenario.active_paths,
        expect_complete=_expected_completion(scenario),
    )


RECOVERY = soak.Harness(
    "recovery",
    replayable_payload,
    steps=(churn_controller, recovery_manager, soak.arm_timeline),
    invariants=(
        soak.byte_identical,
        soak.exactly_once_in_order,
        bounded_recovery,
        soak.outcome_as_promised,
        soak.completes_or_fails_cleanly,
        epoch_accounting,
        no_wedged_timers_on_live_epoch,
    ),
    size=_size,
)


# ----------------------------------------------------------------------
# Benchmark probe.
# ----------------------------------------------------------------------
def measure_recovery(
    protocol: str,
    scenario: FaultScenario,
    seed: int = 1,
    duration_s: float = 40.0,
) -> Dict[str, Any]:
    """Crash run vs clean baseline: retention, latency, checkpoint size.

    Goodput retention is the ratio of the clean completion time to the
    crashed completion time (1.0 = the crash cost nothing); recovery
    latency is decomposed into half-open detection and reconnect
    handshake per outage. ``checkpoint_bytes`` surfaces the paper's
    state asymmetry — FMTCP's O(1) frontier vs MPTCP's chunk map.
    """
    crashed = soak.run_soak(
        RECOVERY, protocol, scenario, seed=seed, duration_s=duration_s
    )
    # The one empty timeline a non-chaos harness admits (FaultScenario.route).
    baseline_scenario = FaultScenario(
        f"baseline:{scenario.name}",
        [],
        n_paths=scenario.n_paths,
        active_paths=scenario.active_paths,
    )
    baseline = soak.run_soak(
        RECOVERY, protocol, baseline_scenario, seed=seed, duration_s=duration_s
    )
    retention = 0.0
    if crashed.completion_time_s and baseline.completion_time_s:
        retention = baseline.completion_time_s / crashed.completion_time_s
    detect_values = [
        outage["detect_s"] for outage in crashed.outages if "detect_s" in outage
    ]
    return {
        "protocol": protocol,
        "scenario": scenario.name,
        "seed": seed,
        "baseline_completion_s": baseline.completion_time_s,
        "crashed_completion_s": crashed.completion_time_s,
        "goodput_retention": round(retention, 4),
        "crashes": crashed.crashes,
        "resumes": crashed.resumes,
        "max_outage_s": round(crashed.max_outage_s, 3),
        "mean_detect_s": (
            round(sum(detect_values) / len(detect_values), 3)
            if detect_values
            else None
        ),
        "checkpoint_bytes": crashed.checkpoint_bytes,
        "violations": len(crashed.violations) + len(baseline.violations),
    }
