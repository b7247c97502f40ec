"""Recovery soak: both protocols through every crash preset, many seeds.

Every run must satisfy the invariants checked by
:func:`repro.recovery.run_recovery`:

1. byte-identical final delivery despite K crashes (the delivered stream
   is a prefix of — and on completion equal to — the source transcript);
2. exactly-once, in-order delivery (stale-checkpoint re-sends deduped);
3. bounded recovery time per outage, detection within the policy ceiling;
4. scenarios whose crashes all restart complete; the never-restarted one
   fails cleanly through the watchdog and must *not* quietly succeed;
5. epoch/attempt accounting (one resume per epoch, crashes resolved);
6. no wedged timers on the live epoch, event queue drains.

Seeded and fully deterministic: a failure reproduces exactly from the
seed named in the assertion message, and same-seed runs are asserted to
produce identical fingerprints across restart epochs. Set
``REPRO_FLIGHT_DIR`` for flight-recorder dumps of failing runs (CI
uploads them as artifacts); ``REPRO_FAST=1`` runs a single seed per
preset.
"""

import os

import pytest

from repro.faults import RECOVERY_SCENARIOS, FaultScenario
from repro.recovery import run_recovery
from tests.conftest import soak_seeds

SOAK_SEEDS = soak_seeds()
FLIGHT_DIR = os.environ.get("REPRO_FLIGHT_DIR") or None


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
@pytest.mark.parametrize("name", sorted(RECOVERY_SCENARIOS))
def test_recovery_soak_presets(protocol, name):
    """30 seeds per preset per protocol, zero violations."""
    failures = []
    for seed in SOAK_SEEDS:
        report = run_recovery(
            protocol,
            RECOVERY_SCENARIOS[name](),
            seed=seed,
            flight_dump_dir=FLIGHT_DIR,
        )
        if not report.ok:
            detail = f"seed {seed}: {report.violations}"
            if report.flight_dump_path:
                detail += f" [flight dump: {report.flight_dump_path}]"
            failures.append(detail)
    assert not failures, (
        f"{name}/{protocol} recovery violations:\n" + "\n".join(failures)
    )


def test_recovery_report_shape():
    report = run_recovery("fmtcp", RECOVERY_SCENARIOS["receiver_crash"]())
    assert report.protocol == "fmtcp"
    assert report.scenario_name == "receiver_crash"
    assert report.completed and report.completion_time_s is not None
    assert report.expect_complete
    assert report.crashes == 1 and report.resumes == 1 and report.epochs == 1
    assert report.attempts >= report.resumes
    assert report.recovery_state == "running"
    assert report.checkpoint_bytes > 0
    assert len(report.outages) == 1
    outage = report.outages[0]
    assert outage["kind"] == "crash_receiver"
    assert 0 < outage["detect_s"] <= 3.0
    assert outage["resume_at"] > outage["restart_at"]
    assert report.max_outage_s == pytest.approx(outage["outage_s"])
    assert report.ok and not report.violations


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_reconnect_exhaustion_fails_cleanly(protocol):
    """A receiver that never restarts ends in a clean watchdog failure
    carrying the manager's reason — not a hang, not a quiet success."""
    report = run_recovery(protocol, RECOVERY_SCENARIOS["reconnect_exhaustion"]())
    assert report.ok, report.violations
    assert not report.completed and not report.expect_complete
    assert report.recovery_state == "failed"
    assert report.resumes == 0
    assert report.watchdog_failed
    assert "budget exhausted" in report.fail_reason
    diagnosis = report.diagnosis
    assert diagnosis is not None
    assert diagnosis["fail_reason"] == report.fail_reason


@pytest.mark.parametrize("name", ["crash_storm", "reconnect_exhaustion"])
def test_recovery_is_deterministic_across_restart_epochs(name):
    """Same seed -> identical payload CRC, timings and attempt counts,
    even through multiple crash/restart epochs (per-epoch RNG streams)."""
    first = run_recovery("fmtcp", RECOVERY_SCENARIOS[name](), seed=11)
    second = run_recovery("fmtcp", RECOVERY_SCENARIOS[name](), seed=11)
    assert first.ok and second.ok
    assert first.fingerprint() == second.fingerprint()
    assert first.outages == second.outages


def test_crash_storm_survives_repeated_crashes():
    report = run_recovery("fmtcp", RECOVERY_SCENARIOS["crash_storm"]())
    assert report.ok, report.violations
    assert report.completed
    assert report.crashes == 3 and report.resumes == 3 and report.epochs == 3


def test_recovery_post_mortem_dump(tmp_path):
    """A violating run with a flight dir leaves a post-mortem JSONL."""
    from repro.sim.tracefile import read_trace_file

    # Force a violation: a bound no real recovery can meet.
    report = run_recovery(
        "mptcp",
        RECOVERY_SCENARIOS["receiver_crash"](),
        flight_dump_dir=str(tmp_path),
        recovery_bound_s=0.001,
    )
    assert not report.ok
    assert report.flight_dump_path is not None
    records = read_trace_file(report.flight_dump_path)
    assert records[0]["kind"] == "flight.meta"
    assert records[0]["violations"]


def test_rejects_unknown_protocol_and_non_crash_scenarios():
    with pytest.raises(ValueError):
        run_recovery("sctp", RECOVERY_SCENARIOS["receiver_crash"]())
    with pytest.raises(ValueError, match="endpoint"):
        run_recovery("fmtcp", FaultScenario.named("link_flap"))
