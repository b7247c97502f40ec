"""Exhaustion soak: both protocols through every resource preset, many seeds.

Every run must satisfy the bounded-operation invariants checked by
:func:`repro.robustness.run_exhaustion`:

1. peak receiver occupancy never exceeds the budgeted unit count (the
   flow-control licence actually held);
2. exactly-once, in-order delivery;
3. no deadlock — the transfer completes or the watchdog fails it
   cleanly *with* a structured diagnosis;
4. scenarios that promise completion complete, and the unrecoverable
   one (application stopped reading) must *not* quietly succeed;
5. no wedged RTO timers, and the event queue drains after completion.

Seeded and fully deterministic: a failure reproduces exactly from the
seed named in the assertion message. Set ``REPRO_FLIGHT_DIR`` for a
flight-recorder dump (plus the watchdog post-mortem) of every failing
run — CI uploads them as artifacts; ``REPRO_FAST=1`` runs a single
seed per preset.
"""

import os

import pytest

from repro.robustness import EXHAUSTION_SCENARIOS, run_exhaustion
from tests.conftest import soak_seeds

SOAK_SEEDS = soak_seeds()
FLIGHT_DIR = os.environ.get("REPRO_FLIGHT_DIR") or None


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
@pytest.mark.parametrize("name", sorted(EXHAUSTION_SCENARIOS))
def test_exhaustion_soak_presets(protocol, name):
    """30 seeds per preset per protocol, zero violations."""
    failures = []
    for seed in SOAK_SEEDS:
        report = run_exhaustion(
            protocol,
            EXHAUSTION_SCENARIOS[name](),
            seed=seed,
            flight_dump_dir=FLIGHT_DIR,
        )
        if not report.ok:
            detail = f"seed {seed}: {report.violations}"
            if report.flight_dump_path:
                detail += f" [flight dump: {report.flight_dump_path}]"
            failures.append(detail)
    assert not failures, (
        f"{name}/{protocol} exhaustion violations:\n" + "\n".join(failures)
    )


def test_exhaustion_report_shape():
    report = run_exhaustion(
        "fmtcp", EXHAUSTION_SCENARIOS["tiny_receive_buffer"]()
    )
    assert report.protocol == "fmtcp"
    assert report.scenario_name == "tiny_receive_buffer"
    assert report.completed and report.completion_time_s is not None
    assert not report.watchdog_failed
    assert 0 < report.peak_occupancy <= report.budget_units
    assert report.memory_peaks["recv_occupancy"] == report.peak_occupancy
    assert report.flow["enabled"]
    assert report.ok and not report.violations


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_slow_drain_fails_cleanly_with_diagnosis(protocol):
    """An app that stops reading ends in a watchdog failure, not a hang."""
    report = run_exhaustion(
        protocol, EXHAUSTION_SCENARIOS["slow_drain_receiver"]()
    )
    assert report.ok, report.violations
    assert not report.completed
    assert report.watchdog_failed
    assert report.watchdog_escalation == 3  # shed -> boost -> fail
    diagnosis = report.diagnosis
    assert diagnosis is not None
    assert diagnosis["delivered_bytes"] == report.delivered_bytes
    assert diagnosis["memory"]["recv_occupancy"] > 0
    assert diagnosis["flow"]["enabled"]
    assert diagnosis["subflows"], "diagnosis must describe the subflows"


def test_watchdog_post_mortem_dump(tmp_path):
    """A clean failure with a flight dir leaves a post-mortem JSONL."""
    from repro.sim.tracefile import read_trace_file

    report = run_exhaustion(
        "mptcp",
        EXHAUSTION_SCENARIOS["slow_drain_receiver"](),
        flight_dump_dir=str(tmp_path),
    )
    assert report.ok, report.violations
    assert report.watchdog_dump_path is not None
    records = read_trace_file(report.watchdog_dump_path)
    assert records[0]["kind"] == "flight.meta"
    assert records[0]["reason"] == "watchdog_failed"
    kinds = {record["kind"] for record in records}
    assert "watchdog.failed" in kinds


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        run_exhaustion("sctp", EXHAUSTION_SCENARIOS["tiny_receive_buffer"]())
