"""Chaos soak: both protocols through dozens of seeded fault sequences.

Every run must satisfy the four robustness invariants checked by
:data:`repro.faults.chaos.CHAOS`:

1. exactly-once, in-order delivery to the application sink;
2. no wedged RTO timers (data in flight always has a timer pending);
3. the event queue drains once the transfer completes and closes;
4. goodput recovers after the last fault heals (the transfer finishes).

The random scenarios are seeded and fully deterministic, so a failure
here reproduces exactly from the seed named in the assertion message.

Set ``REPRO_FLIGHT_DIR`` to a directory to get a flight-recorder dump
(last trace records before the violation) plus a sim-profiler report for
every failing run — CI does this and uploads them as artifacts.
``REPRO_FAST=1`` runs a single seed (``tests.conftest.soak_seeds``).
"""

import os

import pytest

from repro.faults import FaultScenario, presets, resolve_scenario
from repro.faults.scenario import FaultEvent
from repro.faults.chaos import CHAOS
from repro.soak import run_soak
from tests.conftest import soak_seeds

CHAOS_SEEDS = soak_seeds()
FLIGHT_DIR = os.environ.get("REPRO_FLIGHT_DIR") or None


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_chaos_soak_randomized_scenarios(protocol):
    """30 distinct seeded fault sequences per protocol, zero violations."""
    failures = []
    for seed in CHAOS_SEEDS:
        scenario = FaultScenario.random(seed)
        report = run_soak(CHAOS, protocol, scenario, seed=seed, flight_dump_dir=FLIGHT_DIR)
        if not report.ok:
            detail = f"seed {seed}: {report.violations}"
            if report.flight_dump_path:
                detail += f" [flight dump: {report.flight_dump_path}]"
            failures.append(detail)
    assert not failures, f"{protocol} chaos violations:\n" + "\n".join(failures)


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
@pytest.mark.parametrize("name", sorted(presets("chaos")))
def test_chaos_preset_scenarios(protocol, name):
    report = run_soak(
        CHAOS,
        protocol, resolve_scenario(name), flight_dump_dir=FLIGHT_DIR
    )
    assert report.ok, f"{name}/{protocol}: {report.violations}"
    assert report.completed
    # The fault window bit: the transfer was still running when the
    # faults hit (otherwise the scenario exercised nothing).
    assert report.bytes_at_heal < report.expected_bytes or name in (
        "queue_saturation",
        "reorder_storm",
        "delay_spike",
    )


def test_chaos_report_shape():
    report = run_soak(CHAOS, "fmtcp", resolve_scenario("path_death"))
    assert report.protocol == "fmtcp"
    assert report.scenario_name == "path_death"
    assert report.expected_bytes > 0
    assert report.delivered_bytes == report.expected_bytes
    assert report.completion_time_s is not None
    assert report.ok and not report.violations


def test_chaos_flags_unhealed_scenario_as_incomplete():
    """A scenario that never heals the only paths must show violations —
    the harness detects the stall rather than masking it."""
    scenario = FaultScenario(
        "both_dead",
        [FaultEvent(2.0, "down", 0), FaultEvent(2.0, "down", 1)],
    )
    report = run_soak(CHAOS, "fmtcp", scenario, duration_s=20.0)
    assert not report.completed
    assert any("incomplete" in violation for violation in report.violations)
