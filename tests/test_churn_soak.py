"""Churn soak: both protocols through every mobility preset, many seeds.

Every run must satisfy the churn invariants checked by
:func:`repro.faults.run_churn`:

1. exactly-once, in-order delivery across every subflow removal;
2. no wedged RTO timers on the surviving subflows;
3. completion on the surviving paths (a permanent ``path_down`` degrades
   capacity, never correctness);
4. goodput back within a bounded window of the last ``path_up`` /
   handover settle (unless the transfer already finished);
5. the event queue drains after completion and close (a removed subflow
   must not leak timers).

Seeded and fully deterministic: a failure reproduces exactly from the
seed named in the assertion message. Set ``REPRO_FLIGHT_DIR`` for a
flight-recorder dump + profiler report of every failing run (CI uploads
them as artifacts); ``REPRO_FAST=1`` runs a single seed per preset.
"""

import os

import pytest

from repro.faults import MOBILITY_SCENARIOS, FaultScenario, run_chaos, run_churn
from tests.conftest import soak_seeds

CHURN_SEEDS = soak_seeds()
FLIGHT_DIR = os.environ.get("REPRO_FLIGHT_DIR") or None


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
@pytest.mark.parametrize("name", sorted(MOBILITY_SCENARIOS))
def test_churn_soak_mobility_presets(protocol, name):
    """30 seeds per preset per protocol, zero violations."""
    failures = []
    for seed in CHURN_SEEDS:
        report = run_churn(
            protocol,
            FaultScenario.named(name),
            seed=seed,
            flight_dump_dir=FLIGHT_DIR,
        )
        if not report.ok:
            detail = f"seed {seed}: {report.violations}"
            if report.flight_dump_path:
                detail += f" [flight dump: {report.flight_dump_path}]"
            failures.append(detail)
    assert not failures, f"{name}/{protocol} churn violations:\n" + "\n".join(failures)


def test_churn_report_shape():
    report = run_churn("mptcp", FaultScenario.named("wifi_to_lte_handover"))
    assert report.protocol == "mptcp"
    assert report.scenario_name == "wifi_to_lte_handover"
    assert report.completed and report.completion_time_s is not None
    assert report.handovers == 1
    assert report.path_downs == 1 and report.path_ups == 1
    assert report.pre_churn_mbps > 0  # handover implies a re-add check
    assert report.ok and not report.violations


def test_permanent_removal_counts_no_readds():
    report = run_churn("fmtcp", FaultScenario.named("single_path_degradation"))
    assert report.ok
    assert report.path_downs == 1
    assert report.path_ups == 0 and report.handovers == 0


def test_harness_routing_is_enforced():
    """Churn scenarios cannot run through the link-fault harness and
    vice versa — silently using the wrong invariants would mask bugs."""
    churn = FaultScenario.named("flaky_path_churn")
    with pytest.raises(ValueError):
        run_chaos("fmtcp", churn)
    with pytest.raises(ValueError):
        run_churn("fmtcp", FaultScenario.named("path_death"))
