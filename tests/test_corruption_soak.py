"""Corruption soak: both protocols through every corruption preset, with
byte-verified delivery.

Every run must satisfy the chaos invariants *plus* the integrity ones
checked by :data:`repro.faults.corruption.CORRUPTION`:

5. zero corrupted bytes delivered (reassembled stream == source
   transcript, byte for byte);
6. when the wire corrupted packets, at least one integrity defense
   (CRC discard / DSS checksum reject / decoder quarantine) fired.

Runs are deterministic per seed; a failure reproduces exactly from the
seed named in the assertion message. Set ``REPRO_FLIGHT_DIR`` for
flight-recorder dumps of failing runs (CI uploads them as artifacts);
set ``REPRO_FAST=1`` to run a single seed per preset.
"""

import os

import pytest

from repro.faults import presets, resolve_scenario
from repro.faults.chaos import CHAOS
from repro.faults.churn import CHURN
from repro.faults.corruption import CORRUPTION
from repro.soak import run_soak
from tests.conftest import soak_seeds

SOAK_SEEDS = soak_seeds()
SOAK_PRESETS = ("bit_rot", "corruption_burst", "truncation_storm")
FLIGHT_DIR = os.environ.get("REPRO_FLIGHT_DIR") or None


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
@pytest.mark.parametrize("name", SOAK_PRESETS)
def test_corruption_soak(protocol, name):
    """30 seeds per preset per protocol, zero violations."""
    failures = []
    for seed in SOAK_SEEDS:
        report = run_soak(
            CORRUPTION,
            protocol, resolve_scenario(name), seed=seed,
            flight_dump_dir=FLIGHT_DIR,
        )
        if not report.ok:
            detail = f"seed {seed}: {report.violations}"
            if report.flight_dump_path:
                detail += f" [flight dump: {report.flight_dump_path}]"
            failures.append(detail)
    assert not failures, (
        f"{protocol}/{name} corruption violations:\n" + "\n".join(failures)
    )


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
@pytest.mark.parametrize("name", sorted(presets("corruption")))
def test_corruption_presets_complete_with_defenses_firing(protocol, name):
    report = run_soak(
        CORRUPTION,
        protocol, resolve_scenario(name), seed=2, flight_dump_dir=FLIGHT_DIR
    )
    assert report.ok, f"{name}/{protocol}: {report.violations}"
    assert report.completed
    # The transfer was still running when corruption began and the wire
    # actually damaged packets, so the run was not vacuous.
    scenario = presets("corruption")[name]()
    assert report.completion_time_s > scenario.fault_start
    assert report.packets_corrupted > 0
    assert sum(report.corruption_stats.values()) > 0


def test_corruption_report_shape():
    report = run_soak(CORRUPTION, "fmtcp", resolve_scenario("bit_rot"))
    assert report.protocol == "fmtcp"
    assert report.scenario_name == "bit_rot"
    assert report.expected_bytes > 0
    assert report.delivered_bytes == report.expected_bytes
    assert report.completion_time_s is not None
    assert set(report.corruption_stats) >= {
        "packets_discarded_corrupt",
        "acks_discarded_corrupt",
    }


# ----------------------------------------------------------------------
# Harness routing: each scenario family goes to the harness that can
# actually check its invariants.
# ----------------------------------------------------------------------
def test_run_chaos_rejects_corruption_scenarios():
    with pytest.raises(ValueError, match="corruption"):
        run_soak(CHAOS, "fmtcp", resolve_scenario("bit_rot"))


def test_run_churn_rejects_corruption_free_routing():
    with pytest.raises(ValueError):
        run_soak(CHURN, "fmtcp", resolve_scenario("bit_rot"))


def test_run_corruption_rejects_plain_fault_scenarios():
    with pytest.raises(ValueError, match="no corruption"):
        run_soak(CORRUPTION, "fmtcp", resolve_scenario("path_death"))


def test_run_corruption_rejects_unknown_protocol():
    with pytest.raises(ValueError, match="protocol"):
        run_soak(CORRUPTION, "sctp", resolve_scenario("bit_rot"))
