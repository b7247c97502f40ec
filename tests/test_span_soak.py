"""Conservation soak: across 30 seeds x {FMTCP, MPTCP}, every delivered
block's stage durations sum exactly to its end-to-end delay (the
acceptance invariant of the span layer), stages are non-negative, and
span collection never leaves a block half-finished."""

import os

import pytest

from repro.experiments.runner import run_transfer
from repro.telemetry import TelemetryConfig
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs
from tests.conftest import soak_seeds

SEEDS = soak_seeds()
# Case 2 (100ms/5%) keeps both loss recovery and reordering in play.
CASE = next(c for c in TABLE1_CASES if c.case_id == 2)
DURATION_S = 1.5 if os.environ.get("REPRO_FAST") else 2.5


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_conservation_invariant_across_seeds(protocol):
    failures = []
    total_finished = 0
    for seed in SEEDS:
        result = run_transfer(
            protocol,
            table1_path_configs(CASE),
            duration_s=DURATION_S,
            seed=seed,
            telemetry=TelemetryConfig(spans=True),
        )
        report = result.telemetry.spans
        total_finished += report["finished"]
        if report["finished"] == 0:
            failures.append(f"seed {seed}: no finished spans")
        if report["incomplete"] != 0:
            failures.append(
                f"seed {seed}: {report['incomplete']} spans delivered "
                f"with missing edges"
            )
        if report["max_conservation_error_s"] > 1e-9:
            failures.append(
                f"seed {seed}: conservation error "
                f"{report['max_conservation_error_s']:.3e}s"
            )
        if report["min_stage_s"] < -1e-12:
            failures.append(
                f"seed {seed}: negative stage duration "
                f"{report['min_stage_s']:.3e}s (edges out of order)"
            )
    assert not failures, f"{protocol}: " + "; ".join(failures)
    assert total_finished > 0
