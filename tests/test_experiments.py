"""Tests for the experiment harness (runner, figure runners, ablations)."""

import pytest

from repro.core.config import FmtcpConfig
from repro.experiments.ablations import (
    ablate_allocation,
    ablate_block_size,
    ablate_congestion_coupling,
    ablate_delta_hat,
    ablate_mptcp_scheduler,
)
from repro.experiments.figures import (
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_table1_suite,
)
from repro.experiments.runner import (
    PROTOCOLS,
    build_connection,
    build_topology,
    default_mptcp_config,
    run_transfer,
)
from repro.net.topology import PathConfig
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs
from repro.workloads.sources import BulkSource

FAST = 4.0  # seconds of simulated time for smoke runs
PATHS = lambda: table1_path_configs(TABLE1_CASES[2])  # noqa: E731


# ----------------------------------------------------------------------
# run_transfer.
# ----------------------------------------------------------------------
def test_run_transfer_fmtcp_smoke():
    result = run_transfer("fmtcp", PATHS(), duration_s=FAST, seed=5)
    assert result.protocol == "fmtcp"
    assert result.summary["total_mbytes"] > 0
    assert result.extras["blocks_decoded"] > 0
    assert len(result.subflow_stats) == 2


def test_run_transfer_mptcp_smoke():
    result = run_transfer("mptcp", PATHS(), duration_s=FAST, seed=5)
    assert result.summary["total_mbytes"] > 0
    assert "chunks_retransmitted" in result.extras


def test_run_transfer_unknown_protocol():
    with pytest.raises(ValueError, match="sctp"):
        run_transfer("sctp", PATHS(), duration_s=FAST)


def test_build_connection_covers_every_protocol_and_names_a_bad_input():
    """One builder for all four transports: ``"tcp"`` is conventional TCP
    over exactly one path, ``config=None`` each protocol's own default."""
    trace, network, paths = build_topology(PATHS(), seed=1)
    for protocol in PROTOCOLS:
        connection = build_connection(
            protocol, network.sim, paths[:1] if protocol == "tcp" else paths,
            BulkSource(10_000), 1, trace,
        )
        assert len(connection.subflows) == (1 if protocol == "tcp" else 2)
        connection.close()
    with pytest.raises(ValueError, match="sctp"):
        build_connection("sctp", network.sim, paths, BulkSource(), 1, trace)
    with pytest.raises(ValueError, match="got 2"):
        build_connection("tcp", network.sim, paths, BulkSource(), 1, trace)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), 0.0, -3.0])
def test_run_transfer_rejects_a_run_length_not_finite_and_positive(duration):
    """NaN and inf never return on a backlogged source and a negative
    length yields an all-empty result (the source is finite so that a
    regression fails rather than hangs)."""
    with pytest.raises(ValueError, match="duration_s"):
        run_transfer(
            "mptcp", PATHS(), duration_s=duration, source=BulkSource(10_000)
        )


def test_run_transfer_deterministic_per_seed():
    a = run_transfer("fmtcp", PATHS(), duration_s=FAST, seed=3)
    b = run_transfer("fmtcp", PATHS(), duration_s=FAST, seed=3)
    assert a.summary == b.summary
    assert a.block_delays == b.block_delays


def test_run_transfer_series_collection():
    result = run_transfer(
        "mptcp", PATHS(), duration_s=FAST, seed=5, collect_series=True, bin_width_s=1.0
    )
    assert len(result.goodput_series) == int(FAST)


def test_default_mptcp_config_matches_fmtcp_budget():
    fmtcp = FmtcpConfig()
    mptcp = default_mptcp_config(fmtcp)
    assert mptcp.block_bytes == fmtcp.block_bytes
    budget = fmtcp.block_bytes * fmtcp.max_pending_blocks
    assert mptcp.recv_buffer_chunks == pytest.approx(budget // fmtcp.mss, abs=1)


# ----------------------------------------------------------------------
# Figure runners (tiny durations).
# ----------------------------------------------------------------------
def test_table1_suite_runs_and_caches():
    suite1 = run_table1_suite(duration_s=FAST, seed=5, cases=TABLE1_CASES[:2])
    suite2 = run_table1_suite(duration_s=FAST, seed=5, cases=TABLE1_CASES[:2])
    assert suite1 is suite2  # memoised
    assert set(suite1.results) == {"fmtcp", "mptcp"}
    assert len(suite1.results["fmtcp"]) == 2
    case_result = suite1.case_result("fmtcp", TABLE1_CASES[0].case_id)
    assert case_result.protocol == "fmtcp"


def test_figure3_rows_structure():
    rows = run_figure3(duration_s=FAST, seed=5)
    assert len(rows) == 8
    assert {"case", "fmtcp_goodput_mb", "mptcp_goodput_mb", "ratio"} <= set(rows[0])


def test_figure5_and_6_share_suite_with_fig3():
    rows5 = run_figure5(duration_s=FAST, seed=5)
    rows6 = run_figure6(duration_s=FAST, seed=5)
    assert len(rows5) == len(rows6) == 8
    assert all(row["fmtcp_block_delay_ms"] > 0 for row in rows5)
    assert all(row["fmtcp_jitter_ms"] >= 0 for row in rows6)


def test_figure4_series():
    results = run_figure4(
        0.30, duration_s=30.0, surge_start_s=10.0, surge_end_s=20.0, seed=5,
        bin_width_s=5.0,
    )
    assert set(results) == {"fmtcp", "mptcp"}
    assert len(results["fmtcp"].goodput_series) == 6


def test_figure7_series():
    series = run_figure7(duration_s=FAST, seed=5, max_blocks=100)
    assert set(series) == {"fmtcp", "mptcp"}
    assert len(series["fmtcp"]) <= 100
    assert all(delay > 0 for delay in series["fmtcp"])


# ----------------------------------------------------------------------
# Ablations (smoke).
# ----------------------------------------------------------------------
def test_ablate_allocation_modes():
    results = ablate_allocation(duration_s=FAST, seed=5)
    assert set(results) == {"eat", "greedy", "stopwait"}


def test_ablate_delta_hat():
    results = ablate_delta_hat(deltas=[1e-2, 1e-4], duration_s=FAST, seed=5)
    assert set(results) == {1e-2, 1e-4}
    # Stricter delta sends more redundancy.
    assert (
        results[1e-4].extras["redundancy_ratio"]
        > results[1e-2].extras["redundancy_ratio"]
    )


def test_ablate_block_size():
    results = ablate_block_size(ks=[64, 256], duration_s=FAST, seed=5)
    assert set(results) == {64, 256}


def test_ablate_congestion_coupling():
    results = ablate_congestion_coupling(duration_s=FAST, seed=5)
    assert set(results) == {"reno", "lia"}


def test_ablate_mptcp_scheduler():
    results = ablate_mptcp_scheduler(duration_s=FAST, seed=5)
    assert set(results) == {"minrtt", "roundrobin", "minrtt+reinject", "minrtt+orp"}
