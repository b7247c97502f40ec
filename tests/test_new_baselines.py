"""Tests for the second-wave additions: the conventional-TCP comparator
in the harness, the HMTP-like stop-and-wait mode and the loss×buffer
heatmap."""

import pytest

from repro.core.config import FmtcpConfig
from repro.experiments.catalog import HEATMAP, glyph, render_heatmap
from repro.experiments.runner import run_transfer
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs


# ----------------------------------------------------------------------
# protocol="tcp" in the harness.
# ----------------------------------------------------------------------
def test_tcp_protocol_runs_single_best_path():
    result = run_transfer(
        "tcp", table1_path_configs(TABLE1_CASES[3]), duration_s=6.0, seed=1
    )
    assert result.protocol == "tcp"
    assert len(result.subflow_stats) == 1  # one path only
    assert result.summary["total_mbytes"] > 0
    assert "chunks_retransmitted" in result.extras


def test_tcp_picks_the_clean_path():
    """The single-TCP comparator must ride subflow 1 (0 % loss)."""
    result = run_transfer(
        "tcp", table1_path_configs(TABLE1_CASES[3]), duration_s=10.0, seed=1
    )
    assert result.extras["chunks_retransmitted"] == 0
    assert result.subflow_stats[0]["lost_dupack"] == 0


def test_papers_opening_claim_mptcp_worse_than_tcp():
    """Section I: MPTCP can be worse than ordinary TCP (case 4)."""
    tcp = run_transfer(
        "tcp", table1_path_configs(TABLE1_CASES[3]), duration_s=20.0, seed=1
    )
    mptcp = run_transfer(
        "mptcp", table1_path_configs(TABLE1_CASES[3]), duration_s=20.0, seed=1
    )
    assert mptcp.summary["total_mbytes"] < tcp.summary["total_mbytes"]


def test_fmtcp_aggregates_above_tcp_on_good_paths():
    tcp = run_transfer(
        "tcp", table1_path_configs(TABLE1_CASES[0]), duration_s=20.0, seed=1
    )
    fmtcp = run_transfer(
        "fmtcp", table1_path_configs(TABLE1_CASES[0]), duration_s=20.0, seed=1
    )
    assert fmtcp.summary["total_mbytes"] > tcp.summary["total_mbytes"]


# ----------------------------------------------------------------------
# Stop-and-wait (HMTP-like) allocation.
# ----------------------------------------------------------------------
def test_stopwait_mode_accepted_and_runs():
    config = FmtcpConfig(allocation="stopwait")
    result = run_transfer(
        "fmtcp",
        table1_path_configs(TABLE1_CASES[3]),
        duration_s=6.0,
        seed=1,
        fmtcp_config=config,
    )
    assert result.extras["blocks_decoded"] > 0


def test_stopwait_wastes_bandwidth_vs_eat():
    """The paper's Section II criticism of HMTP, quantified."""
    results = {
        mode: run_transfer(
            "fmtcp", table1_path_configs(TABLE1_CASES[3]), duration_s=10.0, seed=1,
            fmtcp_config=FmtcpConfig(allocation=mode),
        )
        for mode in ("eat", "stopwait")
    }
    assert (
        results["stopwait"].extras["redundancy_ratio"]
        > 3 * results["eat"].extras["redundancy_ratio"]
    )
    assert (
        results["eat"].summary["goodput_mbytes_per_s"]
        > 2 * results["stopwait"].summary["goodput_mbytes_per_s"]
    )


def test_unknown_allocation_mode_rejected():
    with pytest.raises(ValueError):
        FmtcpConfig(allocation="psychic")


# ----------------------------------------------------------------------
# Heatmap.
# ----------------------------------------------------------------------
def test_heatmap_grid_complete(catalog_result):
    ratios = catalog_result(HEATMAP)
    assert len(ratios) == 9  # 3 loss rates x 3 buffer budgets
    assert all(ratio > 0 for ratio in ratios.values())


def test_heatmap_render_shape():
    lines = render_heatmap({(0.1, 8): 0.95, (0.1, 16): 2.5})
    assert len(lines) == 3  # legend + header + one row
    assert "##" in lines[2] and "- " in lines[2]


def test_heatmap_glyph_buckets():
    assert glyph(0.5) == "--"
    assert glyph(1.05) == "≈ "
    assert glyph(1.2) == "+ "
    assert glyph(3.0) == "##"
