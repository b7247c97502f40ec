"""Tests for the experiment harness (runner, catalog runs, ablations)."""

from pathlib import Path

import pytest

from repro.core.config import FmtcpConfig
from repro.experiments import catalog
from repro.experiments.catalog import CATALOG, Scale
from repro.experiments.runner import (
    PROTOCOLS,
    build_connection,
    build_topology,
    default_mptcp_config,
    run_transfer,
)
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs
from repro.workloads.sources import BulkSource
from tests.conftest import SHORT_SCALE

LEDGERS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
SIMULATED = [experiment for experiment in CATALOG if experiment.duration_s is not None]
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
# Catalog runs (a 2 s run each, shared through ``catalog_result``).
# ----------------------------------------------------------------------
def _entry(ledger):
    return next(experiment for experiment in CATALOG if experiment.ledger == ledger)


@pytest.mark.parametrize("experiment", SIMULATED, ids=lambda experiment: experiment.ledger)
def test_a_short_run_renders_as_many_lines_as_its_ledger(experiment, catalog_result):
    """Every grid point of every simulated entry still runs and prints."""
    lines = experiment.render(catalog_result(experiment), SHORT_SCALE)
    ledger = (LEDGERS / f"{experiment.ledger}.txt").read_text().splitlines()
    assert len(lines) == len(ledger)


def _count_transfers(monkeypatch):
    """The protocols of every ``run_transfer`` the catalog makes from now on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run_transfer(*args, **kwargs)

    monkeypatch.setattr(catalog, "run_transfer", counted)
    return calls


def test_table1_suite_runs_and_caches(monkeypatch):
    """Figs. 3, 5 and 6 read one Table I grid: 14 transfers per scale, as
    cases 3 and 7 are one operating point (100 ms / 10 %)."""
    calls = _count_transfers(monkeypatch)
    scale = Scale(1.0, seed=7)  # no other test runs this scale
    for experiment in (catalog.FIG3, catalog.FIG5, catalog.FIG6):
        experiment.run(scale)
    assert calls == ["fmtcp", "mptcp"] * 7


def test_figure7_reuses_the_table1_grids_case_4(monkeypatch):
    calls = _count_transfers(monkeypatch)
    scale = Scale(1.0, seed=11)  # no other test runs this scale
    catalog.FIG3.run(scale)
    stats = catalog.FIG7.run(scale)
    assert len(calls) == 14
    assert set(stats) == {"fmtcp", "mptcp"}


def test_a_transfer_is_shared_by_value_unless_its_paths_keep_state(monkeypatch):
    calls = _count_transfers(monkeypatch)
    scale = Scale(1.0, seed=13)  # no other test runs this scale
    first = catalog._case("fmtcp", 4, scale, scale.seed)
    # An explicit default config is the same input as none.
    assert catalog._case("fmtcp", 4, scale, scale.seed, fmtcp_config=FmtcpConfig()) is first
    catalog._case("fmtcp", 4, scale, scale.seed + 1)
    catalog._case("mptcp", 4, scale, scale.seed)
    surge = catalog.figure4(0.35)
    surge.run(scale)
    surge.run(scale)
    assert calls == ["fmtcp", "fmtcp", "mptcp"] + ["fmtcp", "mptcp"] * 2


def test_figure3_rows_structure(catalog_result):
    rows = catalog_result(catalog.FIG3)
    assert len(rows) == 8
    assert {"case", "fmtcp_goodput_mb", "mptcp_goodput_mb", "ratio"} <= set(rows[0])


def test_figure5_and_6_share_suite_with_fig3(catalog_result):
    rows5 = catalog_result(catalog.FIG5)
    rows6 = catalog_result(catalog.FIG6)
    assert len(rows5) == len(rows6) == 8
    assert all(row["fmtcp_block_delay_ms"] > 0 for row in rows5)
    assert all(row["fmtcp_jitter_ms"] >= 0 for row in rows6)


def test_figure4_series(catalog_result):
    result = catalog_result(_entry("fig4_surge_35"))
    assert set(result["series"]) == {"fmtcp", "mptcp"}
    assert [row["phase"] for row in result["phases"]] == ["before", "during", "after"]


def test_figure7_series(catalog_result):
    stats = catalog_result(catalog.FIG7)
    assert set(stats) == {"fmtcp", "mptcp"}
    assert 0 < stats["fmtcp"]["blocks"] <= 1000
    assert stats["fmtcp"]["mean"] > 0


# ----------------------------------------------------------------------
# Ablations.
# ----------------------------------------------------------------------
def _names(rows):
    return [row["name"] for row in rows]


def test_ablate_allocation_modes(catalog_result):
    assert _names(catalog_result(catalog.ABLATION_ALLOCATION)) == [
        f"case{case}/{mode}" for case in (4, 5) for mode in ("eat", "greedy", "stopwait")
    ]


def test_ablate_delta_hat():
    results = {
        delta: run_transfer(
            "fmtcp", table1_path_configs(TABLE1_CASES[3]), duration_s=FAST, seed=5,
            fmtcp_config=FmtcpConfig(delta_hat=delta),
        )
        for delta in (1e-2, 1e-4)
    }
    # Stricter delta sends more redundancy.
    assert (
        results[1e-4].extras["redundancy_ratio"]
        > results[1e-2].extras["redundancy_ratio"]
    )


def test_ablate_block_size(catalog_result):
    assert _names(catalog_result(catalog.ABLATION_BLOCK_SIZE)) == [
        "k=64", "k=128", "k=256", "k=512"
    ]


def test_ablate_congestion_coupling(catalog_result):
    assert _names(catalog_result(catalog.ABLATION_CONGESTION)) == ["reno", "lia"]


def test_ablate_mptcp_scheduler(catalog_result):
    assert _names(catalog_result(catalog.ABLATION_MPTCP_SCHEDULER)) == [
        "minrtt", "roundrobin", "minrtt+reinject", "minrtt+orp"
    ]
