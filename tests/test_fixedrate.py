"""Tests for the fixed-rate FEC baseline (the Section III-B strawman)."""

import pytest

from repro.experiments.runner import run_transfer
from repro.fixedrate import FixedRateConfig, FixedRateConnection
from repro.metrics.collectors import MetricsSuite
from repro.net.topology import build_two_path_network
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs
from repro.workloads.sources import BulkSource
from tests.conftest import make_two_path
from tests.test_failure_injection import blackout_configs


def run_fixed(configs=None, loss2=0.0, duration=20.0, config=None, seed=7,
              delivered=None):
    """Run one fixed-rate transfer; ``delivered`` collects the in-order
    block ids the trace reports."""
    if configs is not None:
        trace = TraceBus()
        network, paths = build_two_path_network(
            configs, rng=RngStreams(seed), trace=trace
        )
    else:
        network, paths, trace = make_two_path(loss2=loss2, seed=seed)
    metrics = MetricsSuite(trace, bin_width_s=1.0)
    if delivered is not None:
        trace.subscribe("conn.delivered", lambda record: delivered.append(record["block_id"]))
    connection = FixedRateConnection(
        network.sim, paths, BulkSource(), config=config or FixedRateConfig(), trace=trace,
    )
    connection.start()
    network.sim.run(until=duration)
    return connection, metrics


# ----------------------------------------------------------------------
# Config.
# ----------------------------------------------------------------------
def test_code_symbols_follows_eq4():
    network, paths, trace = make_two_path()
    config = FixedRateConfig(symbols_per_block=100, estimated_loss=0.2)
    connection = FixedRateConnection(
        network.sim, paths, BulkSource(), config=config, trace=trace
    )
    connection._replenish()
    assert connection._pending[0].n == 125  # ceil(100 / 0.8)


def test_config_validation():
    with pytest.raises(ValueError):
        FixedRateConfig(estimated_loss=1.0)
    with pytest.raises(ValueError):
        FixedRateConfig(symbols_per_block=0)


# ----------------------------------------------------------------------
# Behaviour.
# ----------------------------------------------------------------------
def test_clean_paths_deliver_blocks_in_order():
    delivered = []
    connection, metrics = run_fixed(
        duration=10.0, delivered=delivered
    )
    assert delivered == list(range(len(delivered)))
    assert len(delivered) > 50
    assert connection.symbols_retransmitted == 0


def test_lossy_path_triggers_retransmissions_and_still_completes():
    connection, metrics = run_fixed(loss2=0.15, duration=20.0)
    assert connection.symbols_retransmitted > 0
    assert connection._deliver_next > 100


def test_redundancy_grows_with_estimated_loss():
    redundancies = []
    for p_hat in (0.0, 0.15, 0.30):
        connection, __ = run_fixed(
            configs=table1_path_configs(TABLE1_CASES[3]),
            duration=12.0,
            config=FixedRateConfig(estimated_loss=p_hat),
        )
        redundancies.append(connection.redundancy_ratio())
    assert redundancies == sorted(redundancies)
    assert redundancies[-1] > 1.25


def test_gbn_resends_the_outstanding_tail():
    """A loss re-sends what is outstanding behind it on that subflow too:
    duplicates Go-Back-N spends on symbols that would have arrived."""
    connection, __ = run_fixed(configs=table1_path_configs(TABLE1_CASES[3]), duration=15.0)
    assert connection.gbn_duplicates > 0
    assert connection.symbols_retransmitted > connection.gbn_duplicates


def test_same_path_repair_stalls_through_blackout():
    """The paper's 'fixed-rate coding constrains the transmission for a
    block over the same path' — during a blackout of path 2 the repairs
    are pinned to the dead path and delivery stops entirely, unlike FMTCP
    (see test_failure_injection)."""
    connection, metrics = run_fixed(
        configs=blackout_configs(), duration=30.0, seed=3
    )
    series = dict(metrics.goodput.series(30.0))
    stalled = sum(rate for t, rate in series.items() if 13.0 <= t < 20.0)
    assert stalled == pytest.approx(0.0)
    before = sum(rate for t, rate in series.items() if 4.0 <= t < 10.0)
    assert before > 1.0


def test_harness_protocol_fixedrate():
    result = run_transfer(
        "fixedrate", table1_path_configs(TABLE1_CASES[3]), duration_s=6.0, seed=1
    )
    assert result.protocol == "fixedrate"
    assert result.extras["blocks_decoded"] > 0
    assert "redundancy_ratio" in result.extras


def test_fixedrate_goodput_close_to_fmtcp_on_stationary_loss():
    """On stationary Bernoulli loss with good detection, fixed-rate MDS is
    competitive — the differences appear under non-stationarity (tested
    above) and parameter misestimation (the p̂ sweep)."""
    fixed = run_transfer(
        "fixedrate", table1_path_configs(TABLE1_CASES[3]), duration_s=15.0, seed=1
    )
    fmtcp = run_transfer(
        "fmtcp", table1_path_configs(TABLE1_CASES[3]), duration_s=15.0, seed=1
    )
    ratio = fixed.summary["goodput_mbytes_per_s"] / fmtcp.summary["goodput_mbytes_per_s"]
    assert 0.8 < ratio <= 1.05


def test_empty_paths_rejected():
    from repro.sim.engine import Simulator

    with pytest.raises(ValueError):
        FixedRateConnection(Simulator(), [], BulkSource())
