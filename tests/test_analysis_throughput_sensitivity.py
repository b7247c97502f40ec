"""Tests for the PFTK throughput model and the sensitivity sweeps."""

import pytest

from repro.analysis.throughput import (
    pftk_throughput_pps,
    predicted_aggregate_goodput_bps,
    subflow_goodput_bps,
)
from repro.experiments.catalog import (
    SENSITIVITY_BANDWIDTH,
    SENSITIVITY_DELAY,
    SENSITIVITY_LOSS,
    Scale,
)
from repro.experiments.runner import run_transfer
from repro.net.topology import PathConfig


# ----------------------------------------------------------------------
# PFTK model.
# ----------------------------------------------------------------------
def test_pftk_lossless_is_unbounded():
    assert pftk_throughput_pps(0.1, 0.2, 0.0) == float("inf")


def test_pftk_decreases_with_loss():
    rates = [pftk_throughput_pps(0.2, 0.4, loss) for loss in (0.01, 0.05, 0.1, 0.3)]
    assert rates == sorted(rates, reverse=True)


def test_pftk_decreases_with_rtt():
    assert pftk_throughput_pps(0.1, 0.4, 0.05) > pftk_throughput_pps(0.4, 0.8, 0.05)


def test_pftk_inverse_sqrt_regime():
    """At small p (fast-retransmit regime) T ~ (1/rtt)·sqrt(3/2p)."""
    rtt, p = 0.2, 0.005
    approx = (1.0 / rtt) * (1.0 / (2 * p / 3) ** 0.5)
    full = pftk_throughput_pps(rtt, 0.4, p)
    assert full == pytest.approx(approx, rel=0.30)  # timeout term is small


def test_pftk_validation():
    with pytest.raises(ValueError):
        pftk_throughput_pps(0.0, 0.2, 0.1)
    with pytest.raises(ValueError):
        pftk_throughput_pps(0.1, 0.2, 1.0)


def test_subflow_goodput_capped_by_bandwidth():
    clean = PathConfig(bandwidth_bps=4e6, delay_s=0.1, loss_rate=0.0)
    assert subflow_goodput_bps(clean) == pytest.approx(4e6)
    lossy = PathConfig(bandwidth_bps=4e6, delay_s=0.1, loss_rate=0.15)
    assert subflow_goodput_bps(lossy) < 4e6


def test_aggregate_prediction_shapes():
    configs = [
        PathConfig(bandwidth_bps=4e6, delay_s=0.1, loss_rate=0.0),
        PathConfig(bandwidth_bps=4e6, delay_s=0.1, loss_rate=0.15),
    ]
    fmtcp = predicted_aggregate_goodput_bps(configs, "fmtcp")
    mptcp = predicted_aggregate_goodput_bps(configs, "mptcp")
    # The closed form charges FMTCP its redundancy and MPTCP nothing
    # (it is an upper bound ignoring HoL blocking).
    assert fmtcp < mptcp
    assert fmtcp > 4e6 / 1.1  # dominated by the clean path


def test_aggregate_prediction_validation():
    with pytest.raises(ValueError):
        predicted_aggregate_goodput_bps([PathConfig()], "sctp")


# ----------------------------------------------------------------------
# Sensitivity sweeps (smoke scale).
# ----------------------------------------------------------------------
def test_sweep_loss_advantage_monotone_trend():
    advantage = []
    for loss in (0.0, 0.15):
        goodput = {
            protocol: run_transfer(
                protocol,
                [
                    PathConfig(bandwidth_bps=4e6, delay_s=0.100, loss_rate=0.0),
                    PathConfig(bandwidth_bps=4e6, delay_s=0.100, loss_rate=loss),
                ],
                duration_s=6.0,
            ).summary["goodput_mbytes_per_s"]
            for protocol in ("fmtcp", "mptcp")
        }
        advantage.append(goodput["fmtcp"] / goodput["mptcp"])
    assert advantage[1] > advantage[0]


def test_sweep_bandwidth_runs(catalog_result):
    rows = catalog_result(SENSITIVITY_BANDWIDTH)
    assert [row["label"] for row in rows] == ["bw=1Mbps", "bw=2Mbps", "bw=4Mbps", "bw=8Mbps"]
    assert all(row["fmtcp_total_mbytes"] > 0 for row in rows)


def test_sweep_delay_asymmetry_runs(catalog_result):
    rows = catalog_result(SENSITIVITY_DELAY)
    assert len(rows) == 6
    for row in rows:
        assert row["fmtcp_pftk"] > 0


@pytest.mark.parametrize("experiment", [SENSITIVITY_LOSS, SENSITIVITY_DELAY],
                         ids=lambda experiment: experiment.ledger)
def test_loss_and_delay_sweeps_run_at_the_scales_bandwidth(experiment):
    """Both paths of every point run at ``--bandwidth``: at 1 Mbit/s no
    point is predicted, or measured, above the two paths' 2 Mbit/s."""
    rows = experiment.run(Scale(1.0, bandwidth_bps=1e6, seed=5))
    assert all(row["fmtcp_pftk"] <= 2e6 for row in rows)
    assert all(row["fmtcp_goodput_mbps"] <= 2.0 for row in rows)
