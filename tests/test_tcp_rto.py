"""Unit tests for the RFC 6298 RTO estimator."""

import pytest

from repro.tcp import rto
from repro.tcp.rto import RtoEstimator


@pytest.fixture
def no_floor(monkeypatch):
    """The RTO floor out of the way, so the RFC 6298 recursion shows."""
    monkeypatch.setattr(rto, "MIN_RTO", 1e-9)


def test_initial_rto_before_any_sample():
    estimator = RtoEstimator()
    assert estimator.rto == pytest.approx(rto.INITIAL_RTO) == pytest.approx(1.0)
    assert estimator.srtt is None


def test_first_sample_initialises_srtt_and_rttvar(no_floor):
    estimator = RtoEstimator()
    estimator.on_measurement(0.2)
    assert estimator.srtt == pytest.approx(0.2)
    assert estimator.rttvar == pytest.approx(0.1)
    assert estimator.rto == pytest.approx(0.2 + 4 * 0.1)


def test_ewma_recursion_matches_rfc(no_floor):
    estimator = RtoEstimator()
    estimator.on_measurement(0.2)
    estimator.on_measurement(0.3)
    # RFC 6298: rttvar' = 3/4*0.1 + 1/4*|0.2-0.3|; srtt' = 7/8*0.2 + 1/8*0.3
    assert estimator.rttvar == pytest.approx(0.75 * 0.1 + 0.25 * 0.1)
    assert estimator.srtt == pytest.approx(0.875 * 0.2 + 0.125 * 0.3)


def test_constant_rtt_converges_to_min_rto_floor():
    estimator = RtoEstimator()
    for __ in range(200):
        estimator.on_measurement(0.05)
    # rttvar decays toward 0 -> rto would go to ~srtt, clamped to min.
    assert estimator.rto == pytest.approx(0.2)


def test_backoff_doubles_and_clamps(monkeypatch):
    monkeypatch.setattr(rto, "MAX_RTO", 2.0)
    estimator = RtoEstimator()
    estimator.on_measurement(0.1)
    base = estimator.rto
    estimator.on_timeout()
    assert estimator.rto == pytest.approx(min(base * 2, 2.0))
    for __ in range(10):
        estimator.on_timeout()
    assert estimator.rto == pytest.approx(2.0)


def test_measurement_resets_backoff():
    estimator = RtoEstimator()
    estimator.on_measurement(0.3)
    before = estimator.rto
    estimator.on_timeout()
    assert estimator.rto > before
    estimator.on_measurement(0.3)
    # Back-off factor cleared; rto returns to the (slightly decayed) base.
    assert estimator.rto <= before


def test_reset_backoff_explicit():
    estimator = RtoEstimator()
    estimator.on_measurement(0.3)
    base = estimator.rto
    estimator.on_timeout()
    estimator.reset_backoff()
    assert estimator.rto == pytest.approx(base)


def test_non_positive_rtt_rejected():
    estimator = RtoEstimator()
    with pytest.raises(ValueError):
        estimator.on_measurement(0.0)


def test_sample_counter():
    estimator = RtoEstimator()
    for __ in range(3):
        estimator.on_measurement(0.1)
    assert estimator.samples == 3
