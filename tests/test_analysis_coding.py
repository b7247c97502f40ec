"""Tests for the Section III-B closed forms (Eqs. 3-7)."""

import pytest

from repro.analysis.coding import (
    chernoff_no_retransmission_bound,
    expected_packets_delivered,
    fixed_rate_packets_to_send,
    fountain_expected_symbols_bound,
    fountain_expected_symbols_exact,
    simulate_fixed_rate_delivery,
    simulate_fountain_delivery,
)


# ----------------------------------------------------------------------
# Eq. (3)-(5).
# ----------------------------------------------------------------------
def test_expected_packets_delivered_eq3():
    assert expected_packets_delivered(100, 0.0) == pytest.approx(100.0)
    assert expected_packets_delivered(100, 0.5) == pytest.approx(200.0)


def test_fixed_rate_budget_eq4():
    assert fixed_rate_packets_to_send(90, 0.1) == pytest.approx(100.0)


def test_expected_actual_delivered_eq5():
    # a = A/(1-p1); E = (1-p2) a = (1-p2)/(1-p1) A
    # E(X_R) = (1 - p2) a, a the packets the sender sends for A.
    assert (1.0 - 0.2) * fixed_rate_packets_to_send(100, 0.1) == pytest.approx(
        (0.8 / 0.9) * 100
    )


def test_underestimated_loss_delivers_fewer_than_needed():
    assert (1.0 - 0.20) * fixed_rate_packets_to_send(100, 0.05) < 100


# ----------------------------------------------------------------------
# Eq. (6): Chernoff bound.
# ----------------------------------------------------------------------
def test_chernoff_formula_value():
    import math

    p1, p2, block = 0.05, 0.15, 100
    expected = math.exp(-((p2 - p1) ** 2) * block / (3 * (1 - p1) * (1 - p2)))
    assert chernoff_no_retransmission_bound(block, p1, p2) == pytest.approx(expected)


def test_chernoff_trivial_when_loss_not_underestimated():
    assert chernoff_no_retransmission_bound(100, 0.2, 0.1) == 1.0
    assert chernoff_no_retransmission_bound(100, 0.2, 0.2) == 1.0


def test_chernoff_decays_with_block_size():
    small = chernoff_no_retransmission_bound(50, 0.05, 0.15)
    large = chernoff_no_retransmission_bound(500, 0.05, 0.15)
    assert large < small


def test_chernoff_upper_bounds_empirical_probability():
    """The bound must hold: empirical P(no retx) <= Chernoff bound."""
    for p1, p2, block in ((0.05, 0.15, 100), (0.1, 0.2, 200), (0.0, 0.1, 50)):
        bound = chernoff_no_retransmission_bound(block, p1, p2)
        empirical = simulate_fixed_rate_delivery(block, p1, p2, trials=1500)
        assert empirical <= bound + 0.02


def test_fixed_rate_succeeds_when_loss_overestimated():
    # Budgeting for 20% loss on a 5% path: success nearly certain.
    empirical = simulate_fixed_rate_delivery(100, 0.20, 0.05, trials=500)
    assert empirical > 0.99


# ----------------------------------------------------------------------
# Eq. (7): fountain expected symbols.
# ----------------------------------------------------------------------
def test_fountain_bound_formula():
    assert fountain_expected_symbols_bound(256, 0.2) == pytest.approx(260 / 0.8)


def test_fountain_exact_below_bound():
    for k in (8, 64, 256):
        for p in (0.0, 0.1, 0.3):
            assert fountain_expected_symbols_exact(k, p) <= (
                fountain_expected_symbols_bound(k, p)
            )


def test_fountain_empirical_matches_exact():
    for p in (0.0, 0.2):
        exact = fountain_expected_symbols_exact(64, p)
        empirical = simulate_fountain_delivery(64, p, trials=400)
        assert empirical == pytest.approx(exact, rel=0.05)


def test_fountain_overhead_constant_in_block_size():
    """Eq. (7)'s point: overhead beyond k/(1-p) stays O(1) as k grows."""
    for k in (16, 64, 256):
        extra = fountain_expected_symbols_exact(k, 0.0) - k
        assert extra < 4.0  # the paper bounds it by 4


# ----------------------------------------------------------------------
# Validation.
# ----------------------------------------------------------------------
def test_loss_rate_validation():
    with pytest.raises(ValueError):
        expected_packets_delivered(10, 1.0)
    with pytest.raises(ValueError):
        fountain_expected_symbols_bound(10, -0.1)
    with pytest.raises(ValueError):
        expected_packets_delivered(0, 0.1)
