"""Unit tests for congestion controllers."""

import pytest

from repro.tcp import congestion
from repro.tcp.congestion import (
    LiaCoupledController,
    LiaGroup,
    RenoController,
    make_controller,
)


def with_window(cc, cwnd, ssthresh=congestion.INITIAL_SSTHRESH):
    """``cc`` with its window and ssthresh set as a test starts it."""
    cc.cwnd = cwnd
    cc.ssthresh = ssthresh
    return cc


# ----------------------------------------------------------------------
# Reno.
# ----------------------------------------------------------------------
def test_slow_start_doubles_per_window():
    cc = RenoController()
    assert cc.cwnd == congestion.INITIAL_CWND == 2.0
    for __ in range(2):
        cc.on_ack()
    assert cc.cwnd == pytest.approx(4.0)


def test_congestion_avoidance_linear_growth():
    cc = with_window(RenoController(), 10.0, 10.0)
    assert not cc.in_slow_start()
    start = cc.cwnd
    for __ in range(10):  # one full window of ACKs -> +~1 packet
        cc.on_ack()
    assert cc.cwnd == pytest.approx(start + 1.0, rel=0.05)


def test_fast_loss_halves_window():
    cc = with_window(RenoController(), 16.0, 8.0)
    cc.cwnd = 20.0
    cc.on_fast_loss()
    assert cc.cwnd == pytest.approx(10.0)
    assert cc.ssthresh == pytest.approx(10.0)
    assert cc.fast_recoveries == 1


def test_timeout_collapses_to_one():
    cc = with_window(RenoController(), 16.0)
    cc.cwnd = 20.0
    cc.on_timeout()
    assert cc.cwnd == pytest.approx(1.0)
    assert cc.ssthresh == pytest.approx(10.0)
    assert cc.timeouts == 1


def test_window_floor_is_one_packet():
    cc = with_window(RenoController(), 1.0)
    cc.on_timeout()
    assert cc.window == 1
    assert cc.can_send(0)
    assert not cc.can_send(1)


def test_ssthresh_floor_is_two():
    cc = with_window(RenoController(), 1.0)
    cc.on_fast_loss()
    assert cc.ssthresh == pytest.approx(2.0)


def test_max_cwnd_cap(monkeypatch):
    monkeypatch.setattr(congestion, "MAX_CWND", 5.0)
    cc = with_window(RenoController(), 2.0, 100.0)
    for __ in range(20):
        cc.on_ack()
    assert cc.cwnd == pytest.approx(5.0)


def test_slow_start_exits_at_ssthresh():
    cc = with_window(RenoController(), 2.0, 4.0)
    assert cc.in_slow_start()
    cc.on_ack()
    cc.on_ack()
    assert not cc.in_slow_start()


# ----------------------------------------------------------------------
# LIA.
# ----------------------------------------------------------------------
def make_lia_pair(rtt_a=0.1, rtt_b=0.1):
    group = LiaGroup()
    a = with_window(LiaCoupledController(group, lambda: rtt_a), 10.0)
    b = with_window(LiaCoupledController(group, lambda: rtt_b), 10.0)
    a.ssthresh = b.ssthresh = 1.0  # force congestion avoidance
    return group, a, b


def test_lia_alpha_equal_paths():
    group, a, b = make_lia_pair()
    # Symmetric case: alpha = total * (w/rtt^2) / (2w/rtt)^2 = total/(4w) = 0.5
    assert group.alpha() == pytest.approx(0.5)


def test_lia_increase_capped_by_uncoupled_reno():
    group, a, b = make_lia_pair()
    before = a.cwnd
    a.on_ack()
    increase = a.cwnd - before
    assert increase <= 1.0 / before + 1e-12


def test_lia_total_less_aggressive_than_two_renos():
    group, a, b = make_lia_pair()
    for __ in range(100):
        a.on_ack()
        b.on_ack()
    lia_growth = (a.cwnd - 10.0) + (b.cwnd - 10.0)
    reno = with_window(RenoController(), 10.0, 1.0)
    for __ in range(100):
        reno.on_ack()
    assert lia_growth < 2 * (reno.cwnd - 10.0)


def test_lia_loss_reactions_match_reno_shape():
    group, a, b = make_lia_pair()
    a.cwnd = 12.0
    a.on_fast_loss()
    assert a.cwnd == pytest.approx(6.0)
    a.on_timeout()
    assert a.cwnd == pytest.approx(1.0)


def test_lia_slow_start_like_reno():
    group = LiaGroup()
    cc = with_window(LiaCoupledController(group, lambda: 0.1), 2.0)
    cc.on_ack()
    assert cc.cwnd == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Factory.
# ----------------------------------------------------------------------
def test_make_controller_reno():
    assert isinstance(make_controller("reno"), RenoController)


def test_make_controller_lia_requires_group():
    with pytest.raises(ValueError):
        make_controller("lia")


def test_make_controller_unknown_kind():
    with pytest.raises(ValueError):
        make_controller("cubic")
