"""Unit tests for MPTCP subflow schedulers."""

import pytest

from repro.mptcp.scheduler import (
    MinRttScheduler,
    RoundRobinScheduler,
    make_scheduler,
)


class FakeSubflow:
    def __init__(self, subflow_id, srtt, window_space=1):
        self.subflow_id = subflow_id
        self.srtt = srtt
        self.window_space = window_space
        self.usable = True


def reserved(scheduler, flows):
    """Subflow id → the window space preferred subflows claim first."""
    return {flow.subflow_id: scheduler.reserved_ahead(flow, flows) for flow in flows}


def test_minrtt_orders_by_srtt():
    flows = [FakeSubflow(0, 0.3), FakeSubflow(1, 0.1), FakeSubflow(2, 0.2)]
    # One unit each: a subflow's reservation counts the faster ones.
    assert reserved(MinRttScheduler(), flows) == {1: 0, 2: 1, 0: 2}


def test_minrtt_tie_breaks_by_id():
    flows = [FakeSubflow(1, 0.1), FakeSubflow(0, 0.1)]
    assert reserved(MinRttScheduler(), flows) == {0: 0, 1: 1}


def test_minrtt_prefers_best_flow_with_space():
    fast = FakeSubflow(0, 0.1, window_space=0)
    slow = FakeSubflow(1, 0.5, window_space=2)
    # Fast flow has no space, so it reserves nothing ahead of the slow one.
    assert reserved(MinRttScheduler(), [fast, slow]) == {0: 0, 1: 0}


def test_roundrobin_rotates():
    flows = [FakeSubflow(0, 0.1), FakeSubflow(1, 0.9)]
    scheduler = RoundRobinScheduler()
    first = scheduler.preference_order(flows)[0].subflow_id
    second = scheduler.preference_order(flows)[0].subflow_id
    third = scheduler.preference_order(flows)[0].subflow_id
    assert first != second
    assert first == third


def test_roundrobin_ignores_rtt():
    flows = [FakeSubflow(0, 9.9), FakeSubflow(1, 0.001)]
    scheduler = RoundRobinScheduler()
    firsts = {scheduler.preference_order(flows)[0].subflow_id for __ in range(4)}
    assert firsts == {0, 1}


def test_factory():
    assert isinstance(make_scheduler("minrtt"), MinRttScheduler)
    assert isinstance(make_scheduler("roundrobin"), RoundRobinScheduler)
    with pytest.raises(ValueError):
        make_scheduler("blest")
