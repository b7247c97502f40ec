"""Unit and property tests for RT/EDT/SEDT/EAT estimators (Defs. 5-8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import (
    PathEstimate,
    eat,
    eat_table,
    edt_for_flows,
    expected_rt,
    rank_paths_by_sedt,
    sedt,
)

NAN = float("nan")


def estimate(subflow_id=0, rtt=0.2, rto=0.4, loss=0.0, window_space=1, tau=0.0):
    return PathEstimate(
        subflow_id=subflow_id,
        rtt=rtt,
        rto=rto,
        loss=loss,
        window_space=window_space,
        tau=tau,
    )


# ----------------------------------------------------------------------
# Eq. (10): RT.
# ----------------------------------------------------------------------
def test_rt_lossless_equals_rtt():
    assert expected_rt(0.2, 0.0, 1.0) == pytest.approx(0.2)


def test_rt_blends_rtt_and_rto():
    assert expected_rt(0.2, 0.25, 1.0) == pytest.approx(0.75 * 0.2 + 0.25 * 1.0)


# ----------------------------------------------------------------------
# Eq. (13): SEDT.
# ----------------------------------------------------------------------
def test_sedt_lossless_is_half_rtt():
    assert sedt(0.2, 0.0, 1.0) == pytest.approx(0.1)


def test_sedt_formula():
    # p/(1-p)*R + r/2 with p=0.2, R=0.5, r=0.2
    assert sedt(0.2, 0.2, 0.5) == pytest.approx(0.25 * 0.5 + 0.1)


def test_sedt_grows_with_loss():
    assert sedt(0.2, 0.3, 0.5) > sedt(0.2, 0.1, 0.5)


# ----------------------------------------------------------------------
# EDT with best-flow repair (Lemma 1's recursion).
# ----------------------------------------------------------------------
def test_edt_best_flow_equals_its_sedt():
    flows = [
        estimate(0, rtt=0.1, rto=0.2, loss=0.0),
        estimate(1, rtt=0.4, rto=0.8, loss=0.2),
    ]
    edts = edt_for_flows(flows)
    assert edts[0] == pytest.approx(sedt(0.1, 0.0, 0.2))


def test_edt_inferior_flow_repairs_on_best():
    flows = [
        estimate(0, rtt=0.1, rto=0.2, loss=0.0),
        estimate(1, rtt=0.4, rto=0.8, loss=0.2),
    ]
    edts = edt_for_flows(flows)
    best = sedt(0.1, 0.0, 0.2)
    expected = 0.8 * 0.2 + 0.2 * (0.8 + best)
    assert edts[1] == pytest.approx(expected)


def test_edt_single_flow():
    flows = [estimate(0, rtt=0.2, rto=0.4, loss=0.1)]
    assert edt_for_flows(flows)[0] == pytest.approx(sedt(0.2, 0.1, 0.4))


def test_edt_empty_rejected():
    with pytest.raises(ValueError):
        edt_for_flows([])


# ----------------------------------------------------------------------
# Eq. (11): EAT.
# ----------------------------------------------------------------------
def test_eat_with_window_space_equals_edt():
    flow = estimate(window_space=3)
    assert eat(flow, edt=0.15) == pytest.approx(0.15)


def test_eat_window_full_adds_rt_minus_tau():
    flow = estimate(rtt=0.2, rto=0.4, loss=0.0, window_space=0, tau=0.05)
    assert eat(flow, edt=0.1) == pytest.approx(0.1 + 0.2 - 0.05)


def test_eat_clamped_at_zero():
    flow = estimate(rtt=0.2, rto=0.4, loss=0.0, window_space=0, tau=10.0)
    assert eat(flow, edt=0.1) == 0.0


def test_eat_virtual_queue_consumes_window_then_waits():
    flow = estimate(rtt=0.2, rto=0.4, loss=0.0, window_space=2, tau=0.0)
    assert eat(flow, edt=0.1, virtual_queue=0) == pytest.approx(0.1)
    assert eat(flow, edt=0.1, virtual_queue=1) == pytest.approx(0.1)
    # Third packet exceeds the window: one expected response time of wait.
    assert eat(flow, edt=0.1, virtual_queue=2) == pytest.approx(0.1 + 0.2)
    # Each further packet waits one more RT.
    assert eat(flow, edt=0.1, virtual_queue=3) == pytest.approx(0.1 + 0.4)


def test_eat_virtual_queue_is_monotone():
    flow = estimate(rtt=0.2, rto=0.4, loss=0.05, window_space=2, tau=0.0)
    values = [eat(flow, edt=0.1, virtual_queue=q) for q in range(8)]
    assert values == sorted(values)


def test_eat_table_initial():
    flows = [
        estimate(0, rtt=0.1, window_space=1),
        estimate(1, rtt=0.5, window_space=0, tau=0.0),
    ]
    table = eat_table(flows)
    assert table[0] == pytest.approx(0.05)
    assert table[1] > table[0]


# ----------------------------------------------------------------------
# Theorem 2's ordering and validation.
# ----------------------------------------------------------------------
def test_rank_paths_by_sedt():
    flows = [
        estimate(0, rtt=0.4, loss=0.1, rto=0.8),
        estimate(1, rtt=0.1, loss=0.0, rto=0.2),
        estimate(2, rtt=0.2, loss=0.05, rto=0.4),
    ]
    assert rank_paths_by_sedt(flows) == [1, 2, 0]


def test_path_estimate_validation():
    with pytest.raises(ValueError):
        estimate(loss=1.0)
    with pytest.raises(ValueError):
        estimate(rtt=-0.1)
    with pytest.raises(ValueError):
        estimate(rto=-0.1)
    with pytest.raises(ValueError):
        estimate(loss=-0.01)


@pytest.mark.parametrize("rtt, rto", [(NAN, 0.4), (0.2, NAN), (NAN, NAN)])
def test_path_estimate_rejects_nan_rtt_and_rto(rtt, rto):
    """A NaN EAT loses every ``<`` of the argmin, so row 0 would win
    silently; ``rtt < 0`` is False for NaN and used to let it in."""
    with pytest.raises(ValueError, match="rtt and rto"):
        PathEstimate(0, rtt, rto, 0.0, 1, 0.0)


def test_path_estimate_is_an_immutable_record_on_every_construction_path():
    flow = estimate(subflow_id=3, loss=0.1)
    with pytest.raises(AttributeError):
        flow.loss = 0.2
    assert flow._replace(loss=0.2).loss == 0.2 and flow.loss == 0.1
    with pytest.raises(ValueError):
        flow._replace(loss=1.0)
    with pytest.raises(ValueError):
        PathEstimate._make((3, -1.0, 0.4, 0.1, 1, 0.0))
    assert flow == estimate(subflow_id=3, loss=0.1)


def test_edt_best_flow_ties_go_to_the_lower_id_in_any_order():
    twins = [estimate(2, loss=0.1), estimate(1, loss=0.1), estimate(5, loss=0.3)]
    for flows in (twins, twins[::-1]):
        edts = edt_for_flows(flows)
        best = sedt(0.2, 0.1, 0.4)
        assert edts[1] == best  # the best flow's EDT is its SEDT, exactly
        assert edts[2] == 0.9 * 0.2 / 2.0 + 0.1 * (0.4 + best)
        assert edts[5] == 0.7 * 0.2 / 2.0 + 0.3 * (0.4 + best)


@settings(max_examples=60, deadline=None)
@given(
    rtt=st.floats(min_value=0.001, max_value=2.0),
    loss=st.floats(min_value=0.0, max_value=0.9),
    rto_factor=st.floats(min_value=1.0, max_value=10.0),
)
def test_property_sedt_at_least_half_rtt(rtt, loss, rto_factor):
    assert sedt(rtt, loss, rtt * rto_factor) >= rtt / 2 - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    rtt1=st.floats(min_value=0.01, max_value=1.0),
    rtt2=st.floats(min_value=0.01, max_value=1.0),
    loss1=st.floats(min_value=0.0, max_value=0.5),
    loss2=st.floats(min_value=0.0, max_value=0.5),
)
def test_property_edt_of_best_flow_is_minimum(rtt1, rtt2, loss1, loss2):
    """The best flow's EDT never exceeds any flow's EDT (Theorem 2 spirit)."""
    flows = [
        estimate(0, rtt=rtt1, rto=2 * rtt1, loss=loss1),
        estimate(1, rtt=rtt2, rto=2 * rtt2, loss=loss2),
    ]
    edts = edt_for_flows(flows)
    sedts = {0: sedt(rtt1, loss1, 2 * rtt1), 1: sedt(rtt2, loss2, 2 * rtt2)}
    best = min(sedts, key=lambda sf: (sedts[sf], sf))
    assert edts[best] <= min(edts.values()) + 1e-12
