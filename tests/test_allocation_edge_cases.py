"""Additional edge cases for Algorithm 1 and the estimators."""

import math

import pytest

from repro.core.allocation import (
    AllocationError,
    allocate_packet,
    allocate_packet_greedy,
    allocate_packet_reference,
)
from repro.core.blocks import PendingBlock
from repro.core.estimators import PathEstimate, eat, eat_table, edt_for_flows
from tests.test_core_allocation import (
    MARGIN,
    MSS,
    WIRE,
    allocate,
    make_blocks,
    make_estimates,
    total_symbols,
)


def test_single_flow_allocation_is_greedy_equivalent():
    """With one subflow, EAT allocation degenerates to greedy fill."""
    blocks = make_blocks(4)
    estimates = make_estimates([{}])
    eat_result = allocate(0, estimates, blocks, fn=allocate_packet)
    greedy_result = allocate(0, estimates, blocks, fn=allocate_packet_greedy)
    assert eat_result.vector == greedy_result.vector


def test_tiny_mss_one_symbol_packets():
    blocks = make_blocks(2)
    estimates = make_estimates([{}])
    result = allocate_packet(
        pending_subflow_id=0,
        estimates=estimates,
        blocks=blocks,
        loss_rate_of=lambda sf: 0.0,
        mss=WIRE,  # exactly one symbol fits
        symbol_wire_size=WIRE,
        margin=MARGIN,
    )
    assert total_symbols(result) == 1
    assert result.vector[0][0] == 0


def test_partial_blocks_with_small_k():
    """Blocks with k=1 (the trailing-data case) allocate sanely."""
    blocks = make_blocks(3, k=1)
    estimates = make_estimates([{}])
    result = allocate(0, estimates, blocks)
    # Each k=1 block needs 1 + margin expected symbols.
    needed_per_block = math.ceil(1 + MARGIN)
    assert result.vector[0][1] == needed_per_block


def test_many_flows_tie_breaking_deterministic():
    blocks = make_blocks(6)
    estimates = make_estimates([{}, {}, {}, {}])  # identical flows
    a = allocate(2, estimates, blocks)
    b = allocate(2, estimates, blocks)
    assert a.vector == b.vector
    assert a.iterations == b.iterations


def test_zero_window_everywhere_still_returns_vector():
    """Even with all windows full, the pending flow eventually wins the
    virtual ordering (EATs grow by RT per virtual packet)."""
    blocks = make_blocks(8)
    estimates = make_estimates(
        [{"window_space": 0, "tau": 0.05}, {"window_space": 0, "tau": 0.01}]
    )
    result = allocate(1, estimates, blocks)
    # Must terminate and produce something or nothing — never hang/raise.
    assert result.iterations >= 1


def test_reference_and_fast_agree_on_pathological_spread():
    blocks = make_blocks(5, k=8)
    for index, block in enumerate(blocks):
        block.k_bar = index * 3  # staircase of partial completion
    estimates = make_estimates(
        [{"rtt": 0.01}, {"rtt": 1.0, "loss": 0.4, "window_space": 1}]
    )
    fast = allocate(1, estimates, blocks, fn=allocate_packet)
    reference = allocate(1, estimates, blocks, fn=allocate_packet_reference)
    assert fast.vector == reference.vector


# ----------------------------------------------------------------------
# Estimator corner cases.
# ----------------------------------------------------------------------
def test_eat_table_empty_rejected():
    with pytest.raises(ValueError):
        eat_table([])


def test_edt_with_equal_sedt_ties_on_id():
    flows = [
        PathEstimate(subflow_id=1, rtt=0.2, rto=0.4, loss=0.0, window_space=1, tau=0.0),
        PathEstimate(subflow_id=0, rtt=0.2, rto=0.4, loss=0.0, window_space=1, tau=0.0),
    ]
    edts = edt_for_flows(flows)
    # Tie → lower id is "best"; both equal numerically anyway.
    assert edts[0] == pytest.approx(edts[1])


def test_eat_zero_rtt_flow():
    flow = PathEstimate(
        subflow_id=0, rtt=0.0, rto=0.2, loss=0.0, window_space=0, tau=0.0
    )
    # Degenerate RTT=0: EAT = edt + RT (=0) - tau, clamped at >= 0.
    assert eat(flow, edt=0.0) == 0.0
