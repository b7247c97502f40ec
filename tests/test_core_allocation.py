"""Unit and property tests for Algorithm 1 (EAT data allocation)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    _fill_packet,
    allocate_packet,
    allocate_packet_greedy,
    allocate_packet_reference,
    expected_symbols,
)
from repro.core.blocks import PendingBlock
from repro.core.estimators import PathEstimate

MARGIN = math.log2(1000)  # delta_hat = 1e-3
WIRE = 34
MSS = 1400


def make_blocks(count, k=64, k_bar=0):
    blocks = []
    for block_id in range(count):
        block = PendingBlock(block_id=block_id, k=k, data_bytes=k * 32)
        block.k_bar = k_bar
        blocks.append(block)
    return blocks


def make_estimates(spec):
    """spec: list of dicts with rtt/loss/window_space/tau overrides."""
    estimates = []
    for subflow_id, overrides in enumerate(spec):
        params = {
            "rtt": 0.2,
            "rto": 0.4,
            "loss": 0.0,
            "window_space": 4,
            "tau": 0.0,
        }
        params.update(overrides)
        estimates.append(PathEstimate(subflow_id=subflow_id, **params))
    return estimates


def loss_of(estimates):
    table = {estimate.subflow_id: estimate.loss for estimate in estimates}
    return lambda subflow_id: table[subflow_id]


def allocate(pending, estimates, blocks, fn=allocate_packet):
    return fn(
        pending_subflow_id=pending,
        estimates=estimates,
        blocks=blocks,
        loss_rate_of=loss_of(estimates),
        mss=MSS,
        symbol_wire_size=WIRE,
        margin=MARGIN,
    )


# ----------------------------------------------------------------------
# Basic behaviour.
# ----------------------------------------------------------------------
def test_fills_packet_up_to_mss():
    blocks = make_blocks(4)
    estimates = make_estimates([{}, {}])
    result = allocate(0, estimates, blocks)
    assert result.total_symbols == MSS // WIRE
    assert sum(size for __, size in result.vector) <= MSS // WIRE


def test_rule_r2_fills_blocks_in_order():
    blocks = make_blocks(4)
    estimates = make_estimates([{}])
    result = allocate(0, estimates, blocks)
    assert result.vector[0][0] == 0  # first pending block first


def test_rule_r1_skips_delta_complete_blocks():
    blocks = make_blocks(3)
    blocks[0].k_bar = blocks[0].k + int(MARGIN) + 1  # already complete
    estimates = make_estimates([{}])
    result = allocate(0, estimates, blocks)
    assert all(block_id != 0 for block_id, __ in result.vector)
    assert result.vector[0][0] == 1


def test_no_demand_returns_empty():
    blocks = make_blocks(2)
    for block in blocks:
        block.k_bar = block.k + int(MARGIN) + 1
    estimates = make_estimates([{}, {}])
    result = allocate(0, estimates, blocks)
    assert result.is_empty()


def test_empty_block_list_returns_empty():
    estimates = make_estimates([{}])
    result = allocate(0, estimates, [])
    assert result.is_empty()


def test_partial_demand_smaller_packet():
    """A block needing fewer symbols than a packet yields a short packet
    only if no later block has demand."""
    blocks = make_blocks(1, k=4)
    blocks[0].k_bar = 4 + int(MARGIN) - 2  # needs ~3 more expected symbols
    estimates = make_estimates([{}])
    result = allocate(0, estimates, blocks)
    assert 0 < result.total_symbols < MSS // WIRE


def test_in_flight_symbols_reduce_demand():
    blocks = make_blocks(1, k=64)
    estimates = make_estimates([{"loss": 0.0}])
    blocks[0].record_sent(0, 60, now=0.0)  # 60 expected arrivals in flight
    result = allocate(0, estimates, blocks)
    needed = 64 + MARGIN - 60
    assert result.total_symbols == math.ceil(needed)


def test_lossy_inflight_counts_fractionally():
    blocks = make_blocks(1, k=64)
    estimates = make_estimates([{"loss": 0.5}])
    blocks[0].record_sent(0, 60, now=0.0)  # only 30 expected to arrive
    result = allocate(0, estimates, blocks)
    # Demand ≈ 64 + margin - 30, each new symbol worth 0.5.
    expected = math.ceil((64 + MARGIN - 30) / 0.5)
    assert result.total_symbols == min(expected, MSS // WIRE)


# ----------------------------------------------------------------------
# EAT-driven virtual allocation.
# ----------------------------------------------------------------------
def test_urgent_block_goes_to_fast_flow():
    """With one urgent block, the slow pending flow gets nothing: the fast
    flow virtually claims the first block's demand (the Section IV-B
    example: don't put the first pending block on the high-delay path)."""
    blocks = make_blocks(1)
    estimates = make_estimates(
        [
            {"rtt": 0.05, "window_space": 100},  # fast, lots of room
            {"rtt": 1.0, "window_space": 4},  # slow pending flow
        ]
    )
    result = allocate(1, estimates, blocks)
    assert result.is_empty()
    assert result.virtual_packets.get(0, 0) > 0


def test_slow_flow_gets_later_blocks():
    """With plenty of blocks, the slow flow is assigned symbols for blocks
    beyond those the fast flow will handle first."""
    blocks = make_blocks(12)
    estimates = make_estimates(
        [
            {"rtt": 0.05, "window_space": 2},
            {"rtt": 0.5, "window_space": 4},
        ]
    )
    result = allocate(1, estimates, blocks)
    assert not result.is_empty()
    first_block_allocated = result.vector[0][0]
    assert first_block_allocated >= 1  # fast flow virtually took block 0


def test_pending_flow_is_fast_flow_gets_first_block():
    blocks = make_blocks(8)
    estimates = make_estimates(
        [
            {"rtt": 0.05, "window_space": 2},
            {"rtt": 0.5, "window_space": 4},
        ]
    )
    result = allocate(0, estimates, blocks)
    assert result.vector[0][0] == 0


def test_iterations_reported():
    blocks = make_blocks(8)
    estimates = make_estimates([{"rtt": 0.05}, {"rtt": 0.5}])
    result = allocate(1, estimates, blocks)
    assert result.iterations >= 1


def test_unknown_pending_subflow_rejected():
    with pytest.raises(ValueError):
        allocate(9, make_estimates([{}]), make_blocks(1))


def test_symbol_larger_than_mss_rejected():
    estimates = make_estimates([{}])
    with pytest.raises(ValueError):
        allocate_packet(
            pending_subflow_id=0,
            estimates=estimates,
            blocks=make_blocks(1),
            loss_rate_of=loss_of(estimates),
            mss=10,
            symbol_wire_size=34,
            margin=MARGIN,
        )


# ----------------------------------------------------------------------
# Greedy ablation allocator.
# ----------------------------------------------------------------------
def test_greedy_ignores_other_flows():
    blocks = make_blocks(1)
    estimates = make_estimates(
        [
            {"rtt": 0.05, "window_space": 100},
            {"rtt": 1.0, "window_space": 4},
        ]
    )
    result = allocate(1, estimates, blocks, fn=allocate_packet_greedy)
    # Greedy gives the urgent block to the slow flow anyway.
    assert not result.is_empty()
    assert result.vector[0][0] == 0


def test_greedy_respects_r1():
    blocks = make_blocks(2)
    blocks[0].k_bar = blocks[0].k + int(MARGIN) + 1
    estimates = make_estimates([{}])
    result = allocate(0, estimates, blocks, fn=allocate_packet_greedy)
    assert result.vector[0][0] == 1


# ----------------------------------------------------------------------
# Production allocator vs the literal Algorithm 1 oracle (differential).
# ----------------------------------------------------------------------
@st.composite
def allocation_rounds(draw):
    """One allocation round: estimates, blocks with live in-flight state
    (zero counts and ids of since-removed subflows included), a loss map
    covering every id, and the pending subflow."""
    n_flows = draw(st.integers(min_value=1, max_value=4))
    estimates = make_estimates(
        [
            {
                "rtt": draw(st.floats(min_value=0.01, max_value=1.0)),
                "rto": draw(st.floats(min_value=0.2, max_value=3.0)),
                "loss": draw(st.floats(min_value=0.0, max_value=0.6)),
                "window_space": draw(st.integers(min_value=0, max_value=6)),
                "tau": draw(st.floats(min_value=0.0, max_value=0.3)),
            }
            for __ in range(n_flows)
        ]
    )
    # Ids n_flows and n_flows + 1 stand for subflows removed at runtime:
    # absent from the estimates, still present in per-block accounting.
    flow_ids = st.integers(min_value=0, max_value=n_flows + 1)
    losses = {estimate.subflow_id: estimate.loss for estimate in estimates}
    losses[n_flows] = losses[n_flows + 1] = 0.95
    blocks = []
    for block_id in range(draw(st.integers(min_value=0, max_value=10))):
        k = draw(st.sampled_from([1, 8, 32, 64]))
        block = PendingBlock(block_id=block_id, k=k, data_bytes=k * 32)
        block.k_bar = draw(st.integers(min_value=0, max_value=k + 12))
        block.in_flight = draw(
            st.dictionaries(flow_ids, st.integers(min_value=0, max_value=40))
        )
        blocks.append(block)
    pending = draw(st.integers(min_value=0, max_value=n_flows - 1))
    return pending, estimates, blocks, losses


@settings(max_examples=200, deadline=None)
@given(round_=allocation_rounds())
def test_property_optimised_matches_reference(round_):
    pending, estimates, blocks, losses = round_
    fast, reference = (
        fn(
            pending_subflow_id=pending,
            estimates=estimates,
            blocks=blocks,
            loss_rate_of=losses.__getitem__,
            mss=MSS,
            symbol_wire_size=WIRE,
            margin=MARGIN,
        )
        for fn in (allocate_packet, allocate_packet_reference)
    )
    assert fast.vector == reference.vector
    assert fast.virtual_packets == reference.virtual_packets


@settings(max_examples=200, deadline=None)
@given(round_=allocation_rounds())
def test_batched_k_tilde_is_bit_identical_to_the_single_block_form(round_):
    """Same summation order, so ``==`` on the floats, not ``approx`` — and
    the loss callable is consulted once per subflow id, not per use."""
    __, __, blocks, losses = round_
    asked = []

    def loss_rate_of(subflow_id):
        asked.append(subflow_id)
        return losses[subflow_id]

    k_tildes, demand, __ = expected_symbols(blocks, loss_rate_of, MARGIN)
    assert len(asked) == len(set(asked))
    assert k_tildes == [block.k_tilde(losses.__getitem__) for block in blocks]
    assert demand == sum(
        max(0, int(block.k + MARGIN - k_tilde) + 1)
        for block, k_tilde in zip(blocks, k_tildes)
    )


@settings(max_examples=200, deadline=None)
@given(round_=allocation_rounds())
def test_first_short_index_is_where_fill_packet_starts(round_):
    """The index ``next_payload`` settles rule R1 on is exactly the first
    block ``_fill_packet`` would assign to from b₁ (``len(blocks)``: none),
    and handing the round's table to the allocator changes nothing."""
    pending, estimates, blocks, losses = round_
    k_tildes, __, first_short = expected_symbols(blocks, losses.__getitem__, MARGIN)
    vector, __, __ = _fill_packet(blocks, list(k_tildes), 0, 1.0, MARGIN, MSS, WIRE)
    # allocation_rounds numbers its blocks by index.
    assert first_short == (vector[0][0] if vector else len(blocks))
    round_kwargs = dict(
        pending_subflow_id=pending,
        estimates=estimates,
        blocks=blocks,
        loss_rate_of=losses.__getitem__,
        mss=MSS,
        symbol_wire_size=WIRE,
        margin=MARGIN,
    )
    assert allocate_packet(
        **round_kwargs,
        expected=expected_symbols(blocks, losses.__getitem__, MARGIN),
    ) == allocate_packet(**round_kwargs)


def test_first_short_index_at_the_exact_threshold():
    """k̃ == k̂ + margin is complete (``_fill_packet`` assigns on ``<``)."""
    blocks = make_blocks(3, k=8)
    blocks[0].k_bar, blocks[1].k_bar, blocks[2].k_bar = 11, 10, 9
    assert expected_symbols(blocks, lambda __: 0.0, 2.0) == ([11.0, 10.0, 9.0], 3, 2)
    blocks[2].k_bar = 10
    assert expected_symbols(blocks, lambda __: 0.0, 2.0)[2] == len(blocks)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_property_packet_always_fits_mss_and_respects_order(seed):
    rng = random.Random(seed)
    estimates = make_estimates(
        [
            {
                "rtt": rng.uniform(0.01, 0.5),
                "loss": rng.uniform(0.0, 0.4),
                "window_space": rng.randint(0, 8),
            }
            for __ in range(rng.randint(1, 3))
        ]
    )
    blocks = make_blocks(rng.randint(1, 8), k=32)
    for block in blocks:
        block.k_bar = rng.randint(0, 40)
    result = allocate(rng.randrange(len(estimates)), estimates, blocks)
    assert result.total_symbols * WIRE <= MSS
    block_ids = [block_id for block_id, __ in result.vector]
    assert block_ids == sorted(block_ids)
    counts = [count for __, count in result.vector]
    assert all(count > 0 for count in counts)
