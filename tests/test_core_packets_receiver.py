"""Unit tests for FMTCP wire formats and receiver internals."""

import random
import zlib

import pytest

from repro.core.config import FmtcpConfig
from repro.core.packets import FmtcpFeedback, FmtcpSegmentPayload, SymbolGroup
from repro.core.receiver import FmtcpReceiver
from repro.fountain.codec import BlockEncoder
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus


class FakeSegment:
    def __init__(self, payload):
        self.payload = payload


def group(block_id=0, count=4, block_k=8, block_bytes=64, symbols=None):
    return SymbolGroup(
        block_id=block_id,
        count=count,
        block_k=block_k,
        block_bytes=block_bytes,
        symbols=symbols,
    )


# ----------------------------------------------------------------------
# Wire formats.
# ----------------------------------------------------------------------
def test_symbol_group_validation():
    with pytest.raises(ValueError):
        group(count=0)
    with pytest.raises(ValueError):
        SymbolGroup(block_id=0, count=2, block_k=8, block_bytes=64, symbols=[])


def test_payload_requires_groups():
    with pytest.raises(ValueError):
        FmtcpSegmentPayload([])


def test_payload_total_symbols():
    payload = FmtcpSegmentPayload([group(count=3), group(block_id=1, count=5)])
    assert payload.total_symbols() == 8


def test_feedback_fields():
    feedback = FmtcpFeedback(k_bar={3: 7}, decoded_in_order=3, decoded_out_of_order=(5,))
    assert feedback.k_bar[3] == 7
    assert feedback.decoded_in_order == 3
    assert feedback.decoded_out_of_order == (5,)


# ----------------------------------------------------------------------
# Receiver (driven directly, no network).
# ----------------------------------------------------------------------
def make_receiver(coding="statistical", sink=None, trace=None):
    config = FmtcpConfig(
        coding=coding, symbols_per_block=8, symbol_size=8, max_pending_blocks=4
    )
    return (
        FmtcpReceiver(
            Simulator(),
            config,
            trace=trace,
            rng=random.Random(0),
            sink=sink,
        ),
        config,
    )


def feed(receiver, block_id, count, block_k=8, block_bytes=64, symbols=None):
    payload = FmtcpSegmentPayload(
        [group(block_id=block_id, count=count, block_k=block_k,
               block_bytes=block_bytes, symbols=symbols)]
    )
    receiver.on_segment(0, FakeSegment(payload))


def test_block_decodes_after_enough_symbols():
    receiver, __ = make_receiver()
    while receiver.blocks_decoded == 0:
        feed(receiver, 0, 1)
        assert receiver.symbols_received < 100
    assert receiver.delivered_blocks == 1
    assert receiver.delivered_bytes == 64


def test_out_of_order_decode_waits_for_delivery():
    delivered = []
    receiver, __ = make_receiver(sink=lambda block_id, data: delivered.append(block_id))
    # Decode block 1 fully while block 0 is untouched.
    while 1 not in receiver._decoded_waiting and receiver.delivered_blocks == 0:
        feed(receiver, 1, 1)
    assert delivered == []  # in-order delivery must hold it back
    while receiver.delivered_blocks < 2:
        feed(receiver, 0, 1)
    assert delivered == [0, 1]


def test_feedback_reports_rank_of_active_blocks():
    receiver, __ = make_receiver()
    feed(receiver, 0, 3)
    feedback = receiver.feedback()
    assert 0 in feedback.k_bar
    assert 0 < feedback.k_bar[0] <= 3
    assert feedback.decoded_in_order == 0


def test_feedback_reports_out_of_order_decodes():
    receiver, __ = make_receiver()
    while 1 not in receiver._decoded_waiting:
        feed(receiver, 1, 2)
    feedback = receiver.feedback()
    assert 1 in feedback.decoded_out_of_order
    assert feedback.decoded_in_order == 0


def test_symbols_for_decoded_block_counted_redundant():
    receiver, __ = make_receiver()
    while receiver.blocks_decoded == 0:
        feed(receiver, 0, 2)
    before = receiver.symbols_redundant
    feed(receiver, 0, 3)  # stale symbols arriving after decode
    assert receiver.symbols_redundant == before + 3


def test_real_mode_decodes_actual_bytes():
    data = bytes(range(64))
    encoder = BlockEncoder(data, k=8, part_size=8, rng=random.Random(1))
    delivered = {}
    receiver, config = make_receiver(
        coding="real", sink=lambda block_id, payload: delivered.__setitem__(block_id, payload)
    )
    while receiver.blocks_decoded == 0:
        feed(
            receiver,
            0,
            1,
            block_bytes=64,
            symbols=[encoder.next_symbol()],
        )
    assert delivered[0] == data


def test_trace_events_emitted():
    trace = TraceBus()
    decoded, delivered = [], []
    trace.subscribe("fmtcp.block_decoded", decoded.append)
    trace.subscribe("conn.delivered", delivered.append)
    receiver, __ = make_receiver(trace=trace)
    while receiver.blocks_decoded == 0:
        feed(receiver, 0, 1)
    assert len(decoded) == 1
    assert len(delivered) == 1
    assert delivered[0]["bytes"] == 64


def test_buffered_blocks_counts_active_and_waiting():
    receiver, __ = make_receiver()
    feed(receiver, 0, 1)  # active
    while 1 not in receiver._decoded_waiting:
        feed(receiver, 1, 2)  # decoded, waiting for block 0
    assert receiver.buffered_blocks == 2


def test_multiple_groups_in_one_packet():
    receiver, __ = make_receiver()
    payload = FmtcpSegmentPayload(
        [group(block_id=0, count=2), group(block_id=1, count=3)]
    )
    receiver.on_segment(0, FakeSegment(payload))
    assert receiver.symbols_received == 5
    feedback = receiver.feedback()
    assert set(feedback.k_bar) == {0, 1}


# ----------------------------------------------------------------------
# feedback() reports the whole decoded-waiting set as out of order.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["drain", "quarantine", "resume"])
@pytest.mark.parametrize("seed", range(4))
def test_every_waiting_block_is_above_the_decode_frontier(mode, seed):
    """Blocks decode in random order; whatever the app drain, a quarantine
    or a resumed frontier do, every block filed as decoded-but-waiting
    sits above the decode frontier, so feedback() reports all of them."""
    rng = random.Random(seed)
    sim = Simulator()
    k, n_blocks = 8, 12
    first = 5 if mode == "resume" else 0
    config = {
        "drain": FmtcpConfig(
            flow_control=True, recv_drain_rate_bps=3_200.0, recv_window_blocks=6
        ),
        "quarantine": FmtcpConfig(coding="real"),
        "resume": FmtcpConfig(),
    }[mode]
    receiver = FmtcpReceiver(
        sim, config, rng=random.Random(seed), resume_frontier=first
    )
    block_bytes = k * config.symbol_size
    encoders = {}
    if mode == "quarantine":
        for block_id in range(n_blocks):
            data = bytes(rng.randrange(256) for __ in range(block_bytes))
            encoders[block_id] = (
                BlockEncoder(data, k=k, part_size=config.symbol_size, rng=rng),
                zlib.crc32(data),
            )
    most_waiting = most_queued = 0
    while receiver.delivered_blocks < first + n_blocks:
        lowest = receiver.delivered_blocks
        limit = first + n_blocks
        if receiver.window is not None:
            limit = min(limit, receiver.window.limit)
        block_id = rng.randrange(lowest, max(limit, lowest + 1))
        if mode == "quarantine":
            encoder, crc = encoders[block_id]
            symbol = encoder.next_symbol()
            if rng.random() < 0.05:
                symbol = symbol.integrity_mutate(rng)
            symbol_group = SymbolGroup(
                block_id, 1, k, block_bytes, symbols=[symbol], block_crc=crc
            )
        else:
            symbol_group = group(block_id=block_id, count=1, block_k=k)
        receiver.on_segment(0, FakeSegment(FmtcpSegmentPayload([symbol_group])))
        sim.run(until=sim.now + 0.005)
        feedback = receiver.feedback()
        waiting = tuple(receiver._decoded_waiting)
        assert all(b > feedback.decoded_in_order for b in waiting), (
            feedback.decoded_in_order, waiting,
        )
        assert feedback.decoded_out_of_order == waiting
        most_waiting = max(most_waiting, len(waiting))
        most_queued = max(most_queued, receiver.app_queue_blocks)
    assert most_waiting > 0  # some block did decode out of order
    if mode == "quarantine":
        assert receiver.blocks_quarantined > 0
    if mode == "drain":
        assert most_queued > 0  # the app drain held blocks back
