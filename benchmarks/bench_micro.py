"""Micro-benchmarks — coding throughput, allocation cost, event loop.

These are true pytest-benchmark measurements (multiple rounds) of the
hot paths: the GF(2) codec that bounds FMTCP's CPU cost (Section III-B's
"coding complexity" constraint on k̂), Algorithm 1's per-packet
allocation cost, and the two ``sim`` mechanisms every packet of either
protocol crosses — the heap loop and the RTO timer restart.
"""

from __future__ import annotations

import math
import random

from repro.core.allocation import allocate_packet
from repro.core.blocks import PendingBlock
from repro.core.estimators import PathEstimate
from repro.fountain.codec import BlockDecoder, BlockEncoder
from repro.fountain.rank_model import RankEvolutionModel
from repro.sim.engine import Simulator
from repro.sim.timers import Timer

K = 256
PART = 32


def test_encode_throughput(benchmark):
    data = bytes(range(256)) * (K * PART // 256)
    encoder = BlockEncoder(data, k=K, part_size=PART, rng=random.Random(0))

    def encode_packet():
        return [encoder.next_symbol() for __ in range(40)]

    symbols = benchmark(encode_packet)
    assert len(symbols) == 40


def test_decode_throughput_full_block(benchmark):
    data = bytes(range(256)) * (K * PART // 256)
    encoder = BlockEncoder(data, k=K, part_size=PART, rng=random.Random(1))
    symbols = [encoder.next_symbol() for __ in range(K + 30)]

    def decode_block():
        decoder = BlockDecoder(k=K, part_size=PART, data_length=len(data))
        for symbol in symbols:
            decoder.add_symbol(symbol)
            if decoder.is_complete:
                break
        return decoder.decode()

    recovered = benchmark(decode_block)
    assert recovered == data


def test_solve_only_full_block(benchmark):
    """Back-substitution alone (the table kernel), apart from the row
    inserts that dominate the full decode above."""
    data = bytes(range(256)) * (K * PART // 256)
    encoder = BlockEncoder(data, k=K, part_size=PART, rng=random.Random(1))
    decoder = BlockDecoder(k=K, part_size=PART, data_length=len(data))
    while not decoder.is_complete:
        decoder.add_symbol(encoder.next_symbol())

    recovered = benchmark(decoder.decode)
    assert recovered == data


def test_rank_model_throughput(benchmark):
    def absorb_block():
        model = RankEvolutionModel(K, rng=random.Random(2))
        while not model.is_complete:
            model.add_symbol()
        return model.symbols_received

    received = benchmark(absorb_block)
    assert received >= K


def test_gf2_insert_cost_is_linear_in_k(benchmark):
    """One row insert is O(k) integer XOR work; measure at k=256."""
    rng = random.Random(3)
    from repro.fountain.gf2 import Gf2Eliminator

    def build_full_rank():
        eliminator = Gf2Eliminator(K)
        while not eliminator.is_full_rank:
            eliminator.add_row(rng.getrandbits(K), rng.getrandbits(64))
        return eliminator.rows_seen

    rows = benchmark(build_full_rank)
    assert rows >= K


def test_lt_decode_throughput(benchmark):
    """LT peeling is linear-time; compare against the GE decoder above."""
    from repro.fountain.lt import LtDecoder, LtEncoder

    data = bytes(range(256)) * (K * PART // 256)
    encoder = LtEncoder(data, k=K, part_size=PART, rng=random.Random(4))
    symbols = [encoder.next_symbol() for __ in range(2 * K)]

    def decode_block():
        decoder = LtDecoder(k=K, part_size=PART, data_length=len(data))
        for index, symbol in enumerate(symbols):
            decoder.add_symbol(symbol)
            if index % 32 == 0 and decoder.try_ge_completion():
                break
            if decoder.is_complete:
                break
        return decoder.decode()

    recovered = benchmark(decode_block)
    assert recovered == data


def test_allocation_cost_scales(benchmark):
    margin = math.log2(1000)
    estimates = [
        PathEstimate(subflow_id=0, rtt=0.2, rto=0.4, loss=0.0, window_space=8, tau=0.0),
        PathEstimate(subflow_id=1, rtt=0.3, rto=0.6, loss=0.15, window_space=4, tau=0.1),
    ]
    blocks = []
    for block_id in range(64):
        block = PendingBlock(block_id=block_id, k=256, data_bytes=8192)
        block.k_bar = 100
        blocks.append(block)

    def allocate():
        return allocate_packet(
            pending_subflow_id=1,
            estimates=estimates,
            blocks=blocks,
            loss_rate_of=lambda subflow_id: estimates[subflow_id].loss,
            mss=1400,
            symbol_wire_size=34,
            margin=margin,
        )

    result = benchmark(allocate)
    assert result.iterations >= 1


EVENTS = 20_000


def test_event_loop_throughput(benchmark):
    """schedule + run of no-op events: the floor under every packet hop."""

    def schedule_and_run():
        sim = Simulator()
        noop = int  # a C callable: the time measured is the engine's own
        for index in range(EVENTS):
            sim.schedule(index * 1e-3, noop)
        sim.run()
        return sim.events_processed

    assert benchmark(schedule_and_run) == EVENTS


def test_timer_restart_churn(benchmark):
    """An ACK-clocked RTO timer: restarted to a later deadline by each of
    EVENTS "ACKs" 1 ms apart, never expiring until they stop."""

    def ack_clocked():
        sim = Simulator()
        expired = []
        timer = Timer(sim, lambda: expired.append(sim.now))
        for index in range(EVENTS):
            sim.schedule(index * 1e-3, timer.restart, 0.2)
        sim.run()
        return expired

    expired = benchmark(ack_clocked)
    assert len(expired) == 1 and abs(expired[0] - ((EVENTS - 1) * 1e-3 + 0.2)) < 1e-9
