"""Micro-benchmarks — coding throughput, allocation cost, event loop.

These are true pytest-benchmark measurements (multiple rounds) of the
hot paths: the GF(2) codec that bounds FMTCP's CPU cost (Section III-B's
"coding complexity" constraint on k̂), Algorithm 1's per-packet
allocation cost — the bare allocator and the three kinds of round the
sender's round state makes of it — the two ``sim`` mechanisms every
packet of either protocol crosses (the heap loop and the RTO timer
restart), and one trace replay through ``TracePlayer``.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

from repro.core.allocation import allocate_packet
from repro.core.blocks import BlockManager, PendingBlock
from repro.core.config import FmtcpConfig
from repro.core.estimators import PathEstimate, PathTable
from repro.core.sender import FmtcpSender
from repro.fountain.codec import BlockDecoder, BlockEncoder
from repro.fountain.rank_model import RankEvolutionModel
from repro.net.topology import PathConfig, build_two_path_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.timers import Timer
from repro.traces.generators import gprs_trace
from repro.traces.player import TracePlayer
from repro.workloads.sources import BulkSource, RandomPayloadSource

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
            model.add_symbol(None)
        return model.symbols_received

    received = benchmark(absorb_block)
    assert received >= K


def test_gf2_insert_cost_is_linear_in_k(benchmark):
    """One row insert is O(k) integer XOR work; measure at k=256."""
    rng = random.Random(3)
    from repro.fountain.gf2 import Gf2Eliminator

    def build_full_rank():
        eliminator = Gf2Eliminator(K, payload_bits=64)
        while not eliminator.is_full_rank:
            eliminator.add_row(rng.getrandbits(K), rng.getrandbits(64))
        return eliminator.rows_seen

    rows = benchmark(build_full_rank)
    assert rows >= K


def test_payload_source_pull(benchmark):
    """One grant of a whole block (K * PART = 8 192 bytes) of seeded random
    payload: what ``fmtcp_realcodec`` pays per block before encoding it."""

    def pull_block():
        return RandomPayloadSource(K * PART, rng=random.Random(5)).pull(K * PART)

    assert len(benchmark(pull_block)) == K * PART


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

    def loss_rate_of(subflow_id):
        return estimates[subflow_id].loss

    paths = PathTable.from_estimates(estimates, loss_rate_of)
    blocks = []
    for block_id in range(64):
        block = PendingBlock(block_id=block_id, k=256, data_bytes=8192)
        block.k_bar = 100
        blocks.append(block)

    def allocate():
        return allocate_packet(
            pending_subflow_id=1,
            estimates=paths,
            blocks=blocks,
            loss_rate_of=loss_rate_of,
            mss=1400,
            symbol_wire_size=34,
            margin=margin,
        )

    result = benchmark(allocate)
    assert result.iterations >= 1


class _BenchSubflow:
    """The Subflow surface an allocation round reads, held still: one
    packet outstanding since t = 0 (no idle-path probe, τ = 0), joined
    (no pending join event)."""

    potentially_failed = False
    is_joining = False
    _join_event = None
    in_flight = 1
    last_transmit_at = 0.0
    last_ack_at = None

    def __init__(self, subflow_id, srtt, loss, window_space):
        self.subflow_id = subflow_id
        self.rto = SimpleNamespace(srtt=srtt, rto=2.0 * srtt)
        self.cc = SimpleNamespace(window=window_space + 1)
        self._outstanding = {0: SimpleNamespace(sent_at=0.0)}
        self.loss_rate_estimate = loss


def _round_sender(short_symbols):
    """A sender at 16 pending blocks x 2 subflows (fast clean, slow lossy)
    whose last ``len(short_symbols)`` blocks are that many symbols short
    of k̂ + margin and whose other blocks are complete."""
    config = FmtcpConfig()
    sender = FmtcpSender(Simulator(), config, BlockManager(config, BulkSource()))
    fast = _BenchSubflow(0, srtt=0.2, loss=0.0, window_space=8)
    slow = _BenchSubflow(1, srtt=0.3, loss=0.15, window_space=4)
    sender.attach_subflows([fast, slow])
    sender.blocks.replenish()
    pending = sender.blocks.pending_blocks
    assert len(pending) == 16
    complete = math.ceil(config.completeness_margin) + 1
    for block in pending:
        block.k_bar = block.k + complete
    for block, short in zip(pending[-len(short_symbols):], short_symbols):
        block.k_bar -= complete + short
    return sender, fast, slow


def test_allocation_round_first_of_an_instant(benchmark):
    """An input changed: loss snapshot, the k̃ table, a new path table
    (every row derived) and one Algorithm 1 run — which gives the slow
    subflow nothing, because the fast one (virtually) covers the few
    symbols still short."""
    sender, __, slow = _round_sender(short_symbols=[20])

    def first_round():
        sender.margin = sender.margin  # a margin write drops the round state
        return sender.next_payload(slow)

    assert benchmark(first_round) is None
    assert sender.packets_built == 0


def test_allocation_round_repeated_in_the_same_instant(benchmark):
    """Nothing changed since the slow subflow was declined: O(1)."""
    sender, __, slow = _round_sender(short_symbols=[20])
    assert sender.next_payload(slow) is None

    def repeat_round():
        return sender.next_payload(slow)

    assert benchmark(repeat_round) is None


def test_allocation_round_after_a_send(benchmark):
    """The round state is carried across a packet: the round refreshes the
    carried path table's rows (no row's srtt or rto moved, so none is
    re-derived) and fills a packet, and only the blocks in it get a new
    k̃."""
    carried = []

    def opened_round():
        sender, fast, __ = _round_sender(short_symbols=[200] * 8)
        assert sender.next_payload(fast) is not None
        carried.append(sender._round.paths)
        return (sender, fast), {}

    def round_after_a_send(sender, fast):
        supplied = sender.next_payload(fast)
        carried.append(sender._round.paths is carried.pop())
        return supplied

    supplied = benchmark.pedantic(
        round_after_a_send, setup=opened_round, rounds=300, iterations=1
    )
    config = FmtcpConfig()
    assert supplied[1] == config.symbols_per_packet * config.symbol_wire_size
    assert all(carried)


#: ``mptcp_gprs``'s run length: it replays one trace this long per rep.
REPLAY_S = 800.0


def test_trace_replay(benchmark):
    """One ``mptcp_gprs`` replay: an 800 s ``gprs_trace`` played through
    ``TracePlayer`` onto path 1's links on a simulator with no traffic;
    the events it takes go to ``extra_info``."""
    __, paths = build_two_path_network(
        [PathConfig(bandwidth_bps=1e6, delay_s=0.01)] * 2, rng=RngStreams(1)
    )
    links = paths[1].forward_links
    trace = gprs_trace(seed=3000, duration_s=REPLAY_S)

    def replay():
        sim = Simulator()
        player = TracePlayer(sim, links, trace)
        player.start()
        sim.run(until=REPLAY_S)
        player.stop()
        return sim.events_processed

    events = benchmark(replay)
    benchmark.extra_info["sim_events"] = events
    # One event per sample: the player wakes only where the channel changes.
    assert events == len(trace.samples)


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
