"""End-to-end tests of FMTCP over the simulated network."""

import pytest

from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.metrics.collectors import MetricsSuite
from repro.sim.rng import RngStreams
from repro.workloads.sources import BulkSource, RandomPayloadSource
from tests.conftest import make_two_path


def run_fmtcp(
    source,
    loss2=0.0,
    duration=30.0,
    config=None,
    sink=None,
    delay2=0.010,
    seed=7,
):
    network, paths, trace = make_two_path(loss2=loss2, delay2=delay2, seed=seed)
    metrics = MetricsSuite(trace)
    connection = FmtcpConnection(
        network.sim,
        paths,
        source,
        config=config or FmtcpConfig(),
        trace=trace,
        rng=RngStreams(seed),
        sink=sink,
    )
    connection.start()
    network.sim.run(until=duration)
    return network, connection, metrics


def test_statistical_mode_delivers_blocks_in_order():
    delivered = []
    __, connection, __ = run_fmtcp(
        BulkSource(), duration=10.0, sink=lambda block_id, data: delivered.append(block_id)
    )
    assert delivered == list(range(len(delivered)))
    assert len(delivered) > 50


def test_real_mode_delivers_exact_bytes_clean_path():
    config = FmtcpConfig(coding="real", max_pending_blocks=4)
    source = RandomPayloadSource(total_bytes=4 * config.block_bytes)
    chunks = {}
    __, connection, __ = run_fmtcp(
        source,
        duration=30.0,
        config=config,
        sink=lambda block_id, data: chunks.__setitem__(block_id, data),
    )
    reassembled = b"".join(chunks[block_id] for block_id in sorted(chunks))
    assert reassembled == bytes(source.transcript)


def test_real_mode_delivers_exact_bytes_under_loss():
    config = FmtcpConfig(coding="real", max_pending_blocks=4)
    source = RandomPayloadSource(total_bytes=6 * config.block_bytes + 777)
    chunks = {}
    __, connection, __ = run_fmtcp(
        source,
        loss2=0.25,
        duration=120.0,
        config=config,
        sink=lambda block_id, data: chunks.__setitem__(block_id, data),
    )
    reassembled = b"".join(chunks[block_id] for block_id in sorted(chunks))
    assert reassembled == bytes(source.transcript)


def test_no_content_retransmission_fresh_symbols_cover_losses():
    """Symbols lost in transit are replaced by *new* symbols: the sender's
    total sent count exceeds the receiver's received count by exactly the
    in-transit losses, and blocks still decode."""
    __, connection, __ = run_fmtcp(BulkSource(), loss2=0.2, duration=20.0)
    sender = connection.sender
    receiver = connection.receiver
    assert sender.symbols_lost > 0
    assert receiver.blocks_decoded > 10
    in_flight = sum(
        sum(block.in_flight.values()) for block in connection.block_manager.pending_blocks
    )
    # Conservation: every sent symbol is received, lost, or still in flight.
    # Two small, legitimate discrepancies are allowed for: symbols of
    # blocks retired while their packets were still in the air (positive
    # slack) and spurious dup-ack declarations whose packets arrived after
    # all (counted both lost and received, negative slack).
    unaccounted = sender.symbols_sent - (
        receiver.symbols_received + sender.symbols_lost + in_flight
    )
    assert abs(unaccounted) < 0.01 * sender.symbols_sent + 1000


def test_redundancy_stays_modest_on_clean_paths():
    __, connection, __ = run_fmtcp(BulkSource(), duration=20.0)
    # Margin of log2(1/δ̂)=10 over k=256 plus dependence waste ≈ 4-6 %.
    assert connection.redundancy_ratio() < 1.10


def test_block_done_events_at_sender():
    network, paths, trace = make_two_path()
    records = []
    trace.subscribe("conn.block_done", records.append)
    connection = FmtcpConnection(
        network.sim, paths, BulkSource(), config=FmtcpConfig(), trace=trace
    )
    connection.start()
    network.sim.run(until=5.0)
    assert records
    ids = [record["block_id"] for record in records]
    # Blocks may decode (and be confirmed) slightly out of order, but each
    # is reported exactly once and together they form a dense prefix plus
    # possibly a few stragglers still undecoded at cut-off.
    assert len(ids) == len(set(ids))
    assert sorted(ids)[: max(0, len(ids) - 8)] == list(range(max(0, len(ids) - 8)))
    assert all(record["delay"] > 0 for record in records)


def test_k_bar_feedback_reaches_sender():
    __, connection, __ = run_fmtcp(BulkSource(), duration=2.0)
    # After a couple of RTTs some pending block must show acked symbols
    # or blocks must already be completing.
    pending = connection.block_manager.pending_blocks
    assert connection.receiver.blocks_decoded > 0 or any(
        block.k_bar > 0 for block in pending
    )


def test_goodput_counts_only_delivered_blocks():
    __, connection, metrics = run_fmtcp(BulkSource(), duration=10.0)
    assert metrics.goodput.total_bytes == connection.delivered_bytes
    assert connection.delivered_bytes == connection.receiver.delivered_bytes


def test_finite_source_completes_and_idles():
    config = FmtcpConfig(max_pending_blocks=4)
    source = BulkSource(total_bytes=10 * config.block_bytes)
    __, connection, __ = run_fmtcp(source, duration=30.0, config=config)
    assert connection.receiver.delivered_blocks == 10
    assert not connection.block_manager.pending_blocks


def test_greedy_allocation_mode_runs():
    config = FmtcpConfig(allocation="greedy")
    __, connection, __ = run_fmtcp(BulkSource(), duration=5.0, config=config)
    assert connection.receiver.delivered_blocks > 0


def test_lia_congestion_mode_runs():
    config = FmtcpConfig(congestion="lia")
    __, connection, __ = run_fmtcp(BulkSource(), duration=5.0, config=config)
    assert connection.receiver.delivered_blocks > 0


def test_receiver_buffer_bounded_by_pending_limit():
    config = FmtcpConfig(max_pending_blocks=6)
    __, connection, __ = run_fmtcp(BulkSource(), loss2=0.3, duration=20.0, config=config)
    assert connection.receiver.buffered_blocks <= 6


def test_empty_paths_rejected():
    from repro.sim.engine import Simulator

    with pytest.raises(ValueError):
        FmtcpConnection(Simulator(), [], BulkSource())


def test_determinism_same_seed_same_outcome():
    results = []
    for __ in range(2):
        __, connection, metrics = run_fmtcp(BulkSource(), loss2=0.1, duration=5.0, seed=99)
        results.append(
            (connection.receiver.delivered_blocks, connection.sender.symbols_sent)
        )
    assert results[0] == results[1]


def test_different_seeds_differ():
    outcomes = set()
    for seed in (1, 2, 3):
        __, connection, __ = run_fmtcp(BulkSource(), loss2=0.1, duration=5.0, seed=seed)
        outcomes.add(connection.sender.symbols_sent)
    assert len(outcomes) > 1
