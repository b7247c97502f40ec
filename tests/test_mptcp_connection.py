"""End-to-end tests of the IETF-MPTCP baseline over the simulated network."""

import random

import pytest

from repro.metrics.collectors import MetricsSuite
from repro.mptcp import connection as connection_module
from repro.mptcp.connection import Chunk, MptcpConfig, MptcpConnection
from repro.net.corruption import CORRUPTION_EFFECTS, corrupt_packet
from repro.net.integrity import DEFERRED, verify
from repro.net.packet import Packet
from repro.tcp.subflow import SubflowSegment
from repro.workloads.sources import BulkSource, RandomPayloadSource
from tests.conftest import make_two_path


def run_mptcp(
    source,
    loss2=0.0,
    duration=30.0,
    config=None,
    sink=None,
    delay2=0.010,
):
    network, paths, trace = make_two_path(loss2=loss2, delay2=delay2)
    metrics = MetricsSuite(trace)
    connection = MptcpConnection(
        network.sim,
        paths,
        source,
        config=config or MptcpConfig(recv_buffer_chunks=64),
        trace=trace,
        sink=sink,
    )
    connection.start()
    network.sim.run(until=duration)
    return network, connection, metrics


def test_clean_paths_deliver_all_bytes_in_order():
    source = RandomPayloadSource(total_bytes=200_000)
    received = bytearray()
    __, connection, __ = run_mptcp(
        source, sink=lambda chunk: received.extend(chunk.payload_bytes)
    )
    assert bytes(received) == bytes(source.transcript)
    assert connection.delivered_bytes == 200_000


def test_lossy_path_still_delivers_exactly_once():
    source = RandomPayloadSource(total_bytes=150_000)
    received = bytearray()
    __, connection, __ = run_mptcp(
        source,
        loss2=0.2,
        duration=120.0,
        sink=lambda chunk: received.extend(chunk.payload_bytes),
    )
    assert bytes(received) == bytes(source.transcript)


def test_retransmissions_happen_only_under_loss():
    clean = run_mptcp(BulkSource(500_000), loss2=0.0, duration=10.0)[1]
    lossy = run_mptcp(BulkSource(500_000), loss2=0.2, duration=10.0)[1]
    assert clean.chunks_retransmitted == 0
    assert lossy.chunks_retransmitted > 0


def test_flow_control_bounds_outstanding_data():
    config = MptcpConfig(recv_buffer_chunks=8)
    __, connection, __ = run_mptcp(BulkSource(), config=config, duration=5.0)
    # Invariant maintained throughout: never more than the buffer
    # outstanding beyond the delivered frontier (checked at end state, and
    # the ReorderBuffer would have raised OverflowError if ever violated).
    assert connection._next_dsn - connection.data_acked <= 8 + 1
    assert connection.reorder_buffer.high_watermark <= 8


def test_block_done_events_carry_increasing_ids():
    network, paths, trace = make_two_path()
    records = []
    trace.subscribe("conn.block_done", records.append)
    connection = MptcpConnection(
        network.sim, paths, BulkSource(), config=MptcpConfig(), trace=trace
    )
    connection.start()
    network.sim.run(until=5.0)
    ids = [record["block_id"] for record in records]
    assert ids == sorted(ids)
    assert ids and ids[0] == 0
    assert all(record["delay"] > 0 for record in records)


def test_goodput_measured_at_receiver():
    __, connection, metrics = run_mptcp(BulkSource(), duration=5.0)
    assert metrics.goodput.total_bytes == connection.delivered_bytes
    assert metrics.goodput.total_bytes > 0


def test_hol_blocking_raises_block_delay():
    """A lossy second path must raise delay vs an all-clean run."""
    __, __, clean_metrics = run_mptcp(BulkSource(), loss2=0.0, duration=20.0)
    __, __, lossy_metrics = run_mptcp(BulkSource(), loss2=0.15, duration=20.0)
    assert (
        lossy_metrics.block_delay.mean_delay_s()
        > clean_metrics.block_delay.mean_delay_s()
    )


def test_app_limited_source_idles_without_error():
    class Dribble:
        def __init__(self):
            self.calls = 0

        def pull(self, max_bytes):
            self.calls += 1
            return 1000 if self.calls <= 3 else 0

    __, connection, __ = run_mptcp(Dribble(), duration=2.0)
    assert connection.delivered_bytes == 3000


def test_reinjection_moves_chunk_after_timeouts():
    config = MptcpConfig(recv_buffer_chunks=64, reinject_after_timeouts=1)
    __, connection, __ = run_mptcp(
        BulkSource(), loss2=0.4, duration=60.0, config=config
    )
    assert connection.chunks_reinjected > 0


def test_orp_reinjects_and_penalises_under_tight_buffer():
    config = MptcpConfig(recv_buffer_chunks=16, opportunistic_retransmission=True)
    __, connection, __ = run_mptcp(
        BulkSource(), loss2=0.25, duration=60.0, config=config
    )
    assert connection.orp_reinjections > 0
    assert connection.orp_penalties == connection.orp_reinjections


def test_orp_preserves_exact_delivery():
    config = MptcpConfig(recv_buffer_chunks=16, opportunistic_retransmission=True)
    source = RandomPayloadSource(total_bytes=150_000)
    received = bytearray()
    __, connection, __ = run_mptcp(
        source, loss2=0.2, duration=120.0, config=config,
        sink=lambda chunk: received.extend(chunk.payload_bytes),
    )
    assert bytes(received) == bytes(source.transcript)


def test_orp_improves_block_delay_on_bad_path():
    base = MptcpConfig(recv_buffer_chunks=32)
    orp = MptcpConfig(recv_buffer_chunks=32, opportunistic_retransmission=True)
    __, __, base_metrics = run_mptcp(BulkSource(), loss2=0.2, duration=30.0, config=base)
    __, __, orp_metrics = run_mptcp(BulkSource(), loss2=0.2, duration=30.0, config=orp)
    assert (
        orp_metrics.block_delay.mean_delay_s()
        <= base_metrics.block_delay.mean_delay_s() * 1.05
    )


def test_single_path_connection_works():
    from repro.net.topology import PathConfig, build_two_path_network
    from repro.sim.rng import RngStreams
    from repro.sim.trace import TraceBus

    trace = TraceBus()
    network, paths = build_two_path_network(
        [PathConfig(bandwidth_bps=8e6, delay_s=0.01)],
        rng=RngStreams(3),
        trace=trace,
    )
    source = RandomPayloadSource(total_bytes=50_000)
    received = bytearray()
    connection = MptcpConnection(
        network.sim,
        paths,
        source,
        trace=trace,
        sink=lambda chunk: received.extend(chunk.payload_bytes),
    )
    connection.start()
    network.sim.run(until=20.0)
    assert bytes(received) == bytes(source.transcript)


def test_empty_paths_rejected():
    from repro.sim.engine import Simulator

    with pytest.raises(ValueError):
        MptcpConnection(Simulator(), [], BulkSource())


def test_lia_congestion_variant_runs():
    config = MptcpConfig(congestion="lia")
    __, connection, metrics = run_mptcp(BulkSource(), duration=5.0, config=config)
    assert metrics.goodput.total_bytes > 0


def test_roundrobin_scheduler_variant_runs():
    config = MptcpConfig(scheduler="roundrobin")
    __, connection, metrics = run_mptcp(BulkSource(), duration=5.0, config=config)
    assert metrics.goodput.total_bytes > 0


# ----------------------------------------------------------------------
# The deferred DSS checksum against the eager stamp it replaced.
# ----------------------------------------------------------------------
class _EagerChunk(Chunk):
    """The previous Chunk, kept as the oracle: stamped at creation, the
    stamp copied into a mutated copy, every arrival re-hashed."""

    def __init__(self, dsn, size, payload_bytes, sent_at):
        super().__init__(dsn, size, payload_bytes, sent_at)
        self.dss_checksum = connection_module._dss_checksum(dsn, size, payload_bytes)

    def integrity_mutate(self, rng):
        if not self.payload_bytes:
            return None
        data = bytearray(self.payload_bytes)
        index = rng.randrange(len(data))
        data[index] ^= 1 << rng.randrange(8)
        mutated = _EagerChunk(self.dsn, self.size, bytes(data), self.first_sent_at)
        mutated.dss_checksum = self.dss_checksum
        return mutated

    def rejected(self):
        return self.dss_checksum != connection_module._dss_checksum(
            self.dsn, self.size, self.payload_bytes
        )


@pytest.mark.parametrize("evade_crc", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("effect", CORRUPTION_EFFECTS)
def test_deferred_dss_rejects_exactly_what_the_eager_stamp_rejects(effect, evade_crc):
    network, paths, trace = make_two_path()
    connection = MptcpConnection(network.sim, paths, BulkSource(), trace=trace)
    deferred_rng, eager_rng = random.Random(17), random.Random(17)
    payloads = random.Random(3)
    reached_dss = rejected = 0
    for dsn in range(120):
        # Every third chunk is synthetic (a byte count): it cannot be
        # deep-mutated, so evasion degrades to detectable corruption.
        data = None if dsn % 3 == 0 else payloads.randbytes(64)
        pristine = Chunk(dsn, 64, data, 0.0)
        packets = []
        for chunk in (pristine, _EagerChunk(dsn, 64, data, 0.0)):
            packet = Packet(104, "a", "b", 1, 2, payload=SubflowSegment(dsn, chunk))
            packet.checksum = DEFERRED  # sealed as the subflows seal
            packets.append(packet)
        deferred_out = corrupt_packet(packets[0], effect, deferred_rng, evade_crc)
        eager_out = corrupt_packet(packets[1], effect, eager_rng, evade_crc)
        assert deferred_rng.getstate() == eager_rng.getstate()
        assert pristine.dss_checksum is None  # the sender's copy stays unstamped
        assert len(deferred_out) == len(eager_out)
        for deferred_packet, eager_packet in zip(deferred_out, eager_out):
            assert verify(deferred_packet) == verify(eager_packet)
            if not verify(eager_packet):
                continue  # the link CRC discards it before the DSS check
            reached_dss += 1
            eager_chunk = eager_packet.payload.payload
            assert deferred_packet.payload.payload.payload_bytes == eager_chunk.payload_bytes
            verdict = connection._receiver_on_segment(0, deferred_packet.payload)
            assert (verdict is False) == eager_chunk.rejected()
            rejected += eager_chunk.rejected()
        # Retransmission of the clean original: always accepted, and it
        # keeps the reorder buffer's frontier moving.
        assert connection._receiver_on_segment(0, SubflowSegment(dsn, pristine)) is not False
    assert connection.chunks_discarded_checksum == rejected
    assert connection.delivered_chunks == 120
    if effect == "truncate" or evade_crc == 0.0:
        assert rejected == 0  # nothing damaged gets past the link CRC
    else:
        assert rejected > 10
    if effect == "duplicate":
        assert reached_dss >= 120  # the pristine copy of each pair


def test_twice_damaged_chunk_keeps_the_original_checksum():
    pristine = Chunk(7, 64, bytes(64), 0.0)
    once = pristine.integrity_mutate(random.Random(1))
    twice = once.integrity_mutate(random.Random(2))
    assert pristine.dss_checksum is None
    assert once.dss_checksum == twice.dss_checksum == connection_module._dss_checksum(
        7, 64, bytes(64)
    )


def test_clean_transfer_hashes_no_dss_checksum(monkeypatch):
    calls = []
    real = connection_module._dss_checksum
    monkeypatch.setattr(
        connection_module,
        "_dss_checksum",
        lambda *args: calls.append(args[0]) or real(*args),
    )
    source = RandomPayloadSource(total_bytes=200_000)
    received = bytearray()
    __, connection, __ = run_mptcp(
        source, loss2=0.1, sink=lambda chunk: received.extend(chunk.payload_bytes)
    )
    assert bytes(received) == bytes(source.transcript)
    assert connection.chunks_retransmitted > 0
    assert connection.chunks_discarded_checksum == 0
    assert calls == []
