"""Tests for conventional single-path TCP: the MPTCP baseline over one
path, no failover (``conventional_tcp``)."""

import pytest

from repro.experiments.runner import run_transfer
from repro.metrics.collectors import MetricsSuite
from repro.mptcp.connection import MptcpConfig, conventional_tcp
from repro.net.topology import PathConfig
from repro.telemetry.session import TelemetryConfig
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs
from repro.workloads.sources import BulkSource, RandomPayloadSource
from tests.conftest import make_single_path


def run_tcp(source, loss=0.0, duration=30.0, config=None, sink=None, seed=7):
    network, path, trace = make_single_path(loss=loss, seed=seed)
    metrics = MetricsSuite(trace)
    connection = conventional_tcp(network.sim, path, source, config=config, trace=trace)
    connection.sink = sink  # the delivery check reads the stream it hands on
    connection.start()
    network.sim.run(until=duration)
    return connection, metrics


def test_clean_path_delivers_all_bytes_in_order():
    source = RandomPayloadSource(total_bytes=150_000)
    received = bytearray()
    connection, __ = run_tcp(
        source, sink=lambda chunk: received.extend(chunk.payload_bytes)
    )
    assert bytes(received) == bytes(source.transcript)
    assert connection.delivered_bytes == 150_000


def test_lossy_path_delivers_exactly_once():
    source = RandomPayloadSource(total_bytes=120_000)
    received = bytearray()
    connection, __ = run_tcp(
        source,
        loss=0.2,
        duration=120.0,
        sink=lambda chunk: received.extend(chunk.payload_bytes),
    )
    assert bytes(received) == bytes(source.transcript)
    assert connection.chunks_retransmitted > 0


def test_no_retransmissions_without_loss():
    connection, __ = run_tcp(BulkSource(400_000), duration=10.0)
    assert connection.chunks_retransmitted == 0


def test_flow_control_limits_outstanding():
    config = MptcpConfig(recv_buffer_chunks=4)
    connection, __ = run_tcp(BulkSource(), duration=3.0, config=config)
    assert connection._next_dsn - connection.data_acked <= 4


def test_block_done_trace_events():
    from repro.sim.trace import TraceBus

    network, path, trace = make_single_path()
    records = []
    trace.subscribe("conn.block_done", records.append)
    connection = conventional_tcp(network.sim, path, BulkSource(), trace=trace)
    connection.start()
    network.sim.run(until=5.0)
    assert records
    assert [record["block_id"] for record in records] == list(range(len(records)))


def test_goodput_matches_delivered_bytes():
    connection, metrics = run_tcp(BulkSource(), duration=5.0)
    assert metrics.goodput.total_bytes == connection.delivered_bytes
    assert connection.delivered_bytes > 0


def test_throughput_tracks_reno_on_lossy_path():
    """Goodput on a 5 % path should sit in the PFTK ballpark."""
    from repro.analysis.throughput import pftk_throughput_pps

    connection, metrics = run_tcp(BulkSource(), loss=0.05, duration=60.0)
    measured_pps = metrics.goodput.total_bytes / 1400 / 60.0
    subflow = connection.subflows[0]
    predicted_pps = pftk_throughput_pps(subflow.srtt, subflow.rto_value, 0.05)
    assert 0.3 < measured_pps / predicted_pps < 3.0


def test_app_limited_source():
    class Dribble:
        def __init__(self):
            self.granted = 0

        def pull(self, max_bytes):
            if self.granted >= 2:
                return 0
            self.granted += 1
            return 500

    connection, __ = run_tcp(Dribble(), duration=2.0)
    assert connection.delivered_bytes == 1000


def test_run_transfer_tcp_uses_the_given_mptcp_config():
    """``run_transfer("tcp", mptcp_config=X)`` runs on ``X``, not on the
    matched default: a 4-chunk receive buffer caps a 200 ms round trip
    at a few KB per RTT."""
    configs = table1_path_configs(TABLE1_CASES[0])
    default = run_transfer("tcp", configs, duration_s=5.0, seed=3)
    tiny = run_transfer(
        "tcp", configs, duration_s=5.0, seed=3,
        mptcp_config=MptcpConfig(recv_buffer_chunks=4),
    )
    assert tiny.summary["total_mbytes"] < 0.5 * default.summary["total_mbytes"]


def test_close_releases_ports():
    connection, __ = run_tcp(BulkSource(10_000), duration=5.0)
    connection.close()
    subflow = connection.subflows[0]
    subflow.src_node.bind(subflow.src_port, lambda p: None)


# (loss p, one-way delay d, seed) -> (total_mbytes, mean_block_delay_ms,
# packets_sent, chunks_retransmitted), read from the stand-alone stream
# transport at 26e91fa, the last commit that had one. No golden anchor
# exercises single-path loss recovery (every committed TCP number rides a
# lossless best path), so these are what holds "conventional TCP is the
# baseline over one path" to the bit on the dupACK / RTO / back-off half.
LOSSY_SINGLE_PATH_PINS = [
    ((0.01, 0.02, 1), (11.9994, 76.36806561859714, 8669, 88)),
    ((0.05, 0.02, 2), (5.5286, 101.90706231454027, 4174, 221)),
    ((0.15, 0.02, 3), (2.142, 207.8844444444448, 1793, 260)),
    ((0.01, 0.1, 1), (3.1514, 310.8839583333364, 2283, 19)),
    ((0.05, 0.1, 3), (1.3958, 452.11858823529747, 1047, 47)),
    ((0.15, 0.1, 2), (0.5544, 798.153579859836, 459, 59)),
]


@pytest.mark.parametrize("case, expected", LOSSY_SINGLE_PATH_PINS)
def test_lossy_single_path_runs_match_the_stream_transport_they_replaced(
    case, expected
):
    loss, delay, seed = case
    result = run_transfer(
        "tcp",
        [
            PathConfig(4e6, delay, loss),
            PathConfig(4e6, 2 * delay, min(0.9, 2 * loss + 0.01)),
        ],
        30.0,
        seed,
    )
    assert len(result.subflow_stats) == 1
    assert (
        result.summary["total_mbytes"],
        result.summary["mean_block_delay_ms"],
        int(result.subflow_stats[0]["packets_sent"]),
        result.extras["chunks_retransmitted"],
    ) == expected


def test_tcp_run_finishes_block_spans():
    """Spans are a layer of the baseline, so conventional TCP has them."""
    result = run_transfer(
        "tcp",
        table1_path_configs(TABLE1_CASES[3]),
        duration_s=4.0,
        telemetry=TelemetryConfig(spans=True),
    )
    spans = result.telemetry.spans
    assert spans["finished"] > 0
    assert spans["max_conservation_error_s"] < 1e-9
