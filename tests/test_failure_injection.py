"""Failure injection: abrupt path death, blackouts, and recovery.

The paper's Fig. 4 surges loss to 25-35 %; these tests push further —
total path blackout and back — and assert both protocols stay live,
deliver exactly once, and recover, with FMTCP degrading the least.
"""

import pytest

from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.experiments.runner import build_connection, build_topology
from repro.metrics.collectors import MetricsSuite
from repro.net.loss import ScheduledLoss
from repro.net.topology import PathConfig, build_two_path_network
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.workloads.sources import BulkSource, RandomPayloadSource


def blackout_configs(start=10.0, end=20.0, base=0.0):
    """Path 2 goes totally dark during [start, end)."""
    return [
        PathConfig(bandwidth_bps=4e6, delay_s=0.050, loss_rate=base),
        PathConfig(
            bandwidth_bps=4e6,
            delay_s=0.050,
            loss_model=ScheduledLoss([(0.0, base), (start, 0.99), (end, base)]),
        ),
    ]


def run(protocol, configs, duration=30.0, seed=3, source=None, sink=None,
        fmtcp_config=None):
    trace, network, paths = build_topology(configs, seed)
    metrics = MetricsSuite(trace, bin_width_s=1.0)
    connection = build_connection(
        protocol, network.sim, paths,
        source if source is not None else BulkSource(), seed, trace,
        config=fmtcp_config if protocol == "fmtcp" else None, sink=sink,
    )
    connection.start()
    network.sim.run(until=duration)
    return connection, metrics


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_connection_survives_total_blackout(protocol):
    """Path 2 dead during [10, 20)s; the connection must keep moving on
    path 1 and re-engage path 2 within ~10 s of recovery (FMTCP's probing
    plus loss-estimate aging; MPTCP's retransmission obligation)."""
    connection, metrics = run(protocol, blackout_configs(), duration=45.0)
    series = dict(metrics.goodput.series(45.0))
    during = sum(rate for t, rate in series.items() if 12.0 <= t < 20.0) / 8.0
    after = sum(rate for t, rate in series.items() if 35.0 <= t < 45.0) / 10.0
    if protocol == "fmtcp":
        # FMTCP never stalls: the clean path keeps delivering throughout.
        assert during > 0.2
    # Both protocols return to (near) two-path rates once the path heals.
    assert after > 1.3 * max(during, 0.01)


def test_fmtcp_probes_dead_path():
    connection, __ = run("fmtcp", blackout_configs(), duration=30.0)
    assert connection.sender.probes_sent >= 5


def test_fmtcp_blackout_delivery_is_exact():
    config = FmtcpConfig(coding="real", max_pending_blocks=4)
    source = RandomPayloadSource(total_bytes=8 * config.block_bytes)
    chunks = {}
    connection, __ = run(
        "fmtcp",
        blackout_configs(start=2.0, end=8.0),
        duration=60.0,
        source=source,
        sink=lambda block_id, data: chunks.__setitem__(block_id, data),
        fmtcp_config=config,
    )
    reassembled = b"".join(chunks[block_id] for block_id in sorted(chunks))
    assert reassembled == bytes(source.transcript)


def test_mptcp_blackout_delivery_is_exact():
    source = RandomPayloadSource(total_bytes=300_000)
    received = bytearray()
    connection, __ = run(
        "mptcp",
        blackout_configs(start=2.0, end=8.0),
        duration=60.0,
        source=source,
        sink=lambda chunk: received.extend(chunk.payload_bytes),
    )
    assert bytes(received) == bytes(source.transcript)


def test_fmtcp_outdelivers_mptcp_through_blackout():
    fmtcp_conn, fmtcp_metrics = run("fmtcp", blackout_configs())
    mptcp_conn, mptcp_metrics = run("mptcp", blackout_configs())
    assert fmtcp_metrics.goodput.total_bytes > mptcp_metrics.goodput.total_bytes


def test_simultaneous_double_blackout_then_recovery():
    """Both paths dark for a window: nothing delivers, then both recover
    (RTO back-off must not wedge either protocol)."""
    def configs():
        dark = ScheduledLoss([(0.0, 0.0), (10.0, 0.99), (14.0, 0.0)])
        dark2 = ScheduledLoss([(0.0, 0.0), (10.0, 0.99), (14.0, 0.0)])
        return [
            PathConfig(bandwidth_bps=4e6, delay_s=0.050, loss_model=dark),
            PathConfig(bandwidth_bps=4e6, delay_s=0.050, loss_model=dark2),
        ]

    for protocol in ("fmtcp", "mptcp"):
        connection, metrics = run(protocol, configs(), duration=40.0)
        series = dict(metrics.goodput.series(40.0))
        tail = sum(rate for t, rate in series.items() if 25.0 <= t < 40.0)
        assert tail > 0.0, f"{protocol} never recovered from the double blackout"


def test_fmtcp_timers_quiet_after_finite_transfer():
    """After a finite transfer completes, the event queue drains — no
    timer leaks keeping the simulation alive forever. Exact accounting:
    anything still pending must be a cancelled timer tombstone, and after
    close() + drain_cancelled() the heap is empty."""
    config = FmtcpConfig(max_pending_blocks=4)
    source = BulkSource(total_bytes=6 * config.block_bytes)
    trace = TraceBus()
    network, paths = build_two_path_network(
        [PathConfig(bandwidth_bps=4e6, delay_s=0.02)],
        rng=RngStreams(1), trace=trace,
    )
    connection = FmtcpConnection(
        network.sim, paths, source, config=config, trace=trace, rng=RngStreams(1)
    )
    connection.start()
    network.sim.run(until=30.0)
    assert connection.delivered_blocks == 6
    # Every live timer belongs to the connection; closing it cancels them.
    connection.close()
    network.sim.drain_cancelled()
    assert network.sim.pending_events == 0
    # And with nothing pending, another run() is an immediate no-op.
    events_before = network.sim.events_processed
    network.sim.run()
    assert network.sim.events_processed == events_before
