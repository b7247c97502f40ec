"""Tests for the VBR video source, and for what a saturating flow does
to a link's queue and utilisation."""

import pytest

from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.metrics.collectors import MetricsSuite
from repro.net.topology import PathConfig, build_two_path_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceBus
from repro.workloads.sources import BulkSource
from repro.workloads.video import VbrVideoSource


# ----------------------------------------------------------------------
# VBR source.
# ----------------------------------------------------------------------
class PumpCounter:
    def __init__(self):
        self.pumps = 0

    def pump(self):
        self.pumps += 1


def test_vbr_mean_rate_matches_target():
    sim = Simulator()
    source = VbrVideoSource(sim, mean_rate_bps=2.4e6, seed=1)
    source.attach(PumpCounter())
    sim.run(until=20.0)
    produced_bits = sum(source.frame_sizes) * 8
    assert produced_bits / 20.0 == pytest.approx(2.4e6, rel=0.1)


def test_vbr_iframes_are_larger(monkeypatch):
    monkeypatch.setattr(VbrVideoSource, "GOP_PATTERN", "IPPP")
    monkeypatch.setattr(VbrVideoSource, "JITTER_FRACTION", 0.0)
    sim = Simulator()
    source = VbrVideoSource(sim, seed=2)
    source.attach(PumpCounter())
    sim.run(until=4.0)
    i_frames = source.frame_sizes[0::4]
    p_frames = source.frame_sizes[1::4]
    assert min(i_frames) > max(p_frames)


def test_vbr_pull_respects_buffer(monkeypatch):
    monkeypatch.setattr(VbrVideoSource, "fps", 10.0)
    sim = Simulator()
    source = VbrVideoSource(sim, mean_rate_bps=8e5, seed=3)
    assert source.pull(1000) == 0  # nothing emitted yet
    source.attach(PumpCounter())
    sim.run(until=0.5)
    total = 0
    while True:
        granted = source.pull(1400)
        if not granted:
            break
        total += granted
    assert total == sum(source.frame_sizes)


def test_vbr_wakes_connection_per_frame():
    sim = Simulator()
    counter = PumpCounter()
    source = VbrVideoSource(sim, seed=5)
    source.attach(counter)
    sim.run(until=1.0)
    assert 24 <= counter.pumps <= 26  # one per frame at 25 fps


def test_vbr_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        VbrVideoSource(sim, mean_rate_bps=0.0)


def test_vbr_streams_over_fmtcp():
    trace = TraceBus()
    network, paths = build_two_path_network(
        [
            PathConfig(bandwidth_bps=6e6, delay_s=0.02),
            PathConfig(bandwidth_bps=6e6, delay_s=0.04, loss_rate=0.05),
        ],
        rng=RngStreams(6),
        trace=trace,
    )
    metrics = MetricsSuite(trace)
    source = VbrVideoSource(network.sim, mean_rate_bps=2e6, seed=6)
    connection = FmtcpConnection(
        network.sim, paths, source, config=FmtcpConfig(), trace=trace,
        rng=RngStreams(6),
    )
    source.attach(connection)
    connection.start()
    network.sim.run(until=20.0)
    # Everything the codec produced (minus the tail in flight) delivered.
    assert metrics.goodput.total_bytes > 0.9 * sum(source.frame_sizes)


# ----------------------------------------------------------------------
# Link state under a saturating flow (sampled with a plain PeriodicTimer).
# ----------------------------------------------------------------------
def saturated_link_network():
    trace = TraceBus()
    network, paths = build_two_path_network(
        [PathConfig(bandwidth_bps=4e6, delay_s=0.05)],
        rng=RngStreams(7),
        trace=trace,
    )
    connection = FmtcpConnection(
        network.sim, paths, BulkSource(), config=FmtcpConfig(), trace=trace,
        rng=RngStreams(7),
    )
    return network, paths[0].forward_links[0], connection


def test_reno_keeps_a_standing_droptail_queue():
    network, link, connection = saturated_link_network()
    depths = []
    PeriodicTimer(
        network.sim, 0.1, lambda __: depths.append(len(link.queue))
    ).start()
    connection.start()
    network.sim.run(until=20.0)
    # Reno fills the drop-tail queue: a standing queue tens deep.
    assert sum(depths) / len(depths) > 20
    assert max(depths) <= link.queue.capacity == 100


def test_saturating_fmtcp_flow_keeps_the_link_utilised():
    network, link, connection = saturated_link_network()
    delivered = []
    PeriodicTimer(
        network.sim, 1.0, lambda __: delivered.append(link.bytes_delivered)
    ).start()
    connection.start()
    network.sim.run(until=10.0)
    # Utilisation per second against the configured bandwidth: 1.0 means
    # the wire was busy for the whole second.
    per_second = [
        (after - before) * 8.0 / link.bandwidth_bps
        for before, after in zip(delivered, delivered[1:])
    ]
    assert len(per_second) == 10
    assert sum(per_second) / len(per_second) > 0.85
    assert all(value <= 1.05 for value in per_second)
