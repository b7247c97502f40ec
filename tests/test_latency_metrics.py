"""Tests for application-level time-in-system latency tracking."""

import pytest

from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.metrics.latency import AppLatencyCollector
from repro.metrics.stats import mean
from repro.mptcp.connection import MptcpConfig, MptcpConnection
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.workloads.sources import CbrSource
from repro.workloads.video import VbrVideoSource
from tests.conftest import make_two_path


class TimedCbrSource(CbrSource):
    """A CBR source that answers the latency collector: byte ``offset``
    exists once ``rate_bps`` has accrued ``offset + 1`` bytes."""

    def creation_time_of(self, offset: int) -> float:
        return (offset + 1) * 8.0 / self.rate_bps


# ----------------------------------------------------------------------
# creation_time_of on the streaming sources.
# ----------------------------------------------------------------------
def test_cbr_creation_time_is_linear_in_offset():
    sim = Simulator()
    source = TimedCbrSource(sim, rate_bps=8000.0)  # 1000 bytes/s
    assert source.creation_time_of(999) == pytest.approx(1.0)
    assert source.creation_time_of(499) == pytest.approx(0.5)
    # The source grants exactly those bytes by those times.
    sim.schedule_at(0.5, lambda: None)
    sim.run()
    assert source.pull(10_000) == 500
    sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert source.pull(10_000) == 500


def test_vbr_creation_time_steps_at_frame_boundaries(monkeypatch):
    sim = Simulator()
    monkeypatch.setattr(VbrVideoSource, "JITTER_FRACTION", 0.0)
    monkeypatch.setattr(VbrVideoSource, "fps", 10.0)
    source = VbrVideoSource(sim, seed=1)

    class Nop:
        def pump(self):
            pass

    source.attach(Nop())
    sim.run(until=1.0)
    first_frame = source.frame_sizes[0]
    # Bytes of the first frame were created at its emit time (t=0.1).
    assert source.creation_time_of(0) == pytest.approx(0.1)
    assert source.creation_time_of(first_frame - 1) == pytest.approx(0.1)
    # The next byte belongs to the second frame.
    assert source.creation_time_of(first_frame) == pytest.approx(0.2)


# ----------------------------------------------------------------------
# End-to-end latency collection.
# ----------------------------------------------------------------------
def run_streaming(protocol, rate_bps=1.6e6, duration=20.0, loss2=0.1):
    network, paths, trace = make_two_path(loss2=loss2)
    source = TimedCbrSource(network.sim, rate_bps=rate_bps)
    collector = AppLatencyCollector(trace, source)
    if protocol == "fmtcp":
        connection = FmtcpConnection(
            network.sim, paths, source, config=FmtcpConfig(), trace=trace,
            rng=RngStreams(9),
        )
    else:
        connection = MptcpConnection(
            network.sim, paths, source, config=MptcpConfig(), trace=trace
        )
    source.attach(connection)
    connection.start()
    network.sim.run(until=duration)
    return collector


def test_latency_samples_collected_and_positive():
    collector = run_streaming("fmtcp")
    assert len(collector.samples) > 100
    assert all(latency > 0 for latency in collector.latencies())
    assert mean(collector.latencies()) < 2.0  # transport keeps up with CBR


def test_stall_fraction_monotone_in_deadline():
    collector = run_streaming("fmtcp")
    fractions = [collector.stall_fraction(d) for d in (0.05, 0.2, 1.0, 5.0)]
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[-1] < 0.05  # nearly everything arrives within 5 s


def test_fmtcp_latency_tail_beats_mptcp():
    fmtcp = run_streaming("fmtcp")
    mptcp = run_streaming("mptcp")
    assert (
        fmtcp.percentile_latency_s(95) < mptcp.percentile_latency_s(95)
    )


def test_empty_collector_degenerates_gracefully():
    trace = TraceBus()
    sim = Simulator()
    collector = AppLatencyCollector(trace, TimedCbrSource(sim, rate_bps=1e6))
    assert mean(collector.latencies()) == 0.0
    assert collector.stall_fraction(1.0) == 1.0
