"""Integration-style unit tests for the TCP subflow machinery."""

import cProfile

import pytest

from repro.tcp.congestion import RenoController
from repro.tcp.subflow import SubflowOwner, SubflowSink
from tests.conftest import make_single_path, make_subflow


class ScriptedOwner(SubflowOwner):
    """Supplies ``supply`` payloads then dries up; records callbacks."""

    def __init__(self, supply: int, size: int = 1000, resend_lost: bool = False):
        self.remaining = supply
        self.size = size
        self.resend_lost = resend_lost
        self.delivered = []
        self.lost = []
        self.feedback = []
        self._resend_queue = []

    def next_payload(self, subflow):
        if self._resend_queue:
            return self._resend_queue.pop(0), self.size
        if self.remaining <= 0:
            return None
        self.remaining -= 1
        return f"payload-{self.remaining}", self.size

    def on_payload_delivered(self, subflow, info):
        self.delivered.append(info.payload)

    def on_payload_lost(self, subflow, info, reason):
        self.lost.append((info.payload, reason))
        if self.resend_lost:
            self._resend_queue.append(info.payload)

    def on_ack_feedback(self, subflow, feedback):
        self.feedback.append(feedback)


def build(loss=0.0, supply=10, delay=0.010, resend_lost=False, feedback=None):
    network, path, trace = make_single_path(loss=loss, delay=delay)
    owner = ScriptedOwner(supply, resend_lost=resend_lost)
    subflow = make_subflow(network.sim, path, owner, subflow_id=0)
    sink = SubflowSink(
        network.sim,
        path,
        subflow,
        on_segment=lambda sf, segment: None,
        feedback_provider=feedback,
    )
    return network, subflow, owner, sink


def test_clean_path_delivers_everything():
    network, subflow, owner, __ = build(supply=20)
    subflow.pump()
    network.sim.run()
    assert len(owner.delivered) == 20
    assert owner.lost == []
    assert subflow.in_flight == 0


def test_cwnd_limits_initial_burst():
    network, subflow, owner, __ = build(supply=100)
    subflow.pump()
    # Before any ACK, only the initial window may be outstanding.
    assert subflow.in_flight == subflow.cc.window
    network.sim.run()
    assert len(owner.delivered) == 100


def test_rtt_measured_close_to_path_rtt():
    network, subflow, owner, __ = build(supply=30, delay=0.050)
    subflow.pump()
    network.sim.run()
    assert subflow.rto.srtt == pytest.approx(0.1, rel=0.3)


def test_lossy_path_reports_losses_and_recovers_window_space():
    network, subflow, owner, __ = build(loss=0.3, supply=200)
    subflow.pump()
    network.sim.run(until=60.0)
    assert owner.lost, "expected losses on a 30% path"
    assert len(owner.delivered) + len(owner.lost) == 200
    assert subflow.in_flight == 0


def test_loss_reasons_are_dupack_or_timeout():
    network, subflow, owner, __ = build(loss=0.2, supply=300)
    subflow.pump()
    network.sim.run(until=60.0)
    reasons = {reason for __, reason in owner.lost}
    assert reasons <= {"dupack", "timeout"}
    assert "dupack" in reasons  # enough traffic for fast detection


def test_resend_lost_payloads_achieves_reliability():
    network, subflow, owner, __ = build(loss=0.25, supply=100, resend_lost=True)
    subflow.pump()
    network.sim.run(until=120.0)
    # Every one of the 100 distinct payloads eventually delivered.
    assert len(set(owner.delivered)) == 100


def test_loss_estimate_converges_to_path_rate():
    network, subflow, owner, __ = build(loss=0.15, supply=3000)
    subflow.pump()
    network.sim.run(until=300.0)
    assert subflow.loss_rate_estimate == pytest.approx(0.15, abs=0.08)


def test_feedback_piggybacked_on_acks():
    network, path, trace = make_single_path()
    owner = ScriptedOwner(5)
    subflow = make_subflow(network.sim, path, owner, subflow_id=0)
    SubflowSink(
        network.sim,
        path,
        subflow,
        on_segment=lambda sf, segment: None,
        feedback_provider=lambda sf, segment: {"echo_of": segment.seq},
    )
    subflow.pump()
    network.sim.run()
    assert [fb["echo_of"] for fb in owner.feedback] == [0, 1, 2, 3, 4]


def test_window_space_and_tau():
    network, subflow, owner, __ = build(supply=3, delay=0.050)
    subflow.pump()
    assert subflow.window_space == max(0, subflow.cc.window - 3) or subflow.in_flight == 3
    assert subflow.tau == 0.0  # nothing elapsed yet
    network.sim.run(until=0.03)
    assert subflow.tau == pytest.approx(0.03, abs=1e-6)
    network.sim.run()
    assert subflow.tau == 0.0  # all acked


def test_congestion_window_reduced_on_loss():
    network, subflow, owner, __ = build(loss=0.3, supply=400)
    initial_window = subflow.cc.window
    subflow.pump()
    network.sim.run(until=30.0)
    assert subflow.cc.fast_recoveries + subflow.cc.timeouts > 0
    assert subflow.packets_lost_dupack + subflow.packets_lost_timeout == len(owner.lost)
    assert initial_window >= 1  # sanity


def test_sequence_numbers_never_reused():
    network, subflow, owner, __ = build(loss=0.2, supply=50, resend_lost=True)
    seen = []
    original = subflow._transmit

    def spy(payload, size):
        seen.append(subflow.next_seq)
        original(payload, size)

    subflow._transmit = spy
    subflow.pump()
    network.sim.run(until=60.0)
    assert len(seen) == len(set(seen))


def test_oversized_payload_rejected():
    network, subflow, owner, __ = build()
    with pytest.raises(ValueError):
        subflow._transmit("too-big", subflow.mss + 1)


def test_close_unbinds_and_stops_timer():
    network, subflow, owner, sink = build(supply=1)
    subflow.pump()
    network.sim.run()
    subflow.close()
    sink.close()
    # Port can be rebound after close.
    subflow.src_node.bind(subflow.src_port, lambda packet: None)


class QuietOwner(SubflowOwner):
    """Supplies ``supply`` payloads and keeps every default hook."""

    def __init__(self, supply: int):
        self.remaining = supply

    def next_payload(self, subflow):
        if self.remaining <= 0:
            return None
        self.remaining -= 1
        return self.remaining, 1000


def _run_profiled(owner):
    network, path, __ = make_single_path()
    subflow = make_subflow(network.sim, path, owner)
    SubflowSink(network.sim, path, subflow, on_segment=lambda sf, segment: None)
    subflow.pump()
    profile = cProfile.Profile()
    profile.runcall(network.sim.run)
    called = {getattr(entry.code, "co_name", None) for entry in profile.getstats()}
    return subflow, called


def test_delivered_hook_is_called_only_for_an_owner_that_overrides_it():
    # An overriding owner sees every acknowledged packet, once.
    network, subflow, owner, __ = build(supply=20)
    subflow.pump()
    network.sim.run()
    assert owner.delivered == [f"payload-{n}" for n in reversed(range(20))]
    assert subflow.packets_acked == 20
    # One that keeps SubflowOwner's no-op costs the ACK path no call.
    subflow, called = _run_profiled(QuietOwner(20))
    assert subflow.packets_acked == 20
    assert "on_payload_delivered" not in called
    # A hook set on the instance counts as an override too.
    owner = QuietOwner(20)
    seen = []
    owner.on_payload_delivered = lambda subflow, info: seen.append(info.payload)
    subflow, called = _run_profiled(owner)
    assert sorted(seen) == list(range(20)) and subflow.packets_acked == 20


def test_custom_congestion_controller_used():
    network, path, trace = make_single_path()
    cc = RenoController()
    cc.cwnd = 1.0
    owner = ScriptedOwner(10)
    subflow = make_subflow(network.sim, path, owner, congestion=cc)
    SubflowSink(network.sim, path, subflow, on_segment=lambda sf, segment: None)
    subflow.pump()
    assert subflow.in_flight == 1  # initial cwnd of exactly one packet
    network.sim.run()
    assert len(owner.delivered) == 10
