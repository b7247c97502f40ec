"""Edge-case tests for subflow ACK/loss machinery and congestion details."""

import pytest

from repro.tcp.congestion import RenoController
from repro.tcp.subflow import SubflowAck, SubflowSink
from tests.conftest import make_single_path, make_subflow
from tests.test_tcp_subflow import ScriptedOwner, build


def test_duplicate_ack_for_same_seq_is_ignored():
    """A replayed ACK (echo for an already-acked seq) must not double-count."""
    network, subflow, owner, __ = build(supply=3)
    subflow.pump()
    network.sim.run()
    acked_before = subflow.packets_acked
    cwnd_before = subflow.cc.cwnd
    # Replay an ACK for seq 0 directly into the sender port handler.
    subflow._on_ack_packet(
        type("P", (), {"payload": SubflowAck(0, None)})()
    )
    assert subflow.packets_acked == acked_before
    assert subflow.cc.cwnd == cwnd_before


def test_ack_for_lost_declared_packet_clears_tombstone():
    network, subflow, owner, __ = build(supply=1)
    subflow.pump()
    # Forcefully declare the only packet lost, then let its real ACK land.
    subflow._declare_lost(0, "dupack")
    assert 0 in subflow._declared_lost
    network.sim.run()
    assert 0 not in subflow._declared_lost
    # The payload was reported lost exactly once.
    assert len(owner.lost) == 1


def test_recovery_episode_halves_window_once():
    """Multiple dup-ack losses within one flight halve cwnd only once."""
    network, subflow, owner, __ = build(loss=0.0, supply=30)
    subflow.cc.cwnd = 16.0
    subflow.cc.ssthresh = 8.0
    subflow.pump()
    # Manually declare three packets of the same flight lost.
    before = subflow.cc.fast_recoveries
    for seq in (0, 1, 2):
        subflow._declare_lost(seq, "dupack")
    assert subflow.cc.fast_recoveries == before + 1
    network.sim.run()


def test_timeout_counts_every_outstanding_packet():
    network, subflow, owner, __ = build(supply=2)  # exactly one window
    subflow.pump()
    in_flight = subflow.in_flight
    assert in_flight == 2
    subflow._on_rto()
    # Go-back-N: every outstanding packet was declared lost...
    assert subflow.packets_lost_timeout == in_flight
    assert len(owner.lost) == in_flight
    # ...and with the supply exhausted, nothing was re-sent.
    assert subflow.in_flight == 0
    network.sim.run()


def test_window_space_never_negative():
    network, subflow, owner, __ = build(supply=50)
    subflow.pump()
    subflow.cc.cwnd = 1.0  # collapse the window below in-flight
    assert subflow.window_space == 0


def test_tau_uses_oldest_packet():
    network, subflow, owner, __ = build(supply=2, delay=0.5)
    subflow.pump()
    network.sim.run(until=0.2)
    first_tau = subflow.tau
    assert first_tau == pytest.approx(0.2, abs=1e-6)


def test_sink_counts_received_packets():
    network, path, trace = make_single_path()
    owner = ScriptedOwner(7)
    subflow = make_subflow(network.sim, path, owner)
    sink = SubflowSink(network.sim, path, subflow, on_segment=lambda sf, seg: None)
    subflow.pump()
    network.sim.run()
    assert sink.packets_received == 7


def test_loss_estimate_unprimed_is_zero():
    network, subflow, owner, __ = build(supply=0)
    assert subflow.loss_rate_estimate == 0.0
    assert subflow.aged_loss_estimate(5.0) == 0.0


def test_aged_estimate_decays_only_after_quiet():
    network, subflow, owner, __ = build(supply=0)
    subflow.loss_rate_estimate = 0.8
    # Never saw a loss timestamp: aging has no anchor, estimate unchanged.
    assert subflow.aged_loss_estimate(5.0) == pytest.approx(0.8)
    subflow.last_loss_observed_at = 0.0
    network.sim.schedule(5.0, lambda: None)
    network.sim.run()
    assert subflow.aged_loss_estimate(5.0) == pytest.approx(0.4)
    assert subflow.aged_loss_estimate(None) == pytest.approx(0.8)


def test_outstanding_payloads_sorted_by_seq():
    network, subflow, owner, __ = build(supply=4)
    subflow.pump()
    payloads = subflow.outstanding_payloads()
    assert [seq for seq, __ in payloads] == sorted(seq for seq, __ in payloads)
    network.sim.run()
    assert subflow.outstanding_payloads() == []


def test_custom_initial_ssthresh():
    cc = RenoController()
    cc.ssthresh = 4.0
    cc.on_ack()
    cc.on_ack()  # cwnd 4 -> leaves slow start
    assert not cc.in_slow_start()


def test_tau_equals_scan_after_reordered_acks_dupack_losses_and_rto():
    """τ reads the head of ``_outstanding``; it must agree with a scan for
    the minimum ``sent_at`` however the window got its holes."""
    network, subflow, owner, __ = build(supply=60, delay=0.5, resend_lost=True)
    sim = network.sim

    def scanned_tau():
        sent = [info.sent_at for info in subflow._outstanding.values()]
        return sim.now - min(sent) if sent else 0.0

    def ack(seq):
        subflow._on_ack_packet(type("P", (), {"payload": SubflowAck(seq, None)})())
        assert subflow.tau == scanned_tau()

    subflow.cc.cwnd = 6.0
    subflow.pump()  # seqs 0-5 leave at t=0
    sim.run(until=0.1)
    ack(3)  # out of order: the window refills at t=0.1 behind older packets
    assert subflow.tau == pytest.approx(0.1)
    sim.run(until=0.2)
    ack(5)
    ack(4)  # third ACK above 0, 1 and 2: dup-ACK losses, resent at t=0.2
    assert subflow.packets_lost_dupack == 3
    assert subflow.tau == pytest.approx(0.1)  # oldest is now the t=0.1 refill
    sim.run(until=0.3)
    subflow._on_rto()  # gives up on the whole window and refills it at t=0.3
    assert subflow.packets_lost_timeout > 0
    assert subflow.tau == scanned_tau() == 0.0
    # From here the real ACK clock runs; check at every step to the end.
    while subflow.in_flight and sim.now < 120.0:
        sim.run(until=sim.now + 0.05)
        assert subflow.tau == scanned_tau()
    assert subflow.in_flight == 0 and subflow.tau == 0.0
