"""Direct unit tests for FmtcpSender internals and MPTCP credit waterfall."""

import pytest

from repro.core.blocks import BlockManager
from repro.core.config import FmtcpConfig
from repro.core.packets import FmtcpFeedback
from repro.core.sender import FmtcpSender
from repro.mptcp.connection import MptcpConfig, MptcpConnection
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.workloads.sources import BulkSource
from tests.conftest import make_two_path


class FakeSubflow:
    """Just enough of the Subflow surface for the sender's estimators."""

    def __init__(self, subflow_id, srtt=0.2, rto=0.4, loss=0.0, window_space=4,
                 tau=0.0, in_flight=0, last_transmit_at=0.0, last_ack_at=None,
                 potentially_failed=False):
        self.subflow_id = subflow_id
        self.potentially_failed = potentially_failed
        self.is_joining = False
        self.srtt = srtt
        self.rto_value = rto
        self.loss_rate_estimate = loss
        self.window_space = window_space
        self.tau = tau
        self.in_flight = in_flight
        # Subflow's in-flight map, which next_payload's probe guard reads.
        self._outstanding = dict.fromkeys(range(in_flight))
        self.last_transmit_at = last_transmit_at
        self.last_ack_at = last_ack_at
        self.pumped = 0
        self.last_loss_observed_at = None

    def aged_loss_estimate(self, half_life):
        return self.loss_rate_estimate

    def pump(self):
        self.pumped += 1


def make_sender(config=None, subflows=None, trace=None):
    config = config or FmtcpConfig()
    sim = Simulator()
    manager = BlockManager(config, BulkSource())
    sender = FmtcpSender(sim, config, manager, trace=trace)
    sender.attach_subflows(subflows or [FakeSubflow(0), FakeSubflow(1)])
    return sender, sim


# ----------------------------------------------------------------------
# Loss-rate clamping.
# ----------------------------------------------------------------------
def test_loss_rate_clamped_below_one():
    sender, __ = make_sender(subflows=[FakeSubflow(0, loss=0.999)])
    assert sender.loss_rate_of(0) == pytest.approx(0.95)


# ----------------------------------------------------------------------
# Probe triggering.
# ----------------------------------------------------------------------
def test_probe_fires_after_idle_interval():
    sender, sim = make_sender()
    subflow = sender.subflows[0]
    subflow.last_transmit_at = 0.0
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sender._should_probe(subflow)


def test_probe_suppressed_while_in_flight():
    sender, sim = make_sender()
    subflow = sender.subflows[0]
    subflow.in_flight = 1
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert not sender._should_probe(subflow)


def test_probe_chain_fires_right_after_ack_on_distrusted_path():
    sender, sim = make_sender()
    subflow = sender.subflows[0]
    sim.schedule(2.0, lambda: None)
    sim.run()
    subflow.last_transmit_at = sim.now  # just transmitted: interval not met
    subflow.last_ack_at = sim.now  # ...but an ACK just landed
    subflow.loss_rate_estimate = 0.5  # and the path is still distrusted
    assert sender._should_probe(subflow)
    subflow.loss_rate_estimate = 0.05  # trusted path: no chain needed
    assert not sender._should_probe(subflow)


def test_probe_payload_uses_last_pending_block():
    sender, sim = make_sender()
    subflow = sender.subflows[0]
    sim.schedule(2.0, lambda: None)
    sim.run()
    payload, size = sender.next_payload(subflow)
    assert sender.probes_sent == 1
    last_block = sender.blocks.pending_blocks[-1]
    # record_sent happened against the probed block.
    probed_ids = [group.block_id for group in payload.groups]
    assert probed_ids == [last_block.block_id]


# ----------------------------------------------------------------------
# Feedback processing.
# ----------------------------------------------------------------------
def test_feedback_confirms_frontier_and_out_of_order():
    trace = TraceBus()
    done = []
    trace.subscribe("conn.block_done", done.append)
    sender, sim = make_sender(trace=trace)
    sender.blocks.replenish()
    for block in sender.blocks.pending_blocks[:4]:
        block.record_sent(0, 1, now=0.0)  # ensure first_tx_at is set
    feedback = FmtcpFeedback(
        k_bar={}, decoded_in_order=2, decoded_out_of_order=(3,)
    )
    sender.on_ack_feedback(sender.subflows[0], feedback)
    confirmed = sorted(record["block_id"] for record in done)
    assert confirmed == [0, 1, 3]
    # Every subflow got a pump after feedback.
    assert all(subflow.pumped >= 1 for subflow in sender.subflows)


def test_feedback_is_idempotent():
    sender, sim = make_sender()
    sender.blocks.replenish()
    for block in sender.blocks.pending_blocks[:2]:
        block.record_sent(0, 1, now=0.0)
    feedback = FmtcpFeedback(k_bar={}, decoded_in_order=2, decoded_out_of_order=())
    sender.on_ack_feedback(sender.subflows[0], feedback)
    completed = sender.blocks.blocks_completed
    sender.on_ack_feedback(sender.subflows[0], feedback)
    assert sender.blocks.blocks_completed == completed


def test_k_bar_update_reaches_blocks():
    sender, __ = make_sender()
    sender.blocks.replenish()
    sender.on_ack_feedback(
        sender.subflows[0],
        FmtcpFeedback(k_bar={0: 17}, decoded_in_order=0, decoded_out_of_order=()),
    )
    assert sender.blocks.block_by_id(0).k_bar == 17


# ----------------------------------------------------------------------
# MPTCP waterfall credit arbitration (via a real connection).
# ----------------------------------------------------------------------
def test_waterfall_reserves_credit_for_preferred_subflow():
    network, paths, trace = make_two_path(delay1=0.01, delay2=0.20)
    connection = MptcpConnection(
        network.sim,
        paths,
        BulkSource(),
        config=MptcpConfig(recv_buffer_chunks=8),
        trace=trace,
    )
    connection.start()
    network.sim.run(until=5.0)
    fast, slow = connection.subflows
    # Under an 8-chunk credit, the fast (low-RTT) subflow should carry the
    # overwhelming majority of traffic.
    assert fast.packets_sent > 5 * slow.packets_sent


def test_waterfall_lets_slow_subflow_use_leftover_credit():
    network, paths, trace = make_two_path(delay1=0.01, delay2=0.20)
    connection = MptcpConnection(
        network.sim,
        paths,
        BulkSource(),
        config=MptcpConfig(recv_buffer_chunks=256),
        trace=trace,
    )
    connection.start()
    network.sim.run(until=5.0)
    __, slow = connection.subflows
    # Ample credit: even the slow subflow fills its own window.
    assert slow.packets_sent > 50
