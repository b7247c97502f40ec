"""Unit tests for packets and drop-tail queues."""

import pytest

from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue


def make_packet(size=100):
    return Packet(size=size, src="a", dst="b", src_port=1, dst_port=2)


# ----------------------------------------------------------------------
# Packet.
# ----------------------------------------------------------------------
def test_packet_uids_are_unique():
    a, b = make_packet(), make_packet()
    assert a.uid != b.uid


def test_packet_size_validation():
    with pytest.raises(ValueError):
        Packet(size=0, src="a", dst="b", src_port=1, dst_port=2)


class Hop:
    """A link stand-in: records what a node hands it."""

    def __init__(self, name, sent):
        self.name, self.sent = name, sent

    def send(self, packet):
        self.sent.append(self.name)


def test_packet_route_consumed_in_order():
    packet = make_packet()
    sent, node, delivered = [], Node("n"), []
    node.bind(2, delivered.append)
    packet.route = (Hop("link0", sent), Hop("link1", sent))
    for __ in range(3):
        node.receive(packet)
    assert sent == ["link0", "link1"] and delivered == [packet]


def test_packet_empty_route_delivers_immediately():
    packet = make_packet()
    node, delivered = Node("n"), []
    node.bind(2, delivered.append)
    node.receive(packet)
    assert delivered == [packet]


# ----------------------------------------------------------------------
# DropTailQueue.
# ----------------------------------------------------------------------
def test_queue_fifo_order():
    queue = DropTailQueue(capacity=10)
    packets = [make_packet() for __ in range(3)]
    for packet in packets:
        assert queue.try_enqueue(packet)
    assert [queue.popleft() for __ in range(3)] == packets


def test_queue_capacity_enforced():
    queue = DropTailQueue(capacity=2)
    assert queue.try_enqueue(make_packet())
    assert queue.try_enqueue(make_packet())
    assert not queue.try_enqueue(make_packet())
    assert queue.drops == 1
    assert len(queue) == 2


def test_queue_high_watermark_tracks_peak():
    queue = DropTailQueue(capacity=10)
    for __ in range(5):
        queue.try_enqueue(make_packet())
    for __ in range(5):
        queue.popleft()
    assert queue.high_watermark == 5


def test_queue_clear():
    queue = DropTailQueue()
    queue.try_enqueue(make_packet())
    queue.clear()
    assert len(queue) == 0


def test_queue_capacity_validation():
    with pytest.raises(ValueError):
        DropTailQueue(capacity=0)
