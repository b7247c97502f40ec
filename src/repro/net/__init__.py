"""Packet-level network substrate (the ns-2 stand-in).

Provides hosts, source-routed forwarding, duplex links with bandwidth,
propagation delay and drop-tail queueing, pluggable loss models (Bernoulli,
scheduled/time-varying, Gilbert–Elliott), and topology builders — including
the paper's two-disjoint-path topology.
"""

from repro.net.corruption import (
    CORRUPTION_EFFECTS,
    BernoulliCorruption,
    CorruptedPayload,
    CorruptionModel,
    GilbertElliottCorruption,
    NoCorruption,
    corrupt_packet,
)
from repro.net.integrity import packet_checksum, payload_digest, seal, verify
from repro.net.loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    ScheduledLoss,
)
from repro.net.link import Link
from repro.net.reorder import NoReordering, ReorderingModel, UniformReordering
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.topology import Network, Path, PathConfig, build_two_path_network

__all__ = [
    "BernoulliCorruption",
    "BernoulliLoss",
    "CORRUPTION_EFFECTS",
    "CorruptedPayload",
    "CorruptionModel",
    "DropTailQueue",
    "GilbertElliottCorruption",
    "GilbertElliottLoss",
    "Link",
    "LossModel",
    "Network",
    "NoCorruption",
    "NoLoss",
    "NoReordering",
    "ReorderingModel",
    "UniformReordering",
    "Node",
    "Packet",
    "Path",
    "PathConfig",
    "ScheduledLoss",
    "build_two_path_network",
    "corrupt_packet",
    "packet_checksum",
    "payload_digest",
    "seal",
    "verify",
]
