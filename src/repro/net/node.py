"""Nodes: endpoints and forwarders.

Packets are source-routed — they carry the remaining chain of links — so a
node's forwarding job is just "push onto the next link". At the end of the
route, the node delivers the packet to the transport agent bound to the
destination port.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.net.packet import Packet
from repro.sim.trace import TraceBus

PortHandler = Callable[[Packet], Any]


class Node:
    """A host or router."""

    def __init__(self, name: str, trace: Optional[TraceBus] = None):
        self.name = name
        self.trace = trace
        self._ports: Dict[int, PortHandler] = {}
        self._next_ephemeral = 49152
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_undeliverable = 0

    def bind(self, port: int, handler: PortHandler) -> None:
        """Register ``handler`` to receive packets addressed to ``port``."""
        if port in self._ports:
            raise ValueError(f"port {port} already bound on node {self.name}")
        self._ports[port] = handler

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    def allocate_port(self) -> int:
        """Hand out an unused ephemeral port number."""
        while self._next_ephemeral in self._ports:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def receive(self, packet: Packet) -> None:
        """Forward along the source route, or deliver locally at its end."""
        route = packet.route
        index = packet.route_index
        if index < len(route):
            packet.route_index = index + 1
            self.packets_forwarded += 1
            route[index].send(packet)
            return
        self.packets_received += 1
        handler = self._ports.get(packet.dst_port)
        if handler is None:
            self.packets_undeliverable += 1
            return
        handler(packet)
