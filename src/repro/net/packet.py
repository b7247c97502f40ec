"""The simulated packet.

A packet carries an opaque transport payload plus the little header state
the substrate needs: a size in bytes (for serialisation delay), a source
route (the remaining chain of links to traverse), and addressing
(destination node / port) for final delivery.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Tuple

_uid_counter = itertools.count()


class Packet:
    """One simulated datagram.

    ``payload`` is whatever object the sending transport put in; the
    substrate never inspects it. ``size`` is the on-the-wire size in bytes
    and drives transmission delay on links.
    """

    __slots__ = (
        "uid",
        "size",
        "src",
        "dst",
        "src_port",
        "dst_port",
        "payload",
        "route",
        "route_index",
        "sent_at",
        "flow_label",
        "checksum",
    )

    def __init__(
        self,
        size: int,
        src: str,
        dst: str,
        src_port: int,
        dst_port: int,
        payload: Any = None,
        flow_label: Optional[str] = None,
    ):
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.uid = next(_uid_counter)
        self.size = int(size)
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        self.route: Tuple[Any, ...] = ()
        self.route_index = 0
        self.sent_at: Optional[float] = None
        self.flow_label = flow_label
        # Set by repro.net.integrity.seal; None means unsealed (always
        # verifies, so transports opt in per packet).
        self.checksum: Optional[int] = None

    def clone(self, payload: Any = None) -> "Packet":
        """A mid-flight copy (fresh uid) continuing the same journey.

        Used by corruption models that duplicate a packet on the wire:
        the copy keeps the original's routing progress, timestamps and
        checksum, optionally with ``payload`` substituted.
        """
        copy = Packet(
            size=self.size,
            src=self.src,
            dst=self.dst,
            src_port=self.src_port,
            dst_port=self.dst_port,
            payload=self.payload if payload is None else payload,
            flow_label=self.flow_label,
        )
        copy.route = self.route
        copy.route_index = self.route_index
        copy.sent_at = self.sent_at
        copy.checksum = self.checksum
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.uid} {self.src}:{self.src_port}->"
            f"{self.dst}:{self.dst_port} {self.size}B {self.flow_label or ''}>"
        )
