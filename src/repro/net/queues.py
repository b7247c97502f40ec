"""Link queues: drop-tail, ns-2's default and what the paper's paths use."""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Packet


class DropTailQueue(deque):
    """FIFO queue with a hard capacity in packets.

    ``capacity`` follows the ns-2 convention of counting the packet in
    service as part of queue occupancy is *not* used here: capacity limits
    only waiting packets; the link holds the in-service packet itself.

    The queue *is* a deque of its waiting packets, so the link tests and
    pops its head in C; packets enter only through :meth:`try_enqueue`,
    which enforces the capacity.
    """

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity
        self.drops = 0
        self.enqueues = 0
        self.high_watermark = 0

    @property
    def occupancy_bytes(self) -> int:
        return sum(packet.size for packet in self)

    def try_enqueue(self, packet: Packet) -> bool:
        """Append ``packet``; returns False (a tail drop) when full."""
        depth = len(self)
        if depth >= self.capacity:
            self.drops += 1
            return False
        self.append(packet)
        self.enqueues += 1
        if depth >= self.high_watermark:
            self.high_watermark = depth + 1
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the head packet, or ``None`` when empty."""
        return self.popleft() if self else None
