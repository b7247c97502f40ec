"""Link queues: drop-tail, ns-2's default and what the paper's paths use."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.packet import Packet


class DropTailQueue:
    """FIFO queue with a hard capacity in packets.

    ``capacity`` follows the ns-2 convention of counting the packet in
    service as part of queue occupancy is *not* used here: capacity limits
    only waiting packets; the link holds the in-service packet itself.
    """

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: Deque[Packet] = deque()
        self.drops = 0
        self.enqueues = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def occupancy_bytes(self) -> int:
        return sum(packet.size for packet in self._queue)

    def try_enqueue(self, packet: Packet) -> bool:
        """Append ``packet``; returns False (a tail drop) when full."""
        if len(self._queue) >= self.capacity:
            self.drops += 1
            return False
        self._queue.append(packet)
        self.enqueues += 1
        if len(self._queue) > self.high_watermark:
            self.high_watermark = len(self._queue)
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the head packet, or ``None`` when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def clear(self) -> None:
        self._queue.clear()
