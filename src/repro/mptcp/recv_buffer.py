"""Connection-level reorder buffer.

Holds out-of-order chunks until the in-order gap fills. Its capacity is
what the receiver advertises back to the sender; when a chunk lost on a
slow subflow leaves a gap, the buffer fills with data from the fast
subflow and the advertised window collapses — the "receive buffer
blocking" of Iyengar et al. that the paper's Section II discusses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


class BufferOverflowError(OverflowError):
    """A reorder-buffer insert that flow control should have prevented.

    Carries the state a post-mortem needs: the offending sequence
    number, the in-order frontier, and how full the buffer was. Subclass
    of :class:`OverflowError` so pre-existing handlers keep working.
    """

    def __init__(self, seq: int, next_expected: int, occupancy: int, capacity: int):
        self.seq = seq
        self.next_expected = next_expected
        self.occupancy = occupancy
        self.capacity = capacity
        super().__init__(
            f"reorder buffer overflow at seq {seq}: {occupancy}/{capacity} "
            f"out-of-order chunks buffered, next expected {next_expected} — "
            f"flow control must prevent this"
        )


class ReorderBuffer:
    """In-order assembly of connection-sequenced chunks.

    Sequence numbers are chunk indices (packet-based sequencing, as in the
    rest of the substrate). The sender's flow control must guarantee
    occupancy never exceeds ``capacity``; :meth:`insert` enforces that
    invariant with an exception rather than a silent drop, because
    acknowledged TCP data can never legally vanish. With a ``trace`` bus
    attached, a ``recv.overflow`` record is emitted before raising so the
    flight recorder captures the terminal state.
    """

    def __init__(
        self,
        capacity: int,
        trace: Optional[Any] = None,
        clock: Optional[Callable[[], float]] = None,
        start_seq: int = 0,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if start_seq < 0:
            raise ValueError(f"start_seq must be >= 0, got {start_seq}")
        self.capacity = capacity
        self.trace = trace
        self.clock = clock
        self._buffered: Dict[int, Any] = {}
        # Nonzero when a crash-recovered receiver resumes at its delivered
        # frontier: earlier sequence numbers count as duplicates (MPTCP's
        # chunk-map restore — contrast FMTCP, which discards decode state).
        self.next_expected = int(start_seq)
        self.duplicates = 0
        self.high_watermark = 0

    @property
    def occupancy(self) -> int:
        return len(self._buffered)

    @property
    def advertised_window(self) -> int:
        """Chunks the sender may still have outstanding beyond delivery."""
        return self.capacity - len(self._buffered)

    def insert(self, seq: int, chunk: Any) -> List[Tuple[int, Any]]:
        """Insert chunk ``seq``; returns the chunks that became deliverable.

        Old or duplicate sequence numbers are counted and ignored.
        """
        if seq < self.next_expected or seq in self._buffered:
            self.duplicates += 1
            return []
        if seq == self.next_expected:
            delivered = [(seq, chunk)]
            self.next_expected += 1
            while self.next_expected in self._buffered:
                delivered.append(
                    (self.next_expected, self._buffered.pop(self.next_expected))
                )
                self.next_expected += 1
            return delivered
        if len(self._buffered) >= self.capacity:
            error = BufferOverflowError(
                seq=seq,
                next_expected=self.next_expected,
                occupancy=len(self._buffered),
                capacity=self.capacity,
            )
            if self.trace is not None and "recv.overflow" in self.trace.live:
                self.trace.emit(
                    self.clock() if self.clock is not None else 0.0,
                    "recv.overflow",
                    seq=seq,
                    next_expected=self.next_expected,
                    occupancy=len(self._buffered),
                    capacity=self.capacity,
                )
            raise error
        self._buffered[seq] = chunk
        if len(self._buffered) > self.high_watermark:
            self.high_watermark = len(self._buffered)
        return []
