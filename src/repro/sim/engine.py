"""Heap-based discrete-event scheduler.

The engine executes callbacks at simulated timestamps. Determinism is a
hard requirement for the reproduction (every figure must be regenerable
bit-for-bit from a seed), so ties in time are broken by a monotonically
increasing insertion sequence number rather than by object identity. The
heap holds ``(time, seq, event)`` tuples so that ordering is compared in
C; ``seq`` is unique, so a comparison never reaches the event.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (negative delays, running twice, ...)."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` so callers can cancel
    them later. A cancelled event stays in the heap but is skipped when it
    reaches the front (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq} fn={self.fn!r}{state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "hello at t=1")
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        # Current simulated time in seconds. A plain attribute because
        # every layer reads it on every event; only the run loop writes it.
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._processed = 0
        self._profiler = None

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for progress reporting)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def profiler(self):
        """The attached :class:`~repro.telemetry.profiler.SimProfiler`, if any."""
        return self._profiler

    def set_profiler(self, profiler) -> None:
        """Attach (or with ``None`` detach) a profiler observing the run loop.

        The profiled branch only observes wall time — simulated behaviour
        is unchanged — and the unprofiled branch costs one ``is None``
        test per event.
        """
        self._profiler = profiler

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN, which `delay < 0` lets through
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if not time >= self.now:  # NaN compares False both ways: reject it too
            raise SimulationError(
                f"cannot schedule at {time!r}: not a time at or after "
                f"now={self.now!r}"
            )
        seq = self._seq
        event = Event(time, seq, fn, args)
        heapq.heappush(self._heap, (time, seq, event))
        self._seq = seq + 1
        return event

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Execute events in timestamp order.

        Parameters
        ----------
        until:
            Stop once the next event is strictly later than this time; the
            clock is then advanced to ``until``. ``None`` runs to exhaustion.
        max_events:
            Safety valve for tests; stop after this many callbacks.
        """
        if self._running:
            raise SimulationError("run() re-entered")
        if until is not None and until != until:
            # `when > nan` is never true: a backlogged source would run forever.
            raise SimulationError(f"until must be a time, got {until!r}")
        self._running = True
        self._stopped = False
        executed = 0
        profiling_run = self._profiler is not None
        run_started_wall = time.perf_counter() if profiling_run else 0.0
        # drain_cancelled compacts this list in place, so the local stays valid.
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and not self._stopped:
                when, __, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and when > until:
                    break
                heappop(heap)
                self.now = when
                profiler = self._profiler
                if profiler is None:
                    event.fn(*event.args)
                else:
                    heap_depth = len(heap)
                    started = time.perf_counter()
                    event.fn(*event.args)
                    profiler.on_event(
                        event.fn,
                        time.perf_counter() - started,
                        heap_depth,
                        when,
                    )
                self._processed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._running = False
            if profiling_run and self._profiler is not None:
                self._profiler.on_run_complete(
                    time.perf_counter() - run_started_wall
                )
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def drain_cancelled(self) -> int:
        """Compact the heap by dropping cancelled events; returns the count.

        Long simulations with many cancelled events accumulate tombstones;
        callers use this to bound memory and to check that a closed
        connection left nothing queued. Safe from inside a callback: the
        heap list is compacted in place, which the run loop relies on.
        """
        before = len(self._heap)
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        return before - len(self._heap)
