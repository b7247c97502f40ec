"""Heap-based discrete-event scheduler.

The engine executes callbacks at simulated timestamps. Determinism is a
hard requirement for the reproduction (every figure must be regenerable
bit-for-bit from a seed), so ties in time are broken by a monotonically
increasing insertion sequence number rather than by object identity. A
heap entry *is* its :class:`Event`, a list ``[time, seq, fn, args]``
built in C, so ordering is compared in C; ``seq`` is unique, so a
comparison never reaches the callback.
"""

from __future__ import annotations

import heapq
import sys
import time
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (negative delays, running twice, ...)."""


class Event(list):
    """A scheduled callback: the heap entry ``[time, seq, fn, args]``.

    Events are returned by :meth:`Simulator.schedule` so callers can cancel
    them later. A cancelled event (``fn`` cleared to ``None``) stays in the
    heap but is skipped when it reaches the front (lazy deletion), which
    keeps cancellation O(1).
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it."""
        self[2] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self[0]:.6f} seq={self[1]} fn={self[2]!r}{state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "hello at t=1")
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        # Current simulated time in seconds. A plain attribute because
        # every layer reads it on every event; only the run loop writes it.
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._processed = 0
        # Inside run(): the event count at which the loop ends (stop()
        # pulls it in to the event in progress).
        self._halt_at = 0
        self._profiler = None

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed by the runs that have returned."""
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
        self._seq = seq + 1
        event = Event((time, seq, fn, args))
        heapq.heappush(self._heap, event)
        return event

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True
        self._halt_at = 0

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
        horizon = float("inf") if until is None else until
        processed = self._processed
        # One test per event ends the loop: the count reaching _halt_at,
        # max_events past where it starts, or 0 once stop() was called.
        # Without a limit it is an int no run reaches (an int-to-int
        # comparison is the cheap one).
        self._halt_at = sys.maxsize if max_events is None else processed + max_events
        profiling_run = self._profiler is not None
        run_started_wall = time.perf_counter() if profiling_run else 0.0
        # drain_cancelled compacts this list in place, so the local stays valid.
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                event = heap[0]
                fn = event[2]
                if fn is None:
                    heappop(heap)
                    continue
                when = event[0]
                if when > horizon:
                    break
                heappop(heap)
                self.now = when
                profiler = self._profiler
                if profiler is None:
                    fn(*event[3])
                else:
                    heap_depth = len(heap)
                    started = time.perf_counter()
                    fn(*event[3])
                    profiler.on_event(
                        fn, time.perf_counter() - started, heap_depth, when
                    )
                processed += 1
                if processed >= self._halt_at:
                    break
        finally:
            self._processed = processed
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
        self._heap[:] = [event for event in self._heap if event[2] is not None]
        heapq.heapify(self._heap)
        return before - len(self._heap)
