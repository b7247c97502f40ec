"""Restartable one-shot and aligned periodic timers on the scheduler.

TCP code restarts its retransmission timer constantly; doing that with raw
events means juggling cancellation handles everywhere. :class:`Timer`
wraps the pattern: ``start`` (or ``restart``) arms it, ``stop`` disarms it,
and the callback only fires if the timer is still armed.

Restarting is the per-ACK case, and it nearly always moves the deadline
*later*, so it leaves the heap alone: the queued event stays where it is,
only the deadline moves, and when that event comes up before the deadline
it re-queues itself for the deadline. Only a deadline that moves *earlier*
(an RTO whose back-off was just reset) cancels and re-pushes. A timer
re-armed this way to deadline D therefore runs after any event that was
queued for exactly D before the superseded event came up.

:class:`PeriodicTimer` adds drift-free repetition for clock-aligned
replay (the trace player): the k-th tick fires at exactly
``epoch + k * period`` via absolute scheduling, so accumulated float
error never skews a long trace against the simulated clock the way a
``now + period`` chain would.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, SimulationError, Simulator


class Timer:
    """A one-shot timer that can be (re)started and stopped.

    The callback receives no arguments; capture what you need in a closure
    or a bound method.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer"):
        self._sim = sim
        self._callback = callback
        self.name = name
        # The one queued event (fires at or before the deadline), if any.
        self._event: Optional[Event] = None
        #: Absolute expiry time if armed, else ``None``; read-only outside
        #: this class (a plain attribute: every transmission tests it).
        self.expiry: Optional[float] = None

    @property
    def armed(self) -> bool:
        """Whether the timer is currently counting down."""
        return self.expiry is not None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, replacing any pending one."""
        if not delay >= 0:  # NaN too; no Simulator.schedule below to catch it
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        self.expiry = expiry = self._sim.now + delay
        event = self._event
        if event is not None:
            if event[0] <= expiry:
                return  # _fire re-queues for the new deadline when it comes up
            event.cancel()
        self._event = self._sim.schedule_at(expiry, self._fire)

    # ``restart`` reads better at call sites that are semantically restarts.
    restart = start

    def stop(self) -> None:
        """Disarm the timer; a no-op if it is not armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.expiry = None

    def release(self) -> None:
        """Stop the timer and drop its callback, for an owner that is done.

        The callback is usually a bound method of the owner, which holds
        the timer: the pair is a reference cycle until one edge goes. A
        released timer reads as disarmed; it must not be started again.
        """
        self.stop()
        self._callback = None

    def _fire(self) -> None:
        # Reached only through the live queued event: stop() and an earlier
        # deadline cancel it, and the run loop skips cancelled events.
        expiry = self.expiry
        if expiry > self._sim.now:
            self._event = self._sim.schedule_at(expiry, self._fire)
            return
        self._event = None
        self.expiry = None
        self._callback()


class PeriodicTimer:
    """A repeating timer whose ticks stay aligned to an epoch.

    Tick ``k`` fires at ``epoch + k * period`` (absolute scheduling), and
    the callback receives the *elapsed trace time* ``k * period`` — so a
    replayed time series indexes itself by exact multiples of its step,
    immune to float drift over thousands of ticks. ``stop`` disarms it;
    the callback may call ``stop`` to end the series from inside a tick.
    """

    def __init__(
        self,
        sim: Simulator,
        period_s: float,
        callback: Callable[[float], Any],
        name: str = "periodic",
    ):
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        self._sim = sim
        self.period_s = period_s
        self._callback = callback
        self.name = name
        self._event: Optional[Event] = None
        self._epoch: Optional[float] = None
        self._tick = 0

    def start(self) -> None:
        """Anchor the epoch at the current simulated time and begin ticking;
        the first tick (elapsed 0.0) runs at the epoch itself."""
        self.stop()
        self._epoch = self._sim.now
        self._tick = 0
        self._schedule_next()

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._epoch = None
        self._tick = 0

    def _schedule_next(self) -> None:
        assert self._epoch is not None
        self._event = self._sim.schedule_at(
            self._epoch + self._tick * self.period_s, self._fire
        )

    def _fire(self) -> None:
        if self._event is None or self._event[2] is None:
            return
        elapsed = self._tick * self.period_s
        self._tick += 1
        self._schedule_next()
        self._callback(elapsed)
