"""End-to-end flow control primitives shared by both stacks.

The scheme is *sequence-licensed*: the receiver advertises a window such
that ``limit = acked + window`` is the highest unit id (block for FMTCP,
chunk for MPTCP) the sender may introduce, and that limit is monotone
non-decreasing over time (``limit = drained + capacity``, and both terms
only grow). Monotonicity is what makes the scheme safe over multiple
paths: feedback arrives out of order across subflows, and the sender
simply keeps the *highest* limit it has ever seen — a stale ACK can
never retract permission already granted.

Every unit the receiver holds has an id in ``[drained, limit)``, so
honest-sender occupancy is bounded by ``capacity`` by construction.
With an instantly-draining application this degenerates to exactly the
local credit rule MPTCP already used (``capacity - (next - acked)``),
which is why the knob-off golden traces stay byte-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple


class ReceiveWindow:
    """Receiver-side accountant for one connection's unit-granular window.

    ``drained`` counts units the *application* consumed (not merely
    received); the sender is licensed to introduce unit ids strictly
    below ``drained + capacity``. ``advertise`` turns that licence into
    the window value carried on an ACK.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.drained = 0
        self.peak_occupancy = 0
        self.zero_window_advertises = 0

    @property
    def limit(self) -> int:
        """Highest unit id (exclusive) the sender is licensed to send."""
        return self.drained + self.capacity

    def admits(self, seq: int) -> bool:
        """Whether a *new* unit with this id fits in the licensed range."""
        return seq < self.limit

    def on_drained(self, units: int = 1) -> None:
        """The application consumed ``units`` more in-order units."""
        self.drained += units

    def observe_occupancy(self, occupancy: int) -> None:
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    def advertise(self, acked: int, occupancy: int) -> int:
        """The window to piggyback on an ACK that acknowledges ``acked``.

        ``acked + window == limit`` by construction; a full application
        backlog (nothing drained since ``acked`` caught up) advertises 0
        and the sender falls back to zero-window probing.
        """
        self.observe_occupancy(occupancy)
        window = max(0, self.limit - acked)
        if window == 0:
            self.zero_window_advertises += 1
        return window


class WindowGate:
    """Sender-side ledger of the receiver's licence, with backpressure.

    ``limit`` is the maximum ``acked + window`` seen across all feedback
    on all subflows (monotone, so multipath reordering is harmless).
    The watermark pair adds hysteresis on top of the hard limit: when
    the receiver-held backlog crosses ``HIGH_WATERMARK`` of capacity the
    gate pauses *new* unit introduction entirely, resuming only once the
    backlog falls to ``LOW_WATERMARK`` — so the sender stops hammering a
    nearly-full receiver instead of oscillating at the edge.
    """

    HIGH_WATERMARK = 0.75
    LOW_WATERMARK = 0.5

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.limit = capacity  # ids < capacity are licensed before any ACK
        self.paused = False
        self.pauses = 0
        self.zero_windows_seen = 0
        self.last_window: Optional[int] = None

    def advertise(self, acked: int, window: int) -> None:
        """Fold one ACK's (cumulative ack, advertised window) pair in."""
        limit = acked + window
        if limit > self.limit:
            self.limit = limit
        if window == 0:
            self.zero_windows_seen += 1
        self.last_window = window
        # The receiver still holds (capacity - window) undrained units.
        backlog = self.capacity - window
        if not self.paused and backlog >= self.HIGH_WATERMARK * self.capacity:
            self.paused = True
            self.pauses += 1
        elif self.paused and backlog <= self.LOW_WATERMARK * self.capacity:
            self.paused = False

    def admits(self, seq: int) -> bool:
        """Whether a *new* unit with this id may be introduced now."""
        return not self.paused and seq < self.limit

    def credit(self, next_seq: int) -> int:
        """How many new units may be introduced starting at ``next_seq``."""
        if self.paused:
            return 0
        return max(0, self.limit - next_seq)

    def blocked(self, next_seq: int) -> bool:
        """True when no new unit may be introduced (probe territory)."""
        return self.credit(next_seq) <= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "paused" if self.paused else "open"
        return f"<WindowGate limit={self.limit} {state}>"


class ZeroWindowProber:
    """Exponential-backoff pacing for probing a closed receive window.

    ``fire`` is the owner's probe callback; it must *send* one probe (a
    single symbol / a duplicate chunk — something the receiver will ACK
    even when its window is closed) and return ``True`` while the window
    is still closed. The prober re-arms itself with doubled interval
    (from ``INITIAL_S``, capped at ``MAX_S``) while ``fire`` keeps
    returning ``True``; any
    ``False`` return — or an explicit :meth:`disarm` when a fresh window
    arrives — resets the backoff. A closed window therefore costs one
    small packet per backoff interval and can never deadlock.
    """

    INITIAL_S = 0.5
    MAX_S = 4.0

    def __init__(self, sim: Any, fire: Callable[[], bool]):
        self._sim = sim
        self._fire = fire
        self._interval = self.INITIAL_S
        self._event: Optional[Any] = None
        self.probes_fired = 0

    @property
    def armed(self) -> bool:
        return self._event is not None

    def arm(self) -> None:
        """Start the probe countdown; a no-op if already armed."""
        if self._event is None:
            self._event = self._sim.schedule(self._interval, self._tick)

    def disarm(self) -> None:
        """Stop probing and reset the backoff (window opened, or close)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._interval = self.INITIAL_S

    def close(self) -> None:
        """Disarm for good and drop the probe callback (the owner is
        closing; the callback points back at it)."""
        self.disarm()
        self._fire = None

    def _tick(self) -> None:
        self._event = None
        self._interval = min(self._interval * 2.0, self.MAX_S)
        self.probes_fired += 1
        if self._fire():
            self._event = self._sim.schedule(self._interval, self._tick)
        else:
            self._interval = self.INITIAL_S


class ProbedGate:
    """The sender half both stacks run: a :class:`WindowGate`, the
    :class:`ZeroWindowProber` that keeps a closed gate from deadlocking
    the transfer, and the handshake between them.

    The protocol supplies ``blocked()`` (data is pending but the gate
    licenses none of it) and ``pump()`` (offer every subflow a
    transmission opportunity). A probe is *due* only during the pump the
    prober triggers: the protocol's ``next_payload`` sees
    :attr:`probe_due`, clears it and sends what its receiver ACKs even
    with a closed window (FMTCP one symbol, MPTCP a duplicate chunk) —
    that ACK carries the fresh advertisement that reopens the gate.
    """

    def __init__(
        self,
        sim: Any,
        capacity: int,
        blocked: Callable[[], bool],
        pump: Callable[[], None],
    ):
        # Watermarks and probe intervals are the two classes' own defaults.
        self.gate = WindowGate(capacity)
        self._blocked = blocked
        self._pump = pump
        self._prober = ZeroWindowProber(sim, self._fire)
        self.probe_due = False

    def _fire(self) -> bool:
        """Prober callback: one probe to elicit a fresh window ACK."""
        if not self._blocked():
            return False
        self.probe_due = True
        self._pump()
        self.probe_due = False
        return self._blocked()

    def sync(self) -> bool:
        """Arm (or reset) probing after feedback moved the gate: while
        blocked, probes are the only traffic that can reopen the window.
        Returns whether the sender is blocked now."""
        blocked = self._blocked()
        if blocked:
            self._prober.arm()
        else:
            self._prober.disarm()
        return blocked

    def close(self) -> None:
        """Stop the prober (event-queue drain invariant) and drop the
        protocol's callbacks, which point back at the sender holding this
        gate; the gate's counters stay readable."""
        self._prober.close()
        self._blocked = self._pump = None


class AppDrain:
    """The receiver half both stacks run: an application that reads at a
    finite rate.

    In-order units queue here — still occupying the receive window —
    until a timer paced at ``rate_bps`` hands each to ``deliver``. A
    rate of 0.0 models an application that stopped reading: the queue
    only grows.
    """

    def __init__(self, sim: Any, rate_bps: float, deliver: Callable[..., None]):
        self._sim = sim
        self._rate_bps = rate_bps
        self._deliver = deliver
        self._queue: Deque[Tuple[int, tuple]] = deque()
        self._event: Optional[Any] = None

    @classmethod
    def modelled_by(
        cls, sim: Any, config: Any, deliver: Callable[..., None]
    ) -> Optional["AppDrain"]:
        """The drain ``config`` asks for; ``None`` when the application
        consumes instantly (flow control off, or no drain rate set)."""
        if not config.flow_control or config.recv_drain_rate_bps is None:
            return None
        return cls(sim, config.recv_drain_rate_bps, deliver)

    @property
    def queued(self) -> int:
        """Units the application has not read yet."""
        return len(self._queue)

    def push(self, size_bytes: int, *unit: Any) -> None:
        """Queue one unit; ``deliver(*unit)`` runs when the app reads it."""
        self._queue.append((size_bytes, unit))

    def schedule(self) -> None:
        """Arm the timer for the queue head (rate 0 or closed = never)."""
        if (
            self._event is not None
            or not self._queue
            or not self._rate_bps
            or self._deliver is None
        ):
            return
        self._event = self._sim.schedule(
            self._queue[0][0] / self._rate_bps, self._tick
        )

    def _tick(self) -> None:
        self._event = None
        if not self._queue:
            return
        self._deliver(*self._queue.popleft()[1])
        self.schedule()

    def close(self) -> None:
        """Cancel the timer (event-queue drain invariant) and drop the
        delivery callback, which points back at the receiver holding this
        drain: a closed drain never ticks again. The queue stays readable."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._deliver = None
