"""A minimal publish/subscribe trace bus.

Network elements and transports publish structured records ("packet
enqueued", "block decoded", ...); metric collectors subscribe to the kinds
they care about. Keeping tracing out-of-band means the protocol code never
depends on which metrics an experiment collects.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Container, Deque, Dict, Optional, Tuple



class TraceRecord:
    """One trace entry: a timestamp, a kind, and free-form fields.

    A plain slotted class (one is built per emitted record); subscribers
    treat records as read-only.
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Optional[Dict[str, Any]] = None):
        self.time = time
        self.kind = kind
        self.fields: Dict[str, Any] = {} if fields is None else fields

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecord({self.time!r}, {self.kind!r}, {self.fields!r})"

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


Subscriber = Callable[[TraceRecord], None]


class _EveryKind:
    """``TraceBus.live`` while a wildcard subscriber listens: every kind."""

    __slots__ = ()

    def __contains__(self, kind: object) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<every kind>"


_EVERY_KIND = _EveryKind()


class TraceBus:
    """Routes :class:`TraceRecord` instances to subscribers by kind."""

    #: Hard cap on records queued by re-entrant emits (a subscriber
    #: emitting from inside a dispatch). Generous — a healthy run never
    #: queues more than a handful — but finite, so a pathological
    #: subscriber feedback loop degrades to counted drops instead of
    #: unbounded memory growth.
    MAX_PENDING = 65536

    def __init__(self) -> None:
        # Each pool is a tuple, replaced (never mutated) on subscribe and
        # unsubscribe, so a dispatch iterates the pool it started with.
        self._subscribers: Dict[str, Tuple[Subscriber, ...]] = {}
        self._wildcard: Tuple[Subscriber, ...] = ()
        #: The kinds an emit would reach anyone for: hot paths guard with
        #: ``"kind" in bus.live``, one C-level lookup, instead of calling
        #: :meth:`has_subscribers`. Replaced (never mutated) on every
        #: subscribe and unsubscribe.
        self.live: Container[str] = frozenset()
        self._pending: Deque[TraceRecord] = deque()
        self._dispatching = False
        self.records_dropped = 0

    def subscribe(self, kind: str, fn: Subscriber) -> None:
        """Receive records of ``kind``; ``"*"`` subscribes to everything."""
        if kind == "*":
            self._wildcard += (fn,)
        else:
            self._subscribers[kind] = self._subscribers.get(kind, ()) + (fn,)
        self._relive()

    def unsubscribe(self, kind: str, fn: Subscriber) -> None:
        """Remove a subscription added with :meth:`subscribe`."""
        pool = self._wildcard if kind == "*" else self._subscribers.get(kind, ())
        if fn not in pool:
            return
        index = pool.index(fn)
        pool = pool[:index] + pool[index + 1:]
        if kind == "*":
            self._wildcard = pool
        else:
            self._subscribers[kind] = pool
        self._relive()

    def _relive(self) -> None:
        self.live = (
            _EVERY_KIND
            if self._wildcard
            else frozenset(kind for kind, pool in self._subscribers.items() if pool)
        )

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Publish a record; cheap (no allocation) when nobody listens.

        Dispatch iterates over the subscriber pools as they were when the
        record's dispatch reached them, so a callback may
        ``subscribe``/``unsubscribe`` (itself included) without corrupting
        the loop; subscriptions added mid-emit first see the *next* record.

        A record emitted *from inside* a dispatch (a subscriber reacting
        by emitting) is queued and dispatched by the outermost emit once
        its own record finishes, preserving causal order. The queue is
        bounded by ``MAX_PENDING``: overflow increments
        ``records_dropped`` instead of growing without limit.
        """
        if kind not in self.live:
            return
        record = TraceRecord(time, kind, fields)
        pending = self._pending
        if self._dispatching:
            if len(pending) >= self.MAX_PENDING:
                self.records_dropped += 1
            else:
                pending.append(record)
            return
        self._dispatching = True
        try:
            while True:
                for fn in self._subscribers.get(record.kind, ()):
                    fn(record)
                for fn in self._wildcard:
                    fn(record)
                if not pending:
                    break
                record = pending.popleft()
        finally:
            self._dispatching = False

    def has_subscribers(self, kind: str) -> bool:
        """True if emitting ``kind`` would reach anyone (lets hot paths skip work)."""
        return kind in self.live
