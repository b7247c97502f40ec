"""Scriptable fault timelines for running simulations.

A :class:`FaultScenario` is a deterministic, sorted list of
:class:`FaultEvent` records — "at t=8 s path 1 dies, at t=18 s it
revives" — that an injector replays against a live topology through the
mutation APIs on :class:`~repro.net.link.Link`. The taxonomy covers the
failure modes multipath transports actually meet:

========  ==========================================================
kind      value / effect
========  ==========================================================
down      ``None`` — the path's links drop everything
up        ``None`` — revive the links
bandwidth ``factor`` — set bandwidth to ``baseline * factor`` (1.0
          restores)
delay     ``factor`` — set propagation delay to ``baseline * factor``
loss      drop rate in ``[0, 1)`` (a :class:`BernoulliLoss`), or
          ``None`` to restore the baseline loss model
reorder   ``(probability, max_extra_s)`` installing a
          :class:`UniformReordering`, or ``None`` to restore
queue     waiting-packet capacity (an ``int``), or ``None`` to
          restore the baseline capacity
========  ==========================================================

plus four groups the transport does not merely suffer:

* subflow lifecycle (mobility: the endpoint tears a subflow down or
  builds a new one) — ``path_down`` and ``path_up`` take no value,
  ``handover`` takes ``(to_path, break_s)``; they need a lifecycle
  handler (see :class:`FaultInjector`), typically
  :class:`repro.faults.churn.PathChurnController`;
* data corruption, installing a
  :class:`~repro.net.corruption.CorruptionModel` on the path's links —
  ``corrupt`` takes ``rate`` or ``(rate[, effect[, evade_crc]])`` (a
  :class:`BernoulliCorruption`), ``corrupt_ge`` takes
  ``(p_gb, p_bg, corrupt_bad[, evade_crc])`` (a bursty, bit-flipping
  :class:`GilbertElliottCorruption`), ``None`` restores the baseline;
* endpoint crashes, which mutate an *endpoint*, not the network —
  ``crash_sender`` / ``crash_receiver`` kill it (only its last durable
  checkpoint survives), ``restart`` brings every crashed endpoint back
  up; none takes a value. They need an endpoints handler (see
  :class:`repro.recovery.manager.RecoveryManager`) and ignore ``path``;
* trace replay — ``trace`` arms a
  :class:`~repro.traces.player.TracePlayer` replaying a channel time
  series onto the path's links; the value is a trace spec (a
  :class:`~repro.traces.model.LinkTrace`, a bundled asset name, a
  ``"family:seed"`` generator spec or a CSV path, see
  :func:`repro.traces.resolve_trace`), or ``None`` to stop playback and
  restore the baseline.

Everything this module knows about a kind — which harness group it
belongs to, how its value is validated, when it restores, which link
setting it occupies and how it is applied — is one row of
:data:`FAULT_TABLE`; adding a kind is adding a row.

Every scenario heals: by construction the latest event of each fault
restores its baseline, so :attr:`FaultScenario.heal_time` marks the
moment after which the network is clean again — the anchor for the
chaos-soak recovery invariants and the benchmark's recovery-time metric.

Randomised scenarios (:meth:`FaultScenario.random`) draw from a named
stream of :class:`~repro.sim.rng.RngStreams`, so a seed fully determines
the timeline across runs and platforms.

Every named preset is one row of :data:`PRESETS`, grouped by the harness
it routes to: the timelines, and the three :class:`ExhaustionScenario`
receiver memory budgets, which have no events. :func:`presets` lists a
group and :func:`resolve_scenario` looks a name up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.corruption import (
    CORRUPTION_EFFECTS,
    BernoulliCorruption,
    GilbertElliottCorruption,
)
from repro.net.loss import BernoulliLoss
from repro.net.reorder import UniformReordering
from repro.net.topology import Path
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.traces.generators import resolve_trace
from repro.traces.player import TracePlayer


def _effect_and_evasion(kind: str, value: Any, rest: Sequence[Any]):
    """The optional ``[, effect[, evade_crc]]`` tail of a corruption value."""
    effect = rest[0] if len(rest) >= 1 else "bitflip"
    evade_crc = float(rest[1]) if len(rest) >= 2 else 0.0
    if len(rest) > 2 or effect not in CORRUPTION_EFFECTS:
        raise ValueError(f"bad {kind} value {value!r}")
    return effect, evade_crc


def _make_bernoulli_corruption(value: Any) -> BernoulliCorruption:
    """Build the ``corrupt`` event's model; raises ValueError on junk."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return BernoulliCorruption(float(value))
    try:
        rate, *rest = value
    except (TypeError, ValueError):
        raise ValueError(
            f"corrupt value must be rate or (rate[, effect[, evade_crc]]), "
            f"got {value!r}"
        ) from None
    effect, evade_crc = _effect_and_evasion("corrupt", value, rest)
    return BernoulliCorruption(float(rate), effect=effect, evade_crc=evade_crc)


def _make_ge_corruption(value: Any) -> GilbertElliottCorruption:
    """Build the ``corrupt_ge`` event's model; raises ValueError on junk."""
    try:
        p_gb, p_bg, corrupt_bad, *rest = value
    except (TypeError, ValueError):
        raise ValueError(
            f"corrupt_ge value must be (p_gb, p_bg, corrupt_bad[, evade_crc]), "
            f"got {value!r}"
        ) from None
    if len(rest) > 1:
        raise ValueError(f"bad corrupt_ge value {value!r}")
    return GilbertElliottCorruption(
        float(p_gb), float(p_bg), corrupt_bad=float(corrupt_bad),
        evade_crc=float(rest[0]) if rest else 0.0,
    )


# ----------------------------------------------------------------------
# Value checks (``check`` column). Run at FaultEvent construction, so a
# bad value is caught at scenario-build time instead of deep inside the
# event loop, where it would either explode or silently produce nonsense
# serialisation times (NaN/inf).
# ----------------------------------------------------------------------
def _unchecked(event: "FaultEvent") -> None:
    pass


def _no_value(event: "FaultEvent") -> None:
    if event.value is not None:
        raise ValueError(f"{event.kind} takes no value, got {event.value!r}")


def _check_bandwidth(event: "FaultEvent") -> None:
    factor = float(event.value)
    if not math.isfinite(factor) or factor <= 0:
        raise ValueError(
            f"bandwidth factor must be finite and positive, got {event.value!r}"
        )


def _check_delay(event: "FaultEvent") -> None:
    factor = float(event.value)
    if not math.isfinite(factor) or factor < 0:
        raise ValueError(
            f"delay factor must be finite and non-negative, got {event.value!r}"
        )


def _check_loss(event: "FaultEvent") -> None:
    if event.value is not None and not 0.0 <= float(event.value) < 1.0:
        raise ValueError(f"loss rate must be in [0, 1), got {event.value!r}")


def _check_queue(event: "FaultEvent") -> None:
    if event.value is not None and int(event.value) < 1:
        raise ValueError(f"queue capacity must be >= 1, got {event.value!r}")


def _check_handover(event: "FaultEvent") -> None:
    try:
        to_path, break_s = event.value
    except (TypeError, ValueError):
        raise ValueError(
            f"handover value must be a (to_path, break_s) pair, got {event.value!r}"
        ) from None
    if int(to_path) < 0 or float(break_s) < 0:
        raise ValueError(
            f"handover needs to_path >= 0 and break_s >= 0, got {event.value!r}"
        )


def _or_none(build: Callable[[Any], Any]) -> Callable[["FaultEvent"], None]:
    """``None`` restores; anything else must build (CSV errors surface early)."""

    def check(event: "FaultEvent") -> None:
        if event.value is not None:
            build(event.value)

    return check


# ----------------------------------------------------------------------
# Restore predicates (``restores`` column): whether the event returns its
# link setting to baseline.
# ----------------------------------------------------------------------
def _never(event: "FaultEvent") -> bool:
    return False


def _always(event: "FaultEvent") -> bool:
    return True


def _unit_factor(event: "FaultEvent") -> bool:
    return float(event.value) == 1.0


def _none_value(event: "FaultEvent") -> bool:
    return event.value is None


# ----------------------------------------------------------------------
# Appliers (``apply`` column): ``apply(injector, event)``.
# ----------------------------------------------------------------------
def _on_links(mutate: Callable[[Any, "_LinkBaseline", Any], None]):
    """Lift ``mutate(link, baseline, value)`` over every link the event names."""

    def apply(injector: "FaultInjector", event: "FaultEvent") -> None:
        for link in injector._links_of(event):
            mutate(link, injector._baselines[id(link)], event.value)

    return apply


def _install(model: str, build: Callable[[Any], Any]):
    """Set the link's ``model`` (loss / reordering / corruption): the
    baseline's for ``None``, else a fresh ``build(value)`` per link —
    each link's realisation draws from its own rng stream, and a
    Gilbert-Elliott chain is stateful."""

    def mutate(link, baseline, value) -> None:
        getattr(link, f"set_{model}")(
            getattr(baseline, model) if value is None else build(value)
        )

    return mutate


def _set_queue(link, baseline, value) -> None:
    link.queue.capacity = baseline.queue_capacity if value is None else int(value)


def _handover(injector: "FaultInjector", event: "FaultEvent") -> None:
    to_path, break_s = event.value
    injector.lifecycle.handover(event.path, int(to_path), float(break_s))


def _replay(injector: "FaultInjector", event: "FaultEvent") -> None:
    key = (event.path, event.direction)
    existing = injector._players.pop(key, None)
    if existing is not None:
        existing.stop()
    if event.value is not None:
        player = TracePlayer(
            injector.sim,
            injector._links_of(event),
            resolve_trace(event.value),
            bus=injector.trace,
        )
        player.start()
        injector._players[key] = player


@dataclass(frozen=True)
class FaultKind:
    """One row of :data:`FAULT_TABLE`."""

    #: The harness family the kind belongs to (see :data:`ROUTES`).
    group: str
    #: Validates ``FaultEvent.value``; raises ``ValueError``.
    check: Callable[["FaultEvent"], None]
    #: Whether the event returns its link setting to baseline.
    restores: Callable[["FaultEvent"], bool]
    #: The link setting the kind writes, for overlap diagnosis; kinds that
    #: share a slot clobber each other. ``None`` = not a link mutation.
    slot: Optional[str]
    apply: Callable[["FaultInjector", "FaultEvent"], None]


FAULT_TABLE: Dict[str, FaultKind] = {
    # Plain link faults: the transport merely *suffers* them.
    "down": FaultKind(
        "chaos", _unchecked, _never, "down",
        _on_links(lambda link, baseline, value: link.set_down(True)),
    ),
    "up": FaultKind(
        "chaos", _unchecked, _always, "down",
        _on_links(lambda link, baseline, value: link.set_down(False)),
    ),
    "bandwidth": FaultKind(
        "chaos", _check_bandwidth, _unit_factor, "bandwidth",
        _on_links(
            lambda link, baseline, value: link.set_bandwidth(
                baseline.bandwidth_bps * float(value)
            )
        ),
    ),
    "delay": FaultKind(
        "chaos", _check_delay, _unit_factor, "delay",
        _on_links(
            lambda link, baseline, value: link.set_delay(
                baseline.delay_s * float(value)
            )
        ),
    ),
    "loss": FaultKind(
        "chaos", _check_loss, _none_value, "loss",
        _on_links(_install("loss_model", lambda rate: BernoulliLoss(float(rate)))),
    ),
    "reorder": FaultKind(
        "chaos", _unchecked, _none_value, "reorder",
        _on_links(
            _install(
                "reordering_model",
                lambda value: UniformReordering(value[0], max_extra_s=value[1]),
            )
        ),
    ),
    "queue": FaultKind(
        "chaos", _check_queue, _none_value, "queue", _on_links(_set_queue)
    ),
    # Subflow lifecycle: delegated to the injector's ``lifecycle`` handler.
    "path_down": FaultKind(
        "churn", _no_value, _never, None,
        lambda injector, event: injector.lifecycle.path_down(event.path),
    ),
    "path_up": FaultKind(
        "churn", _no_value, _never, None,
        lambda injector, event: injector.lifecycle.path_up(event.path),
    ),
    "handover": FaultKind("churn", _check_handover, _never, None, _handover),
    # Data corruption: both kinds write the link's one corruption_model
    # slot, so cross-kind clobbering is still an overlap worth diagnosing.
    "corrupt": FaultKind(
        "corruption", _or_none(_make_bernoulli_corruption), _none_value, "corrupt",
        _on_links(_install("corruption_model", _make_bernoulli_corruption)),
    ),
    "corrupt_ge": FaultKind(
        "corruption", _or_none(_make_ge_corruption), _none_value, "corrupt",
        _on_links(_install("corruption_model", _make_ge_corruption)),
    ),
    # Endpoint crashes: delegated to the injector's ``endpoints`` handler.
    "crash_sender": FaultKind(
        "recovery", _no_value, _never, None,
        lambda injector, event: injector.endpoints.crash_sender(),
    ),
    "crash_receiver": FaultKind(
        "recovery", _no_value, _never, None,
        lambda injector, event: injector.endpoints.crash_receiver(),
    ),
    "restart": FaultKind(
        "recovery", _no_value, _never, None,
        lambda injector, event: injector.endpoints.restart(),
    ),
    "trace": FaultKind(
        "traces", _or_none(resolve_trace), _none_value, "trace", _replay
    ),
}

#: Routing, stated once. A timeline belongs to the first group below that
#: it contains (an empty one, or one of plain link faults, to ``chaos``):
#: the harness of that name is the one whose invariants can check it. Each
#: row is ``(groups it may also carry, its events, what its harness adds)``
#: — a mix outside the first column has no harness and is rejected. The
#: exhaustion presets are not timelines; an :class:`ExhaustionScenario`
#: has no events and routes by what it is.
ROUTES: Dict[str, Tuple[Tuple[str, ...], str, str]] = {
    "recovery": (
        ("traces", "corruption", "churn", "chaos"),
        "endpoint crash/restart events",
        "resumes crashed endpoints from their checkpoints",
    ),
    "traces": (
        ("corruption", "chaos"),
        "trace events",
        "replays channel traces and verifies delivered bytes and bounded memory",
    ),
    "corruption": (
        ("chaos",),
        "corruption events",
        "verifies delivered bytes against the source transcript",
    ),
    "churn": (
        ("chaos",),
        "subflow-lifecycle events",
        "drives the subflow lifecycle and checks the survivors",
    ),
    "chaos": ((), "link faults", "checks plain link faults"),
}


@dataclass(frozen=True)
class FaultEvent:
    """One timeline entry: mutate ``path`` at simulated ``time``."""

    time: float
    kind: str
    path: int
    value: Any = None
    direction: str = "both"  # "forward", "reverse" or "both"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")
        if self.kind not in FAULT_TABLE:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.path < 0:
            raise ValueError(f"path index must be non-negative, got {self.path}")
        if self.direction not in ("forward", "reverse", "both"):
            raise ValueError(f"unknown direction {self.direction!r}")
        FAULT_TABLE[self.kind].check(self)


def _has(group: str, doc: str) -> property:
    return property(lambda self: group in self.groups, doc=doc)


class FaultScenario:
    """A named, sorted fault timeline over an ``n_paths``-path topology."""

    #: Every timeline runs on the two-path topology of the paper's setup.
    n_paths = 2

    def __init__(
        self,
        name: str,
        events: Sequence[FaultEvent],
        active_paths: Optional[Sequence[int]] = None,
    ):
        n_paths = self.n_paths
        for event in events:
            if event.path >= n_paths:
                raise ValueError(
                    f"event targets path {event.path} but scenario has "
                    f"{n_paths} paths"
                )
            if event.kind == "handover" and int(event.value[0]) >= n_paths:
                raise ValueError(
                    f"handover targets path {event.value[0]} but scenario "
                    f"has {n_paths} paths"
                )
        if active_paths is None:
            self.active_paths: Tuple[int, ...] = tuple(range(n_paths))
        else:
            self.active_paths = tuple(sorted(set(active_paths)))
            if not self.active_paths or any(
                p < 0 or p >= n_paths for p in self.active_paths
            ):
                raise ValueError(
                    f"active_paths must be a non-empty subset of "
                    f"0..{n_paths - 1}, got {active_paths!r}"
                )
        self.name = name
        # Stable sort: simultaneous events apply in listed order.
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda event: event.time)
        )
        #: The :data:`FAULT_TABLE` groups of the events present.
        self.groups = frozenset(FAULT_TABLE[event.kind].group for event in self.events)

    @property
    def fault_start(self) -> float:
        """When the first fault hits (∞ for an empty scenario)."""
        return self.events[0].time if self.events else float("inf")

    @property
    def heal_time(self) -> float:
        """When the last event has applied and the network is clean again."""
        return self.events[-1].time if self.events else 0.0

    has_churn = _has(
        "churn", "Whether any event manages subflow lifecycle (needs a handler)."
    )
    has_corruption = _has(
        "corruption", "Whether any event installs a corruption model."
    )
    has_endpoint_faults = _has(
        "recovery",
        "Whether any event crashes/restarts an endpoint (needs an endpoints handler).",
    )
    has_trace = _has("traces", "Whether any event replays a channel trace.")

    @property
    def settle_time(self) -> float:
        """When the last lifecycle change has landed.

        Same as :attr:`heal_time` except that a ``handover`` only settles
        once its blackout gap has elapsed and the target path is up.
        """
        settle = 0.0
        for event in self.events:
            end = event.time
            if event.kind == "handover":
                end += float(event.value[1])
            settle = max(settle, end)
        return settle

    def run_length(self, duration_s: float) -> float:
        """``duration_s``, stretched so a run always has 4 s to recover
        after the last event settles."""
        return max(duration_s, self.settle_time + 4.0)

    def route(self, harness: Optional[str] = None) -> str:
        """The harness group whose invariants can check this timeline
        (see :data:`ROUTES`); raises ``ValueError`` for a mix none can.

        With ``harness`` given, also raise unless that is the group — a
        scenario run under the wrong invariants passes vacuously. One
        exception: ``recovery`` takes an empty timeline as its clean
        baseline (``measure_recovery`` compares against it).
        """
        target = next((group for group in ROUTES if group in self.groups), "chaos")
        carries, events, adds = ROUTES[target]
        for group in ROUTES:
            if group in self.groups and group != target and group not in carries:
                raise ValueError(
                    f"scenario {self.name!r} mixes {events} with "
                    f"{ROUTES[group][1]}; no harness checks both — split it"
                )
        if harness in (None, target) or (harness == "recovery" and not self.events):
            return target
        if harness in self.groups or harness not in ROUTES or harness == "chaos":
            problem = f"has {events}, which the {harness} harness cannot check"
        else:
            problem = f"has no {ROUTES[harness][1]}"
        raise ValueError(
            f"scenario {self.name!r} {problem}; it routes to the {target} "
            f"harness, which {adds}"
        )

    def apply(
        self,
        sim: Simulator,
        paths: Sequence[Path],
        trace: Optional[TraceBus] = None,
        lifecycle=None,
        endpoints=None,
    ) -> "FaultInjector":
        """Arm the timeline against a topology; returns the injector."""
        return FaultInjector(
            sim, paths, self, trace=trace, lifecycle=lifecycle, endpoints=endpoints
        )

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------
    @classmethod
    def random(cls, seed: int) -> "FaultScenario":
        """A seeded random fault sequence over two paths, fully healed by
        ``_RANDOM_HEAL_S``.

        Between three and six faults start inside ``_RANDOM_WINDOW`` and
        each clears no later than the heal time; overlapping faults of the
        same kind are legal (the injector's last write wins) and the final
        state is always the baseline, because every fault's restore event
        is its latest event.
        """
        rng = RngStreams(seed).get("faults:timeline")
        events: List[FaultEvent] = []
        for __ in range(rng.randint(3, 6)):
            kind, draw_value, restore_kind, restore_value = rng.choice(_RANDOM_FAULTS)
            path = rng.randrange(2)
            start = rng.uniform(*_RANDOM_WINDOW)
            end = min(start + rng.uniform(0.5, 4.0), _RANDOM_HEAL_S)
            events.append(FaultEvent(start, kind, path, draw_value(rng)))
            events.append(FaultEvent(end, restore_kind, path, restore_value))
        return cls(f"random:{seed}", events)


#: Where the random generator's faults start, and when all have cleared.
_RANDOM_WINDOW = (3.0, 14.0)
_RANDOM_HEAL_S = 18.0
#: The random generator's pool — plain link faults only — as ``(kind,
#: draw the fault value, restoring kind, restoring value)``.
_RANDOM_FAULTS = (
    ("down", lambda rng: None, "up", None),
    ("bandwidth", lambda rng: rng.uniform(0.02, 0.3), "bandwidth", 1.0),
    ("delay", lambda rng: rng.uniform(3.0, 10.0), "delay", 1.0),
    ("loss", lambda rng: rng.uniform(0.2, 0.9), "loss", None),
    (
        "reorder",
        lambda rng: (rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.2)),
        "reorder",
        None,
    ),
    ("queue", lambda rng: rng.randint(1, 3), "queue", None),
)


@dataclass
class _LinkBaseline:
    """Pre-fault settings of one link, for restore events."""

    bandwidth_bps: float
    delay_s: float
    loss_model: Any
    reordering_model: Any
    queue_capacity: int
    corruption_model: Any


class FaultInjector:
    """Replays a :class:`FaultScenario` against live :class:`Path` objects.

    Baselines are captured at arm time, so restore events (``factor=1.0``,
    ``value=None``) return each link to exactly its pre-fault settings no
    matter how many faults stacked on it in between.

    Lifecycle events (group ``"churn"``) are not link mutations — they
    are delegated to ``lifecycle``, an object with ``path_down(index)``,
    ``path_up(index)`` and ``handover(from_path, to_path, break_s)``
    methods (see :class:`repro.faults.churn.PathChurnController`). Arming
    a churn scenario without one is an error. Likewise endpoint events
    (group ``"recovery"``) delegate to ``endpoints``, an object with
    ``crash_sender()``, ``crash_receiver()`` and ``restart(which)``
    methods (see :class:`repro.recovery.manager.RecoveryManager`).

    Overlap diagnosis: two non-restoring faults on the same link setting
    (a :class:`FaultKind` ``slot``) apply last-writer-wins by design —
    legal, but a frequent scenario-authoring mistake. The injector
    records each such pair in :attr:`overlaps` and emits a
    ``fault.overlap`` trace record so the timeline shows where a fault
    silently clobbered an earlier one.

    An event whose time has already come when the injector is armed (a
    timeline that starts at ``t = 0``, armed before the run) applies at
    once, before the constructor returns, instead of being scheduled: it
    shapes the links before the transport's first send. Later events are
    scheduled at their time.
    """

    def __init__(
        self,
        sim: Simulator,
        paths: Sequence[Path],
        scenario: FaultScenario,
        trace: Optional[TraceBus] = None,
        lifecycle=None,
        endpoints=None,
    ):
        if len(paths) < scenario.n_paths:
            raise ValueError(
                f"scenario {scenario.name!r} needs {scenario.n_paths} paths, "
                f"got {len(paths)}"
            )
        if scenario.has_churn and lifecycle is None:
            raise ValueError(
                f"scenario {scenario.name!r} contains subflow-lifecycle "
                "events; arm it with a lifecycle handler "
                "(repro.faults.churn.PathChurnController)"
            )
        if scenario.has_endpoint_faults and endpoints is None:
            raise ValueError(
                f"scenario {scenario.name!r} contains endpoint crash/restart "
                "events; arm it with an endpoints handler "
                "(repro.recovery.manager.RecoveryManager)"
            )
        self.sim = sim
        self.paths = list(paths)
        self.scenario = scenario
        self.trace = trace
        self.lifecycle = lifecycle
        self.endpoints = endpoints
        self.applied: List[FaultEvent] = []
        self.overlaps: List[Tuple[FaultEvent, FaultEvent]] = []
        self._active_faults: Dict[Tuple[int, str], FaultEvent] = {}
        # Live trace players keyed by (path, direction); a second trace
        # event on the same key stops the old replay first.
        self._players: Dict[Tuple[int, str], Any] = {}
        self._baselines: Dict[int, _LinkBaseline] = {}
        for path in self.paths:
            for link in (*path.forward_links, *path.reverse_links):
                self._baselines[id(link)] = _LinkBaseline(
                    bandwidth_bps=link.bandwidth_bps,
                    delay_s=link.delay_s,
                    loss_model=link.loss_model,
                    reordering_model=link.reordering_model,
                    queue_capacity=link.queue.capacity,
                    corruption_model=link.corruption_model,
                )
        for event in scenario.events:
            if event.time <= sim.now:
                self._apply(event)
            else:
                sim.schedule_at(event.time, self._apply, event)

    def _links_of(self, event: FaultEvent):
        path = self.paths[event.path]
        if event.direction == "forward":
            return path.forward_links
        if event.direction == "reverse":
            return path.reverse_links
        return (*path.forward_links, *path.reverse_links)

    def _note_overlap(self, event: FaultEvent, row: FaultKind) -> None:
        """Record last-writer-wins collisions on one link setting."""
        restoring = row.restores(event)
        clobbered: List[FaultEvent] = []
        for link in self._links_of(event):
            key = (id(link), row.slot)
            if restoring:
                self._active_faults.pop(key, None)
                continue
            previous = self._active_faults.get(key)
            if previous is not None and previous is not event:
                if previous not in clobbered:
                    clobbered.append(previous)
            self._active_faults[key] = event
        for previous in clobbered:
            self.overlaps.append((previous, event))
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "fault.overlap",
                    fault=event.kind,
                    path=event.path,
                    value=event.value,
                    clobbered_time=previous.time,
                    clobbered_value=previous.value,
                )

    def stop_players(self) -> None:
        """Stop any live trace replays and restore their links (harness
        cleanup for open-ended runs whose scenario carries no explicit
        restore event)."""
        for player in self._players.values():
            player.stop()
        self._players.clear()

    def _apply(self, event: FaultEvent) -> None:
        row = FAULT_TABLE[event.kind]
        if row.slot is not None:
            self._note_overlap(event, row)
        row.apply(self, event)
        self.applied.append(event)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "fault.apply",
                fault=event.kind,
                path=event.path,
                # A LinkTrace value is named, not dumped.
                value=getattr(event.value, "name", event.value),
            )


# ----------------------------------------------------------------------
# Presets, one block per routing group; :data:`PRESETS` below registers
# them.
#
# Link-fault presets. Faults hit path 1 during [8, 18) s (path 0 stays
# clean), leaving [0, 8) as the pre-fault baseline window and everything
# after 18 s for recovery measurement.
def _link_flap() -> FaultScenario:
    events = []
    for start, end in ((8.0, 10.0), (12.0, 14.0), (16.0, 18.0)):
        events.append(FaultEvent(start, "down", 1))
        events.append(FaultEvent(end, "up", 1))
    return FaultScenario("link_flap", events)


def _path_death() -> FaultScenario:
    return FaultScenario(
        "path_death",
        [FaultEvent(8.0, "down", 1), FaultEvent(18.0, "up", 1)],
    )


def _bandwidth_collapse() -> FaultScenario:
    return FaultScenario(
        "bandwidth_collapse",
        [FaultEvent(8.0, "bandwidth", 1, 0.05), FaultEvent(18.0, "bandwidth", 1, 1.0)],
    )


def _delay_spike() -> FaultScenario:
    return FaultScenario(
        "delay_spike",
        [FaultEvent(8.0, "delay", 1, 8.0), FaultEvent(18.0, "delay", 1, 1.0)],
    )


def _loss_burst() -> FaultScenario:
    return FaultScenario(
        "loss_burst",
        [FaultEvent(8.0, "loss", 1, 0.5), FaultEvent(18.0, "loss", 1, None)],
    )


def _reorder_storm() -> FaultScenario:
    return FaultScenario(
        "reorder_storm",
        [
            FaultEvent(8.0, "reorder", 1, (0.3, 0.15)),
            FaultEvent(18.0, "reorder", 1, None),
        ],
    )


def _queue_saturation() -> FaultScenario:
    return FaultScenario(
        "queue_saturation",
        [FaultEvent(8.0, "queue", 1, 2), FaultEvent(18.0, "queue", 1, None)],
    )


# Mobility presets: subflow-lifecycle timelines. They cannot run through
# the plain link-fault harness — they need a lifecycle handler and the
# churn invariants of repro.faults.churn.CHURN.
def _wifi_to_lte_handover() -> FaultScenario:
    # Path 0 is the "WiFi" association the transfer starts on; path 1
    # ("LTE") exists but is unused until the handover at t=8 s, which
    # breaks connectivity for 300 ms while the new attachment comes up.
    return FaultScenario(
        "wifi_to_lte_handover",
        [FaultEvent(8.0, "handover", 0, (1, 0.3))],
        active_paths=(0,),
    )


def _flaky_path_churn() -> FaultScenario:
    # Path 1 flaps at the subflow level: repeatedly torn down and re-added
    # (each re-add pays a fresh join handshake), path 0 stays clean.
    events = []
    for down, up in ((8.0, 10.0), (12.0, 14.0), (16.0, 18.0)):
        events.append(FaultEvent(down, "path_down", 1))
        events.append(FaultEvent(up, "path_up", 1))
    return FaultScenario("flaky_path_churn", events)


def _single_path_degradation() -> FaultScenario:
    # Path 1 is removed permanently at t=8 s; the transfer must finish on
    # the surviving path alone.
    return FaultScenario(
        "single_path_degradation", [FaultEvent(8.0, "path_down", 1)]
    )


# Corruption presets: data-integrity timelines, same shape as the link
# presets (path 1 corrupts during [8, 18) s, path 0 stays clean). The
# plain harness has no byte-level delivery verification — they route to
# repro.faults.corruption.CORRUPTION.
def _bit_rot() -> FaultScenario:
    # Steady 5 % bit-flip corruption; one flip in five re-seals the link
    # CRC (a collision), exercising the end-to-end DSS / block-CRC /
    # GF(2)-inconsistency defenses, not just verify-and-discard.
    return FaultScenario(
        "bit_rot",
        [
            FaultEvent(8.0, "corrupt", 1, (0.05, "bitflip", 0.2)),
            FaultEvent(18.0, "corrupt", 1, None),
        ],
    )


def _corruption_burst() -> FaultScenario:
    # Gilbert–Elliott-gated bursts: ~4-packet bad states corrupting half
    # of what they touch, the middlebox-goes-insane failure mode.
    return FaultScenario(
        "corruption_burst",
        [
            FaultEvent(8.0, "corrupt_ge", 1, (0.02, 0.25, 0.5, 0.2)),
            FaultEvent(18.0, "corrupt_ge", 1, None),
        ],
    )


def _truncation_storm() -> FaultScenario:
    # 10 % of packets lose their tail — always CRC-detectable, so this
    # stresses the pure corruption-as-loss path at a higher rate.
    return FaultScenario(
        "truncation_storm",
        [
            FaultEvent(8.0, "corrupt", 1, (0.1, "truncate")),
            FaultEvent(18.0, "corrupt", 1, None),
        ],
    )


def _duplicate_mutation() -> FaultScenario:
    # Duplication-with-mutation: the clean packet still arrives, plus a
    # mutated twin — exactly-once delivery must hold against both.
    return FaultScenario(
        "duplicate_mutation",
        [
            FaultEvent(8.0, "corrupt", 1, (0.05, "duplicate", 0.2)),
            FaultEvent(18.0, "corrupt", 1, None),
        ],
    )


# Recovery presets: endpoint crash/restart timelines, same anchor shape
# as the link presets (first crash at t=8 s, leaving [0, 8) as a clean
# baseline window). They need an endpoints handler and the
# checkpoint/reconnect machinery of repro.recovery.harness.RECOVERY.
def _receiver_crash() -> FaultScenario:
    # The receiver dies at t=8 s and its host comes back at t=11 s. The
    # sender must notice the half-open connection (RTOs into the void),
    # then reconnect and resume — FMTCP from the delivered-block frontier
    # alone, MPTCP from its snapshotted chunk map.
    return FaultScenario(
        "receiver_crash",
        [FaultEvent(8.0, "crash_receiver", 0), FaultEvent(11.0, "restart", 0)],
    )


def _sender_crash() -> FaultScenario:
    # The sender dies at t=8 s (everything in flight and all pending
    # blocks are lost; only the periodic checkpoint survives) and comes
    # back at t=11 s. Stream bytes between the checkpoint and the
    # receiver's frontier are re-sent and deduplicated at the receiver.
    return FaultScenario(
        "sender_crash",
        [FaultEvent(8.0, "crash_sender", 0), FaultEvent(11.0, "restart", 0)],
    )


def _crash_storm() -> FaultScenario:
    # Alternating endpoint crashes: three outages back to back, each a
    # fresh recovery epoch with its own reconnect handshake and RNG
    # streams. Exercises repeated checkpoint/restore cycling on both
    # sides of the connection.
    events = []
    for crash, restart, kind in (
        (6.0, 8.0, "crash_receiver"),
        (11.0, 13.0, "crash_sender"),
        (16.0, 18.0, "crash_receiver"),
    ):
        events.append(FaultEvent(crash, kind, 0))
        events.append(FaultEvent(restart, "restart", 0))
    return FaultScenario("crash_storm", events)


def _crash_during_handover() -> FaultScenario:
    # A WiFi→LTE handover at t=8 s (300 ms blackout) immediately followed
    # by a receiver crash at t=8.5 s — the crash lands just after the new
    # attachment comes up, so recovery must rebuild on the post-handover
    # path set, not the one the transfer started with.
    return FaultScenario(
        "crash_during_handover",
        [
            FaultEvent(8.0, "handover", 0, (1, 0.3)),
            FaultEvent(8.5, "crash_receiver", 0),
            FaultEvent(10.5, "restart", 0),
        ],
        active_paths=(0,),
    )


def _reconnect_exhaustion() -> FaultScenario:
    # The receiver crashes and never comes back: every reconnection
    # attempt fails until the retry budget runs out and the recovery
    # manager escalates through the watchdog's clean-fail rung. The
    # harness asserts the *failure* is clean — diagnosis, no deadlock,
    # drained event queue.
    return FaultScenario(
        "reconnect_exhaustion", [FaultEvent(8.0, "crash_receiver", 0)]
    )


# Trace presets: replayed channel dynamics. The trace rides path 1
# during [2, 18) s (path 0 stays clean) — traces carry *absolute*
# bandwidth/delay/loss regimes, not multiplicative factors, so the
# window starts early to leave the 16 s generator defaults room before
# the explicit restore at t=18 s. They need byte-level delivery
# verification plus the flow-control/watchdog interplay checks of
# repro.traces.harness.TRACES.
def trace_replay_scenario(spec, name: Optional[str] = None) -> FaultScenario:
    """Wrap any trace spec (see :func:`repro.traces.generators.resolve_trace`)
    in the canonical one-path replay window used by the presets: path 1,
    from 2 s until the restore at 18 s."""
    if name is None:
        name = f"trace:{getattr(spec, 'name', spec)}"
    return FaultScenario(
        name, [FaultEvent(2.0, "trace", 1, spec), FaultEvent(18.0, "trace", 1, None)]
    )


def _gprs_bursty() -> FaultScenario:
    # GPRS-like slow bursty link: two-state fades between ~170 kb/s and
    # ~30 kb/s with bursty loss — the setting where fountain coding's
    # insensitivity to *which* packets die is sharpest.
    return trace_replay_scenario("gprs:1", name="gprs_bursty")


def _leo_handover() -> FaultScenario:
    # LEO-satellite pass: one-way delay sawtooths upward then snaps back
    # through a ~500 ms outage window at each handover.
    return trace_replay_scenario("leo:1", name="leo_handover")


def _dc_incast() -> FaultScenario:
    # Datacenter incast: periodic synchronized bursts crush the path's
    # bandwidth and spike loss for a few hundred ms at a time.
    return trace_replay_scenario("incast:1", name="dc_incast")


def _cellular_replay() -> FaultScenario:
    # Replays the bundled cellular drive-test CSV asset, exercising the
    # package-data parse path end to end.
    return trace_replay_scenario("cellular_drive", name="cellular_replay")


def _wifi_replay() -> FaultScenario:
    # Replays the bundled WiFi walk-test CSV asset (MCS rate ladder).
    return trace_replay_scenario("wifi_walk", name="wifi_replay")


# Exhaustion presets: not timelines but receiver memory budgets. Each
# fixes a receive budget (bytes, converted to blocks or chunks per
# protocol by repro.robustness.exhaustion.EXHAUSTION's sizing) and an
# application drain model, and runs under flow control and the watchdog.
@dataclass(frozen=True)
class ExhaustionScenario:
    """One resource-exhaustion preset: a memory budget plus a drain model.

    ``recv_budget_bytes`` is the receiver's whole memory allowance, so both
    stacks face the *same* byte budget rather than the same unit count.
    ``drain_rate_bps`` follows the config convention: ``None`` = instant
    application, ``0.0`` = an application that stopped reading.
    """

    name: str
    description: str
    recv_budget_bytes: int
    drain_rate_bps: Optional[float]
    # One dict of PathConfig kwargs per path.
    path_params: Tuple[Dict[str, float], ...]
    total_bytes: int
    duration_s: float
    expect_complete: bool = True

    def route(self, harness: Optional[str] = None) -> str:
        """Exhaustion presets route by what they are, not by events (see
        :data:`ROUTES`)."""
        if harness not in (None, "exhaustion"):
            raise ValueError(
                f"scenario {self.name!r} is an exhaustion preset, which the "
                f"{harness} harness cannot check; it routes to the exhaustion "
                "harness"
            )
        return "exhaustion"


def _tiny_receive_buffer() -> ExhaustionScenario:
    # A 32 KiB receiver: four FMTCP blocks of head-room, lossy paths.
    return ExhaustionScenario(
        name="tiny_receive_buffer",
        description="32 KiB receive budget, 1% loss on both paths",
        recv_budget_bytes=32_768,
        drain_rate_bps=None,
        path_params=(
            {"bandwidth_bps": 1.5e6, "delay_s": 0.03, "loss_rate": 0.01},
            {"bandwidth_bps": 1.5e6, "delay_s": 0.03, "loss_rate": 0.01},
        ),
        total_bytes=600_000,
        duration_s=30.0,
        expect_complete=True,
    )


def _slow_drain_receiver() -> ExhaustionScenario:
    # The application stops reading: unrecoverable, must fail cleanly.
    return ExhaustionScenario(
        name="slow_drain_receiver",
        description="application stops reading (drain rate 0); clean fail",
        recv_budget_bytes=98_304,
        drain_rate_bps=0.0,
        path_params=(
            {"bandwidth_bps": 2e6, "delay_s": 0.02, "loss_rate": 0.0},
            {"bandwidth_bps": 2e6, "delay_s": 0.02, "loss_rate": 0.0},
        ),
        total_bytes=800_000,
        duration_s=25.0,
        expect_complete=False,
    )


def _rtt_mismatch_blocking() -> ExhaustionScenario:
    # Fast/slow path pair: classic receive-buffer blocking pressure.
    return ExhaustionScenario(
        name="rtt_mismatch_blocking",
        description="30x RTT mismatch + loss on the slow path, 32 KiB budget",
        recv_budget_bytes=32_768,
        drain_rate_bps=None,
        path_params=(
            {"bandwidth_bps": 4e6, "delay_s": 0.01, "loss_rate": 0.0},
            {"bandwidth_bps": 1e6, "delay_s": 0.3, "loss_rate": 0.03},
        ),
        total_bytes=800_000,
        duration_s=30.0,
        expect_complete=True,
    )


#: The one preset registry, name -> (group, factory): :func:`resolve_scenario`
#: and :func:`presets` read it. A preset's group is the one its ``route()``
#: computes (pinned by tests/test_faults_scenario.py).
PRESETS: Dict[str, Tuple[str, Callable[[], FaultScenario | ExhaustionScenario]]] = {
    factory.__name__.lstrip("_"): (group, factory)
    for group, factories in (
        (
            "chaos",
            (_link_flap, _path_death, _bandwidth_collapse, _delay_spike,
             _loss_burst, _reorder_storm, _queue_saturation),
        ),
        (
            "churn",
            (_wifi_to_lte_handover, _flaky_path_churn, _single_path_degradation),
        ),
        (
            "corruption",
            (_bit_rot, _corruption_burst, _truncation_storm, _duplicate_mutation),
        ),
        (
            "exhaustion",
            (_tiny_receive_buffer, _slow_drain_receiver, _rtt_mismatch_blocking),
        ),
        (
            "recovery",
            (_receiver_crash, _sender_crash, _crash_storm, _crash_during_handover,
             _reconnect_exhaustion),
        ),
        (
            "traces",
            (_gprs_bursty, _leo_handover, _dc_incast, _cellular_replay, _wifi_replay),
        ),
    )
    for factory in factories
}


def presets(group: str) -> Dict[str, Callable[[], FaultScenario | ExhaustionScenario]]:
    """The presets of one routing group, name -> factory."""
    return {name: factory for name, (g, factory) in PRESETS.items() if g == group}


def resolve_scenario(spec: str) -> FaultScenario | ExhaustionScenario:
    """Turn a CLI spec — a preset name, ``random:SEED`` or ``trace:PATH``
    (a trace CSV file replayed in the canonical window) — into a
    scenario; raises ``ValueError`` naming what is wrong."""
    if spec.startswith("random:"):
        text = spec.split(":", 1)[1]
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"random:SEED needs an integer seed, got {text!r}") from None
        return FaultScenario.random(seed)
    if spec.startswith("trace:"):
        return trace_replay_scenario(spec.split(":", 1)[1])
    if spec not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown scenario {spec!r} (known: {known})")
    return PRESETS[spec][1]()
