"""Simulation-engine profiler: where does the wall time go?

The ROADMAP's north star is a simulator that runs as fast as the
hardware allows; the first step of any optimisation is attribution. The
profiler hooks the :class:`~repro.sim.engine.Simulator` run loop (see
``Simulator.set_profiler``) and aggregates, per callback kind:

* callback count and total/mean wall time (``time.perf_counter``),
* peak heap depth observed at dispatch,
* events per wall-clock second and the sim-time/wall-time ratio — the
  headline "how much faster than real time do we simulate" number.

Profiling never changes simulated behaviour (the engine stays
deterministic; only wall-clock is observed), and costs nothing when no
profiler is attached: the run loop takes the unprofiled branch on a
single ``is None`` test.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional


def callback_label(fn: Callable) -> str:
    """Stable, human-readable name for a scheduled callback."""
    qualname = getattr(fn, "__qualname__", None)
    if qualname is None:
        self_obj = getattr(fn, "__self__", None)
        if self_obj is not None:  # pragma: no cover - exotic callables
            return f"{type(self_obj).__name__}.{getattr(fn, '__name__', '?')}"
        return repr(fn)
    module = getattr(fn, "__module__", "") or ""
    short_module = module.rsplit(".", 1)[-1]
    return f"{short_module}.{qualname}" if short_module else qualname


class _KindStats:
    __slots__ = ("count", "total_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0


class SimProfiler:
    """Aggregates per-callback-kind wall time for one or more runs."""

    def __init__(self) -> None:
        self.events = 0
        self.wall_s = 0.0  # total wall time inside Simulator.run
        self.callback_wall_s = 0.0  # wall time inside callbacks only
        self.max_heap_depth = 0
        self.sim_time_start: Optional[float] = None
        self.sim_time_end = 0.0
        self.runs = 0
        # Keyed by the callback's function (a bound method's ``__func__``),
        # so an event costs a dict lookup; labels are built in report().
        self._by_kind: Dict[Any, _KindStats] = {}

    # ------------------------------------------------------------------
    # Hooks called by the engine (hot path — keep them lean).
    # ------------------------------------------------------------------
    def on_event(
        self, fn: Callable, elapsed_s: float, heap_depth: int, sim_time: float
    ) -> None:
        self.events += 1
        self.callback_wall_s += elapsed_s
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth
        if self.sim_time_start is None:
            self.sim_time_start = sim_time
        self.sim_time_end = sim_time
        key = getattr(fn, "__func__", fn)
        try:
            stats = self._by_kind.get(key)
        except TypeError:  # an unhashable callable object: key it by label
            key = callback_label(fn)
            stats = self._by_kind.get(key)
        if stats is None:
            stats = _KindStats()
            self._by_kind[key] = stats
        stats.count += 1
        stats.total_s += elapsed_s
        if elapsed_s > stats.max_s:
            stats.max_s = elapsed_s

    def on_run_complete(self, wall_s: float) -> None:
        self.runs += 1
        self.wall_s += wall_s

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def sim_time_span(self) -> float:
        if self.sim_time_start is None:
            return 0.0
        return self.sim_time_end - self.sim_time_start

    @property
    def sim_wall_ratio(self) -> float:
        """Simulated seconds per wall second (>1 = faster than real time)."""
        return self.sim_time_span / self.wall_s if self.wall_s > 0 else 0.0

    def _stats_by_label(self) -> Dict[str, _KindStats]:
        """The per-function stats merged by label (two lambdas of one
        module, or a function keyed by label, share one)."""
        merged: Dict[str, _KindStats] = {}
        for key, stats in self._by_kind.items():
            label = key if isinstance(key, str) else callback_label(key)
            into = merged.get(label)
            if into is None:
                into = merged[label] = _KindStats()
            into.count += stats.count
            into.total_s += stats.total_s
            into.max_s = max(into.max_s, stats.max_s)
        return merged

    def report(self) -> Dict[str, object]:
        kinds = []
        for label, stats in sorted(
            self._stats_by_label().items(), key=lambda item: -item[1].total_s
        ):
            kinds.append(
                {
                    "kind": label,
                    "count": stats.count,
                    "total_s": stats.total_s,
                    "mean_us": stats.total_s / stats.count * 1e6 if stats.count else 0.0,
                    "max_us": stats.max_s * 1e6,
                }
            )
        return {
            "events": self.events,
            "runs": self.runs,
            "wall_s": self.wall_s,
            "callback_wall_s": self.callback_wall_s,
            "events_per_s": self.events_per_s,
            "sim_time_span_s": self.sim_time_span,
            "sim_wall_ratio": self.sim_wall_ratio,
            "max_heap_depth": self.max_heap_depth,
            "by_kind": kinds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProfiler events={self.events} wall={self.wall_s:.3f}s>"
