"""Replay a :class:`~repro.traces.model.LinkTrace` onto live links.

The player is the bridge between a recorded (or generated) channel time
series and the runtime-mutation API of :class:`~repro.net.link.Link`:
on every tick it evaluates the trace at the aligned trace time and
drives ``set_bandwidth`` / ``set_delay`` / ``set_loss_model`` on its
links. Baselines are captured at :meth:`start`, so ``stop`` (or the
``clear`` end policy) returns every link to exactly its pre-trace
settings — the same contract the fault injector keeps.

Clock alignment: trace time 0 is the simulated instant :meth:`start`
runs, and ticks ride a :class:`~repro.sim.timers.PeriodicTimer`, whose
k-th tick fires at exactly ``start + k * step`` — no float drift between
the trace's own clock and the simulator's over long replays.

A ``None`` field in a sample leaves that dimension at the link's
baseline; a trace's loss regime is materialised as a fresh
:class:`~repro.net.loss.BernoulliLoss` (stateless, so each link keeps
drawing from its own RNG stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.net.loss import BernoulliLoss
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceBus
from repro.traces.model import LinkTrace, TraceSample


@dataclass
class _LinkBaseline:
    bandwidth_bps: float
    delay_s: float
    loss_model: object


class TracePlayer:
    """Drives one trace onto a set of links until stopped or ended,
    sampling it every ``STEP_S`` seconds."""

    STEP_S = 0.1

    def __init__(
        self,
        sim: Simulator,
        links: Sequence,
        trace: LinkTrace,
        bus: Optional[TraceBus] = None,
    ):
        if not links:
            raise ValueError("TracePlayer needs at least one link")
        self.sim = sim
        self.links = list(links)
        self.trace = trace
        self.bus = bus
        self.ticks_applied = 0
        # Exists only while playing: its callback is this player's bound
        # method, so a kept timer would hold a stopped player in a cycle.
        self._timer: Optional[PeriodicTimer] = None
        self._baselines: Dict[int, _LinkBaseline] = {}
        self._finished = False

    @property
    def playing(self) -> bool:
        return self._timer is not None and self._timer.armed

    @property
    def finished(self) -> bool:
        """Whether playback ran off the end of a ``clear``-policy trace."""
        return self._finished

    def start(self) -> None:
        """Capture baselines, anchor trace time 0 at ``sim.now``, begin."""
        if self.playing:
            raise RuntimeError(f"trace {self.trace.name!r} is already playing")
        self._finished = False
        self._baselines = {
            id(link): _LinkBaseline(
                bandwidth_bps=link.bandwidth_bps,
                delay_s=link.delay_s,
                loss_model=link.loss_model,
            )
            for link in self.links
        }
        self._timer = PeriodicTimer(
            self.sim, self.STEP_S, self._tick, name=f"trace:{self.trace.name}"
        )
        self._timer.start(fire_now=True)

    def _drop_timer(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def stop(self) -> None:
        """End playback and return the links to their baselines."""
        self._drop_timer()
        if self._baselines:
            for link in self.links:
                baseline = self._baselines[id(link)]
                link.set_bandwidth(baseline.bandwidth_bps)
                link.set_delay(baseline.delay_s)
                link.set_loss_model(baseline.loss_model)
            if self.bus is not None and "trace.restore" in self.bus.live:
                self.bus.emit(
                    self.sim.now,
                    "trace.restore",
                    trace=self.trace.name,
                    links=[link.name for link in self.links],
                )

    def _tick(self, elapsed_s: float) -> None:
        sample = self.trace.sample_at(elapsed_s)
        if sample is None:
            # "clear" policy past the end: restore and retire.
            self._finished = True
            self.stop()
            return
        self._apply(sample)
        self.ticks_applied += 1
        if self.trace.end_policy == "hold" and elapsed_s >= self.trace.duration_s:
            # Holding the last sample needs no further ticks.
            self._drop_timer()

    def _apply(self, sample: TraceSample) -> None:
        for link in self.links:
            baseline = self._baselines[id(link)]
            if sample.bandwidth_bps is not None:
                link.set_bandwidth(sample.bandwidth_bps)
            else:
                link.set_bandwidth(baseline.bandwidth_bps)
            if sample.delay_s is not None:
                link.set_delay(sample.delay_s)
            else:
                link.set_delay(baseline.delay_s)
            if sample.loss_rate is None:
                link.set_loss_model(baseline.loss_model)
            elif sample.loss_rate > 0.0:
                link.set_loss_model(BernoulliLoss(sample.loss_rate))
            else:
                link.set_loss_model(None)  # lossless regime
        if self.bus is not None and "trace.sample" in self.bus.live:
            self.bus.emit(
                self.sim.now,
                "trace.sample",
                trace=self.trace.name,
                bandwidth_bps=sample.bandwidth_bps,
                delay_s=sample.delay_s,
                loss_rate=sample.loss_rate,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "playing" if self.playing else "idle"
        return (
            f"<TracePlayer {self.trace.name!r} over {len(self.links)} "
            f"link(s) {state}>"
        )
