"""Replay a :class:`~repro.traces.model.LinkTrace` onto live links.

The player is the bridge between a recorded (or generated) channel time
series and the runtime-mutation API of :class:`~repro.net.link.Link`:
whenever the sample in force changes it drives ``set_bandwidth`` /
``set_delay`` / ``set_loss_model`` on its links. Baselines are captured
at the first :meth:`start` of a play, so ``stop`` returns every link to
exactly its pre-trace settings — the same contract the fault injector
keeps.

Clock alignment: trace time 0 is the simulated instant :meth:`start`
runs, and the trace is read on a grid of ``STEP_S`` seconds carried by a
:class:`~repro.sim.timers.PeriodicTimer`, whose k-th tick fires at
exactly ``start + k * STEP_S`` — no float drift between the trace's own
clock and the simulator's over long replays. A sample takes effect at
the first grid instant whose trace time ``k * STEP_S`` it covers. The
player schedules only those instants: each tick finds the next change
from the trace's sample times (:meth:`LinkTrace.next_change_s`) and
skips the grid points that would re-apply the sample in force.

A ``None`` field in a sample leaves that dimension at the link's
baseline; a trace's loss regime is materialised as a fresh
:class:`~repro.net.loss.BernoulliLoss` (stateless, so each link keeps
drawing from its own RNG stream).
"""

from __future__ import annotations

import math
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
    """Drives one trace onto a set of links until stopped, reading it on
    a grid of ``STEP_S`` seconds and waking only where the sample in
    force changes."""

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
        #: Samples applied: one per change of the sample in force.
        self.ticks_applied = 0
        # Exists only while playing: its callback is this player's bound
        # method, so a kept timer would hold a stopped player in a cycle.
        self._timer: Optional[PeriodicTimer] = None
        # Captured by the first start of a play, released by its stop.
        self._baselines: Dict[int, _LinkBaseline] = {}
        self._in_force: Optional[TraceSample] = None

    @property
    def playing(self) -> bool:
        return self._timer is not None

    def start(self) -> None:
        """Anchor trace time 0 at ``sim.now`` and begin; the first start
        since the last :meth:`stop` captures the baselines it restores."""
        if self.playing:
            raise RuntimeError(f"trace {self.trace.name!r} is already playing")
        if not self._baselines:
            self._baselines = {
                id(link): _LinkBaseline(
                    bandwidth_bps=link.bandwidth_bps,
                    delay_s=link.delay_s,
                    loss_model=link.loss_model,
                )
                for link in self.links
            }
        self._in_force = None
        self._timer = PeriodicTimer(
            self.sim, self.STEP_S, self._tick, name=f"trace:{self.trace.name}"
        )
        self._timer.start()

    def _drop_timer(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def stop(self) -> None:
        """End the play and return the links to their baselines; a stop
        after a stop changes nothing."""
        self._drop_timer()
        if not self._baselines:
            return
        for link in self.links:
            baseline = self._baselines[id(link)]
            link.set_bandwidth(baseline.bandwidth_bps)
            link.set_delay(baseline.delay_s)
            link.set_loss_model(baseline.loss_model)
        self._baselines = {}
        if self.bus is not None and "trace.restore" in self.bus.live:
            self.bus.emit(
                self.sim.now,
                "trace.restore",
                trace=self.trace.name,
                links=[link.name for link in self.links],
            )

    def _tick(self, tick: int) -> Optional[int]:
        step = self.STEP_S
        elapsed_s = tick * step
        sample = self.trace.sample_at(elapsed_s)
        if sample is not self._in_force:
            self._in_force = sample
            self._apply(sample)
            self.ticks_applied += 1
        change_s = self.trace.next_change_s(elapsed_s)
        if change_s is None:
            # Holding the sample in force needs no further ticks.
            self._drop_timer()
            return None
        # The first grid index at or past the change, searched from one
        # index early so that float rounding cannot carry it past. Waking
        # early is harmless: a tick that finds the same sample (rounding,
        # or a grid that steps over a short loop period) applies nothing
        # and looks again.
        next_tick = max(tick + 1, math.ceil(change_s / step) - 1)
        if self.trace.sample_at(next_tick * step) is sample:
            next_tick += 1
        return next_tick

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
