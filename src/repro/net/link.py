"""Unidirectional links: serialisation delay + propagation delay + loss.

A link models the classic store-and-forward pipeline: packets wait in a
drop-tail queue while the link serialises the packet in service
(``size * 8 / bandwidth`` seconds), then propagate for ``delay`` seconds,
during which the link is already free to serialise the next packet. Loss
is sampled when the packet leaves the wire (an erasure en route).

Links are *mutable at runtime*: the fault-injection subsystem
(:mod:`repro.faults`) drives ``set_bandwidth`` / ``set_delay`` /
``set_loss_model`` / ``set_down`` / ``set_reordering_model`` mid-
simulation to model flapping, collapsing and dying paths. Mutations take
effect for packets entering the affected pipeline stage from then on:
a packet already being serialised keeps its old finish time, a packet
already propagating keeps its old arrival time.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.net.corruption import CorruptionModel
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.reorder import ReorderingModel
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus


def _check_bandwidth(bandwidth_bps: float, link: str) -> None:
    # `nan <= 0` is False, so a plain sign check would let NaN (and inf)
    # through into serialisation-time arithmetic — reject explicitly.
    if not math.isfinite(bandwidth_bps) or bandwidth_bps <= 0:
        raise ValueError(
            f"link {link!r}: bandwidth must be finite and positive, "
            f"got {bandwidth_bps!r}"
        )


def _check_delay(delay_s: float, link: str) -> None:
    if not math.isfinite(delay_s) or delay_s < 0:
        raise ValueError(
            f"link {link!r}: delay must be finite and non-negative, "
            f"got {delay_s!r}"
        )


class Link:
    """One direction of a network link between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dst_node,
        bandwidth_bps: float,
        delay_s: float,
        loss_model: Optional[LossModel] = None,
        queue: Optional[DropTailQueue] = None,
        rng: Optional[random.Random] = None,
        trace: Optional[TraceBus] = None,
    ):
        _check_bandwidth(bandwidth_bps, name)
        _check_delay(delay_s, name)
        self.sim = sim
        self.name = name
        self.dst_node = dst_node
        self.bandwidth_bps = float(bandwidth_bps)
        self.delay_s = float(delay_s)
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        # `queue or ...` would discard a provided *empty* queue (it has
        # __len__ and is falsy), so compare against None explicitly.
        self.queue = queue if queue is not None else DropTailQueue()
        # Fallback RNG: a per-link stream derived from the link name, so
        # two links constructed without an explicit rng still see
        # *independent* loss realisations (a shared Random(0) would give
        # every such link the same drop sequence).
        self.rng = rng if rng is not None else RngStreams(0).get(f"link:{name}")
        self.trace = trace
        # Installed mid-run by the fault injector (set_*_model).
        self.reordering_model: Optional[ReorderingModel] = None
        self.corruption_model: Optional[CorruptionModel] = None
        self._busy = False
        self._down = False
        # Counters for link-level accounting in tests and the Table I bench.
        self.packets_sent = 0
        self.packets_dropped_loss = 0
        self.packets_dropped_queue = 0
        self.packets_dropped_down = 0
        self.packets_corrupted = 0
        self.packets_delivered = 0
        self.bytes_delivered = 0

    # ------------------------------------------------------------------
    # Runtime mutation API (driven by repro.faults).
    # ------------------------------------------------------------------
    @property
    def is_down(self) -> bool:
        """Whether the link is administratively dead (drops everything)."""
        return self._down

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the serialisation rate for packets not yet in service."""
        _check_bandwidth(bandwidth_bps, self.name)
        self.bandwidth_bps = float(bandwidth_bps)

    def set_delay(self, delay_s: float) -> None:
        """Change the propagation delay for packets not yet on the wire."""
        _check_delay(delay_s, self.name)
        self.delay_s = float(delay_s)

    def set_loss_model(self, loss_model: Optional[LossModel]) -> None:
        """Swap the loss model; ``None`` makes the link lossless."""
        self.loss_model = loss_model if loss_model is not None else NoLoss()

    def set_reordering_model(self, model: Optional[ReorderingModel]) -> None:
        """Install (or with ``None`` remove) a reordering model."""
        self.reordering_model = model

    def set_corruption_model(self, model: Optional[CorruptionModel]) -> None:
        """Install (or with ``None`` remove) a corruption model."""
        self.corruption_model = model

    def set_down(self, down: bool = True) -> None:
        """Kill (or revive) the link.

        While down, arriving packets are dropped at the entry point and
        packets finishing serialisation are dropped instead of
        propagating. Packets already propagating were past the cut and
        still arrive.
        """
        self._down = bool(down)
        if self.trace is not None:
            kind = "link.down" if self._down else "link.up"
            if kind in self.trace.live:
                self.trace.emit(self.sim.now, kind, link=self.name)

    # ------------------------------------------------------------------
    # Data path.
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Entry point: queue the packet or start serialising immediately."""
        if self._down:
            self._drop_down(packet)
            return
        if self._busy:
            if not self.queue.try_enqueue(packet):
                self.packets_dropped_queue += 1
                if self.trace is not None and "link.drop_queue" in self.trace.live:
                    self.trace.emit(
                        self.sim.now, "link.drop_queue", link=self.name, packet=packet
                    )
            return
        # Start serialising in place: size * 8 / bandwidth seconds. Events
        # carry the class's function and the link as its first argument: a
        # bound method per schedule would be an allocation, and one stored
        # on the link a reference cycle.
        self._busy = True
        self.packets_sent += 1
        sim = self.sim
        sim.schedule_at(
            sim.now + packet.size * 8.0 / self.bandwidth_bps,
            Link._finish_transmission,
            self,
            packet,
        )

    def _drop_down(self, packet: Packet) -> None:
        self.packets_dropped_down += 1
        if self.trace is not None and "link.drop_down" in self.trace.live:
            self.trace.emit(
                self.sim.now, "link.drop_down", link=self.name, packet=packet
            )

    def _finish_transmission(self, packet: Packet) -> None:
        sim = self.sim
        now = sim.now
        queue = self.queue
        if queue:
            # The wire goes straight on to the next queued packet.
            next_packet = queue.popleft()
            self.packets_sent += 1
            sim.schedule_at(
                now + next_packet.size * 8.0 / self.bandwidth_bps,
                Link._finish_transmission,
                self,
                next_packet,
            )
        else:
            self._busy = False

        if self._down:
            self._drop_down(packet)
            return
        loss_model = self.loss_model
        if loss_model.__class__ is not NoLoss and loss_model.should_drop(now, self.rng):
            self.packets_dropped_loss += 1
            if self.trace is not None and "link.drop_loss" in self.trace.live:
                self.trace.emit(now, "link.drop_loss", link=self.name, packet=packet)
            return
        delay = self.delay_s
        if self.reordering_model is not None:
            delay += self.reordering_model.extra_delay(now, self.rng)
        if self.corruption_model is not None:
            damaged = self.corruption_model.apply(packet, now, self.rng)
            if damaged is not None:
                self.packets_corrupted += 1
                if self.trace is not None and "link.corrupt" in self.trace.live:
                    self.trace.emit(now, "link.corrupt", link=self.name, packet=packet)
                for replacement in damaged:
                    sim.schedule_at(now + delay, Link._deliver, self, replacement)
                return
        sim.schedule_at(now + delay, Link._deliver, self, packet)

    def _deliver(self, packet: Packet) -> None:
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        if self.trace is not None and "link.deliver" in self.trace.live:
            self.trace.emit(self.sim.now, "link.deliver", link=self.name, packet=packet)
        self.dst_node.receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " DOWN" if self._down else ""
        return (
            f"<Link {self.name} {self.bandwidth_bps / 1e6:.1f}Mbps "
            f"{self.delay_s * 1e3:.1f}ms loss={self.loss_model!r}{state}>"
        )
