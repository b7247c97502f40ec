"""Per-link packet reordering models.

A reordering model sits next to :class:`~repro.net.loss.LossModel` in the
link pipeline: where a loss model decides *whether* a packet leaves the
wire, a reordering model decides *when* it arrives — by adding an extra
propagation delay to a subset of packets, which lets later packets
overtake them. Transports see the classic symptoms: duplicate-ACK storms,
spurious loss declarations and receive-buffer churn.

Like loss models, a reordering model draws from the link's own named RNG
stream, so realisations are reproducible and independent across links.
"""

from __future__ import annotations

import random


class ReorderingModel:
    """Interface: extra propagation delay for a packet departing at ``now``."""

    def extra_delay(self, now: float, rng: random.Random) -> float:
        raise NotImplementedError


class UniformReordering(ReorderingModel):
    """Delay a fraction of packets by a uniform extra propagation time.

    With probability ``probability`` a packet is held back for an extra
    delay drawn uniformly from ``[0, max_extra_s]`` — long enough
    (relative to the link's serialisation time) and later packets arrive
    first.
    """

    def __init__(self, probability: float, max_extra_s: float = 0.1):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if max_extra_s < 0.0:
            raise ValueError(f"max_extra_s must be >= 0, got {max_extra_s}")
        self.probability = probability
        self.max_extra_s = max_extra_s
        self.packets_reordered = 0

    def extra_delay(self, now: float, rng: random.Random) -> float:
        if self.probability <= 0.0 or rng.random() >= self.probability:
            return 0.0
        self.packets_reordered += 1
        return rng.uniform(0.0, self.max_extra_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UniformReordering(p={self.probability}, "
            f"extra=[0, {self.max_extra_s}]s)"
        )
