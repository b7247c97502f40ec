"""Per-link packet loss models.

Each model answers one question per packet — should this packet be
dropped? — from its own named RNG stream, so loss realisations are
reproducible and independent across links.

Two models cover the paper's needs:

* :class:`BernoulliLoss` — i.i.d. loss at a fixed rate (Table I sweeps).
* :class:`ScheduledLoss` — piecewise-constant rate over time (the Fig. 4
  loss surge: 1 % → 25/35 % at t=50 s → 1 % at t=200 s).

Bursty, two-state damage is :class:`~repro.net.corruption.GilbertElliottCorruption`
(the ``corrupt_ge`` fault kind): a corrupted packet fails its checksum
and is discarded, which the transport sees as a loss.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, Tuple


class LossModel:
    """Interface: decide whether a packet observed at ``now`` is dropped."""

    def should_drop(self, now: float, rng: random.Random) -> bool:
        raise NotImplementedError


class NoLoss(LossModel):
    """A lossless link."""


class BernoulliLoss(LossModel):
    """Independent loss with fixed probability ``rate``."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.rate = rate

    def should_drop(self, now: float, rng: random.Random) -> bool:
        return self.rate > 0.0 and rng.random() < self.rate


class ScheduledLoss(LossModel):
    """Piecewise-constant Bernoulli loss.

    ``segments`` is a list of ``(start_time, rate)`` pairs; the rate in
    effect is the one with the greatest ``start_time <= now``. Segments are
    sorted on construction; the first segment should start at 0.
    """

    def __init__(self, segments: Sequence[Tuple[float, float]]):
        if not segments:
            raise ValueError("ScheduledLoss needs at least one segment")
        ordered = sorted(segments)
        for __, rate in ordered:
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self._starts: List[float] = [start for start, __ in ordered]
        self._rates: List[float] = [rate for __, rate in ordered]
        if self._starts[0] > 0.0:
            # Before the first explicit segment the link is lossless.
            self._starts.insert(0, 0.0)
            self._rates.insert(0, 0.0)

    def rate_at(self, now: float) -> float:
        index = bisect.bisect_right(self._starts, now) - 1
        return self._rates[max(index, 0)]

    def should_drop(self, now: float, rng: random.Random) -> bool:
        rate = self.rate_at(now)
        return rate > 0.0 and rng.random() < rate
