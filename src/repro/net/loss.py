"""Per-link packet loss models.

Each model answers one question per packet — should this packet be
dropped? — from its own named RNG stream, so loss realisations are
reproducible and independent across links.

Three models cover the paper's needs plus one common extension:

* :class:`BernoulliLoss` — i.i.d. loss at a fixed rate (Table I sweeps).
* :class:`ScheduledLoss` — piecewise-constant rate over time (the Fig. 4
  loss surge: 1 % → 25/35 % at t=50 s → 1 % at t=200 s).
* :class:`GilbertElliottLoss` — two-state bursty loss (extension; the
  paper's "bursty packet losses" language maps naturally onto it).
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, Tuple


class LossModel:
    """Interface: decide whether a packet observed at ``now`` is dropped."""

    def should_drop(self, now: float, rng: random.Random) -> bool:
        raise NotImplementedError

    def rate_at(self, now: float) -> float:
        """The (marginal) loss probability at time ``now``; for estimators/tests."""
        raise NotImplementedError


class NoLoss(LossModel):
    """A lossless link."""

    def should_drop(self, now: float, rng: random.Random) -> bool:
        return False

    def rate_at(self, now: float) -> float:
        return 0.0


class BernoulliLoss(LossModel):
    """Independent loss with fixed probability ``rate``."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.rate = rate

    def should_drop(self, now: float, rng: random.Random) -> bool:
        return self.rate > 0.0 and rng.random() < self.rate

    def rate_at(self, now: float) -> float:
        return self.rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BernoulliLoss({self.rate})"


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        segments = list(zip(self._starts, self._rates))
        return f"ScheduledLoss({segments})"


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert–Elliott) bursty loss.

    The chain steps once per observed packet. In the GOOD state packets
    drop with ``loss_good``; in BAD with ``loss_bad``. ``p_gb``/``p_bg``
    are per-packet transition probabilities GOOD→BAD and BAD→GOOD.
    """

    GOOD = 0
    BAD = 1

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        loss_good: float = 0.0,
        loss_bad: float = 0.5,
    ):
        for name, value in (
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.state = self.GOOD

    def stationary_bad_fraction(self) -> float:
        """Long-run fraction of time spent in the BAD state."""
        denominator = self.p_gb + self.p_bg
        if denominator == 0.0:
            return 0.0 if self.state == self.GOOD else 1.0
        return self.p_gb / denominator

    def rate_at(self, now: float) -> float:
        """Stationary marginal loss rate (state-averaged)."""
        bad = self.stationary_bad_fraction()
        return (1.0 - bad) * self.loss_good + bad * self.loss_bad

    def should_drop(self, now: float, rng: random.Random) -> bool:
        if self.state == self.GOOD:
            if rng.random() < self.p_gb:
                self.state = self.BAD
        else:
            if rng.random() < self.p_bg:
                self.state = self.GOOD
        loss = self.loss_good if self.state == self.GOOD else self.loss_bad
        return loss > 0.0 and rng.random() < loss

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GilbertElliottLoss(p_gb={self.p_gb}, p_bg={self.p_bg}, "
            f"loss_good={self.loss_good}, loss_bad={self.loss_bad})"
        )
