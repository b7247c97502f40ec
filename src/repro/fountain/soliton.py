"""Soliton degree distributions for LT codes.

The paper's FMTCP uses the dense random-linear fountain; LT codes with the
robust Soliton distribution are the classic sparse alternative (MacKay's
"Fountain codes" survey, the paper's reference [17]) and are provided as
an extension so users can trade decoding cost against overhead.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate
from typing import List, Optional, Sequence


def ideal_soliton(k: int) -> List[float]:
    """Ideal Soliton distribution ρ(d) for d = 1..k (returned 0-indexed).

    ρ(1) = 1/k, ρ(d) = 1 / (d (d-1)) for d = 2..k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    distribution = [0.0] * k
    distribution[0] = 1.0 / k
    for degree in range(2, k + 1):
        distribution[degree - 1] = 1.0 / (degree * (degree - 1))
    return distribution


#: The Robust Soliton's free constant c and failure bound δ.
C = 0.03
DELTA = 0.5


def robust_soliton(k: int) -> List[float]:
    """Robust Soliton distribution μ(d) for d = 1..k (returned 0-indexed).

    Adds the τ spike at d = k/R (R = c·ln(k/δ)·√k) to the ideal Soliton
    and renormalises; guarantees decode with probability ≥ 1 - δ from
    k + O(√k ln²(k/δ)) symbols.
    """
    rho = ideal_soliton(k)
    big_r = C * math.log(k / DELTA) * math.sqrt(k)
    big_r = max(big_r, 1.0)
    spike = max(1, min(k, int(round(k / big_r))))
    tau = [0.0] * k
    for degree in range(1, spike):
        tau[degree - 1] = big_r / (degree * k)
    tau[spike - 1] = big_r * math.log(big_r / DELTA) / k
    total = sum(rho) + sum(tau)
    return [(r + t) / total for r, t in zip(rho, tau)]


class DegreeSampler:
    """Samples degrees from a (cumulative-table) distribution."""

    def __init__(self, distribution: Sequence[float], rng: Optional[random.Random] = None):
        if not distribution:
            raise ValueError("empty distribution")
        total = sum(distribution)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"distribution sums to {total}, expected 1")
        self._cumulative = list(accumulate(distribution))
        self._cumulative[-1] = 1.0
        self._rng = rng or random.Random()

    def sample(self) -> int:
        """Draw a degree in 1..len(distribution)."""
        return bisect_left(self._cumulative, self._rng.random()) + 1
