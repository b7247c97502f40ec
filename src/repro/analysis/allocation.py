"""Section IV-C: properties of the EAT allocation scheme.

* Eq. (13): SEDT_f = p_f·R_f/(1 − p_f) + r_f/2 (implemented in
  :func:`repro.core.estimators.sedt`; re-exported here for locality).
* Lemma 1 / Eq. (16): the r₂ threshold beyond which symbols lost on the
  inferior flow are only repaired on the superior one.
* Theorem 3 / Eq. (17): the bound on E(T₂)/E(T₁), versus plain MPTCP's
  ratio of exactly m = SEDT₂/SEDT₁.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.estimators import sedt  # noqa: F401  (re-export)


def lemma1_min_r2(r1: float, p1: float, p2: float) -> float:
    """Eq. (16): minimum r₂ such that flow 2's losses migrate to flow 1.

    r₂ ≥ [ (1+p₁)(1−p₂) / ((1−p₁)(1+p₂)) + 2/(1+p₂) ] · r₁
    """
    _check(r1, p1, p2)
    factor = ((1.0 + p1) * (1.0 - p2)) / ((1.0 - p1) * (1.0 + p2)) + 2.0 / (1.0 + p2)
    return factor * r1


def theorem3_ratio_bound(p1: float, p2: float, m: float) -> float:
    """Eq. (17): E(T₂)/E(T₁) ≤ p₂ + 2(1−p₁)/(1+p₁) + (1−p₂)·m."""
    _check(1.0, p1, p2)
    if m <= 0:
        raise ValueError("m must be positive")
    return p2 + 2.0 * (1.0 - p1) / (1.0 + p1) + (1.0 - p2) * m


def mptcp_delivery_ratio(m: float) -> float:
    """Plain MPTCP retransmits on the same subflow, so the ratio is m."""
    if m <= 0:
        raise ValueError("m must be positive")
    return m


def fmtcp_beats_mptcp_condition(p1: float, p2: float) -> float:
    """Threshold m* = 1 + 2(1−p₁)/(p₂(1+p₁)) above which Eq. (17) < m.

    The paper's closing observation of Section IV-C: once path diversity
    m exceeds this threshold, FMTCP's worst-case delivery-time ratio is
    strictly better than MPTCP's.
    """
    _check(1.0, p1, p2)
    if p2 == 0.0:
        return float("inf")
    return 1.0 + 2.0 * (1.0 - p1) / (p2 * (1.0 + p1))


def simulate_sedt(
    rtt: float,
    loss: float,
    rto: float,
    rng: Optional[random.Random] = None,
) -> float:
    """Monte-Carlo twin of Eq. (13): mean single-path delivery time over
    50 000 trials, when every loss costs one ``rto`` and the surviving
    copy half an RTT."""
    _check(rtt, loss, 0.0)
    rng = rng or random.Random(0)
    trials = 50_000
    total = 0.0
    for __ in range(trials):
        elapsed = 0.0
        while rng.random() < loss:
            elapsed += rto  # timeout, send again
        total += elapsed + rtt / 2.0
    return total / trials


def _check(r1: float, p1: float, p2: float) -> None:
    if r1 <= 0:
        raise ValueError("round-trip time must be positive")
    for name, value in (("p1", p1), ("p2", p2)):
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {value}")
