"""Section III-B: why fixed-rate coding loses to the fountain.

The paper's quantitative argument, reproduced exactly:

* Eq. (3): the Expected Packets Delivered for a block of A packets on a
  path with loss p₁ is E(X) = A / (1 − p₁).
* Eq. (4): the fixed-rate sender therefore transmits a = A/(1 − p₁)
  packets, betting on its loss estimate p₁.
* Eq. (5): if the true loss is p₂, only E(X_R) = (1 − p₂)·a arrive.
* Eq. (6): by Chernoff, P(X_R ≥ A) ≤ exp(−(p₂ − p₁)²·A /
  (3(1 − p₁)(1 − p₂))) — the chance of needing *no* retransmission decays
  exponentially in the block size once the loss rate is underestimated.
* Eq. (7): the fountain needs only E(Y) ≤ (k̂ + 4)/(1 − p) symbol
  transmissions per block — a constant additive overhead, whatever p does.

Each formula has a Monte-Carlo twin so tests (and the analysis benchmark)
can confirm the closed forms against simulation.
"""

from __future__ import annotations

import math
import random

from repro.fountain.rank_model import RankEvolutionModel, expected_overhead_symbols


def expected_packets_delivered(block_packets: int, loss_rate: float) -> float:
    """Eq. (3): E(X) = A / (1 − p₁)."""
    _check_loss(loss_rate)
    if block_packets < 1:
        raise ValueError("block_packets must be >= 1")
    return block_packets / (1.0 - loss_rate)


def fixed_rate_packets_to_send(block_packets: int, estimated_loss: float) -> float:
    """Eq. (4): a = A / (1 − p₁), the fixed-rate sender's budget."""
    return expected_packets_delivered(block_packets, estimated_loss)


def expected_actual_delivered(
    block_packets: int, estimated_loss: float, actual_loss: float
) -> float:
    """Eq. (5): E(X_R) = (1 − p₂)·a = (1 − p₂)/(1 − p₁)·A."""
    _check_loss(actual_loss)
    return (1.0 - actual_loss) * fixed_rate_packets_to_send(
        block_packets, estimated_loss
    )


def chernoff_no_retransmission_bound(
    block_packets: int, estimated_loss: float, actual_loss: float
) -> float:
    """Eq. (6): upper bound on P(no retransmission needed).

    Only meaningful when the loss rate is underestimated (p₂ > p₁); the
    bound is reported as 1.0 otherwise.
    """
    _check_loss(estimated_loss)
    _check_loss(actual_loss)
    if actual_loss <= estimated_loss:
        return 1.0
    exponent = -((actual_loss - estimated_loss) ** 2) * block_packets / (
        3.0 * (1.0 - estimated_loss) * (1.0 - actual_loss)
    )
    return math.exp(exponent)


def fountain_expected_symbols_bound(k: int, loss_rate: float) -> float:
    """Eq. (7): E(Y) ≤ (k̂ + 4)/(1 − p).

    The paper bounds the linear-dependence overhead Σ j·2^{-(j-1)} by 4;
    :func:`fountain_expected_symbols_exact` gives the tight value.
    """
    _check_loss(loss_rate)
    return (k + 4.0) / (1.0 - loss_rate)


def fountain_expected_symbols_exact(k: int, loss_rate: float) -> float:
    """Exact expected symbol transmissions: (k̂ + overhead(k̂))/(1 − p)."""
    _check_loss(loss_rate)
    return (k + expected_overhead_symbols(k)) / (1.0 - loss_rate)


# ----------------------------------------------------------------------
# Monte-Carlo twins.
# ----------------------------------------------------------------------
def simulate_fixed_rate_delivery(
    block_packets: int,
    estimated_loss: float,
    actual_loss: float,
    trials: int = 2000,
) -> float:
    """Empirical P(at least A of the a budgeted packets survive loss p₂)."""
    _check_loss(estimated_loss)
    _check_loss(actual_loss)
    rng = random.Random(0)
    budget = int(math.ceil(fixed_rate_packets_to_send(block_packets, estimated_loss)))
    successes = 0
    for __ in range(trials):
        survived = sum(1 for __ in range(budget) if rng.random() >= actual_loss)
        if survived >= block_packets:
            successes += 1
    return successes / trials


def simulate_fountain_delivery(
    k: int,
    loss_rate: float,
    trials: int = 500,
) -> float:
    """Empirical mean symbol transmissions until a block decodes.

    Uses the exact rank-evolution model for the coding process and
    Bernoulli erasures for the channel — the quantity Eq. (7) bounds.
    """
    _check_loss(loss_rate)
    rng = random.Random(0)
    total_sent = 0
    for __ in range(trials):
        model = RankEvolutionModel(k, rng=rng)
        sent = 0
        while not model.is_complete:
            sent += 1
            if rng.random() >= loss_rate:
                model.add_symbol()
        total_sent += sent
    return total_sent / trials


def _check_loss(loss_rate: float) -> None:
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
