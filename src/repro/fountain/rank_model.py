"""Exact statistical model of random-linear decoder rank evolution.

For a uniformly random non-zero k-bit coefficient row, the probability of
being linearly dependent on an r-dimensional received subspace is the
fraction of non-zero vectors inside that subspace:

    P(dependent | rank r) = (2^r - 1) / (2^k - 1)  ≈  2^(r - k)

The simulator's default ("statistical") coding mode samples this Bernoulli
process per received symbol instead of performing the elimination, which
is O(1) per symbol and *distribution-exact* — a property test checks it
against the real codec. The paper's own machinery (Eq. (2)'s failure
probability, the δ-completeness predictor) works at this same
symbol-counting level, so no fidelity is lost.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional

#: Largest k the model takes: 2**k - 1 must convert to a float.
MAX_K = 1023

# random() returns (a·2²⁶ + b)/2⁵³ from two 32-bit Mersenne Twister words,
# a = first >> 5 and b = second >> 6, so a draw below 2⁻²⁷ needs a == 0.
_QUIET_P = 2.0**-27
_LOW_WORD = 0xFFFFFFFF


def decoding_failure_probability(k: int, received: float) -> float:
    """Paper Eq. (2): δ_b(k_b) = 1 if k_b < k̂_b else 2^(k̂_b - k_b).

    ``received`` may be fractional because the sender works with the
    *expected* number of received symbols k̃_b (Eq. (8)).
    """
    if received < k:
        return 1.0
    return 2.0 ** (k - received)


def expected_overhead_symbols(k: int) -> float:
    """Expected extra symbols beyond k for full rank (≈ 1.606 for large k).

    Receiving proceeds through ranks r = 0..k-1; at rank r each fresh
    symbol is independent with probability p_r = 1 - (2^r - 1)/(2^k - 1),
    so the wait at rank r is geometric with mean 1/p_r.
    """
    total = 0.0
    denominator = float(2**k - 1)
    for rank in range(k):
        p_independent = 1.0 - (2.0**rank - 1.0) / denominator
        total += 1.0 / p_independent
    return total - k


@lru_cache(maxsize=None)  # At most MAX_K entries, one per block size.
def _quiet_rank(k: int) -> int:
    """The first rank whose dependence probability reaches 2⁻²⁷ (``k``
    if none does): below it a draw is dependent only if its ``a`` is 0."""
    denominator = float(2**k - 1)
    rank = max(0, k - 32)  # 2^(rank - k) < 2⁻³¹ below here
    while rank < k and (2.0**rank - 1.0) / denominator < _QUIET_P:
        rank += 1
    return rank


class RankEvolutionModel:
    """Samples the exact rank process; drop-in for :class:`BlockDecoder`.

    Exposes the same counters the FMTCP receiver needs (``independent_symbols``
    a.k.a. k̄, redundancy counts, completeness) without touching data bytes.
    """

    def __init__(self, k: int, rng: Optional[random.Random] = None):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > MAX_K:
            raise ValueError(
                f"k must be <= {MAX_K} (2**k - 1 must fit in a float), got {k}"
            )
        self.k = k
        self._rng = rng or random.Random()
        self._rank = 0
        self.symbols_received = 0
        self.symbols_redundant = 0
        # Cache the dependence probability denominator once.
        self._denominator = float(2**k - 1)
        self._quiet_rank = _quiet_rank(k)

    @property
    def independent_symbols(self) -> int:
        return self._rank

    @property
    def is_complete(self) -> bool:
        return self._rank >= self.k

    def add_symbol(self, symbol) -> bool:
        """Sample whether a fresh random symbol increases the rank
        (``symbol`` is ignored: the real decoder's signature)."""
        self.symbols_received += 1
        if self._rank >= self.k:
            self.symbols_redundant += 1
            return False
        p_dependent = (2.0**self._rank - 1.0) / self._denominator
        if p_dependent > 0.0 and self._rng.random() < p_dependent:
            self.symbols_redundant += 1
            return False
        self._rank += 1
        return True

    def add_symbols(self, count: int) -> int:
        """``count`` fresh symbols at once; returns how many raised the rank.

        Draws exactly the random values ``count`` calls of
        :meth:`add_symbol` would, in the same order, so the two are
        interchangeable mid-stream. Below the quiet rank the draws come
        as one ``getrandbits`` call (Mersenne Twister hands out the same
        32-bit words, two per draw, low word first); a draw there can only
        be dependent when its first word is below 32, which puts three
        zero bytes in the little-endian stream. Without them every symbol
        is independent; with them each draw is replayed as ``random()``
        computes it.
        """
        rank = self._rank
        k = self.k
        denominator = self._denominator
        remaining = count
        if rank == 0 and remaining:
            rank = 1  # P(dependent | rank 0) = 0: no draw.
            remaining -= 1
        batch = min(remaining, self._quiet_rank - rank)
        if batch > 0:
            remaining -= batch
            bits = self._rng.getrandbits(64 * batch)
            if bits.to_bytes(8 * batch, "little").find(b"\0\0\0") < 0:
                rank += batch
            else:
                for __ in range(batch):
                    a = (bits & _LOW_WORD) >> 5
                    b = (bits >> 32 & _LOW_WORD) >> 6
                    bits >>= 64
                    drawn = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
                    if not drawn < (2.0**rank - 1.0) / denominator:
                        rank += 1
        draw = self._rng.random
        while remaining and rank < k:
            remaining -= 1
            p_dependent = (2.0**rank - 1.0) / denominator
            if p_dependent > 0.0 and draw() < p_dependent:
                continue
            rank += 1
        independent = rank - self._rank
        self._rank = rank
        self.symbols_received += count
        self.symbols_redundant += count - independent
        return independent
