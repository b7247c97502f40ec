"""Tests for the statistical rank-evolution model — including the property
that justifies using it in place of the real codec (DESIGN.md §3.2)."""

import math
import random

import pytest

from repro.fountain.codec import BlockDecoder, BlockEncoder
from repro.fountain.gf2 import Gf2Eliminator
from repro.fountain.rank_model import (
    MAX_K,
    RankEvolutionModel,
    decoding_failure_probability,
    expected_overhead_symbols,
)
from tests.conftest import independent_of


# ----------------------------------------------------------------------
# Eq. (2).
# ----------------------------------------------------------------------
def test_failure_probability_below_k_is_one():
    assert decoding_failure_probability(10, 0) == 1.0
    assert decoding_failure_probability(10, 9.999) == 1.0


def test_failure_probability_at_k_is_one():
    # 2^(k-k) = 1: holding exactly k symbols gives no success guarantee.
    assert decoding_failure_probability(10, 10) == 1.0


def test_failure_probability_decays_exponentially():
    assert decoding_failure_probability(10, 11) == pytest.approx(0.5)
    assert decoding_failure_probability(10, 13) == pytest.approx(0.125)
    assert decoding_failure_probability(10, 20) == pytest.approx(2.0**-10)


def test_failure_probability_fractional_received():
    assert decoding_failure_probability(10, 11.5) == pytest.approx(2.0**-1.5)


# ----------------------------------------------------------------------
# Expected overhead.
# ----------------------------------------------------------------------
def test_expected_overhead_approaches_mackay_constant():
    # Known limit: sum_{j>=1} 1/(2^j - 1) ≈ 1.606 for large k.
    assert expected_overhead_symbols(64) == pytest.approx(1.6067, abs=0.01)


def test_expected_overhead_k1():
    # One part: a symbol is always the part itself; zero overhead.
    assert expected_overhead_symbols(1) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Model behaviour.
# ----------------------------------------------------------------------
def test_rank_monotone_and_completes():
    model = RankEvolutionModel(32, rng=random.Random(0))
    previous = 0
    while not model.is_complete:
        model.add_symbol(None)
        assert model.independent_symbols >= previous
        previous = model.independent_symbols
    assert model.independent_symbols == 32


def test_symbols_after_completion_are_redundant():
    model = RankEvolutionModel(4, rng=random.Random(1))
    while not model.is_complete:
        model.add_symbol(None)
    before = model.symbols_redundant
    assert not model.add_symbol(None)
    assert model.symbols_redundant == before + 1


def test_k1_first_symbol_always_completes():
    model = RankEvolutionModel(1, rng=random.Random(2))
    assert model.add_symbol(None)
    assert model.is_complete


def test_validation():
    with pytest.raises(ValueError):
        RankEvolutionModel(0)


def test_k_past_the_float_limit_is_rejected_naming_the_limit():
    """float(2**1024 - 1) overflows: k = 1024 used to construct and then
    raise OverflowError on the first received symbol."""
    assert MAX_K == 1023
    model = RankEvolutionModel(MAX_K, rng=random.Random(3))
    assert model.add_symbols(5) == 5
    with pytest.raises(ValueError, match="1023"):
        RankEvolutionModel(MAX_K + 1)


# ----------------------------------------------------------------------
# The equivalence property: statistical model vs real decoder.
# ----------------------------------------------------------------------
def test_model_matches_real_decoder_overhead_distribution():
    """Mean symbols-to-complete must agree between model and real codec.

    Both processes are (identical) Markov chains on the rank; with 400
    trials each, their means should agree within a small tolerance of the
    closed-form expectation k + overhead(k).
    """
    k, trials = 16, 400
    rng = random.Random(42)

    def run_real():
        encoder = BlockEncoder(bytes(k), k=k, part_size=1, rng=rng)
        decoder = BlockDecoder(k=k, part_size=1)
        count = 0
        while not decoder.is_complete:
            decoder.add_symbol(encoder.next_symbol())
            count += 1
        return count

    def run_model():
        model = RankEvolutionModel(k, rng=rng)
        count = 0
        while not model.is_complete:
            model.add_symbol(None)
            count += 1
        return count

    real_mean = sum(run_real() for __ in range(trials)) / trials
    model_mean = sum(run_model() for __ in range(trials)) / trials
    expected = k + expected_overhead_symbols(k)
    assert real_mean == pytest.approx(expected, abs=0.5)
    assert model_mean == pytest.approx(expected, abs=0.5)
    assert real_mean == pytest.approx(model_mean, abs=0.7)


def test_model_matches_real_decoder_dependence_rate_at_partial_rank():
    """P(dependent | rank r) of a fresh symbol matches the model's formula.

    Builds a real decoder up to rank r, then probes thousands of fresh
    random symbols *without inserting them* and compares the dependent
    fraction against (2^r − 1)/(2^k − 1).
    """
    k, r, probes = 8, 6, 20_000
    rng = random.Random(7)
    encoder = BlockEncoder(bytes(k), k=k, part_size=1, rng=rng)
    decoder = BlockDecoder(k=k, part_size=1)
    while decoder.independent_symbols < r:
        decoder.add_symbol(encoder.next_symbol())

    eliminator = decoder._eliminator
    dependent = 0
    for __ in range(probes):
        coeff = 0
        while coeff == 0:
            coeff = rng.getrandbits(k)
        if not independent_of(eliminator, coeff):
            dependent += 1

    p_dep = (2.0**r - 1.0) / (2.0**k - 1.0)
    assert dependent / probes == pytest.approx(p_dep, rel=0.1)


# ----------------------------------------------------------------------
# Batched form.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 2, 8, 64])
def test_add_symbols_equals_repeated_add_symbol(k):
    """Same rank, same counters and the same RNG position after every
    batch, including batches that straddle and follow completion."""
    for seed in range(20):
        one, many = random.Random(seed), random.Random(seed)
        single = RankEvolutionModel(k, rng=one)
        batched = RankEvolutionModel(k, rng=many)
        sizes = random.Random(seed + 1000)
        while batched.symbols_received < 2 * k + 8:
            count = sizes.randint(0, k // 2 + 3)
            independent = sum(single.add_symbol(None) for __ in range(count))
            assert batched.add_symbols(count) == independent
            assert batched.independent_symbols == single.independent_symbols
            assert batched.symbols_received == single.symbols_received
            assert batched.symbols_redundant == single.symbols_redundant
            assert batched.is_complete == single.is_complete
            assert many.random() == one.random()


def test_add_symbols_equals_add_symbol_over_300_seeds():
    """``add_symbols(c)`` against ``c`` calls of ``add_symbol`` — rank,
    redundancy and the RNG's next value — for k on both sides of the
    2⁻²⁷ quiet rank (29 and below have none past rank 1) and group sizes
    up to a full packet."""
    for seed in range(300):
        sizes = random.Random(-1 - seed)
        k = sizes.choice([1, 2, 3, 28, 29, 30, 40, 64, 256])
        one, many = random.Random(seed), random.Random(seed)
        single = RankEvolutionModel(k, rng=one)
        batched = RankEvolutionModel(k, rng=many)
        while batched.symbols_received < k + 12:
            count = sizes.randint(0, 45)
            independent = sum(single.add_symbol(None) for __ in range(count))
            assert batched.add_symbols(count) == independent, (seed, k)
            assert batched.independent_symbols == single.independent_symbols
            assert batched.symbols_redundant == single.symbols_redundant
        assert many.random() == one.random(), (seed, k)


class ScriptedWords:
    """An RNG serving a fixed list of 32-bit Mersenne Twister words the
    way ``random.Random`` does: ``random()`` takes two (the first gives
    the high 27 bits), ``getrandbits(32·n)`` takes n, lowest word first."""

    def __init__(self, words):
        self.words = list(words)
        self.taken = 0

    def _word(self):
        word = self.words[self.taken]
        self.taken += 1
        return word

    def random(self):
        a, b = self._word() >> 5, self._word() >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def getrandbits(self, bits):
        assert bits % 32 == 0
        return sum(self._word() << (32 * i) for i in range(bits // 32))


def test_scripted_words_draw_what_random_random_draws():
    source = random.Random(5)
    words = [source.getrandbits(32) for __ in range(60)]
    real, scripted = random.Random(5), ScriptedWords(words)
    assert [scripted.random() for __ in range(10)] == [
        real.random() for __ in range(10)
    ]
    assert scripted.getrandbits(64 * 20) == real.getrandbits(64 * 20)


def _draw_words(a, b):
    """The two words whose draw is ``(a·2²⁶ + b) / 2⁵³``."""
    return [a << 5, b << 6]


def test_add_symbols_replays_the_draws_a_batch_cannot_accept():
    """k = 40, whose quiet rank is 14. Draw 9 (rank 10, inside the
    batched region) has high word 0 and comes out dependent; draw 39
    (rank 39, past the quiet rank) sits just under its threshold with no
    zero bytes and is dependent too. Every other draw is independent.
    Dropping the three-zero-bytes prefilter (accepting the batch
    unseen) or the replay misses the first; batching past the quiet
    rank misses the second."""
    k = 40

    def p_dependent(rank):
        return (2.0**rank - 1.0) / float(2**k - 1)

    assert p_dependent(13) < 2.0**-27 <= p_dependent(14)
    filler = _draw_words(0x6F56DF7, 0x3BEEF01)  # ≈ 0.87: always independent
    just_under = math.ceil(p_dependent(39) * 2.0**53) - 1
    draws = [filler] * 41
    draws[9] = _draw_words(0, 1)
    draws[39] = _draw_words(just_under >> 26, just_under & (2**26 - 1))
    words = [word for draw in draws for word in draw]
    assert just_under * 2.0**-53 < p_dependent(39)
    assert b"\0\0\0" not in (words[78] | words[79] << 32).to_bytes(8, "little")

    single = RankEvolutionModel(k, rng=ScriptedWords(words))
    for __ in range(44):
        single.add_symbol(None)
    assert single.symbols_redundant == 2 + 2  # Two dependent, two past k.
    assert single._rng.taken == len(words)
    for groups in ([44], [20, 24], [1, 13, 30], [3] * 14 + [2]):
        batched = RankEvolutionModel(k, rng=ScriptedWords(words))
        for count in groups:
            batched.add_symbols(count)
        assert batched.independent_symbols == k, groups
        assert batched.symbols_redundant == single.symbols_redundant, groups
        assert batched._rng.taken == len(words), groups


# ----------------------------------------------------------------------
# ROADMAP ``oracles`` (a): the rank model at the production k̂ = 256.
# ----------------------------------------------------------------------
K_HAT, SURPLUS, BLOCKS = 256, 10, 400


def closed_form_full_rank(k: int, n: int) -> float:
    """P(n uniformly random k-bit rows span GF(2)^k) = ∏_{i<k}(1 − 2^(i−n))."""
    probability = 1.0
    for i in range(k):
        probability *= 1.0 - 2.0 ** (i - n)
    return probability


def real_eliminator(rng):
    """``take(count)`` feeds a fresh rank-only eliminator that many
    ``getrandbits`` rows and says whether it has reached full rank."""
    eliminator = Gf2Eliminator(K_HAT)

    def take(count):
        for __ in range(count):
            eliminator.add_row(rng.getrandbits(K_HAT))
        return eliminator.is_full_rank

    return take


def rank_model(rng, model_class=RankEvolutionModel):
    """The same for a fresh rank model."""
    model = model_class(K_HAT, rng=rng)

    def take(count):
        model.add_symbols(count)
        return model.is_complete

    return take


def full_rank_counts(new_block, rng) -> list:
    """Of ``BLOCKS`` blocks, how many are complete after k̂ + j symbols,
    j = 0 … ``SURPLUS``."""
    complete_after = [0] * (SURPLUS + 1)
    for __ in range(BLOCKS):
        take = new_block(rng)
        take(K_HAT - 1)
        for surplus in range(SURPLUS + 1):
            complete_after[surplus] += take(1)
    return complete_after


@pytest.fixture(scope="module")
def real_counts():
    return full_rank_counts(real_eliminator, random.Random(2012))


def assert_same_curve(measured, other, other_is_exact):
    """Every point within four binomial standard deviations (of the
    difference, when ``other`` is a second sample of ``BLOCKS``), plus the
    1 / BLOCKS a count cannot resolve."""
    for surplus, count in enumerate(measured):
        theory = closed_form_full_rank(K_HAT, K_HAT + surplus)
        sigma = (theory * (1.0 - theory) / BLOCKS) ** 0.5
        if other_is_exact:
            reference = other[surplus]
        else:
            reference, sigma = other[surplus] / BLOCKS, sigma * 2.0**0.5
        assert abs(count / BLOCKS - reference) <= 4.0 * sigma + 1.0 / BLOCKS, (
            f"k̂+{surplus}: {count / BLOCKS:.4f} against {reference:.4f}"
        )


def test_rank_model_matches_the_real_eliminator_at_production_k(real_counts):
    """P(full rank after k̂ + j symbols), j = 0 … 10, at k̂ = 256 — the
    block every figure runs — three ways: the real eliminator on
    ``getrandbits(256)`` rows, ``RankEvolutionModel.add_symbols``, and the
    closed form (0.2888, 0.5776, 0.7701, 0.8801, … 0.9990). 400 blocks a
    side, fixed seeds, each pair inside four binomial σ.

    What it settles (ROADMAP ``oracles`` a): the exact failure probability
    1 − ∏(1 − 2^(i−n)) sits *below* Eq. (2)'s 2^(k̂−n) by a factor 0.711 at
    n = k̂, 0.845, 0.920, 0.959 at k̂ + 1 … 3 and > 0.99 from k̂ + 6: Eq. (2)
    overstates what the sender must send by log2(1 / 0.711) = 0.49 of one
    symbol at most. There is no headroom in the predictor at k̂ = 256, and
    a construction with a better success probability ("Random Linear
    Fountain Code with Improved Decoding Success Probability", PAPERS.md)
    could save at most the plain code's mean overhead of 1.6 symbols in
    256 (0.6 %). It stays parked.
    """
    model = full_rank_counts(rank_model, random.Random(618))
    exact = [closed_form_full_rank(K_HAT, K_HAT + j) for j in range(SURPLUS + 1)]
    assert_same_curve(real_counts, exact, other_is_exact=True)
    assert_same_curve(model, exact, other_is_exact=True)
    assert_same_curve(real_counts, model, other_is_exact=False)
    assert exact[0] == pytest.approx(0.2888, abs=1e-4)
    for j, probability in enumerate(exact):
        eq2 = decoding_failure_probability(K_HAT, K_HAT + j)
        assert 0.711 < (1.0 - probability) / eq2 <= 1.0


def test_a_model_that_never_draws_a_dependent_row_fails_the_comparison(real_counts):
    """The seeded defect: ranks that always rise put every block at full
    rank on symbol k̂, where 71 % of real blocks are not."""

    class NeverDependent(RankEvolutionModel):
        def add_symbols(self, count):
            independent = min(count, self.k - self._rank)
            self._rank += independent
            return independent

    broken = full_rank_counts(
        lambda rng: rank_model(rng, NeverDependent), random.Random(618)
    )
    assert broken == [BLOCKS] * (SURPLUS + 1)
    with pytest.raises(AssertionError, match=r"k̂\+0: 0\.\d+ against 1\.0000"):
        assert_same_curve(real_counts, broken, other_is_exact=False)
