"""Tests for the statistical rank-evolution model — including the property
that justifies using it in place of the real codec (DESIGN.md §3.2)."""

import random

import pytest

from repro.fountain.codec import BlockDecoder, BlockEncoder
from repro.fountain.rank_model import (
    RankEvolutionModel,
    decoding_failure_probability,
    expected_overhead_symbols,
)


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
        model.add_symbol()
        assert model.independent_symbols >= previous
        previous = model.independent_symbols
    assert model.independent_symbols == 32


def test_symbols_after_completion_are_redundant():
    model = RankEvolutionModel(4, rng=random.Random(1))
    while not model.is_complete:
        model.add_symbol()
    before = model.symbols_redundant
    assert not model.add_symbol()
    assert model.symbols_redundant == before + 1


def test_k1_first_symbol_always_completes():
    model = RankEvolutionModel(1, rng=random.Random(2))
    assert model.add_symbol()
    assert model.is_complete


def test_validation():
    with pytest.raises(ValueError):
        RankEvolutionModel(0)


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
            model.add_symbol()
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
        if not eliminator.would_be_independent(coeff):
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
            independent = sum(single.add_symbol() for __ in range(count))
            assert batched.add_symbols(count) == independent
            assert batched.independent_symbols == single.independent_symbols
            assert batched.symbols_received == single.symbols_received
            assert batched.symbols_redundant == single.symbols_redundant
            assert batched.is_complete == single.is_complete
            assert many.random() == one.random()
