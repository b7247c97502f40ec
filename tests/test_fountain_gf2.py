"""Unit and property tests for GF(2) elimination."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fountain.gf2 import Gf2Eliminator


def test_rank_starts_at_zero():
    eliminator = Gf2Eliminator(4)
    assert eliminator.rank == 0
    assert not eliminator.is_full_rank


def test_unit_vectors_are_independent():
    eliminator = Gf2Eliminator(4, payload_bits=8)
    for bit in range(4):
        assert eliminator.add_row(1 << bit, payload=bit + 100)
    assert eliminator.is_full_rank
    assert eliminator.solve() == [100, 101, 102, 103]


def test_duplicate_row_is_dependent():
    eliminator = Gf2Eliminator(4, payload_bits=8)
    assert eliminator.add_row(0b1010, payload=1)
    assert not eliminator.add_row(0b1010, payload=1)
    assert eliminator.rank == 1
    assert eliminator.dependent_rows == 1


def test_xor_combination_is_dependent():
    eliminator = Gf2Eliminator(4, payload_bits=8)
    eliminator.add_row(0b0011, 1)
    eliminator.add_row(0b0101, 2)
    assert not eliminator.add_row(0b0110, 1 ^ 2)  # sum of the two
    assert eliminator.rank == 2


def test_zero_row_is_dependent():
    eliminator = Gf2Eliminator(4)
    assert not eliminator.add_row(0, 0)


def test_solve_before_full_rank_raises():
    eliminator = Gf2Eliminator(3, payload_bits=8)
    eliminator.add_row(0b001, 5)
    with pytest.raises(ValueError):
        eliminator.solve()


def test_solve_recovers_payloads_from_dense_rows():
    # parts p0=7, p1=11, p2=13; rows are XORs per their coefficient bits.
    parts = [7, 11, 13]

    def encode(coeff):
        value = 0
        for bit in range(3):
            if coeff >> bit & 1:
                value ^= parts[bit]
        return value

    eliminator = Gf2Eliminator(3, payload_bits=8)
    for coeff in (0b111, 0b011, 0b101):
        eliminator.add_row(coeff, encode(coeff))
    assert eliminator.solve() == parts


def test_would_be_independent_does_not_mutate():
    eliminator = Gf2Eliminator(4, payload_bits=8)
    eliminator.add_row(0b0011, 1)
    assert eliminator.would_be_independent(0b0100)
    assert not eliminator.would_be_independent(0b0011)
    assert eliminator.rank == 1


def test_coefficient_out_of_range_rejected():
    eliminator = Gf2Eliminator(3)
    with pytest.raises(ValueError):
        eliminator.add_row(0b1000, 0)
    with pytest.raises(ValueError):
        eliminator.add_row(-1, 0)


def test_would_be_independent_rejects_what_add_row_rejects():
    eliminator = Gf2Eliminator(4)
    for coeff in (1 << 10, 1 << 4, -3):
        with pytest.raises(ValueError, match="out of range for k=4"):
            eliminator.would_be_independent(coeff)
        with pytest.raises(ValueError, match="out of range for k=4"):
            eliminator.add_row(coeff, 0)
    assert eliminator.would_be_independent(0b1111)
    assert eliminator.rows_seen == 0


def test_k_validation():
    with pytest.raises(ValueError):
        Gf2Eliminator(0)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_random_rows_recover_random_parts(k, seed):
    """Feeding random rows until full rank always recovers the parts."""
    rng = random.Random(seed)
    parts = [rng.getrandbits(32) for __ in range(k)]

    def encode(coeff):
        value = 0
        remaining = coeff
        while remaining:
            bit = remaining.bit_length() - 1
            value ^= parts[bit]
            remaining &= ~(1 << bit)
        return value

    eliminator = Gf2Eliminator(k, payload_bits=32)
    attempts = 0
    while not eliminator.is_full_rank:
        attempts += 1
        assert attempts < 50 * k + 200, "rank is not progressing"
        coeff = rng.getrandbits(k)
        if coeff:
            eliminator.add_row(coeff, encode(coeff))
    assert eliminator.solve() == parts


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_rank_never_exceeds_k_and_is_monotone(k, seed):
    rng = random.Random(seed)
    eliminator = Gf2Eliminator(k, payload_bits=8)
    previous = 0
    for __ in range(5 * k):
        eliminator.add_row(rng.getrandbits(k), rng.getrandbits(8))
        assert previous <= eliminator.rank <= k
        previous = eliminator.rank
