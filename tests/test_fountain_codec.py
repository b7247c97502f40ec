"""Unit and property tests for the random-linear codec."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fountain.codec import (
    BlockDecoder,
    BlockEncoder,
    Symbol,
    SystematicBlockEncoder,
    join_parts,
    split_into_parts,
)


# ----------------------------------------------------------------------
# Part splitting.
# ----------------------------------------------------------------------
def test_split_and_join_roundtrip():
    data = bytes(range(100))
    parts = split_into_parts(data, k=10, part_size=10)
    assert join_parts(parts, part_size=10, length=100) == data


def test_split_pads_short_data():
    parts = split_into_parts(b"abc", k=2, part_size=4)
    assert len(parts) == 2
    assert join_parts(parts, 4, length=3) == b"abc"


def test_split_rejects_oversized_data():
    with pytest.raises(ValueError):
        split_into_parts(b"x" * 100, k=2, part_size=4)


# ----------------------------------------------------------------------
# Symbols.
# ----------------------------------------------------------------------
def test_symbol_zero_coeff_rejected():
    with pytest.raises(ValueError):
        Symbol(0, 0)


# ----------------------------------------------------------------------
# Encoder.
# ----------------------------------------------------------------------
def test_systematic_symbols_decode_immediately():
    data = bytes(range(64))
    encoder = SystematicBlockEncoder(data, k=8, part_size=8, rng=random.Random(0))
    decoder = BlockDecoder(k=8, part_size=8, data_length=64)
    for __ in range(8):
        decoder.add_symbol(encoder.next_symbol())
    assert decoder.is_complete
    assert decoder.decode() == data


def test_symbol_for_coeff_is_deterministic():
    encoder = BlockEncoder(b"hello world!", k=4, part_size=3)
    # The coefficient row alone fixes the symbol's data.
    assert encoder._combine(0b1010) == encoder._combine(0b1010)


def test_encoder_counts_emissions():
    encoder = BlockEncoder(b"data", k=2, part_size=2, rng=random.Random(1))
    for __ in range(5):
        encoder.next_symbol()
    assert encoder.symbols_emitted == 5


def test_encoder_validation():
    with pytest.raises(ValueError):
        BlockEncoder(b"", k=0, part_size=1)
    with pytest.raises(ValueError):
        BlockEncoder(b"", k=1, part_size=0)


# ----------------------------------------------------------------------
# Decoder.
# ----------------------------------------------------------------------
def test_decoder_reports_k_bar_and_redundancy():
    data = b"0123456789abcdef"
    encoder = BlockEncoder(data, k=4, part_size=4, rng=random.Random(3))
    decoder = BlockDecoder(k=4, part_size=4, data_length=len(data))
    sym = encoder.next_symbol()
    decoder.add_symbol(sym)
    assert decoder.independent_symbols == 1
    decoder.add_symbol(sym)  # exact duplicate
    assert decoder.independent_symbols == 1
    assert decoder.symbols_redundant == 1
    assert decoder.symbols_received == 2


def test_symbol_wider_than_a_part_is_rejected_on_arrival():
    """Not later, as an ``OverflowError`` from inside ``decode()``."""
    decoder = BlockDecoder(k=2, part_size=2)
    for data in (1 << 16, -1):
        with pytest.raises(ValueError, match="does not fit 16 bits"):
            decoder.add_symbol(Symbol(0b01, data))
    assert decoder.symbols_received == 0 and decoder.independent_symbols == 0
    assert decoder.add_symbol(Symbol(0b01, (1 << 16) - 1))
    assert decoder.add_symbol(Symbol(0b10, 0))
    assert decoder.decode() == b"\xff\xff\x00\x00"


def test_decode_before_complete_raises():
    decoder = BlockDecoder(k=4, part_size=4)
    with pytest.raises(ValueError):
        decoder.decode()


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=32),
    part_size=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_roundtrip_through_random_symbols(k, part_size, seed):
    """Random data of any shape decodes exactly from random symbols."""
    rng = random.Random(seed)
    length = rng.randint(0, k * part_size)
    data = bytes(rng.getrandbits(8) for __ in range(length))
    encoder = BlockEncoder(data, k=k, part_size=part_size, rng=rng)
    decoder = BlockDecoder(k=k, part_size=part_size, data_length=length)
    guard = 0
    while not decoder.is_complete:
        decoder.add_symbol(encoder.next_symbol())
        guard += 1
        assert guard < 50 * k + 200
    assert decoder.decode() == data


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_property_erasures_only_delay_decoding(seed):
    """Dropping any subset of symbols never corrupts the result."""
    rng = random.Random(seed)
    data = bytes(rng.getrandbits(8) for __ in range(256))
    encoder = BlockEncoder(data, k=16, part_size=16, rng=rng)
    decoder = BlockDecoder(k=16, part_size=16, data_length=256)
    while not decoder.is_complete:
        symbol = encoder.next_symbol()
        if rng.random() < 0.4:
            continue  # erased in transit
        decoder.add_symbol(symbol)
    assert decoder.decode() == data


def test_full_rank_probability_matches_the_closed_form():
    """ROADMAP 4a, first slice: the real codec against theory. After n
    uniformly random rows a k-column GF(2) matrix has full rank with
    probability ∏_{i<k} (1 − 2^(i−n)) (MacKay; "Random Linear Fountain Code
    with Improved Decoding Success Probability", PAPERS.md). The encoder
    redraws the all-zero row, which moves that by at most n·2^−k."""
    k, extra, trials = 16, 6, 4000
    rng = random.Random(20120618)
    complete_after = [0] * (extra + 1)
    for __ in range(trials):
        encoder = BlockEncoder(rng.randbytes(2 * k), k=k, part_size=2, rng=rng)
        decoder = BlockDecoder(k=k, part_size=2)
        for __ in range(k - 1):
            decoder.add_symbol(encoder.next_symbol())
        for surplus in range(extra + 1):
            decoder.add_symbol(encoder.next_symbol())
            complete_after[surplus] += decoder.is_complete
    for surplus, count in enumerate(complete_after):
        n = k + surplus
        theory = 1.0
        for i in range(k):
            theory *= 1.0 - 2.0 ** (i - n)
        sigma = (theory * (1.0 - theory) / trials) ** 0.5
        assert abs(count / trials - theory) <= 4 * sigma + n * 2.0**-k, (
            f"k+{surplus}: measured {count / trials:.4f}, closed form {theory:.4f}"
        )
    # Eq. (2)'s reading of the same numbers: failure roughly halves per symbol.
    assert complete_after == sorted(complete_after)
    assert 0.25 < complete_after[0] / trials < 0.33  # 0.2888 at n = k


def test_expected_overhead_is_small():
    """Mean extra symbols to full rank ~1.6 (MacKay); sanity-check empirically."""
    rng = random.Random(9)
    total_extra = 0
    trials = 60
    for __ in range(trials):
        encoder = BlockEncoder(bytes(64), k=32, part_size=2, rng=rng)
        decoder = BlockDecoder(k=32, part_size=2)
        received = 0
        while not decoder.is_complete:
            decoder.add_symbol(encoder.next_symbol())
            received += 1
        total_extra += received - 32
    assert total_extra / trials < 3.5
