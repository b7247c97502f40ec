"""Tests for Soliton distributions and LT codes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fountain.lt import LtDecoder, LtEncoder, LtSymbol
from repro.fountain.soliton import DegreeSampler, ideal_soliton, robust_soliton


# ----------------------------------------------------------------------
# Distributions.
# ----------------------------------------------------------------------
def test_ideal_soliton_sums_to_one():
    for k in (1, 2, 10, 100):
        assert sum(ideal_soliton(k)) == pytest.approx(1.0)


def test_ideal_soliton_values():
    dist = ideal_soliton(4)
    assert dist[0] == pytest.approx(1 / 4)
    assert dist[1] == pytest.approx(1 / 2)
    assert dist[2] == pytest.approx(1 / 6)
    assert dist[3] == pytest.approx(1 / 12)


def test_robust_soliton_sums_to_one():
    for k in (4, 16, 64, 256):
        assert sum(robust_soliton(k)) == pytest.approx(1.0)


def test_robust_soliton_boosts_low_degrees():
    k = 64
    ideal = ideal_soliton(k)
    robust = robust_soliton(k)
    assert robust[0] > ideal[0]  # degree-1 spike keeps the ripple alive


def test_degree_sampler_range_and_bias():
    rng = random.Random(0)
    sampler = DegreeSampler(ideal_soliton(16), rng)
    samples = [sampler.sample() for __ in range(5000)]
    assert min(samples) >= 1 and max(samples) <= 16
    # Degree 2 has probability 1/2 under the ideal Soliton.
    assert samples.count(2) / len(samples) == pytest.approx(0.5, abs=0.05)


def test_degree_sampler_rejects_unnormalised():
    with pytest.raises(ValueError):
        DegreeSampler([0.5, 0.2])


# ----------------------------------------------------------------------
# LT encode/decode.
# ----------------------------------------------------------------------
def test_lt_symbol_degree_and_validation():
    assert LtSymbol(frozenset({1, 3}), 0).degree() == 2
    with pytest.raises(ValueError):
        LtSymbol(frozenset(), 0)


def test_lt_roundtrip_clean_channel():
    rng = random.Random(5)
    data = bytes(rng.getrandbits(8) for __ in range(256))
    encoder = LtEncoder(data, k=32, part_size=8, rng=rng)
    decoder = LtDecoder(k=32, part_size=8, data_length=256)
    guard = 0
    while not decoder.is_complete:
        decoder.add_symbol(encoder.next_symbol())
        guard += 1
        if guard % 16 == 0:
            decoder.try_ge_completion()
        assert guard < 2000
    assert decoder.decode() == data


def test_lt_roundtrip_with_erasures():
    rng = random.Random(6)
    data = bytes(rng.getrandbits(8) for __ in range(128))
    encoder = LtEncoder(data, k=16, part_size=8, rng=rng)
    decoder = LtDecoder(k=16, part_size=8, data_length=128)
    guard = 0
    while not decoder.is_complete:
        symbol = encoder.next_symbol()
        guard += 1
        assert guard < 5000
        if rng.random() < 0.3:
            continue
        decoder.add_symbol(symbol)
        if guard % 16 == 0:
            decoder.try_ge_completion()
    assert decoder.decode() == data


def test_lt_peeling_cascade_from_degree_one():
    """A degree-1 symbol must trigger recovery through chained symbols."""
    decoder = LtDecoder(k=3, part_size=1)
    parts = [5, 9, 12]
    decoder.add_symbol(LtSymbol(frozenset({0, 1}), parts[0] ^ parts[1]))
    decoder.add_symbol(LtSymbol(frozenset({1, 2}), parts[1] ^ parts[2]))
    assert decoder.recovered_parts == 0
    decoder.add_symbol(LtSymbol(frozenset({0}), parts[0]))  # the spark
    assert decoder.is_complete
    assert list(decoder.decode()) == parts


def test_lt_ge_fallback_solves_stalled_residual():
    """Peeling stalls on a dense residual; GE fallback must finish it."""
    decoder = LtDecoder(k=3, part_size=1)
    parts = [3, 7, 11]
    decoder.add_symbol(LtSymbol(frozenset({0, 1}), parts[0] ^ parts[1]))
    decoder.add_symbol(LtSymbol(frozenset({1, 2}), parts[1] ^ parts[2]))
    decoder.add_symbol(LtSymbol(frozenset({0, 1, 2}), parts[0] ^ parts[1] ^ parts[2]))
    assert not decoder.is_complete  # no degree-1 symbol: peeling is stuck
    assert decoder.try_ge_completion()
    assert list(decoder.decode()) == parts


def test_lt_decode_incomplete_raises():
    decoder = LtDecoder(k=4, part_size=1)
    decoder.add_symbol(LtSymbol(frozenset({0}), 1))
    with pytest.raises(ValueError):
        decoder.decode()


def test_lt_overhead_is_modest():
    """Robust Soliton LT should decode from ~k(1+eps), eps well under 1."""
    rng = random.Random(10)
    totals = []
    for __ in range(10):
        data = bytes(rng.getrandbits(8) for __ in range(256))
        encoder = LtEncoder(data, k=64, part_size=4, rng=rng)
        decoder = LtDecoder(k=64, part_size=4, data_length=256)
        count = 0
        while not decoder.is_complete:
            decoder.add_symbol(encoder.next_symbol())
            count += 1
            if count % 8 == 0:
                decoder.try_ge_completion()
        totals.append(count)
    assert sum(totals) / len(totals) < 64 * 1.8


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_property_lt_roundtrip(seed):
    rng = random.Random(seed)
    k = rng.randint(4, 48)
    part_size = rng.randint(1, 16)
    length = rng.randint(1, k * part_size)
    data = bytes(rng.getrandbits(8) for __ in range(length))
    encoder = LtEncoder(data, k=k, part_size=part_size, rng=rng)
    decoder = LtDecoder(k=k, part_size=part_size, data_length=length)
    guard = 0
    while not decoder.is_complete:
        decoder.add_symbol(encoder.next_symbol())
        guard += 1
        if guard % 8 == 0:
            decoder.try_ge_completion()
        assert guard < 100 * k + 500
    assert decoder.decode() == data
