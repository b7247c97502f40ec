"""The 4-bit table kernels against their literal bit-at-a-time forms.

``BlockEncoder._combine`` and ``Gf2Eliminator.solve`` select XORs through
tables of four-value combinations (``repro.fountain.gf2``). The loops they
replaced — one set coefficient bit per step — live on here, and only here,
as the oracles: XOR is associative, so every symbol, every counter and
every solved payload must be ``==``, for any k (not a multiple of four, not
a multiple of eight, one), any part size, short final blocks, and row
orders that produce dependent and contradictory rows.

So does the row insert the eliminator had while a basis row was two
integers in two lists (``TwoListEliminator``): the fused row
``coeff << payload_bits | payload`` must split back into the same pairs.
"""

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fountain.codec import (
    BlockDecoder,
    BlockEncoder,
    SystematicBlockEncoder,
    split_into_parts,
)
from repro.fountain.gf2 import Gf2Eliminator
from tests.conftest import independent_of

# Every k up to 300, with the group and byte boundaries drawn more often.
K_VALUES = st.one_of(
    st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 33, 255, 256, 257]),
    st.integers(min_value=1, max_value=300),
)
ENCODERS = st.sampled_from([BlockEncoder, SystematicBlockEncoder])


def combine_bit_by_bit(parts: List[int], coeff: int) -> int:
    """Eq. (1) read literally: XOR the part of every set coefficient bit."""
    data = 0
    remaining = coeff
    while remaining:
        bit = remaining.bit_length() - 1
        data ^= parts[bit]
        remaining &= ~(1 << bit)
    return data


class BitLoopEliminator:
    """The eliminator as it was before the table kernels: pivots in a dict,
    back-substitution one set bit at a time."""

    def __init__(self, k: int):
        self.k = k
        self.pivots: Dict[int, Tuple[int, int]] = {}
        self.dependent_rows = 0
        self.inconsistent_rows = 0

    def reduce(self, coeff: int, payload: int) -> Tuple[int, int]:
        while coeff:
            existing = self.pivots.get(coeff.bit_length() - 1)
            if existing is None:
                break
            coeff ^= existing[0]
            payload ^= existing[1]
        return coeff, payload

    def add_row(self, coeff: int, payload: int) -> bool:
        coeff, payload = self.reduce(coeff, payload)
        if coeff:
            self.pivots[coeff.bit_length() - 1] = (coeff, payload)
            return True
        self.dependent_rows += 1
        if payload != 0:
            self.inconsistent_rows += 1
        return False

    def solve(self) -> List[int]:
        assert len(self.pivots) == self.k
        unit_payloads: Dict[int, int] = {}
        for bit in range(self.k):
            coeff, payload = self.pivots[bit]
            remaining = coeff & ~(1 << bit)
            while remaining:
                low_bit = remaining.bit_length() - 1
                payload ^= unit_payloads[low_bit]
                remaining &= ~(1 << low_bit)
            unit_payloads[bit] = payload
        return [unit_payloads[bit] for bit in range(self.k)]


class TwoListEliminator:
    """The row insert as it was before a basis row became one integer:
    coefficients and payloads in two lists indexed by pivot bit, two reads
    and two XORs per elimination step."""

    def __init__(self, k: int):
        self.coeffs = [0] * k
        self.payloads = [0] * k
        self.rank = self.dependent_rows = self.inconsistent_rows = 0

    def add_row(self, coeff: int, payload: int) -> bool:
        while coeff:
            pivot_bit = coeff.bit_length() - 1
            existing = self.coeffs[pivot_bit]
            if not existing:
                self.coeffs[pivot_bit] = coeff
                self.payloads[pivot_bit] = payload
                self.rank += 1
                return True
            coeff ^= existing
            payload ^= self.payloads[pivot_bit]
        self.dependent_rows += 1
        if payload != 0:
            self.inconsistent_rows += 1
        return False


def random_block(rng: random.Random, k: int, part_size: int) -> bytes:
    """Anything from empty to full: most blocks end short of k * part_size."""
    return rng.randbytes(rng.randint(0, k * part_size))


@settings(max_examples=80, deadline=None)
@given(
    k=K_VALUES,
    part_size=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
    encoder_class=ENCODERS,
    rows=st.data(),
)
def test_encoder_matches_the_bit_loop(k, part_size, seed, encoder_class, rows):
    data = random_block(random.Random(seed), k, part_size)
    parts = split_into_parts(data, k, part_size)
    encoder = encoder_class(data, k=k, part_size=part_size, rng=random.Random(seed))
    top = (1 << k) - 1
    chosen = rows.draw(st.lists(st.integers(min_value=1, max_value=top), max_size=6))
    for coeff in chosen + [1, 1 << (k - 1), top, top & 0xF0F0F0F0 or 1]:
        assert encoder._combine(coeff) == combine_bit_by_bit(parts, coeff)
    # The random stream: same data per row, and the same rows — the kernel
    # must not have moved an RNG draw.
    draws = random.Random(seed)
    for index in range(k + 8):
        symbol = encoder.next_symbol()
        assert symbol.data == combine_bit_by_bit(parts, symbol.coeff)
        if encoder_class is SystematicBlockEncoder and index < k:
            assert symbol.coeff == 1 << index
        else:
            expected = 0
            while expected == 0:
                expected = draws.getrandbits(k)
            assert symbol.coeff == expected


@settings(max_examples=80, deadline=None)
@given(
    k=K_VALUES,
    seed=st.integers(min_value=0, max_value=2**31),
    order=st.sampled_from(["arrival", "ascending", "descending"]),
    poison_rate=st.sampled_from([0.0, 0.0, 0.02, 0.3]),
)
def test_eliminator_matches_the_bit_loop(k, seed, order, poison_rate):
    rng = random.Random(seed)
    payload_bits = 8 * rng.randint(1, 12)
    parts = [rng.getrandbits(payload_bits) for __ in range(k)]
    coeffs: List[int] = []
    for __ in range(k + 12):
        if coeffs and rng.random() < 0.15:
            # The sum of two earlier rows: dependent once both are in.
            coeffs.append(rng.choice(coeffs) ^ rng.choice(coeffs))
        else:
            coeffs.append(rng.getrandbits(k))
    if order != "arrival":
        coeffs.sort(reverse=order == "descending")
    fast, literal = Gf2Eliminator(k, payload_bits), BitLoopEliminator(k)
    for coeff in coeffs:
        payload = combine_bit_by_bit(parts, coeff)
        if rng.random() < poison_rate:
            payload ^= 1 << rng.randrange(payload_bits)
        probe = rng.getrandbits(k)
        assert independent_of(fast, probe) == bool(literal.reduce(probe, 0)[0])
        assert fast.add_row(coeff, payload) == literal.add_row(coeff, payload)
        assert (fast.rank, fast.dependent_rows, fast.inconsistent_rows) == (
            len(literal.pivots), literal.dependent_rows, literal.inconsistent_rows
        )
    assert fast.rows_seen == len(coeffs)
    assert fast.is_full_rank == (len(literal.pivots) == k)
    if fast.is_full_rank:
        solved = fast.solve()
        assert solved == literal.solve()
        assert solved == fast.solve()  # solving leaves the basis as it was
        if poison_rate == 0.0:
            assert solved == parts and not fast.inconsistent


@settings(max_examples=120, deadline=None)
@given(
    k=K_VALUES,
    payload_bits=st.sampled_from([0, 1, 7, 8, 256, 1000]),
    seed=st.integers(min_value=0, max_value=2**31),
    poison_rate=st.sampled_from([0.0, 0.0, 0.05, 0.3]),
)
def test_fused_rows_match_the_two_list_eliminator(k, payload_bits, seed, poison_rate):
    rng = random.Random(seed)
    parts = [rng.getrandbits(payload_bits) for __ in range(k)]
    fused, two_lists = Gf2Eliminator(k, payload_bits), TwoListEliminator(k)
    assert fused.basis() == [(0, 0)] * k
    coeffs: List[int] = []
    for __ in range(k + 12):
        if coeffs and rng.random() < 0.15:
            coeff = rng.choice(coeffs) ^ rng.choice(coeffs)
        else:
            coeff = rng.getrandbits(k)
        coeffs.append(coeff)
        payload = combine_bit_by_bit(parts, coeff)
        if payload_bits and rng.random() < poison_rate:
            payload ^= 1 << rng.randrange(payload_bits)
        assert fused.add_row(coeff, payload) == two_lists.add_row(coeff, payload)
        assert (fused.rank, fused.dependent_rows, fused.inconsistent_rows) == (
            two_lists.rank, two_lists.dependent_rows, two_lists.inconsistent_rows
        )
    assert fused.basis() == list(zip(two_lists.coeffs, two_lists.payloads))
    if fused.is_full_rank:
        literal = BitLoopEliminator(k)
        literal.pivots = dict(enumerate(fused.basis()))
        assert fused.solve() == literal.solve()
        if poison_rate == 0.0 or payload_bits == 0:
            assert fused.solve() == parts


@pytest.mark.parametrize("payload_bits", [0, 1, 7, 8, 256, 1000])
def test_payload_outside_the_declared_width_is_rejected(payload_bits):
    """By ``add_row`` itself — one bit too wide would otherwise land in
    the coefficient half of the fused row."""
    eliminator = Gf2Eliminator(5, payload_bits)
    for payload in (1 << payload_bits, -1):
        with pytest.raises(ValueError, match=f"does not fit {payload_bits} bits"):
            eliminator.add_row(0b00101, payload)
    assert (eliminator.rows_seen, eliminator.rank) == (0, 0)
    assert eliminator.add_row(0b00101, (1 << payload_bits) - 1)
    assert eliminator.basis()[2] == (0b00101, (1 << payload_bits) - 1)
    with pytest.raises(ValueError, match="payload_bits must be >= 0"):
        Gf2Eliminator(5, -1)


@settings(max_examples=60, deadline=None)
@given(
    k=K_VALUES,
    part_size=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
    encoder_class=ENCODERS,
    loss=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_encode_lose_some_decode_round_trips_the_bytes(
    k, part_size, seed, encoder_class, loss
):
    rng = random.Random(seed)
    data = random_block(rng, k, part_size)
    encoder = encoder_class(data, k=k, part_size=part_size, rng=rng)
    decoder = BlockDecoder(k=k, part_size=part_size, data_length=len(data))
    channel = random.Random(seed + 1)
    sent = 0
    while not decoder.is_complete:
        symbol = encoder.next_symbol()
        sent += 1
        assert sent < 60 * k + 400, "rank is not progressing"
        if channel.random() >= loss:
            decoder.add_symbol(symbol)
    assert decoder.decode() == data
    assert not decoder.poisoned
