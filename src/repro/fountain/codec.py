"""The random-linear fountain codec (paper Section III-B, Eq. (1)).

A block of application bytes is split into ``k`` equal parts; every
encoded symbol is the XOR of a uniformly random non-empty subset of the
parts, identified by a k-bit coefficient vector. The receiver decodes with
incremental Gaussian elimination (:mod:`repro.fountain.gf2`) once it holds
``k`` linearly independent symbols — Eq. (2) gives the failure probability
``2^(k - n)`` after ``n ≥ k`` received symbols.

Parts are manipulated as big integers, so one XOR covers a whole part
whatever the symbol size; which parts to XOR is read off the coefficient
row four bits at a time from the encoder's table of part combinations
(layout in :mod:`repro.fountain.gf2`). The table is built on the first
encoded symbol: 11 new integers per four parts, ≈ 50 KB and ≈ 0.12 ms for
k = 256 parts of 32 bytes, after which a symbol costs ≈ 3.6 µs instead of
the ≈ 22 µs of a bit-at-a-time walk (``docs/performance.md``, PR 13; 4.4 µs
on that day's host). The decoder hands a symbol's row and data to the
eliminator, which checks the data's width and keeps the two fused in one
integer: ``BlockDecoder.add_symbol`` ≈ 3.8 µs on a decode's average row
(5.6 µs with separate coefficient and payload lists) and ``decode`` ≈
0.7 ms per block (``docs/performance.md``, PR 24).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.fountain.gf2 import Gf2Eliminator, XorTable, xor_select, xor_table


class Symbol:
    """One encoded symbol: coefficient bit-vector plus combined data."""

    __slots__ = ("coeff", "data")

    def __init__(self, coeff: int, data: int):
        if coeff <= 0:
            raise ValueError("a symbol must combine at least one source part")
        self.coeff = coeff
        self.data = data

    def integrity_digest(self) -> bytes:
        return f"sym:{self.coeff:x}:{self.data:x}".encode()

    def integrity_mutate(self, rng) -> "Symbol":
        """A copy with one data bit flipped (a silently corrupted symbol).

        The flipped bit stays within ``data.bit_length()`` (bit 0 when the
        data is zero), so the mutated value never outgrows the block's
        part size and a poisoned decode cannot overflow ``join_parts``.
        """
        span = max(1, self.data.bit_length())
        return Symbol(self.coeff, self.data ^ (1 << rng.randrange(span)))


def split_into_parts(data: bytes, k: int, part_size: int) -> List[int]:
    """Split ``data`` into ``k`` zero-padded parts of ``part_size`` bytes."""
    if len(data) > k * part_size:
        raise ValueError(
            f"data of {len(data)} bytes exceeds block capacity {k * part_size}"
        )
    parts = []
    for index in range(k):
        chunk = data[index * part_size : (index + 1) * part_size]
        parts.append(int.from_bytes(chunk.ljust(part_size, b"\0"), "big"))
    return parts


def join_parts(parts: List[int], part_size: int, length: Optional[int] = None) -> bytes:
    """Inverse of :func:`split_into_parts`; trims to ``length`` if given."""
    data = b"".join(part.to_bytes(part_size, "big") for part in parts)
    if length is not None:
        data = data[:length]
    return data


class BlockEncoder:
    """Produces an endless stream of symbols for one block of bytes."""

    def __init__(
        self,
        data: bytes,
        k: int,
        part_size: int,
        rng: Optional[random.Random] = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if part_size < 1:
            raise ValueError(f"part_size must be >= 1, got {part_size}")
        self.k = k
        self.part_size = part_size
        self.data_length = len(data)
        self._parts = split_into_parts(data, k, part_size)
        self._table: Optional[XorTable] = None
        self._rng = rng or random.Random()
        self.symbols_emitted = 0

    def _combine(self, coeff: int) -> int:
        table = self._table
        if table is None:
            # Built on first use: a block that only ever emits its
            # systematic parts, or none at all, never pays for it.
            table = self._table = xor_table(self._parts)
        return xor_select(table, coeff, (self.k + 7) // 8)

    def next_symbol(self) -> Symbol:
        """Draw a uniformly random non-zero coefficient row and emit a symbol."""
        coeff = 0
        while coeff == 0:
            coeff = self._rng.getrandbits(self.k)
        self.symbols_emitted += 1
        return Symbol(coeff, self._combine(coeff))


class SystematicBlockEncoder(BlockEncoder):
    """Systematic variant: emit the k source parts first, then random repair.

    Deployed fountain systems (e.g. Raptor codes in 3GPP) are systematic:
    on a clean channel the receiver decodes with *zero* elimination work,
    and only losses cost coded repair symbols. The decoder is unchanged —
    unit-coefficient symbols are just very convenient rows.
    """

    def next_symbol(self) -> Symbol:
        if self.symbols_emitted < self.k:
            index = self.symbols_emitted
            self.symbols_emitted += 1
            return Symbol(1 << index, self._parts[index])
        return super().next_symbol()


class BlockDecoder:
    """Recovers one block from a stream of symbols."""

    def __init__(self, k: int, part_size: int, data_length: Optional[int] = None):
        self.k = k
        self.part_size = part_size
        self.data_length = data_length if data_length is not None else k * part_size
        self._eliminator = Gf2Eliminator(k, payload_bits=8 * part_size)
        self.symbols_received = 0
        self.symbols_redundant = 0

    @property
    def independent_symbols(self) -> int:
        """The paper's k̄: linearly independent symbols held so far."""
        return self._eliminator.rank

    @property
    def is_complete(self) -> bool:
        return self._eliminator.is_full_rank

    @property
    def poisoned(self) -> bool:
        """True once the GF(2) system proved itself inconsistent — some
        absorbed symbol was corrupted and the basis cannot be trusted."""
        return self._eliminator.inconsistent

    def add_symbol(self, symbol: Symbol) -> bool:
        """Absorb a symbol; True iff it increased the decoder's rank.

        Redundant (linearly dependent) symbols are dropped, mirroring the
        receiver behaviour described in Section III-B. Data wider than a
        part (or negative) is a :class:`ValueError` and counts nowhere.
        """
        independent = self._eliminator.add_row(symbol.coeff, symbol.data)
        self.symbols_received += 1
        if not independent:
            self.symbols_redundant += 1
        return independent

    def decode(self) -> bytes:
        """Return the original block bytes (requires :attr:`is_complete`)."""
        parts = self._eliminator.solve()
        return join_parts(parts, self.part_size, self.data_length)
