"""Incremental Gaussian elimination over GF(2).

Rows are Python integers used as bit vectors: bit ``i`` of a coefficient
row is the coefficient of source part ``ρ_{i+1}`` in the paper's Eq. (1).
Every coefficient row comes with a payload integer (the XOR-combined
symbol data), and the eliminator keeps the two fused in one integer,
``coeff << payload_bits | payload``: one XOR eliminates a pivot from both
halves, a dependent row's payload residual is whatever is left of the
fused row, and once the matrix reaches full rank the rows are split and
the original parts fall out of back-substitution.

Python's arbitrary-precision integers make the XOR of two rows one C-level
operation, but an interpreted loop step still costs ≈ 0.1 µs, so what
matters is how many steps a row takes and how much each step does.
Selecting the XOR of the values named by a k-bit row is therefore done
four bits per lookup (Method of Four Russians). A *group* is the 16-entry
list of the XOR-combinations of four consecutive values (``group[n]`` is
the XOR of the values whose index within the four is a set bit of nibble
``n``; the single-bit entries are the value objects themselves), and a
*table* holds one ``(low-nibble group, high-nibble group)`` pair per byte
of row, so :func:`xor_select` walks the row's bytes and the table in step
with two lookups per byte. The encoder (:mod:`repro.fountain.codec`) and
:meth:`Gf2Eliminator.solve` share both. The row insert is the plain loop:
a 4-bit pivot-group table there costs a shift of the whole fused row per
step, more than the steps it saves at k = 256.

Measured at k = 256 with 32-byte payloads (``benchmarks/bench_micro.py``
geometry, ``docs/performance.md`` "PR 24"): ``add_row`` ≈ 3.6 µs on a
decode's average row (5.5 µs while a row was two integers in two lists),
``solve`` ≈ 0.7 ms per block, a selection over all 256 bits ≈ 3.5 µs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

XorTable = List[Tuple[List[int], List[int]]]


def new_xor_table(k: int) -> XorTable:
    """An all-zero table for ``k`` values: one pair of groups per byte of
    row, so a short or unfinished last byte still has both its groups."""
    return [([0] * 16, [0] * 16) for __ in range((k + 7) // 8)]


def fill_xor_group(table: XorTable, first: int, values: Sequence[int]) -> None:
    """Tabulate the XOR-combinations of ``values`` — the (up to four)
    values numbered ``first``, ``first + 1``, … with ``first % 4 == 0``."""
    group = table[first >> 3][first >> 2 & 1]
    for index, value in enumerate(values):
        bit = 1 << index
        group[bit] = value
        for lower in range(1, bit):
            group[bit + lower] = value ^ group[lower]


def xor_table(values: Sequence[int]) -> XorTable:
    """The table of all of ``values``, four to a group."""
    table = new_xor_table(len(values))
    for first in range(0, len(values), 4):
        fill_xor_group(table, first, values[first : first + 4])
    return table


def xor_select(table: XorTable, row: int, row_bytes: int) -> int:
    """XOR of the tabulated values whose bits are set in ``row``
    (``0 <= row < 256 ** row_bytes``, ``row_bytes <= len(table)``)."""
    selected = 0
    for byte, (low, high) in zip(row.to_bytes(row_bytes, "little"), table):
        selected ^= low[byte & 15] ^ high[byte >> 4]
    return selected


class Gf2Eliminator:
    """Maintains a row-echelon basis of received coefficient rows.

    A basis row is one integer, ``coeff << payload_bits | payload``, so an
    elimination step is one XOR. ``payload_bits`` is the width every
    payload must fit (0, the default, makes a rank-only eliminator).
    ``add_row`` is O(rank) integer-XOR operations; ``solve`` performs
    back-substitution once rank equals ``k``.
    """

    def __init__(self, k: int, payload_bits: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if payload_bits < 0:
            raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
        self.k = k
        self.payload_bits = payload_bits
        # Indexed by a fused row's bit_length(), so that a step needs no
        # subtraction: entry payload_bits + 1 + p holds the row with pivot
        # bit p (a basis row is never zero, so 0 = no pivot), and the
        # payload_bits + 1 entries below stay 0 — a row that reduces into
        # them has no coefficient bit left. That run is eight list slots
        # per payload byte, 2 KB at the default 32-byte symbol.
        self._rows: List[int] = [0] * (payload_bits + 1 + k)
        self._rank = 0
        self.rows_seen = 0
        self.dependent_rows = 0
        # Dependent rows whose payload did NOT reduce to zero: proof that
        # some row in the basis (or this one) was corrupted — in a clean
        # linear code a dependent coefficient row always carries the XOR
        # of the rows it depends on, so its payload residual must be 0.
        self.inconsistent_rows = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def is_full_rank(self) -> bool:
        return self._rank == self.k

    @property
    def inconsistent(self) -> bool:
        """True once a contradictory row proved the system is poisoned."""
        return self.inconsistent_rows > 0

    def _reduced(self, coeff: int, payload: int) -> int:
        """The fused row of ``(coeff, payload)`` with every pivot that the
        basis holds eliminated from it."""
        # x >> n is 0 exactly when 0 <= x < 2 ** n (a negative x gives -1).
        if coeff >> self.k:
            raise ValueError(f"coefficient row out of range for k={self.k}")
        if payload >> self.payload_bits:
            raise ValueError(f"payload does not fit {self.payload_bits} bits")
        row = coeff << self.payload_bits | payload
        rows = self._rows
        existing = rows[row.bit_length()]
        while existing:
            row ^= existing
            existing = rows[row.bit_length()]
        return row

    def add_row(self, coeff: int, payload: int = 0) -> bool:
        """Insert a row; returns True iff it was linearly independent."""
        row = self._reduced(coeff, payload)
        self.rows_seen += 1
        bits = row.bit_length()
        if bits > self.payload_bits:
            self._rows[bits] = row
            self._rank += 1
            return True
        self.dependent_rows += 1
        if row:
            self.inconsistent_rows += 1
        return False

    def basis(self) -> List[Tuple[int, int]]:
        """The ``(coeff, payload)`` of the row with pivot bit 0, 1, …,
        ``k - 1``; ``(0, 0)`` where no row has that pivot yet."""
        shift = self.payload_bits
        mask = (1 << shift) - 1
        return [(row >> shift, row & mask) for row in self._rows[shift + 1 :]]

    def solve(self) -> List[int]:
        """Back-substitute; returns the ``k`` source payloads in order.

        Raises :class:`ValueError` if the matrix is not yet full rank.
        """
        if not self.is_full_rank:
            raise ValueError(
                f"cannot solve: rank {self.rank} < k {self.k} "
                f"({self.k - self.rank} more independent symbols needed)"
            )
        # Ascending pivot order: a row's sub-pivot bits reference payloads
        # that are already solved. Bits below the pivot's group of four go
        # through the table of finished groups, the (at most three) bits
        # inside the unfinished group one by one.
        basis = self.basis()
        solved: List[int] = []
        table = new_xor_table(self.k)
        for group_start in range(0, self.k, 4):
            finished_mask = (1 << group_start) - 1
            finished_bytes = (group_start + 7) // 8
            for bit in range(group_start, min(group_start + 4, self.k)):
                coeff, payload = basis[bit]
                payload ^= xor_select(table, coeff & finished_mask, finished_bytes)
                for lower in range(group_start, bit):
                    if coeff >> lower & 1:
                        payload ^= solved[lower]
                solved.append(payload)
            fill_xor_group(table, group_start, solved[group_start:])
        return solved
