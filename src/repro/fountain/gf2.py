"""Incremental Gaussian elimination over GF(2).

Rows are Python integers used as bit vectors: bit ``i`` of a coefficient
row is the coefficient of source part ``ρ_{i+1}`` in the paper's Eq. (1).
Attached to every coefficient row is a payload integer (the XOR-combined
symbol data), which the elimination carries along so that once the matrix
reaches full rank the original parts fall out of back-substitution.

Python's arbitrary-precision integers make the XOR of two k-bit rows one
C-level operation, but an interpreted loop step still costs ≈ 0.1 µs, so
what matters is how many steps a row takes. Selecting the XOR of the
values named by a k-bit row is therefore done four bits per lookup
(Method of Four Russians). A *group* is the 16-entry list of the
XOR-combinations of four consecutive values (``group[n]`` is the XOR of
the values whose index within the four is a set bit of nibble ``n``; the
single-bit entries are the value objects themselves), and a *table* holds
one ``(low-nibble group, high-nibble group)`` pair per byte of row, so
:func:`xor_select` walks the row's bytes and the table in step with two
lookups per byte. The encoder (:mod:`repro.fountain.codec`) and
:meth:`Gf2Eliminator.solve` share both.

Measured at k = 256 with 32-byte payloads (``benchmarks/bench_micro.py``,
``docs/performance.md``): ``add_row`` ≈ 6.5 µs on a decode's average row,
``solve`` ≈ 0.8 ms per block, a selection over all 256 bits ≈ 3.8 µs.
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

    ``add_row`` is O(rank) integer-XOR operations; ``solve`` performs
    back-substitution once rank equals ``k``.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        # Indexed by pivot bit; a basis row is never zero, so 0 = no pivot.
        self._coeffs: List[int] = [0] * k
        self._payloads: List[int] = [0] * k
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

    def _check_range(self, coeff: int) -> None:
        if coeff < 0 or coeff.bit_length() > self.k:
            raise ValueError(f"coefficient row out of range for k={self.k}")

    def add_row(self, coeff: int, payload: int = 0) -> bool:
        """Insert a row; returns True iff it was linearly independent."""
        self._check_range(coeff)
        self.rows_seen += 1
        coeffs = self._coeffs
        payloads = self._payloads
        while coeff:
            pivot_bit = coeff.bit_length() - 1
            existing = coeffs[pivot_bit]
            if not existing:
                coeffs[pivot_bit] = coeff
                payloads[pivot_bit] = payload
                self._rank += 1
                return True
            coeff ^= existing
            payload ^= payloads[pivot_bit]
        self.dependent_rows += 1
        if payload != 0:
            self.inconsistent_rows += 1
        return False

    def would_be_independent(self, coeff: int) -> bool:
        """Check independence without inserting (no payload work)."""
        self._check_range(coeff)
        coeffs = self._coeffs
        while coeff:
            existing = coeffs[coeff.bit_length() - 1]
            if not existing:
                return True
            coeff ^= existing
        return False

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
        coeffs = self._coeffs
        payloads = self._payloads
        solved: List[int] = []
        table = new_xor_table(self.k)
        for group_start in range(0, self.k, 4):
            finished_mask = (1 << group_start) - 1
            finished_bytes = (group_start + 7) // 8
            for bit in range(group_start, min(group_start + 4, self.k)):
                coeff = coeffs[bit]
                payload = payloads[bit] ^ xor_select(
                    table, coeff & finished_mask, finished_bytes
                )
                for lower in range(group_start, bit):
                    if coeff >> lower & 1:
                        payload ^= solved[lower]
                solved.append(payload)
            fill_xor_group(table, group_start, solved[group_start:])
        return solved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gf2Eliminator k={self.k} rank={self.rank}>"
