"""LT codes: sparse fountain coding with peeling decode.

An LT symbol XORs a small random subset of source parts whose size (the
degree) is drawn from a Soliton distribution. Decoding is the classic
belief-propagation "peeling" process: degree-1 symbols reveal a part,
which is subtracted from every symbol covering it, possibly creating new
degree-1 symbols. Peeling is linear-time but needs a few percent more
symbols than Gaussian elimination; :class:`LtDecoder` optionally falls
back to GE on the residual system when peeling stalls.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from repro.fountain.codec import join_parts, split_into_parts
from repro.fountain.gf2 import Gf2Eliminator
from repro.fountain.soliton import DegreeSampler, robust_soliton


class LtSymbol:
    """One LT-encoded symbol: the set of covered part indices + data."""

    __slots__ = ("neighbours", "data")

    def __init__(self, neighbours: frozenset, data: int):
        if not neighbours:
            raise ValueError("an LT symbol must cover at least one part")
        self.neighbours = neighbours
        self.data = data

    def degree(self) -> int:
        return len(self.neighbours)


class LtEncoder:
    """Emits LT symbols for one block of bytes."""

    def __init__(
        self,
        data: bytes,
        k: int,
        part_size: int,
        rng: Optional[random.Random] = None,
    ):
        self.k = k
        self.part_size = part_size
        self.data_length = len(data)
        self._parts = split_into_parts(data, k, part_size)
        self._rng = rng or random.Random()
        self._sampler = DegreeSampler(robust_soliton(k), self._rng)
        self.symbols_emitted = 0

    def next_symbol(self) -> LtSymbol:
        degree = min(self._sampler.sample(), self.k)
        neighbours = frozenset(self._rng.sample(range(self.k), degree))
        data = 0
        for index in neighbours:
            data ^= self._parts[index]
        self.symbols_emitted += 1
        return LtSymbol(neighbours, data)


class LtDecoder:
    """Peeling decoder with a Gaussian-elimination fallback."""

    def __init__(self, k: int, part_size: int, data_length: Optional[int] = None):
        self.k = k
        self.part_size = part_size
        self.data_length = data_length if data_length is not None else k * part_size
        self._recovered: Dict[int, int] = {}
        # Unresolved symbols: residual neighbour sets and data.
        self._pending: List[Optional[LtSymbol]] = []
        # part index -> indices into _pending that still cover it
        self._coverage: Dict[int, Set[int]] = {}
        self.symbols_received = 0

    @property
    def is_complete(self) -> bool:
        return len(self._recovered) == self.k

    def add_symbol(self, symbol: LtSymbol) -> None:
        """Absorb one symbol and run the peeling cascade."""
        self.symbols_received += 1
        if self.is_complete:
            return
        residual_neighbours = set(symbol.neighbours)
        data = symbol.data
        for index in symbol.neighbours:
            if index in self._recovered:
                residual_neighbours.discard(index)
                data ^= self._recovered[index]
        self._enqueue_residual(residual_neighbours, data)
        self._peel()

    def _enqueue_residual(self, neighbours: Set[int], data: int) -> None:
        if not neighbours:
            return
        slot = len(self._pending)
        self._pending.append(LtSymbol(frozenset(neighbours), data))
        for index in neighbours:
            self._coverage.setdefault(index, set()).add(slot)

    def _peel(self) -> None:
        ripple = [
            slot
            for slot, entry in enumerate(self._pending)
            if entry is not None and entry.degree() == 1
        ]
        while ripple:
            slot = ripple.pop()
            entry = self._pending[slot]
            if entry is None or entry.degree() != 1:
                continue
            (part_index,) = entry.neighbours
            if part_index in self._recovered:
                self._pending[slot] = None
                continue
            self._recovered[part_index] = entry.data
            self._pending[slot] = None
            for other_slot in self._coverage.pop(part_index, set()):
                other = self._pending[other_slot]
                if other is None:
                    continue
                remaining = set(other.neighbours)
                if part_index not in remaining:
                    continue
                remaining.discard(part_index)
                new_data = other.data ^ entry.data
                if remaining:
                    self._pending[other_slot] = LtSymbol(frozenset(remaining), new_data)
                    if len(remaining) == 1:
                        ripple.append(other_slot)
                else:
                    self._pending[other_slot] = None

    def try_ge_completion(self) -> bool:
        """Solve the residual system by Gaussian elimination if possible."""
        if self.is_complete:
            return self.is_complete
        missing = sorted(set(range(self.k)) - set(self._recovered))
        position = {part: bit for bit, part in enumerate(missing)}
        eliminator = Gf2Eliminator(len(missing), payload_bits=8 * self.part_size)
        for entry in self._pending:
            if entry is None:
                continue
            coeff = 0
            for index in entry.neighbours:
                coeff |= 1 << position[index]
            eliminator.add_row(coeff, entry.data)
            if eliminator.is_full_rank:
                break
        if not eliminator.is_full_rank:
            return False
        for part_index, payload in zip(missing, eliminator.solve()):
            self._recovered[part_index] = payload
        self._pending = []
        self._coverage = {}
        return True

    def decode(self) -> bytes:
        if not self.is_complete and not self.try_ge_completion():
            raise ValueError(
                f"cannot decode: {self.k - len(self._recovered)} parts missing"
            )
        parts = [self._recovered[index] for index in range(self.k)]
        return join_parts(parts, self.part_size, self.data_length)
