"""Stateful (model-based) property tests with hypothesis.

Each machine drives a core data structure through random operation
sequences while checking it against a trivially correct model.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.fountain.gf2 import Gf2Eliminator
from repro.mptcp.recv_buffer import ReorderBuffer
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue


class ReorderBufferMachine(RuleBasedStateMachine):
    """The reorder buffer must deliver 0..N exactly once, in order,
    regardless of arrival order, duplication, or interleaving."""

    @initialize(capacity=st.integers(min_value=1, max_value=16))
    def setup(self, capacity):
        self.capacity = capacity
        self.buffer = ReorderBuffer(capacity)
        self.delivered = []
        self.inserted = set()

    def _insertable(self):
        # Sequences the sender's flow-control invariant would permit.
        low = self.buffer.next_expected
        return [
            seq
            for seq in range(low, low + self.capacity)
            if seq not in self.inserted or seq < low
        ]

    @rule(data=st.data())
    def insert_valid(self, data):
        candidates = list(range(self.buffer.next_expected,
                                self.buffer.next_expected + self.capacity))
        seq = data.draw(st.sampled_from(candidates))
        delivered = self.buffer.insert(seq, seq)
        self.inserted.add(seq)
        self.delivered.extend(item for __, item in delivered)

    @rule(data=st.data())
    def insert_duplicate_or_old(self, data):
        seq = data.draw(st.integers(min_value=0, max_value=5))
        if seq < self.buffer.next_expected or seq in self.buffer._buffered:
            before = len(self.delivered)
            assert self.buffer.insert(seq, seq) == []
            assert len(self.delivered) == before

    @invariant()
    def delivery_is_a_prefix_in_order(self):
        assert self.delivered == list(range(len(self.delivered)))

    @invariant()
    def occupancy_bounded(self):
        assert self.buffer.occupancy <= self.capacity
        assert self.buffer.advertised_window >= 0


TestReorderBufferStateful = ReorderBufferMachine.TestCase
TestReorderBufferStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class Gf2Machine(RuleBasedStateMachine):
    """The eliminator's rank must always equal the brute-force rank of
    everything inserted, and solve() must invert the encoding."""

    @initialize(
        k=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def setup(self, k, seed):
        self.k = k
        self.rng = random.Random(seed)
        self.eliminator = Gf2Eliminator(k, payload_bits=16)
        self.parts = [self.rng.getrandbits(16) for __ in range(k)]
        self.rows = []

    def _encode(self, coeff):
        value = 0
        remaining = coeff
        while remaining:
            bit = remaining.bit_length() - 1
            value ^= self.parts[bit]
            remaining &= ~(1 << bit)
        return value

    def _model_rank(self):
        basis = []
        for row in self.rows:
            value = row
            for pivot in basis:
                value = min(value, value ^ pivot)
            if value:
                basis.append(value)
                basis.sort(reverse=True)
        return len(basis)

    @rule()
    def add_random_row(self):
        coeff = self.rng.getrandbits(self.k)
        self.rows.append(coeff)
        if coeff:
            self.eliminator.add_row(coeff, self._encode(coeff))
        else:
            assert not self.eliminator.add_row(coeff, 0)

    @rule()
    def add_unit_row(self):
        coeff = 1 << self.rng.randrange(self.k)
        self.rows.append(coeff)
        self.eliminator.add_row(coeff, self._encode(coeff))

    @invariant()
    def rank_matches_brute_force(self):
        assert self.eliminator.rank == self._model_rank()

    @invariant()
    def solve_recovers_parts_when_full(self):
        if self.eliminator.is_full_rank:
            assert self.eliminator.solve() == self.parts


TestGf2Stateful = Gf2Machine.TestCase
TestGf2Stateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class DropTailMachine(RuleBasedStateMachine):
    """The queue must behave exactly like a bounded FIFO list."""

    @initialize(capacity=st.integers(min_value=1, max_value=8))
    def setup(self, capacity):
        self.queue = DropTailQueue(capacity)
        self.model = []
        self.capacity = capacity

    @rule(size=st.integers(min_value=1, max_value=2000))
    def enqueue(self, size):
        packet = Packet(size=size, src="a", dst="b", src_port=1, dst_port=2)
        accepted = self.queue.try_enqueue(packet)
        if len(self.model) < self.capacity:
            assert accepted
            self.model.append(packet)
        else:
            assert not accepted

    @rule()
    def dequeue(self):
        packet = self.queue.popleft() if self.queue else None
        if self.model:
            assert packet is self.model.pop(0)
        else:
            assert packet is None

    @invariant()
    def length_and_bytes_match_model(self):
        assert len(self.queue) == len(self.model)
        assert list(self.queue) == self.model


TestDropTailStateful = DropTailMachine.TestCase
TestDropTailStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
