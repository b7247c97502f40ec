"""Oracles for the per-packet hot path, independent of the code under test.

* The event engine against a reference that keeps every queued entry and
  sorts the live ``(time, seq)`` pairs: random programs of ``schedule_at``,
  ``cancel``, ``max_events``, ``until`` and ``drain_cancelled``.
* The MPTCP waterfall: ``MinRttScheduler.reserved_ahead`` (no sort) against
  the sum over the sorted preference order, ties on ``srtt`` included, and
  the round-robin turn advancing once per decision.
* A receive-limited MPTCP transfer asks ``next_payload`` at most twice per
  chunk it sends: a subflow the owner just pumped is not asked again.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FmtcpConfig
from repro.experiments.runner import default_mptcp_config
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.scheduler import MinRttScheduler, RoundRobinScheduler
from repro.net.topology import build_two_path_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs
from repro.workloads.sources import BulkSource

# ----------------------------------------------------------------------
# The engine against a sorted reference.
# ----------------------------------------------------------------------
# A scheduled entry's action when it runs: nothing, schedule a child
# ``delay`` later, or cancel the entry scheduled ``index``-th.
_actions = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("spawn"), st.integers(0, 3).map(lambda n: n * 0.5)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"), st.integers(0, 6).map(lambda n: n * 0.5), _actions
        ),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(
            st.just("run"),
            st.one_of(st.none(), st.integers(0, 8).map(lambda n: n * 0.5)),
            st.one_of(st.none(), st.integers(1, 6)),
        ),
        st.tuples(st.just("drain")),
    ),
    max_size=30,
)


@dataclass
class _Entry:
    time: float
    seq: int
    action: tuple
    cancelled: bool = False


@dataclass
class _Reference:
    """Every entry ever queued, popped ones removed; the front is the
    live-or-dead entry with the least ``(time, seq)``."""

    now: float = 0.0
    seq: int = 0
    processed: int = 0
    queued: List[_Entry] = field(default_factory=list)
    entries: List[_Entry] = field(default_factory=list)
    order: List[int] = field(default_factory=list)

    def schedule_at(self, time: float, action: tuple) -> None:
        entry = _Entry(time, self.seq, action)
        self.seq += 1
        self.queued.append(entry)
        self.entries.append(entry)

    def cancel(self, index: int) -> None:
        if self.entries:
            self.entries[index % len(self.entries)].cancelled = True

    def run(self, until: Optional[float], max_events: Optional[int]) -> None:
        executed = 0
        while self.queued:
            front = min(self.queued, key=lambda entry: (entry.time, entry.seq))
            if front.cancelled:
                self.queued.remove(front)
                continue
            if until is not None and front.time > until:
                break
            self.queued.remove(front)
            self.now = front.time
            self.order.append(front.seq)
            self._act(front.action)
            self.processed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        if until is not None and self.now < until:
            self.now = until

    def _act(self, action: tuple) -> None:
        if action[0] == "spawn":
            self.schedule_at(self.now + action[1], ("none",))
        elif action[0] == "cancel":
            self.cancel(action[1])

    def drain(self) -> int:
        dead = [entry for entry in self.queued if entry.cancelled]
        self.queued = [entry for entry in self.queued if not entry.cancelled]
        return len(dead)


class _Engine:
    """The same program on the real Simulator."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.events: list = []
        self.order: List[int] = []

    def schedule_at(self, time: float, action: tuple) -> None:
        seq = len(self.events)
        self.events.append(self.sim.schedule_at(time, self._fire, seq, action))

    def cancel(self, index: int) -> None:
        if self.events:
            self.events[index % len(self.events)].cancel()

    def _fire(self, seq: int, action: tuple) -> None:
        self.order.append(seq)
        if action[0] == "spawn":
            self.schedule_at(self.sim.now + action[1], ("none",))
        elif action[0] == "cancel":
            self.cancel(action[1])


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_engine_matches_a_sorted_reference(program):
    engine, reference = _Engine(), _Reference()
    for op in program:
        if op[0] == "schedule":
            engine.schedule_at(engine.sim.now + op[1], op[2])
            reference.schedule_at(reference.now + op[1], op[2])
        elif op[0] == "cancel":
            engine.cancel(op[1])
            reference.cancel(op[1])
        elif op[0] == "run":
            engine.sim.run(until=op[1], max_events=op[2])
            reference.run(op[1], op[2])
        else:
            assert engine.sim.drain_cancelled() == reference.drain()
        assert engine.order == reference.order
        assert engine.sim.now == reference.now
        assert engine.sim.events_processed == reference.processed
        assert engine.sim.pending_events == len(reference.queued)
        assert [event[2] is None for event in engine.events] == [
            entry.cancelled for entry in reference.entries
        ]


# ----------------------------------------------------------------------
# The waterfall's reservation.
# ----------------------------------------------------------------------
@dataclass
class _Candidate:
    subflow_id: int
    srtt: float
    usable: bool
    window_space: int


_candidates = st.lists(
    st.tuples(
        st.integers(1, 4).map(lambda n: n * 0.05),  # a coarse grid: srtt ties
        st.booleans(),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=6,
).flatmap(
    lambda rows: st.permutations(
        [_Candidate(index, *row) for index, row in enumerate(rows)]
    )
)


def _sorted_sum(subflow, subflows) -> int:
    reserved = 0
    for candidate in sorted(subflows, key=lambda c: (c.srtt, c.subflow_id)):
        if candidate is subflow:
            break
        if candidate.usable:
            reserved += candidate.window_space
    return reserved


@settings(max_examples=300, deadline=None)
@given(_candidates)
def test_minrtt_reservation_equals_the_sorted_order_sum(subflows):
    scheduler = MinRttScheduler()
    for subflow in subflows:
        assert scheduler.reserved_ahead(subflow, subflows) == _sorted_sum(
            subflow, subflows
        )


@settings(max_examples=100, deadline=None)
@given(_candidates, st.lists(st.integers(0, 5), min_size=1, max_size=12))
def test_roundrobin_turn_advances_once_per_decision(subflows, picks):
    scheduler = RoundRobinScheduler()
    by_id = sorted(subflows, key=lambda c: c.subflow_id)
    for decision, pick in enumerate(picks):
        subflow = subflows[pick % len(subflows)]
        pivot = decision % len(by_id)
        rotated = by_id[pivot:] + by_id[:pivot]
        expected = 0
        for candidate in rotated:
            if candidate is subflow:
                break
            if candidate.usable:
                expected += candidate.window_space
        assert scheduler.reserved_ahead(subflow, subflows) == expected
        assert scheduler._turn == decision + 1


# ----------------------------------------------------------------------
# No second ask.
# ----------------------------------------------------------------------
def test_receive_limited_mptcp_asks_at_most_twice_per_chunk():
    """Table I case 2 for 20 s is receive-limited: most asks are refused
    for want of credit. Before a subflow the owner had just pumped stopped
    being asked again at the end of its ACK, this run made 12 148 asks for
    5 497 chunks (2.21 per chunk)."""
    case2 = next(case for case in TABLE1_CASES if case.case_id == 2)
    network, paths = build_two_path_network(
        table1_path_configs(case2), rng=RngStreams(1)
    )
    connection = MptcpConnection(
        network.sim, paths, BulkSource(), config=default_mptcp_config(FmtcpConfig())
    )
    asks = []
    next_payload = connection.next_payload
    connection.next_payload = lambda sf: asks.append(sf) or next_payload(sf)
    connection.start()
    network.sim.run(until=20.0)
    sent = sum(subflow.packets_sent for subflow in connection.subflows)
    assert sent == 5497  # the transfer itself is the parent's, packet for packet
    assert len(asks) <= 2 * sent
