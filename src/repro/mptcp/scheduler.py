"""Chunk-to-subflow schedulers for the MPTCP baseline.

Subflows pull data when their congestion window opens; the scheduler only
has to arbitrate when connection-level send credit (the advertised
receive window) is scarcer than the aggregate window space. The default
is the lowest-SRTT policy of production MPTCP stacks; round-robin is kept
for ablations.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.tcp.subflow import Subflow


class SubflowScheduler:
    """Interface: ``reserved_ahead(subflow, subflows)`` is the window space
    of the usable subflows preferred over ``subflow``: the send credit
    they have first claim on (the MPTCP waterfall). Suspect subflows
    reserve nothing."""

    #: Whether consulting the scheduler moves its state, so that the same
    #: question asked twice can be answered differently.
    stateful = False


class MinRttScheduler(SubflowScheduler):
    """Prefer the subflow with the smallest smoothed RTT (Linux default)."""

    def reserved_ahead(self, subflow: Subflow, subflows: Sequence[Subflow]) -> int:
        # The subflows sorted ahead of ``subflow`` are those with a smaller
        # (srtt, subflow_id), so the sum needs no sort.
        srtt = subflow.srtt
        subflow_id = subflow.subflow_id
        reserved = 0
        for candidate in subflows:
            if candidate is subflow:
                continue
            candidate_srtt = candidate.srtt
            if (
                candidate_srtt < srtt
                or (candidate_srtt == srtt and candidate.subflow_id < subflow_id)
            ) and candidate.usable:
                reserved += candidate.window_space
        return reserved


class RoundRobinScheduler(SubflowScheduler):
    """Rotate preference across subflows, ignoring path quality.

    The turn advances on every call, decisions that refuse included.
    """

    stateful = True

    def __init__(self) -> None:
        self._turn = 0

    def preference_order(self, subflows: Sequence[Subflow]) -> List[Subflow]:
        ordered = sorted(subflows, key=lambda subflow: subflow.subflow_id)
        if not ordered:
            return []
        pivot = self._turn % len(ordered)
        self._turn += 1
        return ordered[pivot:] + ordered[:pivot]

    def reserved_ahead(self, subflow: Subflow, subflows: Sequence[Subflow]) -> int:
        reserved = 0
        for candidate in self.preference_order(subflows):
            if candidate is subflow:
                break
            if candidate.usable:
                reserved += candidate.window_space
        return reserved


def make_scheduler(kind: str) -> SubflowScheduler:
    """Factory (``kind`` in {"minrtt", "roundrobin"})."""
    if kind == "minrtt":
        return MinRttScheduler()
    if kind == "roundrobin":
        return RoundRobinScheduler()
    raise ValueError(f"unknown scheduler kind {kind!r}")
