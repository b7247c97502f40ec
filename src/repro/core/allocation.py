"""The paper's Algorithm 1: EAT-driven packet allocation.

When a subflow f_p gets a transmission opportunity, the sender runs a
*virtual* allocation: it repeatedly picks the subflow with the smallest
Expected Arriving Time, fills a (virtual) packet for it with symbols for
the earliest blocks that are not yet δ̂-complete (rules R1 and R2), and
bumps that subflow's EAT — until the picked subflow is f_p itself, whose
packet description vector V is returned and actually transmitted.

Virtual assignments update the *expected* received-symbol counts k̃_b
(each symbol virtually sent on flow f contributes 1 − p_f expected
symbols, per Eq. (8)) but are never persisted: the next invocation
recomputes everything from live state, which is what lets the allocation
adapt when EATs shift (Section IV-B).

Two implementations are provided:

* :func:`allocate_packet` — the production version with the
  first-incomplete-block pointer optimisation the paper sketches
  (complexity O(m + packets·symbols_per_packet), independent of how many
  leading blocks are already complete), which reads every round-constant
  input (EDTs, live k̃_b, per-flow gains) from tables the caller may
  carry across rounds;
* :func:`allocate_packet_reference` — a literal transcription of the
  pseudocode that rescans blocks from b₁ every iteration, adds one
  symbol at a time and recomputes each quantity from its single-item
  form. Property tests assert both produce identical vectors.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.blocks import PendingBlock
from repro.core.estimators import PathEstimate, PathTable, eat, eat_table, edt_for_flows


class AllocationError(RuntimeError):
    """Raised when the virtual allocation fails to terminate (a bug)."""


@dataclass
class AllocationResult:
    """Outcome of one Algorithm 1 invocation for the pending subflow."""

    # Ordered (block_id, symbol_count) pairs — the description vector V.
    vector: List[Tuple[int, int]] = field(default_factory=list)
    # Diagnostics: virtual loop iterations and per-subflow virtual packets.
    iterations: int = 0
    virtual_packets: Dict[int, int] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.vector


def _fill_packet(
    blocks: Sequence[PendingBlock],
    k_tilde_virtual: List[float],
    start_index: int,
    gain: float,
    margin: float,
    mss: int,
    symbol_wire_size: int,
) -> Tuple[List[Tuple[int, int]], int, int]:
    """Inner double-loop of Algorithm 1 (lines 3-12) for one virtual packet.

    Returns ``(vector, symbols_assigned, new_start_index)``. Completeness
    is judged in the margin form k̃ ≥ k̂ + log₂(1/δ̂), which is exactly
    δ̃ < δ̂ by Eq. (2) and is flow-independent, so the first-incomplete
    pointer stays valid across iterations.

    The per-symbol loop runs in C: ``sums[i]`` is k̃ after ``i`` symbols,
    built by the same float additions in the same order as adding
    ``gain`` once per symbol, and the block takes symbols until the first
    sum that reaches the threshold or the packet is full.
    """
    vector: List[Tuple[int, int]] = []
    room = mss // symbol_wire_size
    index = start_index
    new_start = start_index
    assigned_total = 0
    while index < len(blocks) and room:
        block = blocks[index]
        threshold = block.k + margin
        k_tilde = k_tilde_virtual[index]
        if k_tilde < threshold:
            sums = list(accumulate(repeat(gain, room), initial=k_tilde))
            assigned = min(bisect_left(sums, threshold), room)
            k_tilde = k_tilde_virtual[index] = sums[assigned]
            vector.append((block.block_id, assigned))
            assigned_total += assigned
            room -= assigned
        if k_tilde >= threshold:
            if index == new_start:
                new_start = index + 1
            index += 1
        else:
            break  # Packet full while this block still needs symbols.
    return vector, assigned_total, new_start


def _fill_packet_literal(
    blocks: Sequence[PendingBlock],
    k_tilde_virtual: List[float],
    gain: float,
    margin: float,
    mss: int,
    symbol_wire_size: int,
) -> Tuple[List[Tuple[int, int]], int]:
    """Lines 3-12 of Algorithm 1 as written: scan from b₁, one symbol at
    a time, until the packet is full. The oracle's form of
    :func:`_fill_packet`."""
    vector: List[Tuple[int, int]] = []
    space = mss
    assigned_total = 0
    for index, block in enumerate(blocks):
        if space < symbol_wire_size:
            break
        threshold = block.k + margin
        assigned = 0
        while k_tilde_virtual[index] < threshold and space >= symbol_wire_size:
            assigned += 1
            space -= symbol_wire_size
            k_tilde_virtual[index] += gain
        if assigned:
            vector.append((block.block_id, assigned))
            assigned_total += assigned
        if k_tilde_virtual[index] < threshold:
            break  # Packet full while this block still needs symbols.
    return vector, assigned_total


class ExpectedSymbols(NamedTuple):
    """One round's :func:`expected_symbols`."""

    # k̃_b per pending block (Eq. 8), in block order.
    k_tildes: List[float]
    # Whole symbols still short of k̂ + margin, summed over blocks: bounds
    # the virtual loop.
    demand: int
    # Index of the first block with k̃ < k̂ + margin — the first one
    # ``_fill_packet`` would assign to — or ``len(blocks)`` when rule R1
    # leaves nothing to send.
    first_short: int


def expected_symbols(
    blocks: Sequence[PendingBlock],
    loss_rate_of: Callable[[int], float],
    margin: float,
) -> ExpectedSymbols:
    """Eq. (8) for every pending block in one pass over ``in_flight``.

    ``loss_rate_of`` is asked once per subflow id; the summation order is
    that of :meth:`PendingBlock.k_tilde`, so the floats are identical.
    """
    k_tildes: List[float] = []
    delivery: Dict[int, float] = {}
    demand = 0
    first_short = len(blocks)
    for index, block in enumerate(blocks):
        expected = float(block.k_bar)
        for subflow_id, count in block.in_flight.items():
            if count:
                keep = delivery.get(subflow_id)
                if keep is None:
                    keep = delivery[subflow_id] = 1.0 - loss_rate_of(subflow_id)
                expected += count * keep
        k_tildes.append(expected)
        short = block.k + margin - expected
        if short > -1.0:
            demand += int(short) + 1
            if short > 0.0 and index < first_short:
                first_short = index
    return ExpectedSymbols(k_tildes, demand, first_short)


def _estimates_by_id(
    pending_subflow_id: int,
    estimates: Sequence[PathEstimate],
    mss: int,
    symbol_wire_size: int,
) -> Dict[int, PathEstimate]:
    estimate_by_id = {estimate.subflow_id: estimate for estimate in estimates}
    if pending_subflow_id not in estimate_by_id:
        raise ValueError(f"pending subflow {pending_subflow_id} not in estimates")
    if symbol_wire_size > mss:
        raise ValueError("a single symbol must fit within the MSS")
    return estimate_by_id


def allocate_packet(
    pending_subflow_id: int,
    estimates: Union[Sequence[PathEstimate], PathTable],
    blocks: Sequence[PendingBlock],
    loss_rate_of: Callable[[int], float],
    mss: int,
    symbol_wire_size: int,
    margin: float,
    expected: Optional[ExpectedSymbols] = None,
) -> AllocationResult:
    """Algorithm 1 with the first-incomplete-block pointer optimisation.

    Everything that is constant within one invocation — EDTs, initial
    EATs, per-flow gains — is read from one :class:`PathTable` (a row per
    path): ``estimates`` is the round's table when the caller holds one,
    and a :class:`PathEstimate` sequence otherwise, which becomes a table
    through :meth:`PathTable.from_estimates` (gains from ``loss_rate_of``).
    The loop only moves EATs. ``expected`` is this round's
    :func:`expected_symbols` when the caller already holds it (anything
    with its three fields; it is read, not consumed); the
    first-incomplete pointer starts at its first short block.
    """
    paths = (
        estimates
        if isinstance(estimates, PathTable)
        else PathTable.from_estimates(estimates, loss_rate_of)
    )
    ids = paths.ids
    if pending_subflow_id not in ids:
        raise ValueError(f"pending subflow {pending_subflow_id} not in estimates")
    if symbol_wire_size > mss:
        raise ValueError("a single symbol must fit within the MSS")
    eats = paths.eats[:]
    gains = paths.gains
    queued = [0] * len(ids)
    if expected is None:
        expected = expected_symbols(blocks, loss_rate_of, margin)
    k_tilde_virtual = list(expected.k_tildes)
    start_index = expected.first_short

    iterations = 0
    virtual_packets: Dict[int, int] = {}
    # Generous safety bound: total residual demand plus one pass per flow.
    max_iterations = expected.demand + len(ids) + 16
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise AllocationError(
                f"virtual allocation did not converge after {max_iterations} "
                f"iterations (pending subflow {pending_subflow_id})"
            )
        # Minimum EAT, ties to the lower id.
        chosen, best = 0, eats[0]
        for row in range(1, len(ids)):
            value = eats[row]
            if value < best or (value == best and ids[row] < ids[chosen]):
                chosen, best = row, value
        vector, assigned, start_index = _fill_packet(
            blocks, k_tilde_virtual, start_index, gains[chosen],
            margin, mss, symbol_wire_size,
        )
        chosen_id = ids[chosen]
        if assigned == 0 or chosen_id == pending_subflow_id:
            # The pending flow's own packet — or nothing was assigned: no
            # block needs symbols any more (all δ̂-complete virtually) and
            # rule R1 says nobody, the pending flow included, sends (the
            # vector is empty).
            return AllocationResult(vector, iterations, virtual_packets)
        # Virtual packet: bump the chosen flow's EAT and keep going.
        virtual_packets[chosen_id] = virtual_packets.get(chosen_id, 0) + 1
        queued[chosen] += 1
        eats[chosen] = paths.eat(chosen, queued[chosen])


def allocate_packet_greedy(
    pending_subflow_id: int,
    blocks: Sequence[PendingBlock],
    loss_rate_of: Callable[[int], float],
    mss: int,
    symbol_wire_size: int,
    margin: float,
) -> AllocationResult:
    """Ablation baseline: no EAT ranking, no virtual allocation.

    The requesting subflow is filled directly from the first pending
    blocks (Section IV-B's "intuitive approach"), so a slow subflow grabs
    symbols of the most urgent block even when a faster subflow would
    deliver them sooner.
    """
    gain = max(1.0 - loss_rate_of(pending_subflow_id), 1e-3)
    k_tilde_virtual, __, first_short = expected_symbols(blocks, loss_rate_of, margin)
    vector, assigned, __ = _fill_packet(
        blocks, k_tilde_virtual, first_short, gain, margin, mss, symbol_wire_size
    )
    result = AllocationResult(iterations=1)
    if assigned:
        result.vector = vector
    return result


def allocate_packet_reference(
    pending_subflow_id: int,
    estimates: Sequence[PathEstimate],
    blocks: Sequence[PendingBlock],
    loss_rate_of: Callable[[int], float],
    mss: int,
    symbol_wire_size: int,
    margin: float,
) -> AllocationResult:
    """Literal Algorithm 1, the oracle :func:`allocate_packet` is tested
    against: every quantity comes from its public single-item form, and
    the block list is rescanned from b₁ every iteration."""
    estimate_by_id = _estimates_by_id(
        pending_subflow_id, estimates, mss, symbol_wire_size
    )
    edts = edt_for_flows(estimates)
    eats = eat_table(estimates)
    virtual_queue = dict.fromkeys(eats, 0)
    k_tilde_virtual = [block.k_tilde(loss_rate_of) for block in blocks]
    result = AllocationResult()
    max_iterations = len(estimates) + 16 + sum(
        max(0, int(block.k + margin - kt) + 1)
        for block, kt in zip(blocks, k_tilde_virtual)
    )
    while True:
        result.iterations += 1
        if result.iterations > max_iterations:
            raise AllocationError(
                f"reference allocation did not converge after {max_iterations} "
                f"iterations (pending subflow {pending_subflow_id})"
            )
        chosen_id = min(eats, key=lambda subflow_id: (eats[subflow_id], subflow_id))
        gain = max(1.0 - loss_rate_of(chosen_id), 1e-3)
        vector, assigned = _fill_packet_literal(
            blocks, k_tilde_virtual, gain, margin, mss, symbol_wire_size
        )
        if assigned == 0:
            return result
        if chosen_id == pending_subflow_id:
            result.vector = vector
            return result
        result.virtual_packets[chosen_id] = result.virtual_packets.get(chosen_id, 0) + 1
        virtual_queue[chosen_id] += 1
        eats[chosen_id] = eat(
            estimate_by_id[chosen_id], edts[chosen_id], virtual_queue[chosen_id]
        )
