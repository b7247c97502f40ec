"""Fixed-rate FEC multipath connection.

Each block of k̂ symbols is encoded *up front* into exactly
n = ⌈k̂/(1−p̂)⌉ distinct coded symbols (an MDS-style code: any k̂ of the n
recover the block — Reed-Solomon semantics, which flatter fixed-rate
coding relative to the binary fountain). Symbols are striped over
subflows on demand; a lost symbol is retransmitted *on the subflow that
first carried it* (the same-path constraint the paper describes for
fixed-rate schemes); and when all n symbols are exhausted before the
block decodes — the Eq. (6) event of an underestimated loss rate — the
sender must fall back to retransmitting, paying the stall the Chernoff
bound predicts.

Emits the shared trace vocabulary (``conn.delivered`` /
``conn.block_done``) so the metric stack and harness apply unchanged.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.config import CodedConfig
from repro.net.topology import Path
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.tcp.multipath import MultipathConnection
from repro.tcp.subflow import Subflow, SubflowOwner, SubflowPacketInfo


@dataclass
class FixedRateConfig(CodedConfig):
    """Tunables; geometry defaults match FMTCP's for fair comparison.

    The strawman runs plain Reno with no dead-path failover and no flow
    control, so those four inherited fields are fixed, not keywords.
    """

    congestion: str = field(default="reno", init=False)
    failover_rto_threshold: Optional[int] = field(default=None, init=False)
    flow_control: bool = field(default=False, init=False)
    recv_drain_rate_bps: Optional[float] = field(default=None, init=False)
    # p̂: the loss estimate baked into the code rate (Eq. 4's p1).
    estimated_loss: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.estimated_loss < 1.0:
            raise ValueError(
                f"estimated_loss must be in [0, 1), got {self.estimated_loss}"
            )


class _FixedBlock:
    """Sender-side state of one fixed-rate block."""

    __slots__ = ("block_id", "k", "n", "data_bytes", "unsent", "first_tx_at")

    def __init__(self, block_id: int, k: int, n: int, data_bytes: int):
        self.block_id = block_id
        self.k = k
        self.n = n
        self.data_bytes = data_bytes
        self.unsent: Deque[int] = deque(range(n))  # symbol ids never sent
        self.first_tx_at: Optional[float] = None


class _FixedGroup:
    """Wire unit: specific symbol ids of one block."""

    __slots__ = ("block_id", "symbol_ids", "block_k", "block_bytes")

    def __init__(self, block_id: int, symbol_ids: Tuple[int, ...], block_k: int,
                 block_bytes: int):
        self.block_id = block_id
        self.symbol_ids = symbol_ids
        self.block_k = block_k
        self.block_bytes = block_bytes


class _FixedFeedback:
    __slots__ = ("decoded_in_order", "decoded_out_of_order")

    def __init__(self, decoded_in_order, decoded_out_of_order):
        self.decoded_in_order = decoded_in_order
        self.decoded_out_of_order = decoded_out_of_order


class FixedRateConnection(MultipathConnection, SubflowOwner):
    """Sender + receiver pair of the fixed-rate FEC transport."""

    _removed_field = "abandoned"

    def __init__(
        self,
        sim: Simulator,
        paths: Sequence[Path],
        source,
        config: Optional[FixedRateConfig] = None,
        trace: Optional[TraceBus] = None,
    ):
        self.source = source
        self._retx_queues: Dict[int, Deque[Tuple[int, int]]] = {}
        super().__init__(
            sim,
            paths,
            config or FixedRateConfig(),
            trace,
            owner=self,
            on_segment=self._receiver_on_segment,
            feedback_provider=self._receiver_feedback,
        )

        # ---- sender state ----
        # Block id -> block; insertion order is block order.
        self._pending: Dict[int, _FixedBlock] = {}
        self._next_block_id = 0
        self._decoded_frontier_seen = 0
        self.symbols_sent = 0
        self.symbols_retransmitted = 0
        self.gbn_duplicates = 0

        # ---- receiver state ----
        self._received_ids: Dict[int, Set[int]] = {}
        self._block_meta: Dict[int, Tuple[int, int]] = {}  # id -> (k, bytes)
        self._decoded_waiting: Dict[int, int] = {}  # id -> bytes
        self._deliver_next = 0
        self._decode_frontier = 0
        self.delivered_bytes = 0
        self.blocks_decoded = 0

    def start(self) -> None:
        self.pump()

    # ------------------------------------------------------------------
    # Skeleton hooks: what the strawman does when the subflow set changes.
    # ------------------------------------------------------------------
    def _subflow_attached(self, subflow: Subflow) -> None:
        self._retx_queues[subflow.subflow_id] = deque()

    # ------------------------------------------------------------------
    # Sender side.
    # ------------------------------------------------------------------
    def _replenish(self) -> None:
        while len(self._pending) < self.config.max_pending_blocks:
            pulled: Union[int, bytes, None] = self.source.pull(self.config.block_bytes)
            if not pulled:
                return
            data_bytes = len(pulled) if isinstance(pulled, bytes) else int(pulled)
            k = max(1, min(
                -(-data_bytes // self.config.symbol_size),
                self.config.symbols_per_block,
            ))
            n = int(math.ceil(k / (1.0 - self.config.estimated_loss)))
            self._pending[self._next_block_id] = _FixedBlock(
                self._next_block_id, k, n, data_bytes
            )
            self._next_block_id += 1

    def next_payload(self, subflow: Subflow) -> Optional[Tuple[Any, int]]:
        budget = self.config.symbols_per_packet
        retx_queue = self._retx_queues[subflow.subflow_id]
        groups: Dict[int, List[int]] = {}
        taken = 0
        # Retransmissions first (same-subflow binding).
        while retx_queue and taken < budget:
            block_id, symbol_id = retx_queue.popleft()
            if block_id not in self._pending:
                continue  # decoded meanwhile
            groups.setdefault(block_id, []).append(symbol_id)
            self.symbols_retransmitted += 1
            taken += 1
        # Then fresh symbols from the earliest blocks with unsent budget.
        if taken < budget:
            self._replenish()
            for block in self._pending.values():
                while block.unsent and taken < budget:
                    symbol_id = block.unsent.popleft()
                    groups.setdefault(block.block_id, []).append(symbol_id)
                    taken += 1
                if taken >= budget:
                    break
        if not groups:
            return None
        wire_groups = []
        for block_id, symbol_ids in groups.items():
            block = self._pending[block_id]
            if block.first_tx_at is None:
                block.first_tx_at = self.sim.now
            wire_groups.append(
                _FixedGroup(block_id, tuple(symbol_ids), block.k, block.data_bytes)
            )
        self.symbols_sent += taken
        return wire_groups, taken * self.config.symbol_wire_size

    def on_payload_lost(self, subflow: Subflow, info: SubflowPacketInfo, reason: str) -> None:
        queue = self._retx_queues[subflow.subflow_id]
        for group in info.payload:
            if group.block_id not in self._pending:
                continue
            for symbol_id in group.symbol_ids:
                queue.append((group.block_id, symbol_id))
        # Go-Back-N: everything sent after the lost packet on this subflow
        # is re-sent too, even though most of it will arrive anyway — the
        # bandwidth waste Section III-B's analysis charges fixed-rate
        # coding with (the paper notes selective repeat is "rarely used by
        # practical systems").
        for seq, payload in subflow.outstanding_payloads():
            if seq <= info.seq:
                continue
            for group in payload:
                if group.block_id not in self._pending:
                    continue
                for symbol_id in group.symbol_ids:
                    queue.append((group.block_id, symbol_id))
                    self.gbn_duplicates += 1

    def on_ack_feedback(self, subflow: Subflow, feedback: _FixedFeedback) -> None:
        while self._decoded_frontier_seen < feedback.decoded_in_order:
            self._confirm_decoded(self._decoded_frontier_seen)
            self._decoded_frontier_seen += 1
        for block_id in feedback.decoded_out_of_order:
            self._confirm_decoded(block_id)
        self.pump()

    def _confirm_decoded(self, block_id: int) -> None:
        block = self._pending.pop(block_id, None)
        if block is None:
            return
        # Drop now-useless queued retransmissions of this block.
        for queue in self._retx_queues.values():
            remaining = [(b, s) for b, s in queue if b != block_id]
            queue.clear()
            queue.extend(remaining)
        if (
            self.trace is not None
            and block.first_tx_at is not None
            and "conn.block_done" in self.trace.live
        ):
            self.trace.emit(
                self.sim.now,
                "conn.block_done",
                block_id=block_id,
                delay=self.sim.now - block.first_tx_at,
            )

    # ------------------------------------------------------------------
    # Receiver side: MDS semantics — any k distinct ids decode the block.
    # ------------------------------------------------------------------
    def _receiver_on_segment(self, subflow_id: int, segment) -> None:
        for group in segment.payload:
            if self._is_decoded(group.block_id):
                continue
            ids = self._received_ids.setdefault(group.block_id, set())
            self._block_meta[group.block_id] = (group.block_k, group.block_bytes)
            ids.update(group.symbol_ids)
            if len(ids) >= group.block_k:
                self._finish_block(group.block_id)

    def _is_decoded(self, block_id: int) -> bool:
        return block_id < self._deliver_next or block_id in self._decoded_waiting

    def _finish_block(self, block_id: int) -> None:
        __, block_bytes = self._block_meta.pop(block_id)
        self._received_ids.pop(block_id, None)
        self._decoded_waiting[block_id] = block_bytes
        self.blocks_decoded += 1
        while self._decode_frontier in self._decoded_waiting or (
            self._decode_frontier < self._deliver_next
        ):
            self._decode_frontier += 1
        while self._deliver_next in self._decoded_waiting:
            delivered_bytes = self._decoded_waiting.pop(self._deliver_next)
            self.delivered_bytes += delivered_bytes
            if self.trace is not None and "conn.delivered" in self.trace.live:
                self.trace.emit(
                    self.sim.now,
                    "conn.delivered",
                    bytes=delivered_bytes,
                    block_id=self._deliver_next,
                )
            self._deliver_next += 1
        if self._decode_frontier < self._deliver_next:
            self._decode_frontier = self._deliver_next

    def _receiver_feedback(self, subflow_id: int, segment) -> _FixedFeedback:
        return _FixedFeedback(
            decoded_in_order=self._decode_frontier,
            decoded_out_of_order=tuple(
                block_id
                for block_id in self._decoded_waiting
                if block_id >= self._decode_frontier
            ),
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def redundancy_ratio(self) -> float:
        needed = self.blocks_decoded * self.config.symbols_per_block
        if needed == 0:
            return 0.0
        return self.symbols_sent / needed
