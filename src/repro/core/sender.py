"""The FMTCP sender.

Owns the TCP subflows (it is their :class:`~repro.tcp.subflow.SubflowOwner`)
and turns every transmission opportunity into a packet of freshly encoded
symbols chosen by Algorithm 1. Loss handling is the paper's headline
behaviour: a lost packet's symbols are simply subtracted from the
in-flight counts l_b^f, which lowers k̃_b, re-raises the block's expected
decoding-failure probability, and lets the allocator route *new* symbols
over whichever subflow is expected to arrive first — no retransmission,
no inter-path coordination.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.allocation import (
    AllocationResult,
    allocate_packet,
    allocate_packet_greedy,
    expected_symbols,
)
from repro.core.blocks import BlockManager, PendingBlock
from repro.core.config import FmtcpConfig
from repro.core.estimators import PathEstimate, PathTable
from repro.core.packets import FmtcpFeedback, FmtcpSegmentPayload, SymbolGroup
from repro.robustness.flowcontrol import ProbedGate, WindowGate
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.tcp.subflow import Subflow, SubflowOwner, SubflowPacketInfo

# Estimated loss rates are clamped below 1 so expected-gain and EDT/RT
# formulas stay finite even while an estimator transiently reads ~100 %.
_MAX_LOSS = 0.95

# Idle-path probing. The EAT allocator stops scheduling symbols on a path
# it estimates as terrible — but the loss estimate can only improve by
# *sending*, so a path that died and recovered would stay quarantined
# forever. A subflow idle this long (with window space and nothing
# outstanding) is given one greedily-filled packet of fresh symbols.
_PROBE_INTERVAL_S = 1.0
# Probe chaining: when a probe on a quarantined path (aged loss estimate
# above this) is acknowledged, the next probe may follow immediately
# instead of waiting out the interval — so a healed path re-earns trust in
# seconds, one EWMA sample per RTT.
_PROBE_CHAIN_THRESHOLD = 0.2


class _Losses(dict):
    """A loss snapshot read by subscript. A removed subflow's id can
    linger in per-block accounting; it reads as maximally lossy, as
    ``FmtcpSender.loss_rate_of`` answers."""

    __slots__ = ()

    def __missing__(self, subflow_id: int) -> float:
        return _MAX_LOSS


class _Keeps(dict):
    """1 − p per subflow id for a loss snapshot: Eq. (8)'s factor, each
    computed once as ``PendingBlock.k_tilde`` computes it. A removed
    subflow's id reads as maximally lossy."""

    __slots__ = ()

    def __missing__(self, subflow_id: int) -> float:
        return 1.0 - _MAX_LOSS


def _read_rows(paths: PathTable, subflows: List[Subflow], now: float) -> None:
    """Refresh ``paths``, whose rows are ``subflows``, at ``now``: read each
    row's srtt, rto, window space and τ from the state behind
    ``Subflow.srtt`` / ``rto_value`` / ``window_space`` / ``tau``,
    re-derive the rows whose (srtt, rto) moved, and settle every EAT."""
    rtts, rtos, spaces, taus = paths.rtts, paths.rtos, paths.spaces, paths.taus
    moved = []
    for row, subflow in enumerate(subflows):
        estimator = subflow.rto
        srtt = estimator.srtt
        if srtt is None:
            srtt = subflow.srtt
        rto = estimator.rto
        if srtt != rtts[row] or rto != rtos[row]:
            rtts[row] = srtt
            rtos[row] = rto
            moved.append(row)
        outstanding = subflow._outstanding
        space = subflow.cc.window - len(outstanding)
        spaces[row] = space if space > 0 else 0
        tau = 0.0
        for info in outstanding.values():  # Send order: oldest first.
            tau = now - info.sent_at
            break
        taus[row] = tau
    if moved:
        paths.derive(moved)
    else:
        paths.settle()


class _RoundState:
    """The allocation ledger: Eq. (8)'s k̃ per pending block, what
    Algorithm 1 derives from it, and the path table, carried from round to
    round.

    Built from scratch by ``expected_symbols`` and then kept up to date
    instead of rebuilt: each sender callback marks the blocks whose k̃ it
    moved (an ACK or loss resolving a packet, a k̄ report), and the next
    round re-derives just those rows (:meth:`settle`). A decode deletes
    its row, ``replenish`` appends rows, and a packet Algorithm 1 chose
    re-derives its blocks on the spot (:meth:`note_sent`). The loss
    snapshot every row was derived under is ``losses``; when a fresh one
    differs, or a probe moved a block outside a round, the sender builds
    a new ledger. Reads as an ``ExpectedSymbols`` for
    :func:`allocate_packet`.

    ``paths`` is the path table of the subflows Algorithm 1 counts on
    (``path_subflows``), built for ``losses`` by the first round that
    ranks paths; each such round refreshes its rows (``_read_rows``) and
    it is rebuilt only when that set of subflows changed.
    """

    __slots__ = (
        "now", "blocks", "ids", "margin", "losses", "loss_rate_of", "keeps",
        "k_tildes", "demand", "first_short", "declined", "marked", "sampled",
        "paths", "path_subflows",
    )

    def __init__(
        self,
        now: float,
        blocks: List[PendingBlock],
        margin: float,
        losses: Dict[int, float],
    ):
        # The instant the ledger was last settled at.
        self.now = now
        # The block list the k̃ table is parallel to: the manager's live
        # pending list, or this instant's flow-admissible copy of it. Its
        # ids ascend; ``ids`` is the table's own copy of them, by which a
        # row is found.
        self.blocks = blocks
        self.ids = [block.block_id for block in blocks]
        self.margin = margin
        self.losses = losses
        self.loss_rate_of = _Losses(losses).__getitem__
        self.keeps = keeps = _Keeps()
        for subflow_id, loss in losses.items():
            keeps[subflow_id] = 1.0 - loss
        self.k_tildes, self.demand, self.first_short = expected_symbols(
            blocks, self.loss_rate_of, margin
        )
        # Subflows Algorithm 1 gave nothing since the ledger last moved.
        self.declined: set = set()
        # Blocks whose k̃ row is stale until the next settle.
        self.marked: List[PendingBlock] = []
        # An ACK or a loss arrived since the loss snapshot was compared.
        self.sampled = False
        self.paths: Optional[PathTable] = None
        self.path_subflows: List[Subflow] = []

    def settle(self, now: float) -> None:
        """Re-derive the marked rows, once each, and forget the declines:
        every subflow's window, τ or loss may have moved since."""
        self.now = now
        self.sampled = False
        self.declined.clear()
        marked = self.marked
        if marked:
            for block in dict.fromkeys(marked):
                self._rederive(block)
            marked.clear()

    def note_sent(self, block: PendingBlock) -> None:
        """``block`` has new in-flight symbols: re-derive its row. Every
        subflow's window or τ may have moved with the packet, so earlier
        declines no longer stand."""
        self.declined.clear()
        self._rederive(block)

    def _rederive(self, block: PendingBlock) -> None:
        """Re-derive ``block``'s k̃ (in :meth:`PendingBlock.k_tilde`'s
        summation order, which is ``expected_symbols``'s), its share of
        the demand and the first short index."""
        if block.decoded:  # drop() took its row.
            return
        ids = self.ids
        block_id = block.block_id
        index = bisect_right(ids, block_id) - 1
        if index < 0 or ids[index] != block_id:
            return  # Outside the admissible list.
        k_tildes = self.k_tildes
        threshold = block.k + self.margin
        short = threshold - k_tildes[index]
        if short > -1.0:
            self.demand -= int(short) + 1
        keeps = self.keeps
        k_tilde = float(block.k_bar)
        for subflow_id, count in block.in_flight.items():
            if count:
                k_tilde += count * keeps[subflow_id]
        k_tildes[index] = k_tilde
        short = threshold - k_tilde
        if short > -1.0:
            self.demand += int(short) + 1
        if short > 0.0:
            if index < self.first_short:
                self.first_short = index
        elif index == self.first_short:
            self.first_short = self._next_short(index + 1)

    def _next_short(self, index: int) -> int:
        """The first index from ``index`` on whose row is short."""
        blocks = self.blocks
        k_tildes = self.k_tildes
        margin = self.margin
        while (
            index < len(blocks)
            and blocks[index].k + margin - k_tildes[index] <= 0.0
        ):
            index += 1
        return index

    def append_rows(self) -> None:
        """Rows for the blocks ``replenish`` appended to the live list:
        each starts at +∞ (no demand, not short) and is re-derived."""
        for block in self.blocks[len(self.k_tildes):]:
            self.ids.append(block.block_id)
            self.k_tildes.append(math.inf)
            self._rederive(block)
        self.declined.clear()

    def drop(self, block: PendingBlock) -> None:
        """Delete decoded ``block``'s row; called while the live list still
        holds it, just before the manager removes it."""
        index = bisect_left(self.ids, block.block_id)
        short = block.k + self.margin - self.k_tildes[index]
        if short > -1.0:
            self.demand -= int(short) + 1
        if index < self.first_short:
            self.first_short -= 1
        elif index == self.first_short:
            self.first_short = self._next_short(index + 1) - 1
        del self.ids[index]
        del self.k_tildes[index]
        self.declined.clear()


def _path_table(subflows: List[Subflow], losses: Dict[int, float]) -> PathTable:
    """An unread path table of ``subflows`` for the loss snapshot ``losses``."""
    ids = [subflow.subflow_id for subflow in subflows]
    row_losses = [losses[subflow_id] for subflow_id in ids]
    return PathTable(ids, row_losses, [max(1.0 - loss, 1e-3) for loss in row_losses])


class FmtcpSender(SubflowOwner):
    """Sender half of an FMTCP connection."""

    def __init__(
        self,
        sim: Simulator,
        config: FmtcpConfig,
        block_manager: BlockManager,
        trace: Optional[TraceBus] = None,
        resume_frontier: int = 0,
        resume_margin: Optional[float] = None,
    ):
        if resume_frontier < 0:
            raise ValueError("resume_frontier must be >= 0")
        self.sim = sim
        self.config = config
        self._symbol_wire_size = config.symbol_wire_size
        self.blocks = block_manager
        self.trace = trace
        self.subflows: List[Subflow] = []
        self._subflow_by_id: dict = {}
        # resume_frontier restores a (possibly stale) sender checkpoint:
        # blocks below it were confirmed decoded in a previous epoch. If
        # the receiver got further than the checkpoint, its first
        # feedback fast-forwards this cursor and the dedup path absorbs
        # any blocks re-sent in between.
        self._decoded_frontier_seen = int(resume_frontier)
        self._decoded_out_of_order_seen: set = set()
        # A checkpointed margin carries a watchdog boost across a restart.
        self._margin = (
            resume_margin if resume_margin is not None else config.completeness_margin
        )
        # The production path's allocation ledger (``allocation ==
        # "eat"``). Callbacks update it; it is dropped (set to None, and
        # rebuilt by the next round) only by attach_subflows, a write to
        # ``margin``, a suspect / recovered / ready subflow, a quarantine
        # epoch reset, a probe, and, under flow control, every ACK.
        self._round: Optional[_RoundState] = None
        # End-to-end flow control (off unless config.flow_control): the
        # gate licenses which block ids may be *opened*; its prober keeps
        # a closed window from deadlocking the transfer.
        self._flow: Optional[ProbedGate] = None
        self.flow_gate: Optional[WindowGate] = None
        if config.flow_control:
            self._flow = ProbedGate(
                sim, config.recv_window_blocks, self._flow_blocked, self.pump_all
            )
            self.flow_gate = self._flow.gate
            if resume_frontier:
                # Seed the licence at the restored frontier so the gate
                # admits the blocks being re-opened; the first real ACK's
                # advertisement only ever raises it (monotone max).
                self.flow_gate.advertise(resume_frontier, config.recv_window_blocks)
        self.window_probes = 0
        # Statistics.
        self.packets_built = 0
        self.symbols_sent = 0
        self.symbols_lost = 0
        self.probes_sent = 0
        self.failover_probes_sent = 0
        self.suspect_events = 0

    def attach_subflows(self, subflows: Sequence[Subflow]) -> None:
        """Register the subflows this sender drives (done by the connection).

        Re-invoked on every ``add_subflow`` / ``remove_subflow`` so the EAT
        allocator re-enumerates the live path set; subflow ids are stable
        identities, not list indices.
        """
        self.subflows = list(subflows)
        self._subflow_by_id = {subflow.subflow_id: subflow for subflow in subflows}
        self._round = None

    @property
    def decoded_frontier(self) -> int:
        """Blocks below this id are confirmed decoded: the contiguous
        prefix the receiver's feedback has acknowledged."""
        return self._decoded_frontier_seen

    @property
    def margin(self) -> float:
        """Head-room beyond k̂ a block needs to count as δ̂-complete:
        log₂(1/δ̂), raised by the watchdog's boost."""
        return self._margin

    @margin.setter
    def margin(self, value: float) -> None:
        self._margin = value
        self._round = None

    # ------------------------------------------------------------------
    # Path-quality snapshots for the allocator.
    # ------------------------------------------------------------------
    def loss_rate_of(self, subflow_id: int) -> float:
        subflow = self._subflow_by_id.get(subflow_id)
        if subflow is None:
            # A removed subflow's id can linger in per-block accounting for
            # one allocation round; treat it as maximally lossy.
            return _MAX_LOSS
        aged = subflow.aged_loss_estimate(self.config.loss_estimate_half_life_s)
        return min(aged, _MAX_LOSS)

    def loss_snapshot(self) -> Dict[int, float]:
        """``loss_rate_of`` of every attached subflow, evaluated once.

        The estimate depends only on subflow state and ``sim.now``, neither
        of which moves within one transmission opportunity, so a round
        reads this instead of re-deriving the aged estimate per use.
        """
        half_life = self.config.loss_estimate_half_life_s
        snapshot = {}
        for subflow in self.subflows:
            # Without aging the estimate is the plain attribute. The clamp
            # is min(loss, _MAX_LOSS) without the call (NaN passes as min
            # passes it).
            loss = (
                subflow.loss_rate_estimate
                if half_life is None
                else subflow.aged_loss_estimate(half_life)
            )
            snapshot[subflow.subflow_id] = _MAX_LOSS if _MAX_LOSS < loss else loss
        return snapshot

    def _allocatable(self, include_suspect: bool = False) -> List[Subflow]:
        """The subflows Algorithm 1 counts on, in attach order.

        A joining subflow (``Subflow.is_joining``, read as its pending
        join event) is never among them. Potentially-failed ones are
        excluded by default: until one of their probes is acknowledged,
        Algorithm 1 must not count on them to deliver symbols (their stale
        RTT would otherwise keep winning EAT comparisons while everything
        they carry evaporates).
        """
        return [
            subflow
            for subflow in self.subflows
            if subflow._join_event is None
            and (include_suspect or not subflow.potentially_failed)
        ]

    def path_table(self, include_suspect: bool = False) -> PathTable:
        """A fresh path table, on a fresh :meth:`loss_snapshot`, of the
        subflows :meth:`_allocatable` names: the rows a round's path table
        holds, read by the same refresh, every EAT derived."""
        subflows = self._allocatable(include_suspect)
        paths = _path_table(subflows, self.loss_snapshot())
        _read_rows(paths, subflows, self.sim.now)
        return paths

    def path_estimates(self) -> List[PathEstimate]:
        """:meth:`path_table`'s rows as snapshots for the allocator."""
        return self.path_table().estimates()

    # ------------------------------------------------------------------
    # SubflowOwner: supply packets.
    # ------------------------------------------------------------------
    def _should_probe(self, subflow: Subflow) -> bool:
        """Idle-path probing (see ``_PROBE_INTERVAL_S``).

        Two triggers: the periodic one (idle for the interval), and the
        chain — a just-acknowledged probe on a still-distrusted path
        licenses the next probe immediately, so a healed path re-earns
        trust at one EWMA sample per RTT rather than per interval.
        """
        if subflow.in_flight > 0:
            return False
        if self.sim.now - subflow.last_transmit_at >= _PROBE_INTERVAL_S:
            return True
        return (
            subflow.last_ack_at is not None
            and self.sim.now - subflow.last_ack_at < 1e-3
            and self.loss_rate_of(subflow.subflow_id) > _PROBE_CHAIN_THRESHOLD
        )

    def _flow_admissible(self, pending) -> list:
        """Blocks the flow-control gate licenses for this opportunity.

        Already-opened blocks keep receiving symbols below the hard limit
        even while paused — they occupy receiver state, and completing
        them is what frees it. Unopened blocks additionally respect the
        watermark pause: backpressure stops *new* state being created.
        """
        gate = self.flow_gate
        return [
            block
            for block in pending
            if (
                block.block_id < gate.limit
                if block.symbols_generated > 0
                else gate.admits(block.block_id)
            )
        ]

    def _flow_blocked(self) -> bool:
        """True when data is pending but the gate licenses none of it."""
        pending = self.blocks.pending_blocks
        return bool(pending) and not self._flow_admissible(pending)

    def next_payload(self, subflow: Subflow) -> Optional[Tuple[Any, int]]:
        pending = self.blocks.pending_blocks
        if (
            len(pending) < self.config.max_pending_blocks
            and self.blocks.replenish()
            and self._round is not None
        ):
            self._round.append_rows()
        if not pending:
            return None
        flow = self._flow
        if flow is not None and flow.probe_due:
            # Zero-window probe: one symbol of the oldest pending block.
            # If the receiver's window is truly closed the symbol may be
            # discarded, but the packet is ACKed either way — and that
            # ACK carries the fresh advertisement that reopens the gate.
            flow.probe_due = False
            self.window_probes += 1
            return self._probe(subflow, pending[0], 1)
        if self.flow_gate is not None:
            pending = self._flow_admissible(pending)
            if not pending:
                return None
        if subflow.potentially_failed:
            # Dead-path probe: one greedily-filled packet of the *last*
            # pending block per backed-off RTO (the subflow's pump gating
            # caps it at one in flight). Useful symbols if the path turns
            # out alive, no urgent block held hostage if it does not.
            self.failover_probes_sent += 1
            return self._probe(subflow, pending[-1], self.config.symbols_per_packet)
        if (
            self.config.allocation == "eat"
            and not subflow._outstanding
            and self._should_probe(subflow)
        ):
            # Bypass the EAT ranking for one packet so the quarantined
            # path's quality estimate gets new evidence (an RTT sample or
            # a loss observation). The probe carries symbols of the *last*
            # pending block: useful if they arrive, but never puts the
            # most urgent block's delay at the mercy of a suspect path.
            return self._probe(subflow, pending[-1], self.config.symbols_per_packet)
        if self.config.allocation == "stopwait":
            # HMTP-style: hammer the first undecoded block on every
            # subflow until the receiver says it decoded (no prediction,
            # no EAT) — kept as the related-work baseline.
            result = AllocationResult(
                vector=[(pending[0].block_id, self.config.symbols_per_packet)]
            )
            return self._build_packet(subflow, result)
        if self.config.allocation == "eat":
            result = self._eat_round(subflow, pending)
            return None if result is None else self._build_packet(subflow, result)
        # A removed subflow's id can linger in per-block accounting; it
        # reads as maximally lossy, as loss_rate_of answers.
        losses = self.loss_snapshot()
        result = allocate_packet_greedy(
            pending_subflow_id=subflow.subflow_id,
            blocks=pending,
            loss_rate_of=lambda subflow_id: losses.get(subflow_id, _MAX_LOSS),
            mss=self.config.mss,
            symbol_wire_size=self.config.symbol_wire_size,
            margin=self._margin,
        )
        if result.is_empty():
            return None
        return self._build_packet(subflow, result)

    def _eat_round(
        self, subflow: Subflow, pending: List[PendingBlock]
    ) -> Optional[AllocationResult]:
        """Algorithm 1 for ``subflow`` over the settled ledger: the packet
        to build, or ``None`` when it is not to send."""
        state = self._ledger(pending)
        # Rule R1 first: when no block is short of k̂ + margin nobody
        # sends, and the paths need not be ranked to find that out.
        if state.first_short == len(pending):
            return None
        subflow_id = subflow.subflow_id
        if subflow_id in state.declined:
            return None
        result = allocate_packet(
            pending_subflow_id=subflow_id,
            estimates=self._paths(state),
            blocks=pending,
            loss_rate_of=state.loss_rate_of,
            mss=self.config.mss,
            symbol_wire_size=self._symbol_wire_size,
            margin=self._margin,
            expected=state,
        )
        if not result.vector:
            state.declined.add(subflow_id)
            return None
        return result

    def _paths(self, state: _RoundState) -> PathTable:
        """The ledger's path table, its rows refreshed at this instant.

        Built for the ledger's loss snapshot by the first round that ranks
        paths, and again whenever :meth:`_allocatable` no longer names its
        rows (a join completed, a subflow turned suspect or answered).
        Attach order is fixed for the ledger's life (``attach_subflows``
        drops it), so comparing membership compares the lists.
        """
        paths = state.paths
        rows = state.path_subflows
        if paths is not None:
            for subflow in self.subflows:
                allocatable = (
                    subflow._join_event is None and not subflow.potentially_failed
                )
                if allocatable != (subflow in rows):
                    paths = None
                    break
        if paths is None:
            rows = state.path_subflows = self._allocatable()
            paths = state.paths = _path_table(rows, state.losses)
        _read_rows(paths, rows, self.sim.now)
        return paths

    def _ledger(self, pending: List[PendingBlock]) -> _RoundState:
        """The ledger, settled at this instant for ``pending``.

        Built from scratch when there is none, when the loss snapshot
        moved (compared whenever time moved or an ACK or loss arrived,
        which keeps an aged estimate exact), and under flow control when
        the admissible list or the instant changed.
        """
        now = self.sim.now
        state = self._round
        losses = None
        if state is not None and self.flow_gate is not None and (
            state.now != now or state.blocks != pending
        ):
            state = None
        if state is not None and (state.now != now or state.sampled):
            losses = self.loss_snapshot()
            if losses != state.losses:
                state = None
        if state is None:
            if losses is None:
                losses = self.loss_snapshot()
            state = self._round = _RoundState(now, pending, self._margin, losses)
        elif state.now != now or state.sampled or state.marked:
            state.settle(now)
        return state

    def _probe(
        self, subflow: Subflow, block: PendingBlock, count: int
    ) -> Tuple[FmtcpSegmentPayload, int]:
        """A packet of ``count`` symbols of ``block`` outside Algorithm 1.
        Its l_b^f moves outside a round, so the ledger is dropped and the
        next round rebuilds it."""
        self.probes_sent += 1
        self._round = None
        return self._build_packet(
            subflow, AllocationResult(vector=[(block.block_id, count)])
        )

    def _build_packet(
        self, subflow: Subflow, result: AllocationResult
    ) -> Tuple[FmtcpSegmentPayload, int]:
        groups = []
        size = 0
        span_live = self.trace is not None and "span.symbols_tx" in self.trace.live
        state = self._round  # Settled by this round's _ledger, or None.
        for block_id, count in result.vector:
            block = self.blocks.block_by_id(block_id)
            if block is None:  # Decoded since allocation ran; skip quietly.
                continue
            symbols = None
            if block.encoder is not None:
                symbols = [block.encoder.next_symbol() for __ in range(count)]
            groups.append(
                SymbolGroup(
                    block_id=block_id,
                    count=count,
                    block_k=block.k,
                    block_bytes=block.data_bytes,
                    symbols=symbols,
                    block_crc=block.block_crc,
                )
            )
            if span_live:
                self.trace.emit(
                    self.sim.now,
                    "span.symbols_tx",
                    block_id=block_id,
                    subflow=subflow.subflow_id,
                    n=count,
                    first=block.first_tx_at is None,
                )
            block.record_sent(subflow.subflow_id, count, self.sim.now)
            if state is not None:
                state.note_sent(block)
            size += count * self._symbol_wire_size
            self.symbols_sent += count
        if not groups:
            return None  # type: ignore[return-value]
        self.packets_built += 1
        return FmtcpSegmentPayload(groups), size

    # ------------------------------------------------------------------
    # SubflowOwner: packet outcome bookkeeping (updates l_b^f of Eq. 8).
    # ------------------------------------------------------------------
    def _resolve_groups(self, subflow: Subflow, payload: FmtcpSegmentPayload) -> None:
        state = self._round
        for group in payload.groups:
            block = self.blocks.block_by_id(group.block_id)
            if block is not None:
                block.record_resolved(subflow.subflow_id, group.count)
                if state is not None:
                    state.marked.append(block)
        if state is not None:
            state.sampled = True

    def on_payload_delivered(self, subflow: Subflow, info: SubflowPacketInfo) -> None:
        self._resolve_groups(subflow, info.payload)

    def on_payload_lost(
        self, subflow: Subflow, info: SubflowPacketInfo, reason: str
    ) -> None:
        payload: FmtcpSegmentPayload = info.payload
        self._resolve_groups(subflow, payload)
        self.symbols_lost += payload.total_symbols()
        if self.trace is not None and "span.symbols_lost" in self.trace.live:
            for group in payload.groups:
                self.trace.emit(
                    self.sim.now,
                    "span.symbols_lost",
                    block_id=group.block_id,
                    subflow=subflow.subflow_id,
                    n=group.count,
                    reason=reason,
                )
        # Losing symbols re-opens demand; give every subflow a chance to
        # carry the replacements (the allocator decides which one wins).
        self.pump_all()

    def release_abandoned(self, subflow: Subflow, info: SubflowPacketInfo) -> None:
        """Write off an in-flight packet of a subflow removed at runtime.

        Same accounting as a loss — the symbols' l_b^f contribution is
        subtracted, which lowers k̃ and re-opens demand on the surviving
        paths — but without the per-packet ``pump_all`` storm: the caller
        (``FmtcpConnection.remove_subflow``) drains the whole window first
        and pumps once. No retransmission happens by construction; the
        allocator simply routes fresh symbols elsewhere (Section III:
        rateless coding *is* the failover).
        """
        payload: FmtcpSegmentPayload = info.payload
        self._resolve_groups(subflow, payload)
        self.symbols_lost += payload.total_symbols()
        if self.trace is not None and "span.symbols_lost" in self.trace.live:
            for group in payload.groups:
                self.trace.emit(
                    self.sim.now,
                    "span.symbols_lost",
                    block_id=group.block_id,
                    subflow=subflow.subflow_id,
                    n=group.count,
                    reason="abandoned",
                )

    # ------------------------------------------------------------------
    # SubflowOwner: dead-path failover.
    # ------------------------------------------------------------------
    def on_subflow_suspect(self, subflow: Subflow) -> None:
        # The suspect path's in-flight symbols were already written off by
        # on_payload_lost; all that remains is to re-offer the reopened
        # demand to the live subflows (path_estimates now excludes the
        # suspect one, so the allocator routes around it).
        self.suspect_events += 1
        self._round = None
        self.pump_all()

    def on_subflow_recovered(self, subflow: Subflow) -> None:
        # An acknowledged probe readmits the path to the allocator; its
        # loss estimate still carries the quarantine pessimism, which the
        # probe-chaining mechanism pays down one EWMA sample per RTT.
        self._round = None
        self.pump_all()

    def on_subflow_ready(self, subflow: Subflow) -> None:
        # A joined subflow enters path_estimates from this instant; pump
        # everything so the allocator can start handing it symbols.
        self._round = None
        self.pump_all()

    # ------------------------------------------------------------------
    # SubflowOwner: receiver feedback (k̄ reports + decode confirmations).
    # ------------------------------------------------------------------
    def on_ack_feedback(self, subflow: Subflow, feedback: FmtcpFeedback) -> None:
        # k̄ reports, decode confirmations and the gate's licence all feed
        # the allocator. Under flow control the admissible list moves
        # with the licence, so the ledger is rebuilt.
        if self.flow_gate is not None:
            self._round = None
            if feedback.advertised_window is not None:
                self.flow_gate.advertise(
                    feedback.decoded_in_order, feedback.advertised_window
                )
        block_by_id = self.blocks.block_by_id
        quarantine = feedback.quarantine
        for block_id, k_bar in feedback.k_bar.items():
            block = block_by_id(block_id)
            # Outside a quarantine a report only ever raises k̄.
            if block is not None and (k_bar > block.k_bar or block_id in quarantine):
                self._fold_k_bar(block, k_bar, quarantine.get(block_id, 0))
        # A quarantined block with no re-received symbols yet reports no
        # k̄ entry at all — push its epoch (with k̄=0) so the stale rank is
        # reset and the EAT allocator starts feeding replacements.
        for block_id, epoch in quarantine.items():
            if block_id not in feedback.k_bar:
                block = block_by_id(block_id)
                if block is not None:
                    self._fold_k_bar(block, 0, epoch)
        frontier_before = frontier = self._decoded_frontier_seen
        while frontier < feedback.decoded_in_order:
            self._confirm_decoded(frontier)
            frontier += 1
            self._decoded_frontier_seen = frontier
        # The seen set holds only ids at or above the frontier: a stale
        # report's id below it is confirmed (a no-op) but not kept, and the
        # set is pruned only when the frontier moved.
        seen = self._decoded_out_of_order_seen
        for block_id in feedback.decoded_out_of_order:
            if block_id not in seen:
                if block_id >= frontier:
                    seen.add(block_id)
                self._confirm_decoded(block_id)
        if frontier != frontier_before and seen:
            self._decoded_out_of_order_seen = {
                block_id for block_id in seen if block_id >= frontier
            }
        if self._flow is not None:
            self._flow.sync()
        self.pump_all()

    def _fold_k_bar(self, block: PendingBlock, k_bar: int, epoch: int) -> None:
        """One k̄ report entry into the block and the ledger: a changed k̄
        marks the block's row, a quarantine epoch reset (k̄ overwritten
        wholesale) drops the ledger."""
        epoch_before, k_bar_before = block.quarantine_epoch, block.k_bar
        self.blocks.update_k_bar(block.block_id, k_bar, epoch)
        if block.quarantine_epoch != epoch_before:
            self._round = None
        elif block.k_bar != k_bar_before and self._round is not None:
            self._round.marked.append(block)

    def _confirm_decoded(self, block_id: int) -> None:
        block = self.blocks.block_by_id(block_id)
        if block is None:
            return
        if self._round is not None:
            self._round.drop(block)
        self.blocks.mark_decoded(block_id)
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

    def pump_all(self) -> None:
        for subflow in self.subflows:
            subflow.pump()

    def close(self) -> None:
        """Stop the zero-window prober (event-queue drain invariant)."""
        if self._flow is not None:
            self._flow.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FmtcpSender pending={len(self.blocks.pending_blocks)} "
            f"symbols_sent={self.symbols_sent} lost={self.symbols_lost}>"
        )
