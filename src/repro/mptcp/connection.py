"""The IETF-MPTCP baseline connection.

One sender, one receiver, N TCP subflows. Connection-level chunks (one
per packet, ``mss`` payload bytes) are sequenced by data sequence number
(DSN), striped over subflows, retransmitted on the *same* subflow when
lost (TCP semantics), and reassembled in DSN order through a bounded
:class:`~repro.mptcp.recv_buffer.ReorderBuffer` whose capacity throttles
the sender (flow control). Over one path with dead-path detection off
this is conventional TCP (:func:`conventional_tcp`).

Emitted trace records (shared vocabulary with FMTCP so metrics are
protocol-agnostic):

* ``conn.delivered`` — in-order bytes handed to the application.
* ``conn.block_done`` — a block's worth of stream fully acknowledged at
  the sender (field ``delay`` is the paper's block delivery delay).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

import zlib

from repro.net.integrity import payload_digest
from repro.net.topology import Path
from repro.robustness.flowcontrol import AppDrain, ProbedGate, ReceiveWindow, WindowGate
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.tcp.multipath import MultipathConfig, MultipathConnection
from repro.tcp.subflow import Subflow, SubflowOwner, SubflowPacketInfo
from repro.mptcp.recv_buffer import ReorderBuffer
from repro.mptcp.scheduler import make_scheduler


@dataclass
class MptcpConfig(MultipathConfig):
    """Tunables of the baseline (defaults follow DESIGN.md §3; the
    subflow, failover and flow-control fields are
    :class:`MultipathConfig`'s)."""

    # The reorder buffer's capacity, which is also the receive window of
    # the shared flow control, in chunks. With an instantly draining
    # application the licensed limit equals the local credit rule
    # (capacity minus unacknowledged chunks), so flow control changes
    # nothing until a drain model is set.
    recv_buffer_chunks: int = 64
    block_bytes: int = 8192
    # "minrtt" or "roundrobin" (repro.mptcp.scheduler).
    scheduler: str = "minrtt"
    # After this many timeouts of one chunk, reinject it on the currently
    # best other subflow (production-MPTCP rescue behaviour; off by default
    # to match the paper's baseline).
    reinject_after_timeouts: Optional[int] = None
    # Opportunistic retransmission and penalisation (Raiciu et al.,
    # NSDI'12): when the connection is receive-window limited, reinject
    # the head-of-line chunk on the best other subflow and halve the
    # blocking subflow's window. Off by default (the paper's baseline
    # predates it); the scheduler ablation measures how much of FMTCP's
    # advantage survives this stronger baseline.
    opportunistic_retransmission: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.recv_buffer_chunks < 1:
            raise ValueError("recv_buffer_chunks must be >= 1")
        if self.block_bytes < 1:
            raise ValueError(f"block_bytes must be >= 1, got {self.block_bytes}")
        if self.scheduler not in ("minrtt", "roundrobin"):
            raise ValueError(f"unknown scheduler kind {self.scheduler!r}")


def _dss_checksum(dsn: int, size: int, payload_bytes: Optional[bytes]) -> int:
    """The DSS-option checksum of one chunk (RFC 8684 §3.3 analogue)."""
    header = f"dss:{dsn}:{size}:".encode()
    return zlib.crc32(payload_digest(payload_bytes), zlib.crc32(header))


class Chunk:
    """One connection-level data unit (rides in exactly one packet).

    ``dss_checksum`` covers the data-sequence header and payload —
    MPTCP's connection-level integrity check. Like the link CRC
    (``integrity.seal_deferred``) it is promised at creation and computed
    only when some copy could fail it: a chunk's wire fields change only in
    :meth:`integrity_mutate`, which stamps the pristine chunk's checksum
    into the damaged copy. That copy (even in a packet that re-seals the
    link CRC) no longer matches and is discarded by
    :meth:`MptcpConnection._receiver_on_segment`; an unstamped chunk
    (``None``) is undamaged by construction and is not re-hashed.
    """

    __slots__ = (
        "dsn",
        "size",
        "payload_bytes",
        "first_sent_at",
        "timeouts",
        "dss_checksum",
    )

    def __init__(self, dsn: int, size: int, payload_bytes: Optional[bytes], sent_at: float):
        self.dsn = dsn
        self.size = size
        self.payload_bytes = payload_bytes
        self.first_sent_at = sent_at
        self.timeouts = 0
        self.dss_checksum: Optional[int] = None

    def integrity_digest(self) -> bytes:
        # Only immutable wire fields: first_sent_at/timeouts are sender
        # bookkeeping that mutates while copies of the chunk are in flight.
        return (
            f"chunk:{self.dsn}:{self.size}:".encode()
            + payload_digest(self.payload_bytes)
        )

    def integrity_mutate(self, rng) -> Optional["Chunk"]:
        """A bit-flipped copy carrying the original's (now stale) DSS
        checksum, or ``None`` when the payload is synthetic (int mode)."""
        if not self.payload_bytes:
            return None
        data = bytearray(self.payload_bytes)
        index = rng.randrange(len(data))
        data[index] ^= 1 << rng.randrange(8)
        mutated = Chunk(self.dsn, self.size, bytes(data), self.first_sent_at)
        checksum = self.dss_checksum
        if checksum is None:  # pristine; a damaged copy keeps the original's
            checksum = _dss_checksum(self.dsn, self.size, self.payload_bytes)
        mutated.dss_checksum = checksum
        return mutated


class MptcpFeedback:
    """Receiver state piggybacked on every subflow ACK."""

    __slots__ = ("data_ack", "advertised_window")

    def __init__(self, data_ack: int, advertised_window: int):
        self.data_ack = data_ack
        self.advertised_window = advertised_window

    def integrity_digest(self) -> bytes:
        return f"mpfb:{self.data_ack}:{self.advertised_window}".encode()


PullResult = Union[int, bytes, None]


class MptcpConnection(MultipathConnection, SubflowOwner):
    """Sender + receiver pair of the baseline protocol."""

    _removed_field = "reinjected"

    def __init__(
        self,
        sim: Simulator,
        paths: Sequence[Path],
        source,
        config: Optional[MptcpConfig] = None,
        trace: Optional[TraceBus] = None,
        sink: Optional[Callable[[Chunk], None]] = None,
        resume=None,
    ):
        config = config or MptcpConfig()
        self.source = source
        self.sink = sink
        self.scheduler = make_scheduler(config.scheduler)
        self._retx_queues: Dict[int, Deque[Chunk]] = {}
        super().__init__(
            sim,
            paths,
            config,
            trace,
            owner=self,
            on_segment=self._receiver_on_segment,
            feedback_provider=self._receiver_feedback,
        )

        # ---- sender state ----
        self._next_dsn = 0
        self._data_acked = 0
        self._chunk_sizes: Dict[int, int] = {}
        # Chunks owed when a subflow is removed with no live survivor to
        # take them; drained (ahead of fresh data) by whichever subflow
        # next has a transmission opportunity.
        self._orphan_chunks: Deque[Chunk] = deque()
        # Block id -> time its first byte was sent.
        self._block_first_tx: Dict[int, float] = {}
        self._pulled_stream_bytes = 0
        self._completed_blocks = 0
        self._acked_bytes = 0
        self.chunks_retransmitted = 0
        self.chunks_reinjected = 0
        self.chunks_probe_duplicates = 0
        self.failover_events = 0
        self.orp_reinjections = 0
        self.orp_penalties = 0
        self._orp_last_dsn = -1
        self._chunk_registry: Dict[int, Tuple[int, Chunk]] = {}

        # ---- receiver state ----
        self._reorder = ReorderBuffer(
            self.config.recv_buffer_chunks,
            trace=trace,
            clock=lambda: sim.now,  # captures the simulator, not the connection
        )
        self.delivered_bytes = 0
        self.delivered_chunks = 0
        self.chunks_discarded_checksum = 0

        # ---- end-to-end flow control (off unless config.flow_control) ----
        self.recv_window: Optional[ReceiveWindow] = None
        self._flow: Optional[ProbedGate] = None
        self.flow_gate: Optional[WindowGate] = None
        if config.flow_control:
            self.recv_window = ReceiveWindow(config.recv_buffer_chunks)
            self._flow = ProbedGate(
                sim, config.recv_buffer_chunks, self._flow_blocked, self.pump
            )
            self.flow_gate = self._flow.gate
        # In-order chunks awaiting a finite-rate application.
        self._drain = AppDrain.modelled_by(sim, config, self._deliver_chunk)
        self._last_chunk: Optional[Chunk] = None
        self.drained_chunks = 0
        self.chunks_window_discarded = 0
        self.window_probes = 0

        if resume is not None:
            self._apply_resume(resume)

    def _apply_resume(self, resume) -> None:
        """Restore checkpointed endpoint state after a crash-recovery epoch.

        Unlike FMTCP — whose ratelessness lets a restarted endpoint simply
        resume at a block frontier and stream fresh symbols — MPTCP must
        reconstruct exact chunk-level sequencing: the DSN cursor, the
        acked-byte count, and the reorder buffer's in-order frontier all
        restart from the checkpoint (the chunk map of unacked sizes is
        dropped with the epoch; those chunks are re-pulled from the rewound
        source). ``resume`` is duck-typed; see
        :class:`repro.recovery.checkpoint.ResumeState`.
        """
        sender_frontier = int(resume.sender_frontier)
        sender_bytes = int(resume.sender_byte_offset)
        receiver_frontier = int(resume.receiver_frontier)
        if sender_frontier < 0 or sender_bytes < 0 or receiver_frontier < 0:
            raise ValueError("resume frontiers must be >= 0")
        self._next_dsn = sender_frontier
        self._data_acked = sender_frontier
        self._acked_bytes = sender_bytes
        self._pulled_stream_bytes = sender_bytes
        self._completed_blocks = sender_bytes // self.config.block_bytes
        self._reorder = ReorderBuffer(
            self.config.recv_buffer_chunks,
            trace=self.trace,
            clock=self._reorder.clock,
            start_seq=receiver_frontier,
        )
        self.delivered_chunks = receiver_frontier
        self.drained_chunks = receiver_frontier
        self.delivered_bytes = int(resume.receiver_bytes)
        if self.recv_window is not None and receiver_frontier:
            self.recv_window.on_drained(receiver_frontier)
        if self.flow_gate is not None and sender_frontier:
            self.flow_gate.advertise(sender_frontier, self.config.recv_buffer_chunks)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (call once the simulation is assembled)."""
        self.pump()

    def close(self) -> None:
        if self._flow is not None:
            self._flow.close()
        if self._drain is not None:
            self._drain.close()
        super().close()

    def sever_receiver(self) -> int:
        if self._drain is not None:
            self._drain.close()
        return super().sever_receiver()

    # ------------------------------------------------------------------
    # Skeleton hooks: what MPTCP does when the subflow set changes.
    # ------------------------------------------------------------------
    def _subflow_attached(self, subflow: Subflow) -> None:
        self._retx_queues[subflow.subflow_id] = deque()

    def _settle_removed(self, subflow: Subflow, infos: List[SubflowPacketInfo]) -> int:
        """Reinject everything the removed subflow owed.

        Unlike FMTCP — where abandoned symbols are simply written off and
        fresh ones generated — MPTCP owes the receiver these exact bytes:
        every unacked chunk the subflow had in flight or queued for
        retransmission is moved to the best live subflow (updating the
        chunk registry so ORP and probes keep pointing at a live carrier),
        or parked in the orphan queue if no live subflow remains. The
        scheduler's preference order and the waterfall credit reservations
        rebalance automatically because both iterate the live subflow
        list. Returns the number of chunks reinjected/orphaned.
        """
        queue = self._retx_queues.pop(subflow.subflow_id)

        # Collect unacked chunks, deduplicating (a chunk declared lost sits
        # in the retx queue while a later copy may also be in flight).
        owed: Dict[int, Chunk] = {}
        for info in infos:
            chunk: Chunk = info.payload
            if chunk.dsn >= self._data_acked:
                owed.setdefault(chunk.dsn, chunk)
        for chunk in queue:
            if chunk.dsn >= self._data_acked:
                owed.setdefault(chunk.dsn, chunk)

        live = [s for s in self.subflows if s.usable]
        target = min(live, key=lambda s: (s.srtt, s.subflow_id)) if live else None
        for chunk in owed.values():
            if target is not None:
                self._retx_queues[target.subflow_id].append(chunk)
                self._chunk_registry[chunk.dsn] = (target.subflow_id, chunk)
            else:
                self._orphan_chunks.append(chunk)
        if owed:
            self.chunks_reinjected += len(owed)
        return len(owed)

    # ------------------------------------------------------------------
    # Sender side: SubflowOwner interface.
    # ------------------------------------------------------------------
    def next_payload(self, subflow: Subflow) -> Optional[Tuple[Any, int]]:
        retx_queue = self._retx_queues[subflow.subflow_id]
        while retx_queue:
            chunk = retx_queue.popleft()
            if chunk.dsn < self._data_acked:
                continue  # Delivered meanwhile via another copy.
            self.chunks_retransmitted += 1
            self._chunk_registry[chunk.dsn] = (subflow.subflow_id, chunk)
            if self.trace is not None and "span.chunk_retx" in self.trace.live:
                self.trace.emit(
                    self.sim.now,
                    "span.chunk_retx",
                    dsn=chunk.dsn,
                    subflow=subflow.subflow_id,
                )
            return chunk, chunk.size

        if subflow.potentially_failed:
            # A suspect path never pulls fresh data (it would strand it
            # behind the next blackout). Probe with a *duplicate* of the
            # head-of-line chunk instead: if the path is alive the ACK
            # readmits it, and a duplicate arrival is absorbed by the
            # reorder buffer either way.
            entry = self._chunk_registry.get(self._data_acked)
            if entry is None:
                return None
            __, chunk = entry
            self.chunks_probe_duplicates += 1
            return chunk, chunk.size

        # Chunks orphaned by a subflow removed during total blackout are
        # owed before any fresh data (the reorder buffer is blocked on
        # exactly these DSNs).
        while self._orphan_chunks:
            chunk = self._orphan_chunks.popleft()
            if chunk.dsn < self._data_acked:
                continue
            self.chunks_retransmitted += 1
            self._chunk_registry[chunk.dsn] = (subflow.subflow_id, chunk)
            if self.trace is not None and "span.chunk_retx" in self.trace.live:
                self.trace.emit(
                    self.sim.now,
                    "span.chunk_retx",
                    dsn=chunk.dsn,
                    subflow=subflow.subflow_id,
                )
            return chunk, chunk.size

        flow = self._flow
        if flow is not None and flow.probe_due:
            # Zero-window probe: a *duplicate* chunk the receiver absorbs
            # (and ACKs) even with a closed window; the ACK's feedback
            # carries the fresh advertisement that reopens the gate.
            flow.probe_due = False
            probe = self._probe_chunk()
            if probe is not None:
                self.window_probes += 1
                self.chunks_probe_duplicates += 1
                return probe, probe.size

        credit = self.config.recv_buffer_chunks - (self._next_dsn - self._data_acked)
        if self.flow_gate is not None:
            # The licensed limit generalises the local credit rule above
            # to application-drain awareness; take the stricter of the two.
            credit = min(credit, self.flow_gate.credit(self._next_dsn))
        if credit <= 0:
            if self.config.opportunistic_retransmission:
                reinjection = self._opportunistic_retransmit(subflow)
                if reinjection is not None:
                    return reinjection
            return None
        # Waterfall arbitration: more-preferred subflows (per the scheduler,
        # lowest SRTT by default) get first claim on scarce send credit; this
        # subflow may only take a chunk from what they cannot use. Suspect
        # subflows reserve nothing — their (stale) window space must not
        # starve the paths that still deliver.
        scheduler = self.scheduler
        if scheduler.stateful:
            # Consulting it moves its state: an ask repeated now would get
            # another answer, so it must not be skipped as a second ask.
            self.supply_epoch += 1
        if credit <= scheduler.reserved_ahead(subflow, self.subflows):
            return None

        pulled: PullResult = self.source.pull(self.config.mss)
        if not pulled:
            return None
        if isinstance(pulled, bytes):
            size = len(pulled)
            payload_bytes: Optional[bytes] = pulled
        else:
            size = int(pulled)
            payload_bytes = None
        now = self.sim.now
        dsn = self._next_dsn
        chunk = Chunk(dsn, size, payload_bytes, now)
        self._chunk_registry[dsn] = (subflow.subflow_id, chunk)
        self._last_chunk = chunk
        self._next_dsn = dsn + 1
        self._chunk_sizes[dsn] = size
        block_id = self._pulled_stream_bytes // self.config.block_bytes
        self._pulled_stream_bytes += size
        self._block_first_tx.setdefault(block_id, now)
        trace = self.trace
        if trace is not None and "span.chunk_tx" in trace.live:
            trace.emit(
                now,
                "span.chunk_tx",
                dsn=dsn,
                block=block_id,
                subflow=subflow.subflow_id,
                size=size,
            )
        return chunk, size

    def on_payload_lost(self, subflow: Subflow, info: SubflowPacketInfo, reason: str) -> None:
        chunk: Chunk = info.payload
        if chunk.dsn < self._data_acked:
            return  # Already delivered; nothing to repair.
        if self.trace is not None and "span.chunk_lost" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "span.chunk_lost",
                dsn=chunk.dsn,
                subflow=subflow.subflow_id,
                reason=reason,
            )
        if reason == "timeout":
            chunk.timeouts += 1
            limit = self.config.reinject_after_timeouts
            if limit is not None and chunk.timeouts >= limit and len(self.subflows) > 1:
                target = self._best_other_subflow(subflow)
                self._retx_queues[target.subflow_id].append(chunk)
                self.chunks_reinjected += 1
                target.pump()
                return
        self._retx_queues[subflow.subflow_id].append(chunk)

    def on_ack_feedback(self, subflow: Subflow, feedback: MptcpFeedback) -> None:
        if self._flow is not None:
            # Fold the advertisement in even on duplicate data ACKs —
            # zero-window probe responses are exactly that.
            was_blocked = self._flow_blocked()
            self.flow_gate.advertise(feedback.data_ack, feedback.advertised_window)
            if not self._flow.sync() and was_blocked:
                self.pump()
        if feedback.data_ack <= self._data_acked:
            return
        for dsn in range(self._data_acked, feedback.data_ack):
            self._acked_bytes += self._chunk_sizes.pop(dsn, self.config.mss)
            self._chunk_registry.pop(dsn, None)
        self._data_acked = feedback.data_ack
        self._emit_completed_blocks()
        # Credit may have opened for every subflow, not just the ACKed one.
        self.pump()

    def _emit_completed_blocks(self) -> None:
        """Block accounting of the byte stream (paper Section V: the
        stream is partitioned into blocks of the same length as FMTCP's
        and delay is measured per block, first transmission to full
        acknowledgement)."""
        while self._acked_bytes >= (self._completed_blocks + 1) * self.config.block_bytes:
            block_id = self._completed_blocks
            started = self._block_first_tx.pop(block_id, None)
            if (
                started is not None
                and self.trace is not None
                and "conn.block_done" in self.trace.live
            ):
                self.trace.emit(
                    self.sim.now,
                    "conn.block_done",
                    block_id=block_id,
                    delay=self.sim.now - started,
                )
            self._completed_blocks += 1

    def _opportunistic_retransmit(self, subflow: Subflow):
        """NSDI'12 ORP: when rwnd-limited, re-send the head-of-line chunk
        on this (non-blocking) subflow and penalise the blocker."""
        hol_dsn = self._data_acked
        entry = self._chunk_registry.get(hol_dsn)
        if entry is None:
            return None
        blocker_id, chunk = entry
        if blocker_id == subflow.subflow_id:
            return None  # we ARE the blocking subflow
        if hol_dsn == self._orp_last_dsn:
            return None  # already reinjected this head-of-line chunk
        self._orp_last_dsn = hol_dsn
        blocker = self._subflow_by_id.get(blocker_id)
        if blocker is not None:
            blocker.cc.on_fast_loss()  # the penalisation half of ORP
            self.orp_penalties += 1
        self.orp_reinjections += 1
        self._chunk_registry[hol_dsn] = (subflow.subflow_id, chunk)
        return chunk, chunk.size

    # ------------------------------------------------------------------
    # Dead-path failover (SubflowOwner hooks).
    # ------------------------------------------------------------------
    def on_subflow_suspect(self, subflow: Subflow) -> None:
        """Reinject the declared-dead subflow's repair queue on live paths.

        By the time the consecutive-RTO threshold fires, everything the
        subflow had in flight has been declared lost into its retx queue;
        moving that queue to the best live subflow is what un-wedges the
        connection (the reorder buffer is blocked on exactly these DSNs).
        """
        self.failover_events += 1
        live = [s for s in self.subflows if s is not subflow and s.usable]
        if not live:
            return  # Total blackout: every path probes for itself.
        target = min(live, key=lambda s: (s.srtt, s.subflow_id))
        queue = self._retx_queues[subflow.subflow_id]
        moved = 0
        while queue:
            chunk = queue.popleft()
            if chunk.dsn < self._data_acked:
                continue
            self._retx_queues[target.subflow_id].append(chunk)
            self._chunk_registry[chunk.dsn] = (target.subflow_id, chunk)
            moved += 1
        if moved:
            self.chunks_reinjected += moved
            target.pump()

    def on_subflow_recovered(self, subflow: Subflow) -> None:
        # The path answered a probe; it may pull fresh data again, and the
        # other subflows' waterfall reservations change too.
        self.pump()

    def on_subflow_ready(self, subflow: Subflow) -> None:
        # MP_JOIN completed: the subflow now counts in the waterfall and
        # may pull orphaned or fresh chunks.
        self.pump()

    def _best_other_subflow(self, excluded: Subflow) -> Subflow:
        candidates = [s for s in self.subflows if s is not excluded]
        live = [s for s in candidates if s.usable]
        return min(live or candidates, key=lambda s: (s.srtt, s.subflow_id))

    # ------------------------------------------------------------------
    # Receiver side.
    # ------------------------------------------------------------------
    def _receiver_on_segment(self, subflow_id: int, segment):
        chunk: Chunk = segment.payload
        if chunk.dss_checksum is not None and chunk.dss_checksum != _dss_checksum(
            chunk.dsn, chunk.size, chunk.payload_bytes
        ):
            # Connection-level integrity failure (the corruption evaded the
            # link CRC). Returning False withholds the subflow ACK, so the
            # sender retransmits the chunk through the normal loss path.
            self.chunks_discarded_checksum += 1
            if self.trace is not None and "conn.discard_checksum" in self.trace.live:
                self.trace.emit(
                    self.sim.now,
                    "conn.discard_checksum",
                    subflow=subflow_id,
                    dsn=chunk.dsn,
                )
            return False
        if (
            self.recv_window is not None
            and chunk.dsn >= self._reorder.next_expected
            and not self.recv_window.admits(chunk.dsn)
        ):
            # An unlicensed fresh chunk (an honest sender never produces
            # one; duplicates used as probes fall below next_expected and
            # are absorbed above this check). Withholding the ACK makes
            # the sender retransmit once the window reopens.
            self.chunks_window_discarded += 1
            if self.trace is not None and "recv.window_discard" in self.trace.live:
                self.trace.emit(
                    self.sim.now,
                    "recv.window_discard",
                    dsn=chunk.dsn,
                    limit=self.recv_window.limit,
                )
            return False
        trace = self.trace
        if trace is not None and "span.chunk_rx" in trace.live:
            trace.emit(
                self.sim.now,
                "span.chunk_rx",
                dsn=chunk.dsn,
                subflow=subflow_id,
            )
        drain = self._drain
        for __, delivered in self._reorder.insert(chunk.dsn, chunk):
            if drain is not None:
                # A modelled application reads at a finite rate: the
                # chunk keeps occupying the receive window until the
                # drain timer consumes it.
                drain.push(delivered.size, delivered)
            else:
                self._deliver_chunk(delivered)
        if drain is not None:
            drain.schedule()

    def _deliver_chunk(self, delivered: Chunk) -> None:
        """Hand one in-order chunk to the application (= drain it)."""
        self.delivered_bytes += delivered.size
        self.delivered_chunks += 1
        self.drained_chunks += 1
        if self.recv_window is not None:
            self.recv_window.on_drained(1)
        if self.sink is not None:
            self.sink(delivered)
        trace = self.trace
        if trace is not None and "conn.delivered" in trace.live:
            trace.emit(
                self.sim.now,
                "conn.delivered",
                bytes=delivered.size,
                dsn=delivered.dsn,
            )

    def _receiver_feedback(self, subflow_id: int, segment) -> MptcpFeedback:
        if self.recv_window is not None:
            occupancy = self._reorder.occupancy + self.app_queue_chunks
            return MptcpFeedback(
                data_ack=self._reorder.next_expected,
                advertised_window=self.recv_window.advertise(
                    self._reorder.next_expected, occupancy
                ),
            )
        return MptcpFeedback(
            data_ack=self._reorder.next_expected,
            advertised_window=self._reorder.advertised_window,
        )

    # ------------------------------------------------------------------
    # Zero-window probing (flow-control extension).
    # ------------------------------------------------------------------
    def _flow_blocked(self) -> bool:
        """True when the licensed window admits no fresh chunk."""
        return self.flow_gate.blocked(self._next_dsn)

    def _probe_chunk(self) -> Optional[Chunk]:
        """A duplicate chunk the receiver will absorb and ACK regardless."""
        entry = self._chunk_registry.get(self._data_acked)
        if entry is not None:
            return entry[1]
        return self._last_chunk

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def data_acked(self) -> int:
        return self._data_acked

    @property
    def app_queue_chunks(self) -> int:
        """In-order chunks the modelled application has not read yet."""
        return self._drain.queued if self._drain is not None else 0

    def memory_stats(self) -> Dict[str, int]:
        """Live buffer occupancy per category (units: chunks/packets).

        Computed on demand from existing structures — no hot-path
        accounting. ``recv_occupancy`` is the protocol-agnostic key the
        exhaustion harness budgets against; ``recv_peak_occupancy``
        tracks its high-water mark so spikes between samples cannot hide.
        """
        occupancy = self._reorder.occupancy + self.app_queue_chunks
        if self.recv_window is not None:
            self.recv_window.observe_occupancy(occupancy)
            peak = self.recv_window.peak_occupancy
        else:
            peak = self._reorder.high_watermark
        return {
            "recv_occupancy": occupancy,
            "recv_peak_occupancy": peak,
            "recv_reorder_chunks": self._reorder.occupancy,
            "recv_app_queue_chunks": self.app_queue_chunks,
            "send_retx_queued": sum(len(q) for q in self._retx_queues.values()),
            "send_in_flight_packets": sum(sf.in_flight for sf in self.subflows),
            "send_registry_chunks": len(self._chunk_registry),
        }

    def _flow_counters(self):
        return (
            self.flow_gate,
            self.recv_window,
            self.window_probes,
            self.chunks_window_discarded,
            self.drained_chunks,
        )

    @property
    def reorder_buffer(self) -> ReorderBuffer:
        return self._reorder

    def corruption_stats(self) -> Dict[str, int]:
        """Integrity-layer counters, aggregated for telemetry and soaks."""
        return {
            **super().corruption_stats(),
            "chunks_discarded_checksum": self.chunks_discarded_checksum,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MptcpConnection subflows={len(self.subflows)} "
            f"dsn={self._next_dsn} acked={self._data_acked}>"
        )


def conventional_tcp(
    sim: Simulator,
    path: Path,
    source,
    config: Optional[MptcpConfig] = None,
    trace: Optional[TraceBus] = None,
    sink: Optional[Callable[[Chunk], None]] = None,
) -> MptcpConnection:
    """Conventional TCP — the paper's Section I comparator — is the
    baseline over one path with dead-path detection off.

    One path has nothing to fail over to, so a suspect verdict could only
    stop it pulling fresh data. That is stated here rather than inferred
    from ``len(paths)`` inside the connection: a mobility run starts on
    one path and adds another, and there failover must stay armed.
    """
    config = replace(config or MptcpConfig(), failover_rto_threshold=None)
    return MptcpConnection(sim, [path], source, config=config, trace=trace, sink=sink)
