"""FMTCP connection facade: wires sender, receiver and subflows together.

Mirrors :class:`repro.mptcp.connection.MptcpConnection` so experiments can
swap protocols behind one interface (``start`` / ``pump`` / ``close`` plus
shared trace vocabulary: ``conn.delivered`` and ``conn.block_done``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.blocks import BlockManager
from repro.core.config import FmtcpConfig
from repro.core.receiver import FmtcpReceiver
from repro.core.sender import FmtcpSender
from repro.net.topology import Path
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.tcp.multipath import MultipathConnection
from repro.tcp.subflow import Subflow, SubflowPacketInfo


class FmtcpConnection(MultipathConnection):
    """One FMTCP transfer across a set of network paths."""

    _removed_field = "abandoned"

    def __init__(
        self,
        sim: Simulator,
        paths: Sequence[Path],
        source,
        config: Optional[FmtcpConfig] = None,
        trace: Optional[TraceBus] = None,
        rng: Optional[RngStreams] = None,
        sink: Optional[Callable[[int, Optional[bytes]], None]] = None,
        resume=None,
    ):
        config = config or FmtcpConfig()
        rng = rng or RngStreams(0)

        # ``resume`` (duck-typed; see repro.recovery.checkpoint.ResumeState)
        # restores a checkpointed endpoint pair after a crash: the block
        # cursor and sender frontier restart at the sender's last durable
        # checkpoint (the source must already be rewound to the matching
        # stream offset), the receiver at its delivered-block frontier.
        sender_frontier = int(resume.sender_frontier) if resume is not None else 0
        sender_margin = resume.sender_margin if resume is not None else None
        receiver_frontier = int(resume.receiver_frontier) if resume is not None else 0
        receiver_bytes = int(resume.receiver_bytes) if resume is not None else 0

        self.block_manager = BlockManager(
            config,
            source,
            rng=rng.get("fmtcp:encoder"),
            trace=trace,
            clock=lambda: sim.now,
            start_block_id=sender_frontier,
        )
        self.sender = FmtcpSender(
            sim,
            config,
            self.block_manager,
            trace=trace,
            resume_frontier=sender_frontier,
            resume_margin=sender_margin,
        )
        self.receiver = FmtcpReceiver(
            sim,
            config,
            trace=trace,
            rng=rng.get("fmtcp:rank"),
            sink=sink,
            resume_frontier=receiver_frontier,
            resume_bytes=receiver_bytes,
        )
        receiver = self.receiver  # the closure must not capture the connection
        super().__init__(
            sim,
            paths,
            config,
            trace,
            owner=self.sender,
            on_segment=receiver.on_segment,
            feedback_provider=lambda sf_id, segment: receiver.feedback(),
        )

    # ------------------------------------------------------------------
    # Skeleton hooks: what FMTCP does when the subflow set changes.
    # ------------------------------------------------------------------
    def _subflow_attached(self, subflow: Subflow) -> None:
        # The EAT allocator re-enumerates the path set; a JOINING subflow
        # enters it only once ACTIVE.
        self.sender.attach_subflows(self.subflows)

    def _settle_removed(self, subflow: Subflow, infos: List[SubflowPacketInfo]) -> int:
        """Write the removed subflow's in-flight symbols off.

        That lowers k̃ for the affected blocks and re-opens their demand,
        and the EAT allocator re-enumerates the survivors. Nothing is
        retransmitted: fresh fountain symbols flow to whichever path is
        expected to arrive first. Returns the packets written off.
        """
        for info in infos:
            self.sender.release_abandoned(subflow, info)
        self.sender.attach_subflows(self.subflows)
        return len(infos)

    # ------------------------------------------------------------------
    # Lifecycle (same surface as MptcpConnection).
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.pump()

    def close(self) -> None:
        self.sender.close()
        self.receiver.close()
        super().close()

    def sever_receiver(self) -> int:
        self.receiver.close()
        return super().sever_receiver()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def delivered_bytes(self) -> int:
        return self.receiver.delivered_bytes

    @property
    def delivered_blocks(self) -> int:
        return self.receiver.delivered_blocks

    def corruption_stats(self) -> dict:
        """Integrity-layer counters, aggregated for telemetry and soaks."""
        return {
            **super().corruption_stats(),
            "blocks_quarantined": self.receiver.blocks_quarantined,
            "symbols_evicted": self.receiver.symbols_evicted,
        }

    def memory_stats(self) -> dict:
        """Live buffer occupancy per category (units: blocks/packets).

        Computed on demand from existing structures — no hot-path
        accounting. ``recv_occupancy`` is the protocol-agnostic key the
        exhaustion harness budgets against; its peak is tracked in
        ``recv_peak_occupancy`` so a between-samples spike cannot hide.
        """
        receiver = self.receiver
        stats = {
            "recv_occupancy": receiver.buffered_blocks,
            "recv_peak_occupancy": receiver.peak_buffered_blocks,
            "recv_active_blocks": receiver.active_blocks,
            "recv_waiting_blocks": receiver.waiting_blocks,
            "recv_app_queue_blocks": receiver.app_queue_blocks,
            "send_pending_blocks": len(self.block_manager.pending_blocks),
            "send_in_flight_packets": sum(sf.in_flight for sf in self.subflows),
        }
        return stats

    def _flow_counters(self):
        receiver = self.receiver
        return (
            self.sender.flow_gate,
            receiver.window,
            self.sender.window_probes,
            receiver.symbols_window_discarded,
            receiver.drained_blocks,
        )

    def redundancy_ratio(self) -> float:
        """Symbols sent per symbol strictly needed (coding + loss overhead)."""
        needed = self.receiver.blocks_decoded * self.config.symbols_per_block
        if needed == 0:
            return 0.0
        return self.sender.symbols_sent / needed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FmtcpConnection subflows={len(self.subflows)} "
            f"delivered_blocks={self.delivered_blocks}>"
        )
