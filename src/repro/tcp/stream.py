"""A conventional single-path TCP connection.

The paper's introduction contrasts FMTCP/MPTCP against "conventional
TCP"; this class provides that comparator as a first-class transport: one
Reno-controlled subflow, chunk retransmission on loss, in-order delivery
to the application, and the same trace vocabulary as the multipath
transports (``conn.delivered`` / ``conn.block_done``) so the metric stack
applies unchanged. It is also the competitor flow in the shared-
bottleneck fairness experiments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional, Tuple, Union

from repro.net.topology import Path
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.tcp.multipath import build_subflow
from repro.tcp.subflow import Subflow, SubflowOwner, SubflowPacketInfo


@dataclass
class TcpConfig:
    """Tunables of the plain TCP transport."""

    mss: int = 1400
    recv_buffer_chunks: int = 64
    block_bytes: int = 8192
    initial_cwnd: float = 2.0
    dup_ack_threshold: int = 3
    min_rto: float = 0.2


class _StreamChunk:
    __slots__ = ("seq", "size", "payload_bytes", "first_sent_at")

    def __init__(self, seq: int, size: int, payload_bytes: Optional[bytes], now: float):
        self.seq = seq
        self.size = size
        self.payload_bytes = payload_bytes
        self.first_sent_at = now


class _StreamFeedback:
    __slots__ = ("cumulative_ack",)

    def __init__(self, cumulative_ack: int):
        self.cumulative_ack = cumulative_ack


class StreamBlockDelay:
    """Block accounting of a byte-stream transport (paper Section V: the
    stream is partitioned into blocks of the same length as FMTCP's and
    delay is measured per block, first transmission to full
    acknowledgement). Shared by :class:`TcpConnection` and the MPTCP
    baseline, which keep the counters it reads: ``_acked_bytes``,
    ``_completed_blocks`` and ``_block_first_tx`` (block id -> time its
    first byte was sent)."""

    def _emit_completed_blocks(self) -> None:
        while self._acked_bytes >= (self._completed_blocks + 1) * self.config.block_bytes:
            block_id = self._completed_blocks
            started = self._block_first_tx.pop(block_id, None)
            if (
                started is not None
                and self.trace is not None
                and self.trace.has_subscribers("conn.block_done")
            ):
                self.trace.emit(
                    self.sim.now,
                    "conn.block_done",
                    block_id=block_id,
                    delay=self.sim.now - started,
                )
            self._completed_blocks += 1


class TcpConnection(StreamBlockDelay, SubflowOwner):
    """Reliable, in-order byte stream over one path."""

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        source,
        config: Optional[TcpConfig] = None,
        trace: Optional[TraceBus] = None,
        sink: Optional[Callable[[Any], None]] = None,
    ):
        self.sim = sim
        self.config = config or TcpConfig()
        self.source = source
        self.trace = trace
        self.sink = sink

        self.subflow, self._sink_endpoint = build_subflow(
            sim,
            path,
            self,
            0,
            self.config,
            self._receiver_on_segment,
            self._receiver_feedback,
            trace=trace,
        )
        self.subflows = [self.subflow]

        # Sender state.
        self._next_seq = 0
        self._cumulative_acked = 0
        self._retx_queue: Deque[_StreamChunk] = deque()
        self._chunk_sizes: Dict[int, int] = {}
        self._block_first_tx: Dict[int, float] = {}
        self._pulled_stream_bytes = 0
        self._acked_bytes = 0
        self._completed_blocks = 0
        self.chunks_retransmitted = 0

        # Receiver state.
        self._received: Dict[int, _StreamChunk] = {}
        self._deliver_next = 0
        self.delivered_bytes = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.pump()

    def pump(self) -> None:
        self.subflow.pump()

    def close(self) -> None:
        self.subflow.close()
        self._sink_endpoint.close()

    # ------------------------------------------------------------------
    # Sender side.
    # ------------------------------------------------------------------
    def next_payload(self, subflow: Subflow) -> Optional[Tuple[Any, int]]:
        while self._retx_queue:
            chunk = self._retx_queue.popleft()
            if chunk.seq < self._cumulative_acked:
                continue
            self.chunks_retransmitted += 1
            return chunk, chunk.size
        # Flow control: bound outstanding stream chunks by the receive buffer.
        if self._next_seq - self._cumulative_acked >= self.config.recv_buffer_chunks:
            return None
        pulled: Union[int, bytes, None] = self.source.pull(self.config.mss)
        if not pulled:
            return None
        if isinstance(pulled, bytes):
            size, payload = len(pulled), pulled
        else:
            size, payload = int(pulled), None
        chunk = _StreamChunk(self._next_seq, size, payload, self.sim.now)
        self._next_seq += 1
        self._chunk_sizes[chunk.seq] = size
        block_id = self._pulled_stream_bytes // self.config.block_bytes
        self._pulled_stream_bytes += size
        self._block_first_tx.setdefault(block_id, self.sim.now)
        return chunk, size

    def on_payload_lost(self, subflow: Subflow, info: SubflowPacketInfo, reason: str) -> None:
        chunk: _StreamChunk = info.payload
        if chunk.seq >= self._cumulative_acked:
            self._retx_queue.append(chunk)

    def on_ack_feedback(self, subflow: Subflow, feedback: _StreamFeedback) -> None:
        if feedback.cumulative_ack <= self._cumulative_acked:
            return
        for seq in range(self._cumulative_acked, feedback.cumulative_ack):
            self._acked_bytes += self._chunk_sizes.pop(seq, self.config.mss)
        self._cumulative_acked = feedback.cumulative_ack
        self._emit_completed_blocks()
        self.pump()

    # ------------------------------------------------------------------
    # Receiver side.
    # ------------------------------------------------------------------
    def _receiver_on_segment(self, subflow_id: int, segment) -> None:
        chunk: _StreamChunk = segment.payload
        if chunk.seq < self._deliver_next or chunk.seq in self._received:
            return  # duplicate
        self._received[chunk.seq] = chunk
        while self._deliver_next in self._received:
            delivered = self._received.pop(self._deliver_next)
            self.delivered_bytes += delivered.size
            if self.sink is not None:
                self.sink(delivered)
            if self.trace is not None and self.trace.has_subscribers("conn.delivered"):
                self.trace.emit(
                    self.sim.now,
                    "conn.delivered",
                    bytes=delivered.size,
                    seq=delivered.seq,
                )
            self._deliver_next += 1

    def _receiver_feedback(self, subflow_id: int, segment) -> _StreamFeedback:
        return _StreamFeedback(cumulative_ack=self._deliver_next)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def cumulative_acked(self) -> int:
        return self._cumulative_acked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection seq={self._next_seq} acked={self._cumulative_acked} "
            f"delivered={self.delivered_bytes}B>"
        )
