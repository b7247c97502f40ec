"""Sender-side block state and the δ-completeness predictor.

Implements Definitions 2-4 and Eq. (8) of the paper: for every pending
block the sender tracks the receiver-confirmed independent symbol count
k̄_b and the per-subflow in-flight symbol counts l_b^f, estimates

    k̃_b = k̄_b + Σ_f l_b^f · (1 − p_f)                     (Eq. 8)

and predicts the expected decoding failure probability δ̃_b = δ_b(k̃_b)
(Eq. 2). A block is δ̂-complete when δ̃_b < δ̂, equivalently when
k̃_b ≥ k̂_b + log₂(1/δ̂) — at which point rule R1 stops feeding it symbols.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, List, Optional, Union

from repro.core.config import FmtcpConfig
from repro.fountain.codec import BlockEncoder, SystematicBlockEncoder


class PendingBlock:
    """One block between creation and confirmed decode."""

    __slots__ = (
        "block_id",
        "k",
        "data_bytes",
        "payload",
        "encoder",
        "k_bar",
        "in_flight",
        "first_tx_at",
        "decoded",
        "symbols_generated",
        "block_crc",
        "quarantine_epoch",
    )

    def __init__(
        self,
        block_id: int,
        k: int,
        data_bytes: int,
        payload: Optional[bytes] = None,
        encoder: Optional[BlockEncoder] = None,
        block_crc: Optional[int] = None,
    ):
        self.block_id = block_id
        self.k = k
        self.data_bytes = data_bytes
        self.payload = payload
        self.encoder = encoder
        self.block_crc = block_crc
        # Highest receiver quarantine epoch seen in feedback; k̄ reports
        # from older epochs describe an evicted basis and are ignored.
        self.quarantine_epoch = 0
        self.k_bar = 0
        self.in_flight: Dict[int, int] = {}
        self.first_tx_at: Optional[float] = None
        self.decoded = False
        self.symbols_generated = 0

    def k_tilde(self, loss_rate_of: Callable[[int], float]) -> float:
        """Eq. (8): expected symbols the receiver will end up holding."""
        expected = float(self.k_bar)
        for subflow_id, count in self.in_flight.items():
            if count:
                expected += count * (1.0 - loss_rate_of(subflow_id))
        return expected

    def record_sent(self, subflow_id: int, count: int, now: float) -> None:
        self.in_flight[subflow_id] = self.in_flight.get(subflow_id, 0) + count
        self.symbols_generated += count
        if self.first_tx_at is None:
            self.first_tx_at = now

    def record_resolved(self, subflow_id: int, count: int) -> None:
        """Symbols left the congestion window (acknowledged or lost)."""
        current = self.in_flight.get(subflow_id, 0)
        self.in_flight[subflow_id] = max(0, current - count)


class BlockManager:
    """Creates blocks from the application stream and tracks their lifecycle.

    Keeps at most ``config.max_pending_blocks`` undecoded blocks alive,
    which doubles as the receive-buffer constraint of Section III-B (the
    receiver never holds symbols for more than that many blocks).
    """

    def __init__(
        self,
        config: FmtcpConfig,
        source,
        rng: Optional[random.Random] = None,
        trace=None,
        clock=None,
        start_block_id: int = 0,
    ):
        if start_block_id < 0:
            raise ValueError("start_block_id must be >= 0")
        self.config = config
        self.source = source
        self._rng = rng or random.Random()
        self._trace = trace
        self._clock = clock
        #: Undecoded blocks in stream order (the paper's set B). A plain
        #: attribute: every transmission opportunity reads it.
        self.pending_blocks: List[PendingBlock] = []
        # block_id -> block for everything pending, kept in step with it.
        self._by_id: Dict[int, PendingBlock] = {}
        #: ``block_by_id(block_id)``: the pending block with that id, or
        #: None. The map's own ``get``, so a lookup runs no Python frame.
        self.block_by_id: Callable[[int], Optional[PendingBlock]] = self._by_id.get
        # Nonzero when restoring from a recovery checkpoint: block ids
        # below the cursor were confirmed delivered in a previous epoch
        # (the source must be rewound to the matching stream offset).
        self._next_block_id = int(start_block_id)
        self.blocks_created = 0
        self.blocks_completed = 0
        self.source_exhausted = False

    def replenish(self) -> int:
        """Pull new blocks from the source up to the pending limit;
        returns how many joined the pending list."""
        added = 0
        while len(self.pending_blocks) < self.config.max_pending_blocks:
            block = self._create_block()
            if block is None:
                break
            self.pending_blocks.append(block)
            self._by_id[block.block_id] = block
            added += 1
        return added

    def _create_block(self) -> Optional[PendingBlock]:
        pulled: Union[int, bytes, None] = self.source.pull(self.config.block_bytes)
        if not pulled:
            self.source_exhausted = True
            return None
        if isinstance(pulled, bytes):
            data_bytes = len(pulled)
            payload: Optional[bytes] = pulled
        else:
            data_bytes = int(pulled)
            payload = None
        k = max(1, -(-data_bytes // self.config.symbol_size))  # ceil division
        k = min(k, self.config.symbols_per_block)
        encoder = None
        block_crc = None
        if self.config.coding == "real":
            if payload is None:
                payload = bytes(data_bytes)
            block_crc = zlib.crc32(payload)
            encoder_class = (
                SystematicBlockEncoder if self.config.systematic else BlockEncoder
            )
            encoder = encoder_class(
                payload,
                k=k,
                part_size=self.config.symbol_size,
                rng=self._rng,
            )
        block = PendingBlock(
            block_id=self._next_block_id,
            k=k,
            data_bytes=data_bytes,
            payload=payload,
            encoder=encoder,
            block_crc=block_crc,
        )
        self._next_block_id += 1
        self.blocks_created += 1
        if self._trace is not None and "span.block_open" in self._trace.live:
            self._trace.emit(
                self._clock() if self._clock is not None else 0.0,
                "span.block_open",
                block_id=block.block_id,
                k=k,
                bytes=data_bytes,
            )
        return block

    def mark_decoded(self, block_id: int) -> Optional[PendingBlock]:
        """Receiver confirmed decode; retire the block from the pending set."""
        block = self._by_id.pop(block_id, None)
        if block is not None:
            block.decoded = True
            self.blocks_completed += 1
            self.pending_blocks.remove(block)
        return block

    def update_k_bar(self, block_id: int, k_bar: int, epoch: int = 0) -> None:
        """Fold a k̄ report from an ACK into sender state.

        Within one receiver quarantine epoch k̄ only grows, so the update
        is a monotone max (reordered ACKs are harmless). A report from a
        *newer* epoch means the receiver quarantined the block and evicted
        its basis: the stale k̄ is overwritten wholesale, so the EAT
        allocator starts feeding replacement symbols again. Reports from
        older epochs are stale and ignored.
        """
        block = self._by_id.get(block_id)
        if block is None:
            return
        if epoch > block.quarantine_epoch:
            block.quarantine_epoch = epoch
            block.k_bar = k_bar
        elif epoch == block.quarantine_epoch and k_bar > block.k_bar:
            block.k_bar = k_bar
