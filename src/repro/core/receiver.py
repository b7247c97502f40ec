"""The FMTCP receiver.

Aggregates encoded symbols arriving on any subflow, tracks per-block
decoder rank (k̄_b), reports it on every ACK, and releases decoded blocks
to the application in stream order. In ``real`` coding mode the decoder
is the byte-level GF(2) codec; in the default ``statistical`` mode it is
the exact rank-evolution model (DESIGN.md §3.2).
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.config import FmtcpConfig
from repro.core.packets import FmtcpFeedback, FmtcpSegmentPayload
from repro.fountain.codec import BlockDecoder
from repro.fountain.rank_model import RankEvolutionModel
from repro.robustness.flowcontrol import AppDrain, ReceiveWindow
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus


Decoder = Union[BlockDecoder, RankEvolutionModel]


class _ActiveBlock:
    """Receiver-side state for a block still being decoded."""

    __slots__ = ("decoder", "block_bytes", "first_symbol_at", "block_crc")

    def __init__(
        self,
        decoder: Decoder,
        block_bytes: int,
        first_symbol_at: float,
        block_crc: Optional[int] = None,
    ):
        self.decoder = decoder
        self.block_bytes = block_bytes
        self.first_symbol_at = first_symbol_at
        self.block_crc = block_crc


class FmtcpReceiver:
    """Receiver half of an FMTCP connection."""

    def __init__(
        self,
        sim: Simulator,
        config: FmtcpConfig,
        trace: Optional[TraceBus] = None,
        rng: Optional[random.Random] = None,
        sink: Optional[Callable[[int, Optional[bytes]], None]] = None,
        resume_frontier: int = 0,
        resume_bytes: int = 0,
    ):
        if resume_frontier < 0 or resume_bytes < 0:
            raise ValueError("resume_frontier and resume_bytes must be >= 0")
        self.sim = sim
        self.config = config
        self.trace = trace
        self._rng = rng or random.Random()
        self.sink = sink

        self._active: Dict[int, _ActiveBlock] = {}
        # block_id -> decoder rank (k̄) of every active block, in _active's
        # order: feedback() copies it instead of asking every decoder.
        self._k_bar: Dict[int, int] = {}
        # Decoded but not yet deliverable in order: block_id -> (bytes, data)
        self._decoded_waiting: Dict[int, Tuple[int, Optional[bytes]]] = {}
        # resume_frontier/resume_bytes restore a recovery checkpoint: all
        # blocks below the frontier were handed to the application in a
        # previous epoch. Partial decode matrices are deliberately NOT
        # restored — fountain coding is rateless, so the sender simply
        # streams more symbols for whatever was mid-decode at the crash.
        self._deliver_next = int(resume_frontier)  # next block id owed to the app
        self._decode_frontier = int(resume_frontier)  # all below this decoded

        self.symbols_received = 0
        self.symbols_redundant = 0
        self.blocks_decoded = 0
        self.delivered_bytes = int(resume_bytes)
        self.decode_times: Dict[int, float] = {}
        # Decoder-poisoning quarantine: block_id -> eviction count. An
        # entry means the block's whole symbol basis was thrown away at
        # least once; the epoch rides in feedback() so the sender resets
        # its monotone-max k̄ view and supplies replacement symbols.
        self._quarantine_epochs: Dict[int, int] = {}
        self.blocks_quarantined = 0
        self.symbols_evicted = 0

        # End-to-end flow control (off unless config.flow_control): the
        # window licenses block ids; the app-drain queue models a reader
        # slower than the network (None drain rate = instant, as before).
        self.window: Optional[ReceiveWindow] = (
            ReceiveWindow(config.recv_window_blocks) if config.flow_control else None
        )
        if self.window is not None and resume_frontier:
            # Blocks delivered before the crash were drained by
            # definition (delivery *is* the durable commit), so the
            # licensed limit restarts at frontier + capacity.
            self.window.on_drained(resume_frontier)
        # Blocks decoded in order, awaiting the app.
        self._drain = AppDrain.modelled_by(sim, config, self._deliver_to_app)
        self.drained_blocks = int(resume_frontier)
        self.symbols_window_discarded = 0
        self.peak_buffered_blocks = 0

    # ------------------------------------------------------------------
    # Data path.
    # ------------------------------------------------------------------
    def on_segment(self, subflow_id: int, segment) -> None:
        payload: FmtcpSegmentPayload = segment.payload
        for group in payload.groups:
            self._absorb_group(group, subflow_id)

    def _absorb_group(self, group, subflow_id: int = -1) -> None:
        if (
            group.block_id < self._deliver_next
            or group.block_id in self._decoded_waiting
        ):  # Decoded already: every symbol is redundant.
            self.symbols_received += group.count
            self.symbols_redundant += group.count
            return
        active = self._active.get(group.block_id)
        if active is None:
            if self.window is not None and not self.window.admits(group.block_id):
                # An unlicensed block id (an honest sender only reaches
                # here with a zero-window probe): the symbols are
                # discarded, but the packet is still ACKed upstream, so
                # the probe elicits a fresh window advertisement.
                self.symbols_window_discarded += group.count
                if self.trace is not None and "recv.window_discard" in self.trace.live:
                    self.trace.emit(
                        self.sim.now,
                        "recv.window_discard",
                        block_id=group.block_id,
                        symbols=group.count,
                        limit=self.window.limit,
                    )
                return
            active = _ActiveBlock(
                decoder=self._make_decoder(group),
                block_bytes=group.block_bytes,
                first_symbol_at=self.sim.now,
                block_crc=group.block_crc,
            )
            self._active[group.block_id] = active
            self._k_bar[group.block_id] = 0
            if self.buffered_blocks > self.peak_buffered_blocks:
                self.peak_buffered_blocks = self.buffered_blocks
        if self.trace is not None and "span.symbols_rx" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "span.symbols_rx",
                block_id=group.block_id,
                subflow=subflow_id,
                n=group.count,
            )
        decoder = active.decoder
        if group.symbols is not None:
            for symbol in group.symbols:
                if not decoder.add_symbol(symbol):
                    self.symbols_redundant += 1
                self.symbols_received += 1
        else:
            # Symbol-less groups only exist in statistical mode (rank model).
            self.symbols_redundant += group.count - decoder.add_symbols(group.count)
            self.symbols_received += group.count
        self._k_bar[group.block_id] = decoder.independent_symbols
        if getattr(decoder, "poisoned", False):
            # A contradictory GF(2) row proved a corrupted symbol sits in
            # (or just hit) the basis. The culprit is unidentifiable, so
            # the whole basis is suspect: evict it all.
            self._quarantine(group.block_id, active, reason="gf2_inconsistent")
            return
        if decoder.is_complete:
            self._finish_block(group.block_id, active)

    def _make_decoder(self, group) -> Decoder:
        if self.config.coding == "real":
            return BlockDecoder(
                k=group.block_k,
                part_size=self.config.symbol_size,
                data_length=group.block_bytes,
            )
        return RankEvolutionModel(group.block_k, rng=self._rng)

    def _quarantine(self, block_id: int, active: _ActiveBlock, reason: str) -> None:
        """Evict a poisoned block's entire decoder state.

        The next arriving symbol group recreates a fresh decoder; the
        bumped epoch (reported in every subsequent feedback) tells the
        sender to reset its k̄ view of this block and keep allocating
        until the rebuilt basis completes — with a verified CRC.
        """
        del self._active[block_id]
        del self._k_bar[block_id]
        evicted = int(active.decoder.independent_symbols)
        self.blocks_quarantined += 1
        self.symbols_evicted += evicted
        self._quarantine_epochs[block_id] = (
            self._quarantine_epochs.get(block_id, 0) + 1
        )
        if self.trace is not None and "fmtcp.block_quarantined" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "fmtcp.block_quarantined",
                block_id=block_id,
                reason=reason,
                evicted=evicted,
                epoch=self._quarantine_epochs[block_id],
            )

    def _finish_block(self, block_id: int, active: _ActiveBlock) -> None:
        data = None
        if isinstance(active.decoder, BlockDecoder):
            data = active.decoder.decode()
            if active.block_crc is not None and zlib.crc32(data) != active.block_crc:
                # The GF(2) system stayed consistent but decoded to the
                # wrong bytes: corrupted symbols entered the basis without
                # ever producing a contradictory row. The block CRC is the
                # backstop that keeps them away from the application.
                self._quarantine(block_id, active, reason="block_crc")
                return
        del self._active[block_id]
        del self._k_bar[block_id]
        self._quarantine_epochs.pop(block_id, None)
        self.blocks_decoded += 1
        self.decode_times[block_id] = self.sim.now
        if self.trace is not None and "fmtcp.block_decoded" in self.trace.live:
            decoder = active.decoder
            self.trace.emit(
                self.sim.now,
                "fmtcp.block_decoded",
                block_id=block_id,
                wait=self.sim.now - active.first_symbol_at,
                k=decoder.k,
                received=decoder.symbols_received,
                overhead=decoder.symbols_received - decoder.k,
            )
        self._decoded_waiting[block_id] = (active.block_bytes, data)
        while self._decode_frontier in self._decoded_waiting or (
            self._decode_frontier < self._deliver_next
        ):
            self._decode_frontier += 1
        self._deliver_in_order()

    def _deliver_in_order(self) -> None:
        while self._deliver_next in self._decoded_waiting:
            block_bytes, data = self._decoded_waiting.pop(self._deliver_next)
            if self._drain is not None:
                # A modelled application reads at a finite rate: the
                # block stays in the app queue (still occupying the
                # receive window) until the drain timer consumes it.
                self._drain.push(block_bytes, self._deliver_next, block_bytes, data)
            else:
                self._deliver_to_app(self._deliver_next, block_bytes, data)
            self._deliver_next += 1
        if self._decode_frontier < self._deliver_next:
            self._decode_frontier = self._deliver_next
        if self._drain is not None:
            self._drain.schedule()

    def _deliver_to_app(
        self, block_id: int, block_bytes: int, data: Optional[bytes]
    ) -> None:
        """Hand one in-order block to the application (= drain it)."""
        self.delivered_bytes += block_bytes
        self.drained_blocks += 1
        if self.window is not None:
            self.window.on_drained(1)
        if self.sink is not None:
            self.sink(block_id, data)
        if self.trace is not None and "conn.delivered" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "conn.delivered",
                bytes=block_bytes,
                block_id=block_id,
            )

    # ------------------------------------------------------------------
    # Feedback for ACK piggybacking (Eq. 8's k̄ channel).
    # ------------------------------------------------------------------
    def feedback(self) -> FmtcpFeedback:
        # Every waiting id is above the decode frontier: _finish_block moves
        # the frontier past each id it files there, and _deliver_in_order
        # pops the run below it.
        decoded_out_of_order = tuple(self._decoded_waiting)
        advertised_window = None
        if self.window is not None:
            advertised_window = self.window.advertise(
                self._decode_frontier, self.buffered_blocks
            )
        return FmtcpFeedback(
            k_bar=dict(self._k_bar),
            decoded_in_order=self._decode_frontier,
            decoded_out_of_order=decoded_out_of_order,
            # Entries are popped on successful decode, so this is exactly
            # the set of still-undecoded blocks with evicted bases (empty
            # on a clean connection — zero feedback overhead).
            quarantine=dict(self._quarantine_epochs),
            advertised_window=advertised_window,
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def decoder_stats(self) -> List[Dict[str, float]]:
        """Per-active-block decoder progress for the telemetry sampler.

        One entry per undecoded block holding symbols: rank (k̄), rank
        deficit (k − k̄), symbols received, overhead beyond rank, and the
        block's age since its first symbol arrived.
        """
        stats = []
        for block_id in sorted(self._active):
            active = self._active[block_id]
            decoder = active.decoder
            k = decoder.k
            rank = int(decoder.independent_symbols)
            received = decoder.symbols_received
            stats.append(
                {
                    "block_id": block_id,
                    "k": k,
                    "rank": rank,
                    "deficit": max(0, k - rank),
                    "received": received,
                    "overhead": max(0, received - rank),
                    "age_s": self.sim.now - active.first_symbol_at,
                }
            )
        return stats

    @property
    def buffered_blocks(self) -> int:
        """Blocks currently occupying the receive buffer (all stages:
        active decoders, decoded-out-of-order, and the app-drain queue)."""
        return len(self._active) + len(self._decoded_waiting) + self.app_queue_blocks

    @property
    def active_blocks(self) -> int:
        return len(self._active)

    @property
    def waiting_blocks(self) -> int:
        return len(self._decoded_waiting)

    @property
    def app_queue_blocks(self) -> int:
        return self._drain.queued if self._drain is not None else 0

    @property
    def delivered_blocks(self) -> int:
        return self._deliver_next

    def close(self) -> None:
        """Cancel the app-drain timer (event-queue drain invariant)."""
        if self._drain is not None:
            self._drain.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FmtcpReceiver delivered={self._deliver_next} "
            f"active={len(self._active)} waiting={len(self._decoded_waiting)}>"
        )
