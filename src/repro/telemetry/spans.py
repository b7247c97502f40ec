"""Causal span tracing: where a block's end-to-end delay actually goes.

The paper's headline claims are latency-shaped (Figs. 5-7: FMTCP cuts
block transfer delay and jitter under lossy paths), but an end-to-end
delay number cannot say *which stage* dominates — EAT scheduling wait,
the wire, loss recovery, decode wait, or the in-order delivery queue.
This module decomposes it.

A :class:`BlockSpan` tracks one block through edge timestamps::

    open -> first_tx -> first_rx -> complete -> delivered

built from ``span.*`` trace records the transports emit (always behind
``TraceBus.live`` guards — zero cost with nobody attached)
plus the pre-existing ``fmtcp.block_decoded`` / ``conn.delivered``
records reused as the decode and delivery edges. Consecutive edges
define *additive* stages, so the conservation invariant

    sum(stage durations) == delivered - open == end-to-end block delay

holds by construction and is verified numerically (see
``tests/test_span_soak.py``: 30 seeds x {FMTCP, MPTCP}).

Stage vocabulary (FMTCP)::

    sched_wait    open -> first_tx     block creation until the EAT
                                       allocator first puts symbols on a
                                       wire (includes lazy per-packet
                                       encoding, which happens at tx)
    transmit      first_tx -> first_rx first symbol's flight, including
                                       link-queue wait
    decode_wait   first_rx -> complete accumulating rank k; inflated by
                                       loss recovery (fresh symbols, no
                                       retransmission)
    reorder_wait  complete -> delivered decoded but behind an undecoded
                                       earlier block (or the app queue)

Stage vocabulary (MPTCP): ``transmit`` (first chunk pulled -> first
chunk arrival), ``fill_wait`` (until every chunk of the block has
arrived — the decode_wait analogue, inflated by retransmissions) and
``reorder_wait`` (until the last chunk leaves the reorder buffer for the
application). A chunk is pulled at its first transmission, so
``open == first_tx`` and there is no separate sched_wait stage.

Loss recovery is a causal *annotation*, not an additive stage: it
overlaps transmit/decode_wait (FMTCP: time from a symbol loss until the
block next receives symbols; MPTCP: per-chunk loss-to-arrival gaps), so
adding it to the sum would double-count. It is reported alongside the
stages as ``loss_recovery_s`` / ``loss_episodes``.

Per-subflow child rollups (symbol/chunk tx, rx, lost counts) live in
``BlockSpan.legs`` — the parent/child causal link between per-symbol
edges and the block span.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.metrics.stats import mean, percentile
from repro.sim.trace import TraceBus, TraceRecord

# Every kind the collector consumes. The span.* family is emitted by the
# transports behind ``TraceBus.live`` guards; the last two are pre-existing
# records reused as the decode and delivery edges.
SPAN_KINDS = (
    "span.block_open",
    "span.symbols_tx",
    "span.symbols_rx",
    "span.symbols_lost",
    "span.chunk_tx",
    "span.chunk_retx",
    "span.chunk_rx",
    "span.chunk_lost",
    "fmtcp.block_decoded",
    "conn.delivered",
)

def _new_leg() -> Dict[str, int]:
    return {"tx": 0, "rx": 0, "lost": 0}


class BlockSpan:
    """One block's causal span: edge timestamps plus child rollups."""

    __slots__ = (
        "protocol",
        "block_id",
        "open_t",
        "first_tx_t",
        "first_rx_t",
        "complete_t",
        "delivered_t",
        "legs",
        "annotations",
    )

    def __init__(self, protocol: str, block_id: int):
        self.protocol = protocol
        self.block_id = block_id
        self.open_t: Optional[float] = None
        self.first_tx_t: Optional[float] = None
        self.first_rx_t: Optional[float] = None
        self.complete_t: Optional[float] = None
        self.delivered_t: Optional[float] = None
        # subflow_id -> {"tx": n, "rx": n, "lost": n} (symbols or chunks).
        self.legs: Dict[int, Dict[str, int]] = {}
        self.annotations: Dict[str, Any] = {}

    def leg(self, subflow_id: int) -> Dict[str, int]:
        leg = self.legs.get(subflow_id)
        if leg is None:
            leg = self.legs[subflow_id] = _new_leg()
        return leg

    @property
    def is_complete(self) -> bool:
        return None not in (
            self.open_t,
            self.first_tx_t,
            self.first_rx_t,
            self.complete_t,
            self.delivered_t,
        )

    def stage_durations(self) -> "OrderedDict[str, float]":
        """Additive per-stage durations (their sum IS the block delay)."""
        if not self.is_complete:
            raise ValueError(
                f"block {self.block_id} span is missing edges; "
                "stage decomposition needs all five"
            )
        if self.protocol == "fmtcp":
            return OrderedDict(
                (
                    ("sched_wait", self.first_tx_t - self.open_t),
                    ("transmit", self.first_rx_t - self.first_tx_t),
                    ("decode_wait", self.complete_t - self.first_rx_t),
                    ("reorder_wait", self.delivered_t - self.complete_t),
                )
            )
        return OrderedDict(
            (
                ("transmit", self.first_rx_t - self.open_t),
                ("fill_wait", self.complete_t - self.first_rx_t),
                ("reorder_wait", self.delivered_t - self.complete_t),
            )
        )

    @property
    def total_delay(self) -> float:
        """End-to-end block delay: open -> in-order delivery."""
        return self.delivered_t - self.open_t

    @property
    def conservation_error(self) -> float:
        """|sum of stages - total delay| — zero up to float rounding."""
        return abs(sum(self.stage_durations().values()) - self.total_delay)


class _MptcpBlockChunks:
    """Chunk-level bookkeeping backing one MPTCP block span."""

    __slots__ = ("dsns", "first_rx", "delivered", "lost_at", "closed")

    def __init__(self) -> None:
        self.dsns: Set[int] = set()
        self.first_rx: Dict[int, float] = {}
        self.delivered: Dict[int, float] = {}
        self.lost_at: Dict[int, float] = {}
        self.closed = False


class SpanCollector:
    """Builds :class:`BlockSpan` objects from trace records.

    Works both live (``attach`` subscribes to a :class:`TraceBus`) and
    offline (``feed`` consumes the dicts of
    :func:`repro.sim.tracefile.read_trace_file`). Events for blocks whose
    ``open`` edge was never seen (a trace started mid-run) are ignored,
    so partial traces degrade to fewer spans, not wrong ones.
    """

    def __init__(self) -> None:
        # (protocol, block_id) -> span still accumulating edges.
        self._open: Dict[Tuple[str, int], BlockSpan] = {}
        self.finished: List[BlockSpan] = []
        # Spans that reached delivery with a missing edge (partial trace).
        self.incomplete = 0
        # FMTCP loss-recovery episodes: block_id -> episode start time.
        self._fm_episode: Dict[int, float] = {}
        # MPTCP chunk state: block_id -> chunks, dsn -> block_id.
        self._mp_chunks: Dict[int, _MptcpBlockChunks] = {}
        self._dsn_block: Dict[int, int] = {}
        self._trace: Optional[TraceBus] = None

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------
    def attach(self, trace: TraceBus) -> None:
        """Subscribe to every span-relevant kind on ``trace``."""
        if self._trace is not None:
            raise RuntimeError("collector is already attached")
        self._trace = trace
        for kind in SPAN_KINDS:
            trace.subscribe(kind, self._on_record)

    def detach(self) -> None:
        if self._trace is None:
            return
        for kind in SPAN_KINDS:
            self._trace.unsubscribe(kind, self._on_record)
        self._trace = None

    def _on_record(self, record: TraceRecord) -> None:
        self.observe_event(record.time, record.kind, record.fields)

    def feed(self, records: Iterable[dict]) -> "SpanCollector":
        """Consume offline trace dicts (``t``/``kind`` + flat fields)."""
        for record in records:
            kind = record.get("kind")
            if kind in _HANDLED:
                fields = {
                    key: value
                    for key, value in record.items()
                    if key not in ("t", "kind")
                }
                self.observe_event(record.get("t", 0.0), kind, fields)
        return self

    # ------------------------------------------------------------------
    # Event routing.
    # ------------------------------------------------------------------
    def observe_event(self, t: float, kind: str, fields: Dict[str, Any]) -> None:
        handler = _HANDLED.get(kind)
        if handler is not None:
            handler(self, t, fields)

    # ---- FMTCP ----
    def _on_block_open(self, t: float, fields: Dict[str, Any]) -> None:
        block_id = fields["block_id"]
        span = BlockSpan("fmtcp", block_id)
        span.open_t = t
        span.annotations.update(
            k=fields.get("k"),
            bytes=fields.get("bytes"),
            symbols_tx=0,
            symbols_rx=0,
            symbols_lost=0,
            loss_episodes=0,
            loss_recovery_s=0.0,
        )
        self._open[("fmtcp", block_id)] = span

    def _fm_span(self, block_id: int) -> Optional[BlockSpan]:
        return self._open.get(("fmtcp", block_id))

    def _on_symbols_tx(self, t: float, fields: Dict[str, Any]) -> None:
        span = self._fm_span(fields["block_id"])
        if span is None:
            return
        n = fields.get("n", 1)
        if span.first_tx_t is None:
            span.first_tx_t = t
        span.leg(fields.get("subflow", -1))["tx"] += n
        span.annotations["symbols_tx"] += n

    def _on_symbols_rx(self, t: float, fields: Dict[str, Any]) -> None:
        block_id = fields["block_id"]
        span = self._fm_span(block_id)
        if span is None:
            return
        n = fields.get("n", 1)
        if span.first_rx_t is None:
            span.first_rx_t = t
        span.leg(fields.get("subflow", -1))["rx"] += n
        span.annotations["symbols_rx"] += n
        started = self._fm_episode.pop(block_id, None)
        if started is not None:
            # Fresh symbols arrived: the loss episode is being repaired.
            span.annotations["loss_recovery_s"] += t - started

    def _on_symbols_lost(self, t: float, fields: Dict[str, Any]) -> None:
        block_id = fields["block_id"]
        span = self._fm_span(block_id)
        if span is None:
            return
        n = fields.get("n", 1)
        span.leg(fields.get("subflow", -1))["lost"] += n
        span.annotations["symbols_lost"] += n
        if block_id not in self._fm_episode:
            self._fm_episode[block_id] = t
            span.annotations["loss_episodes"] += 1

    def _on_block_decoded(self, t: float, fields: Dict[str, Any]) -> None:
        block_id = fields["block_id"]
        span = self._fm_span(block_id)
        if span is None:
            return
        span.complete_t = t
        started = self._fm_episode.pop(block_id, None)
        if started is not None:
            # Decoding ends any open recovery episode by definition.
            span.annotations["loss_recovery_s"] += t - started

    # ---- MPTCP ----
    def _mp_span(
        self, block_id: int
    ) -> Tuple[Optional[BlockSpan], Optional[_MptcpBlockChunks]]:
        return self._open.get(("mptcp", block_id)), self._mp_chunks.get(block_id)

    def _on_chunk_tx(self, t: float, fields: Dict[str, Any]) -> None:
        block_id = fields["block"]
        key = ("mptcp", block_id)
        span = self._open.get(key)
        if span is None and block_id not in self._mp_chunks:
            span = BlockSpan("mptcp", block_id)
            # A chunk is pulled at its first transmission opportunity, so
            # the block opens on the wire: open == first_tx.
            span.open_t = span.first_tx_t = t
            span.annotations.update(
                bytes=0,
                chunks=0,
                retransmits=0,
                chunks_lost=0,
                loss_episodes=0,
                loss_recovery_s=0.0,
            )
            self._open[key] = span
            self._mp_chunks[block_id] = _MptcpBlockChunks()
            # Blocks partition the stream in order: a chunk of block b
            # proves every earlier block's chunk set is final.
            earlier_ids = [
                earlier_id
                for earlier_id, chunks in self._mp_chunks.items()
                if earlier_id < block_id and not chunks.closed
            ]
            for earlier_id in earlier_ids:
                self._mp_chunks[earlier_id].closed = True
                self._mp_finalize(earlier_id)
        if span is None:
            return
        chunks = self._mp_chunks[block_id]
        dsn = fields["dsn"]
        chunks.dsns.add(dsn)
        self._dsn_block[dsn] = block_id
        span.leg(fields.get("subflow", -1))["tx"] += 1
        span.annotations["chunks"] += 1
        span.annotations["bytes"] += fields.get("size", 0)

    def _chunk_context(
        self, dsn: int
    ) -> Tuple[Optional[BlockSpan], Optional[_MptcpBlockChunks]]:
        block_id = self._dsn_block.get(dsn)
        if block_id is None:
            return None, None
        return self._mp_span(block_id)

    def _on_chunk_retx(self, t: float, fields: Dict[str, Any]) -> None:
        span, __ = self._chunk_context(fields["dsn"])
        if span is None:
            return
        span.leg(fields.get("subflow", -1))["tx"] += 1
        span.annotations["retransmits"] += 1

    def _on_chunk_rx(self, t: float, fields: Dict[str, Any]) -> None:
        dsn = fields["dsn"]
        span, chunks = self._chunk_context(dsn)
        if span is None or chunks is None:
            return
        span.leg(fields.get("subflow", -1))["rx"] += 1
        # Duplicates (probes, spurious retransmits) keep the first arrival.
        chunks.first_rx.setdefault(dsn, t)
        if span.first_rx_t is None:
            span.first_rx_t = t

    def _on_chunk_lost(self, t: float, fields: Dict[str, Any]) -> None:
        dsn = fields["dsn"]
        span, chunks = self._chunk_context(dsn)
        if span is None or chunks is None:
            return
        span.leg(fields.get("subflow", -1))["lost"] += 1
        span.annotations["chunks_lost"] += 1
        if dsn not in chunks.first_rx:
            # The first loss of a not-yet-arrived chunk opens its
            # recovery interval (closed by the chunk's first arrival).
            chunks.lost_at.setdefault(dsn, t)

    def _mp_finalize(self, block_id: int) -> None:
        """Finish an MPTCP block once closed and fully delivered."""
        span, chunks = self._mp_span(block_id)
        if span is None or chunks is None or not chunks.closed:
            return
        if not chunks.dsns or not chunks.dsns <= set(chunks.delivered):
            return
        span.first_rx_t = min(chunks.first_rx[dsn] for dsn in chunks.dsns)
        # The block is "complete" when its last chunk first arrives — the
        # analogue of FMTCP's decode instant.
        span.complete_t = max(chunks.first_rx[dsn] for dsn in chunks.dsns)
        span.delivered_t = max(chunks.delivered[dsn] for dsn in chunks.dsns)
        recovery = 0.0
        episodes = 0
        for dsn, lost_t in chunks.lost_at.items():
            arrived = chunks.first_rx.get(dsn)
            if arrived is not None and arrived > lost_t:
                recovery += arrived - lost_t
                episodes += 1
        span.annotations["loss_recovery_s"] += recovery
        span.annotations["loss_episodes"] += episodes
        del self._mp_chunks[block_id]
        for dsn in chunks.dsns:
            self._dsn_block.pop(dsn, None)
        self._finish(("mptcp", block_id))

    # ---- shared delivery edge ----
    def _on_delivered(self, t: float, fields: Dict[str, Any]) -> None:
        if "dsn" in fields:
            dsn = fields["dsn"]
            __, chunks = self._chunk_context(dsn)
            if chunks is None:
                return
            chunks.delivered.setdefault(dsn, t)
            block_id = self._dsn_block[dsn]
            self._mp_finalize(block_id)
        elif "block_id" in fields:
            block_id = fields["block_id"]
            span = self._fm_span(block_id)
            if span is None:
                return
            span.delivered_t = t
            self._finish(("fmtcp", block_id))

    def _finish(self, key: Tuple[str, int]) -> None:
        span = self._open.pop(key)
        if span.is_complete:
            self.finished.append(span)
        else:
            self.incomplete += 1

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------

    def stage_delays_ms(self) -> Dict[str, Dict[str, List[float]]]:
        """Per-protocol, per-stage delays of the finished spans (ms)."""
        result: Dict[str, Dict[str, List[float]]] = {}
        for span in self.finished:
            stages = result.setdefault(span.protocol, OrderedDict())
            for stage, duration in span.stage_durations().items():
                stages.setdefault(stage, []).append(duration * 1e3)
            stages.setdefault("total", []).append(span.total_delay * 1e3)
        return result

    def summary(self) -> Dict[str, Any]:
        """Everything a report needs, JSON-serialisable."""
        max_error = 0.0
        min_stage = 0.0
        recovery_s = 0.0
        episodes = 0
        for span in self.finished:
            max_error = max(max_error, span.conservation_error)
            min_stage = min(min_stage, *span.stage_durations().values())
            recovery_s += span.annotations.get("loss_recovery_s", 0.0)
            episodes += span.annotations.get("loss_episodes", 0)
        stages = {
            protocol: OrderedDict(
                (
                    name,
                    {
                        "count": len(delays),
                        "mean": mean(delays),
                        "p50": percentile(delays, 50),
                        "p95": percentile(delays, 95),
                        "p99": percentile(delays, 99),
                    },
                )
                for name, delays in by_stage.items()
            )
            for protocol, by_stage in self.stage_delays_ms().items()
        }
        return {
            "finished": len(self.finished),
            "open": len(self._open),
            "incomplete": self.incomplete,
            "max_conservation_error_s": max_error,
            "min_stage_s": min_stage,
            "loss_recovery_s": recovery_s,
            "loss_episodes": episodes,
            "stages": stages,
        }


_HANDLED = {
    "span.block_open": SpanCollector._on_block_open,
    "span.symbols_tx": SpanCollector._on_symbols_tx,
    "span.symbols_rx": SpanCollector._on_symbols_rx,
    "span.symbols_lost": SpanCollector._on_symbols_lost,
    "span.chunk_tx": SpanCollector._on_chunk_tx,
    "span.chunk_retx": SpanCollector._on_chunk_retx,
    "span.chunk_rx": SpanCollector._on_chunk_rx,
    "span.chunk_lost": SpanCollector._on_chunk_lost,
    "fmtcp.block_decoded": SpanCollector._on_block_decoded,
    "conn.delivered": SpanCollector._on_delivered,
}


# ----------------------------------------------------------------------
# Offline reports (the `repro trace spans` / `repro trace critical-path`
# engines; operate on read_trace_file dicts).
# ----------------------------------------------------------------------
def collect_spans(records: Sequence[dict]) -> SpanCollector:
    return SpanCollector().feed(records)


_NO_SPANS_HINT = [
    "no finished block spans in this trace",
    "(span records are captured automatically by `repro trace record`;",
    " programmatic runs need TelemetryConfig(trace_path=...) or spans=True)",
]


def spans_report(records: Sequence[dict]) -> List[str]:
    """The ``repro trace spans`` report: per-stage delay decomposition."""
    collector = collect_spans(records)
    if not collector.finished:
        return list(_NO_SPANS_HINT)
    lines: List[str] = []
    summary = collector.summary()
    lines.append(
        f"{summary['finished']} finished block spans, {summary['open']} open, "
        f"{summary['incomplete']} incomplete; "
        f"max conservation error {summary['max_conservation_error_s']:.2e}s"
    )
    for protocol, stages in summary["stages"].items():
        total = stages.get("total", {})
        lines.append(
            f"{protocol}: block delay p50={total.get('p50', 0.0):.2f}ms "
            f"p95={total.get('p95', 0.0):.2f}ms p99={total.get('p99', 0.0):.2f}ms"
        )
        mean_sum = sum(
            snap["mean"] for name, snap in stages.items() if name != "total"
        )
        lines.append(
            f"  {'stage':<14} {'n':>6} {'p50(ms)':>9} {'p95(ms)':>9} "
            f"{'p99(ms)':>9} {'share':>7}"
        )
        for name, snap in stages.items():
            if name == "total":
                continue
            share = snap["mean"] / mean_sum if mean_sum > 0 else 0.0
            lines.append(
                f"  {name:<14} {int(snap['count']):>6} {snap['p50']:>9.2f} "
                f"{snap['p95']:>9.2f} {snap['p99']:>9.2f} {share:>6.1%}"
            )
    if summary["loss_episodes"]:
        lines.append(
            f"loss recovery (overlay, not additive): "
            f"{summary['loss_episodes']} episodes, "
            f"{summary['loss_recovery_s'] * 1e3:.1f}ms total"
        )
    return lines


def critical_path_report(records: Sequence[dict], top: int = 5) -> List[str]:
    """The ``repro trace critical-path`` report: slowest blocks, decomposed."""
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    collector = collect_spans(records)
    if not collector.finished:
        return list(_NO_SPANS_HINT)
    slowest = sorted(
        collector.finished, key=lambda span: span.total_delay, reverse=True
    )[:top]
    lines = [
        f"slowest {len(slowest)} of {len(collector.finished)} blocks "
        f"by end-to-end delay:"
    ]
    for span in slowest:
        durations = span.stage_durations()
        total = span.total_delay
        dominant = max(durations, key=lambda name: durations[name])
        parts = ", ".join(
            f"{name} {duration * 1e3:.2f}ms"
            f" ({duration / total:.0%})" if total > 0 else f"{name} 0ms"
            for name, duration in durations.items()
        )
        lines.append(
            f"block {span.block_id} ({span.protocol}): "
            f"{total * 1e3:.2f}ms — critical stage: {dominant}"
        )
        lines.append(f"  {parts}")
        legs = "; ".join(
            f"subflow {subflow_id}: tx={leg['tx']} rx={leg['rx']} "
            f"lost={leg['lost']}"
            for subflow_id, leg in sorted(span.legs.items())
        )
        if legs:
            lines.append(f"  legs: {legs}")
        episodes = span.annotations.get("loss_episodes", 0)
        if episodes:
            lines.append(
                f"  loss: {episodes} episodes, "
                f"{span.annotations['loss_recovery_s'] * 1e3:.2f}ms in recovery"
            )
    return lines
