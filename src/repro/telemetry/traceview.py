"""Offline analysis of JSONL traces (the ``repro trace`` CLI's engine).

Operates on plain lists of dicts as returned by
:func:`repro.sim.tracefile.read_trace_file`, so it consumes both live
:class:`~repro.sim.tracefile.TraceFileWriter` output and flight-recorder
dumps (whose leading ``flight.meta`` record is surfaced, not choked on).
Everything degrades gracefully when a kind is absent — a trace with only
endpoint events still summarises, one with telemetry samples adds the
per-subflow and decoder sections.
"""

from __future__ import annotations

import csv
import io
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.reporting import sparkline
from repro.metrics.stats import mean, percentile

# Fields every record carries; everything else is kind-specific payload.
_BASE_FIELDS = ("t", "kind")


def kind_counts(records: Sequence[dict]) -> "OrderedDict[str, int]":
    """Record count per kind, ordered by descending count then name."""
    counts: Dict[str, int] = {}
    for record in records:
        kind = record.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return OrderedDict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))


def time_span(records: Sequence[dict]) -> Tuple[float, float]:
    times = [record["t"] for record in records if "t" in record]
    if not times:
        return (0.0, 0.0)
    return (min(times), max(times))


def _of_kind(records: Sequence[dict], kind: str) -> List[dict]:
    return [record for record in records if record.get("kind") == kind]


def _histogram_line(label: str, values: Iterable[float], scale: float = 1.0) -> str:
    values = [value * scale for value in values]
    if not values:
        return f"{label}: no samples"
    return (
        f"{label}: n={len(values)} mean={mean(values):.2f} "
        f"p50={percentile(values, 50):.2f} p95={percentile(values, 95):.2f} "
        f"p99={percentile(values, 99):.2f} max={max(values):.2f}"
    )


def summarize(records: Sequence[dict]) -> List[str]:
    """The ``repro trace summarize`` report."""
    lines: List[str] = []
    meta = _of_kind(records, "flight.meta")
    if meta:
        header = meta[0]
        extras = ", ".join(
            f"{key}={header[key]}"
            for key in header
            if key not in _BASE_FIELDS
            and key not in ("capacity", "records_seen", "records_retained", "dropped")
        )
        lines.append(
            f"flight-recorder dump: {header.get('records_retained', '?')} of "
            f"{header.get('records_seen', '?')} records retained "
            f"(capacity {header.get('capacity', '?')}, "
            f"dropped {header.get('dropped', '?')})"
            + (f" — {extras}" if extras else "")
        )
    start, end = time_span(records)
    lines.append(
        f"{len(records)} records over t=[{start:.3f}, {end:.3f}]s "
        f"({len(kind_counts(records))} kinds)"
    )
    lines.append(f"{'kind':<24} {'count':>8}")
    for kind, count in kind_counts(records).items():
        lines.append(f"{kind:<24} {count:>8}")

    delivered = _of_kind(records, "conn.delivered")
    if delivered:
        total = sum(record.get("bytes", 0) for record in delivered)
        span = max(end - start, 1e-9)
        lines.append(
            f"goodput: {total / 1e6:.3f} MB delivered in {span:.1f}s "
            f"({total / span / 1e6:.3f} MB/s)"
        )
    block_done = _of_kind(records, "conn.block_done")
    if block_done:
        lines.append(
            _histogram_line(
                "block delay (ms)",
                (record["delay"] for record in block_done if "delay" in record),
                scale=1e3,
            )
        )
    decoded = _of_kind(records, "fmtcp.block_decoded")
    overheads = [
        record["overhead"]
        for record in decoded
        if record.get("overhead") is not None
    ]
    if overheads:
        lines.append(_histogram_line("decoder overhead (symbols)", overheads))
    dropped = _of_kind(records, "trace.dropped")
    if dropped:
        total_dropped = sum(record.get("dropped", 0) for record in dropped)
        cap = dropped[-1].get("max_pending", "?")
        lines.append(
            f"trace bus dropped {total_dropped} records at the bounded "
            f"pending-queue cap (max_pending {cap})"
        )
    losses = _of_kind(records, "subflow.loss")
    if losses:
        by_reason: Dict[str, int] = {}
        for record in losses:
            reason = record.get("reason", "?")
            by_reason[reason] = by_reason.get(reason, 0) + 1
        detail = ", ".join(f"{reason}={n}" for reason, n in sorted(by_reason.items()))
        lines.append(f"losses: {len(losses)} ({detail})")
    n_span = sum(
        count
        for kind, count in kind_counts(records).items()
        if kind.startswith("span.")
    )
    if n_span:
        lines.append(
            f"{n_span} span records — decompose block delay with "
            f"`repro trace spans` / `repro trace critical-path`"
        )
    return lines


def _series(samples: Sequence[dict], field: str) -> List[float]:
    return [
        float(record[field])
        for record in samples
        if record.get(field) is not None
    ]


def subflow_report(records: Sequence[dict]) -> List[str]:
    """The ``repro trace subflows`` report: per-subflow state series."""
    samples = _of_kind(records, "telemetry.subflow")
    if not samples:
        return [
            "no telemetry.subflow samples in this trace "
            "(record with telemetry enabled, e.g. `repro trace record`)"
        ]
    by_subflow: Dict[int, List[dict]] = {}
    for record in samples:
        by_subflow.setdefault(int(record.get("subflow", -1)), []).append(record)
    sends = _of_kind(records, "subflow.send")
    losses = _of_kind(records, "subflow.loss")
    lines: List[str] = []
    for subflow_id in sorted(by_subflow):
        rows = by_subflow[subflow_id]
        cwnd = _series(rows, "cwnd")
        srtt_ms = [value * 1e3 for value in _series(rows, "srtt")]
        eat_ms = [value * 1e3 for value in _series(rows, "eat")]
        in_flight = _series(rows, "in_flight")
        suspect_samples = sum(1 for record in rows if record.get("suspect"))
        sent = sum(1 for record in sends if record.get("subflow") == subflow_id)
        lost = sum(1 for record in losses if record.get("subflow") == subflow_id)
        lines.append(
            f"subflow {subflow_id}: {len(rows)} samples"
            + (f", {sent} sends" if sends else "")
            + (f", {lost} losses" if losses else "")
            + (f", suspect in {suspect_samples}" if suspect_samples else "")
        )
        if cwnd:
            lines.append(
                f"  cwnd      {sparkline(cwnd)}  last={cwnd[-1]:.1f} "
                f"max={max(cwnd):.1f}"
            )
        if in_flight:
            lines.append(
                f"  in-flight {sparkline(in_flight)}  last={in_flight[-1]:.0f} "
                f"max={max(in_flight):.0f}"
            )
        if srtt_ms:
            lines.append(
                f"  srtt(ms)  {sparkline(srtt_ms, lo=min(srtt_ms))}  "
                f"last={srtt_ms[-1]:.1f} "
                f"mean={sum(srtt_ms) / len(srtt_ms):.1f}"
            )
        if eat_ms:
            lines.append(
                f"  eat(ms)   {sparkline(eat_ms, lo=min(eat_ms))}  "
                f"last={eat_ms[-1]:.1f} "
                f"mean={sum(eat_ms) / len(eat_ms):.1f}"
            )
        loss_est = _series(rows, "loss_est")
        if loss_est:
            lines.append(
                f"  loss-est  {sparkline(loss_est, hi=max(max(loss_est), 1e-6))}  "
                f"last={loss_est[-1]:.3f}"
            )
    decoder_samples = _of_kind(records, "telemetry.decoder")
    if decoder_samples:
        deficits = _series(decoder_samples, "deficit")
        lines.append(
            f"decoder: {len(decoder_samples)} block samples, "
            f"mean rank deficit {sum(deficits) / len(deficits):.1f}, "
            f"max {max(deficits):.0f}"
        )
    return lines


def timeline(
    records: Sequence[dict],
    kinds: Optional[Sequence[str]] = None,
    start: Optional[float] = None,
    end: Optional[float] = None,
    limit: Optional[int] = None,
) -> List[str]:
    """Chronological event listing, optionally filtered by kind/window."""
    wanted = set(kinds) if kinds else None
    selected = []
    for record in records:
        if wanted is not None and record.get("kind") not in wanted:
            continue
        t = record.get("t", 0.0)
        if start is not None and t < start:
            continue
        if end is not None and t > end:
            continue
        selected.append(record)
    selected.sort(key=lambda record: record.get("t", 0.0))
    total = len(selected)
    if limit is not None and total > limit:
        selected = selected[-limit:]
    lines = []
    if limit is not None and total > limit:
        lines.append(f"... {total - limit} earlier records elided (--limit {limit})")
    for record in selected:
        fields = " ".join(
            f"{key}={record[key]}"
            for key in record
            if key not in _BASE_FIELDS and record[key] is not None
        )
        lines.append(f"{record.get('t', 0.0):>10.4f}  {record.get('kind', '?'):<22} {fields}")
    return lines


def export_csv(records: Sequence[dict], kind: Optional[str] = None) -> str:
    """Flatten records (optionally one kind) to CSV text.

    Columns are ``t``, ``kind``, then the union of field names across the
    selected records in first-seen order; absent fields are empty cells.
    """
    selected = _of_kind(records, kind) if kind is not None else list(records)
    columns: List[str] = list(_BASE_FIELDS)
    seen = set(columns)
    for record in selected:
        for key in record:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for record in selected:
        writer.writerow(
            ["" if record.get(column) is None else record.get(column) for column in columns]
        )
    return buffer.getvalue()
