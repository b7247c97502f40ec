"""Trace-driven channel model: time series of link conditions.

A :class:`LinkTrace` is a validated, time-sorted sequence of
:class:`TraceSample` rows — "at t=3.25 s the channel offers 140 kb/s,
480 ms one-way delay and 2 % loss" — replayed onto live
:class:`~repro.net.link.Link` objects by
:class:`~repro.traces.player.TracePlayer`. Traces capture what the
synthetic loss models cannot: the *time structure* of real links (deep
cellular fades, LEO handover sawtooths, incast bursts), which is exactly
where the paper's fountain-coding claims are sharpest.

CSV schema (one row per sample, header required)::

    time_s,bandwidth_bps,delay_s,loss_rate
    0.0,170000,0.45,0.01
    0.25,,0.48,
    0.5,32000,0.5,0.3

A blank cell means "leave that dimension at the link's baseline" — a
bandwidth-only trace does not touch delay or loss. Timestamps must be
non-negative and strictly increasing; bandwidth must be positive, delay
non-negative, loss in ``[0, 1)``; every value must be finite. Malformed
input raises :class:`TraceFormatError` naming the offending line.

End-of-trace policies (what happens after the last sample):

========  ==========================================================
hold      keep the last sample's conditions until stopped (default)
loop      wrap around — sample ``k`` at trace time ``t mod duration``
========  ==========================================================

Between samples the channel steps: each sample holds until the next.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Valid end-of-trace policies (see module docstring).
END_POLICIES = ("hold", "loop")

#: The CSV header every trace file starts with.
CSV_HEADER = ("time_s", "bandwidth_bps", "delay_s", "loss_rate")


class TraceFormatError(ValueError):
    """A trace CSV (or sample sequence) that violates the schema."""


@dataclass(frozen=True)
class TraceSample:
    """One row of a channel time series.

    ``None`` fields leave that dimension at the link's baseline.
    """

    time_s: float
    bandwidth_bps: Optional[float] = None
    delay_s: Optional[float] = None
    loss_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_s) or self.time_s < 0:
            raise TraceFormatError(
                f"sample time must be finite and non-negative, got {self.time_s!r}"
            )
        if self.bandwidth_bps is not None and (
            not math.isfinite(self.bandwidth_bps) or self.bandwidth_bps <= 0
        ):
            raise TraceFormatError(
                f"bandwidth must be finite and positive, got {self.bandwidth_bps!r}"
            )
        if self.delay_s is not None and (
            not math.isfinite(self.delay_s) or self.delay_s < 0
        ):
            raise TraceFormatError(
                f"delay must be finite and non-negative, got {self.delay_s!r}"
            )
        if self.loss_rate is not None and not 0.0 <= self.loss_rate < 1.0:
            raise TraceFormatError(
                f"loss rate must be in [0, 1), got {self.loss_rate!r}"
            )


class LinkTrace:
    """A named, validated channel time series with an end-of-trace policy."""

    def __init__(
        self,
        name: str,
        samples: Sequence[TraceSample],
        end_policy: str = "hold",
    ):
        if not samples:
            raise TraceFormatError(f"trace {name!r} is empty: need >= 1 sample")
        if end_policy not in END_POLICIES:
            raise TraceFormatError(
                f"unknown end policy {end_policy!r} (known: {', '.join(END_POLICIES)})"
            )
        for previous, sample in zip(samples, samples[1:]):
            if sample.time_s <= previous.time_s:
                raise TraceFormatError(
                    f"trace {name!r} timestamps must be strictly increasing: "
                    f"{sample.time_s!r} follows {previous.time_s!r}"
                )
        self.name = name
        self.samples: Tuple[TraceSample, ...] = tuple(samples)
        self._times = tuple(sample.time_s for sample in self.samples)
        self.end_policy = end_policy

    @property
    def duration_s(self) -> float:
        """Time of the last sample (0.0 for a single-sample trace)."""
        return self.samples[-1].time_s

    def sample_at(self, t: float) -> TraceSample:
        """Channel conditions at trace time ``t``: a :class:`TraceSample`
        whose ``None`` fields mean "baseline". Before the first sample the
        first sample's conditions apply (a trace is a regime description,
        not a delta log).
        """
        if t > self.duration_s:
            if self.end_policy == "hold" or self.duration_s == 0.0:
                return self.samples[-1]
            t = t % self.duration_s
        if t <= self.samples[0].time_s:
            return self.samples[0]
        # The sample in force at t: the last one not later than t.
        return self.samples[bisect_right(self._times, t) - 1]

    def next_change_s(self, t: float) -> Optional[float]:
        """Trace time at which the sample in force at ``t`` gives way, or
        ``None`` if it holds for good (``hold`` past the last sample, or a
        one-sample trace). Under ``loop`` the period start is rebuilt from
        ``t``, so the answer can be a few ulps off the exact boundary."""
        times = self._times
        start = 0.0
        if t > self.duration_s:
            if self.end_policy == "hold" or len(times) == 1:
                return None
            phase = t % self.duration_s  # as sample_at wraps it
            start, t = t - phase, phase
        following = max(bisect_right(times, t), 1)
        if following < len(times):
            return start + times[following]
        # Only ``t == duration_s`` exactly gets here: loop wraps right after.
        return None if self.end_policy == "hold" else self.duration_s

    # ------------------------------------------------------------------
    # CSV round-trip.
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Serialise to the canonical CSV schema (round-trips exactly)."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for sample in self.samples:
            writer.writerow(
                [
                    repr(sample.time_s),
                    "" if sample.bandwidth_bps is None else repr(sample.bandwidth_bps),
                    "" if sample.delay_s is None else repr(sample.delay_s),
                    "" if sample.loss_rate is None else repr(sample.loss_rate),
                ]
            )
        return out.getvalue()

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_csv())


def _parse_cell(
    raw: str, column: str, line_number: int
) -> Optional[float]:
    text = raw.strip()
    if not text:
        return None
    try:
        return float(text)
    except ValueError:
        raise TraceFormatError(
            f"line {line_number}: {column} must be a number or blank, got {raw!r}"
        ) from None


def parse_trace_csv(text: str, name: str = "trace") -> LinkTrace:
    """Parse the canonical CSV schema into a stepped, ``hold``-policy
    :class:`LinkTrace`.

    Raises :class:`TraceFormatError` (a ``ValueError``) with a line
    number on any schema violation: wrong header, wrong column count,
    non-numeric cells, out-of-range values, non-monotonic timestamps or
    an empty trace.
    """
    rows = list(csv.reader(io.StringIO(text)))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise TraceFormatError(f"trace {name!r} is empty: no CSV rows")
    header = tuple(cell.strip() for cell in rows[0])
    if header != CSV_HEADER:
        raise TraceFormatError(
            f"line 1: expected header {','.join(CSV_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    samples: List[TraceSample] = []
    for line_number, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise TraceFormatError(
                f"line {line_number}: expected {len(CSV_HEADER)} columns, "
                f"got {len(row)}"
            )
        time_cell = _parse_cell(row[0], "time_s", line_number)
        if time_cell is None:
            raise TraceFormatError(f"line {line_number}: time_s must not be blank")
        try:
            samples.append(
                TraceSample(
                    time_s=time_cell,
                    bandwidth_bps=_parse_cell(row[1], "bandwidth_bps", line_number),
                    delay_s=_parse_cell(row[2], "delay_s", line_number),
                    loss_rate=_parse_cell(row[3], "loss_rate", line_number),
                )
            )
        except TraceFormatError as error:
            raise TraceFormatError(f"line {line_number}: {error}") from None
    return LinkTrace(name, samples)


def load_trace_csv(path: str) -> LinkTrace:
    """Read and parse a trace CSV file, named after its file name.

    Unreadable files raise :class:`TraceFormatError` too, so callers
    (the ``repro faults`` CLI) have a single diagnostic error type.
    """
    import os

    name = os.path.splitext(os.path.basename(path))[0]
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise TraceFormatError(f"cannot read trace file {path!r}: {error}") from None
    return parse_trace_csv(text, name=name)
