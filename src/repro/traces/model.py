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
clear     restore the link's baseline settings
========  ==========================================================

``interpolate=True`` linearly interpolates bandwidth and delay between
samples (loss always steps: it is a probability regime, not a level).
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Valid end-of-trace policies (see module docstring).
END_POLICIES = ("hold", "loop", "clear")

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


def _lerp(a: float, b: float, frac: float) -> float:
    return a + (b - a) * frac


class LinkTrace:
    """A named, validated channel time series with an end-of-trace policy."""

    def __init__(
        self,
        name: str,
        samples: Sequence[TraceSample],
        end_policy: str = "hold",
        interpolate: bool = False,
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
        self.interpolate = interpolate

    @property
    def duration_s(self) -> float:
        """Time of the last sample (0.0 for a single-sample trace)."""
        return self.samples[-1].time_s

    def sample_at(self, t: float) -> Optional[TraceSample]:
        """Channel conditions at trace time ``t``.

        Returns ``None`` when the trace is over and the policy is
        ``clear`` (the caller restores baselines), otherwise a
        :class:`TraceSample` whose ``None`` fields mean "baseline".
        Before the first sample the first sample's conditions apply
        (a trace is a regime description, not a delta log).
        """
        if t > self.duration_s:
            if self.end_policy == "clear":
                return None
            if self.end_policy == "hold" or self.duration_s == 0.0:
                return self.samples[-1]
            t = t % self.duration_s
        if t <= self.samples[0].time_s:
            return self.samples[0]
        # The sample pair bracketing t: the first sample later than t and
        # the one before it.
        index = bisect_right(self._times, t)
        if index == len(self.samples):
            return self.samples[-1]
        previous, sample = self.samples[index - 1], self.samples[index]
        if not self.interpolate:
            return previous
        frac = (t - previous.time_s) / (sample.time_s - previous.time_s)
        bandwidth = (
            None
            if previous.bandwidth_bps is None or sample.bandwidth_bps is None
            else _lerp(previous.bandwidth_bps, sample.bandwidth_bps, frac)
        )
        delay = (
            None
            if previous.delay_s is None or sample.delay_s is None
            else _lerp(previous.delay_s, sample.delay_s, frac)
        )
        # Loss always steps: it is a regime probability.
        return TraceSample(
            time_s=t,
            bandwidth_bps=bandwidth,
            delay_s=delay,
            loss_rate=previous.loss_rate,
        )

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LinkTrace {self.name!r} {len(self.samples)} samples "
            f"{self.duration_s:.2f}s {self.end_policy}>"
        )


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
