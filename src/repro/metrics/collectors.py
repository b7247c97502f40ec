"""Trace-bus metric collectors."""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.metrics.stats import mean, mean_absolute_difference, percentile
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus, TraceRecord


class GoodputMeter:
    """Total and windowed goodput from ``conn.delivered`` records.

    Goodput is measured at the point the paper measures it: in-order bytes
    handed to the receiving application.
    """

    def __init__(self, trace: TraceBus, bin_width_s: float = 1.0):
        if not 0 < bin_width_s < math.inf:  # NaN fails both comparisons
            raise ValueError(f"bin_width_s must be finite and > 0, got {bin_width_s!r}")
        self.bin_width_s = bin_width_s
        self.total_bytes = 0
        self._bins: Dict[int, int] = {}
        self.first_delivery: float = float("inf")
        self.last_delivery: float = 0.0
        trace.subscribe("conn.delivered", self._on_delivered)

    def _on_delivered(self, record: TraceRecord) -> None:
        size = record.fields["bytes"]
        time = record.time
        self.total_bytes += size
        index = int(time / self.bin_width_s)
        self._bins[index] = self._bins.get(index, 0) + size
        if time < self.first_delivery:
            self.first_delivery = time
        if time > self.last_delivery:
            self.last_delivery = time

    def goodput_bps(self, duration_s: float) -> float:
        """Average goodput in bits/s over an experiment of ``duration_s``."""
        if duration_s <= 0:
            return 0.0
        return self.total_bytes * 8.0 / duration_s

    def goodput_mbytes_per_s(self, duration_s: float) -> float:
        if duration_s <= 0:
            return 0.0
        return self.total_bytes / duration_s / 1e6

    def series(self, duration_s: float) -> List[Tuple[float, float]]:
        """(bin midpoint seconds, MB/s) time series covering the run."""
        bins_total = max(1, int(round(duration_s / self.bin_width_s)))
        series = []
        for index in range(bins_total):
            midpoint = (index + 0.5) * self.bin_width_s
            rate = self._bins.get(index, 0) / self.bin_width_s / 1e6
            series.append((midpoint, rate))
        return series


class BlockDelayCollector:
    """Per-block delivery delay and jitter from ``conn.block_done`` records.

    Delay is defined as the paper does: from the transmission of a block's
    first symbol to the sender's reception of the ACK confirming decode
    (for MPTCP, the data-ACK covering the block).
    """

    def __init__(self, trace: TraceBus):
        self._by_block: Dict[int, float] = {}
        trace.subscribe("conn.block_done", self._on_block_done)

    def _on_block_done(self, record: TraceRecord) -> None:
        self._by_block[record["block_id"]] = record["delay"]

    @property
    def count(self) -> int:
        return len(self._by_block)

    def delays_in_sequence(self) -> List[float]:
        """Delays ordered by block id (the Fig. 7 series)."""
        return [self._by_block[block_id] for block_id in sorted(self._by_block)]

    def mean_delay_s(self) -> float:
        return mean(self.delays_in_sequence())

    def jitter_s(self) -> float:
        """Mean absolute consecutive-delay difference (Fig. 6 metric)."""
        return mean_absolute_difference(self.delays_in_sequence())

    def delay_percentile_s(self, q: float) -> float:
        return percentile(self.delays_in_sequence(), q)


class MetricsSuite:
    """One-stop bundle of the paper's three metrics for a run."""

    def __init__(self, trace: TraceBus, bin_width_s: float = 1.0):
        self.goodput = GoodputMeter(trace, bin_width_s=bin_width_s)
        self.block_delay = BlockDelayCollector(trace)

    def summary(self, duration_s: float) -> Dict[str, float]:
        return {
            "goodput_mbps": self.goodput.goodput_bps(duration_s) / 1e6,
            "goodput_mbytes_per_s": self.goodput.goodput_mbytes_per_s(duration_s),
            "total_mbytes": self.goodput.total_bytes / 1e6,
            "blocks": float(self.block_delay.count),
            "mean_block_delay_ms": self.block_delay.mean_delay_s() * 1e3,
            "jitter_ms": self.block_delay.jitter_s() * 1e3,
            "delay_p95_ms": self.block_delay.delay_percentile_s(95.0) * 1e3,
            "delay_max_ms": self.block_delay.delay_percentile_s(100.0) * 1e3,
        }
