"""Metric collection for the paper's three evaluation measures:

goodput (total and windowed time series), per-block delivery delay, and
block jitter. Collectors subscribe to the protocol-agnostic trace
vocabulary (``conn.delivered``, ``conn.block_done``) so the same code
measures FMTCP and the MPTCP baseline.
"""

from repro.metrics.collectors import (
    MetricsSuite,
)
from repro.metrics.latency import AppLatencyCollector
from repro.metrics.stats import mean, mean_absolute_difference, percentile, stdev

__all__ = [
    "AppLatencyCollector",
    "MetricsSuite",
    "mean",
    "mean_absolute_difference",
    "percentile",
    "stdev",
]
