"""Tests for summary statistics and trace-driven metric collectors."""

import math

import pytest

from repro.metrics.collectors import BlockDelayCollector, GoodputMeter, MetricsSuite
from repro.metrics.stats import mean, mean_absolute_difference, percentile, stdev
from repro.sim.trace import TraceBus


# ----------------------------------------------------------------------
# Stats helpers.
# ----------------------------------------------------------------------
def test_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert mean([]) == 0.0


def test_stdev_population():
    assert stdev([2.0, 4.0]) == pytest.approx(1.0)
    assert stdev([5.0]) == 0.0
    assert stdev([]) == 0.0


def test_mean_absolute_difference_jitter():
    assert mean_absolute_difference([1.0, 3.0, 2.0]) == pytest.approx(1.5)
    assert mean_absolute_difference([5.0, 5.0, 5.0]) == 0.0
    assert mean_absolute_difference([1.0]) == 0.0


def test_percentile_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# ----------------------------------------------------------------------
# GoodputMeter.
# ----------------------------------------------------------------------
def test_goodput_totals_and_average():
    trace = TraceBus()
    meter = GoodputMeter(trace)
    trace.emit(0.5, "conn.delivered", bytes=1000)
    trace.emit(1.5, "conn.delivered", bytes=3000)
    assert meter.total_bytes == 4000
    assert meter.goodput_bps(2.0) == pytest.approx(16000.0)
    assert meter.goodput_mbytes_per_s(2.0) == pytest.approx(0.002)


def test_goodput_series_bins():
    trace = TraceBus()
    meter = GoodputMeter(trace, bin_width_s=1.0)
    trace.emit(0.2, "conn.delivered", bytes=1_000_000)
    trace.emit(0.8, "conn.delivered", bytes=1_000_000)
    trace.emit(2.5, "conn.delivered", bytes=500_000)
    series = meter.series(3.0)
    assert len(series) == 3
    assert series[0] == (0.5, pytest.approx(2.0))
    assert series[1] == (1.5, 0.0)
    assert series[2] == (2.5, pytest.approx(0.5))


def test_goodput_ignores_other_records():
    trace = TraceBus()
    meter = GoodputMeter(trace)
    trace.emit(0.0, "conn.block_done", block_id=0, delay=0.1)
    assert meter.total_bytes == 0


def test_goodput_first_last_delivery():
    trace = TraceBus()
    meter = GoodputMeter(trace)
    trace.emit(1.0, "conn.delivered", bytes=1)
    trace.emit(4.0, "conn.delivered", bytes=1)
    assert meter.first_delivery == 1.0
    assert meter.last_delivery == 4.0


# ----------------------------------------------------------------------
# BlockDelayCollector.
# ----------------------------------------------------------------------
def test_block_delay_sequence_ordered_by_id():
    trace = TraceBus()
    collector = BlockDelayCollector(trace)
    trace.emit(2.0, "conn.block_done", block_id=1, delay=0.2)
    trace.emit(1.0, "conn.block_done", block_id=0, delay=0.1)
    trace.emit(3.0, "conn.block_done", block_id=2, delay=0.4)
    assert collector.delays_in_sequence() == [0.1, 0.2, 0.4]
    assert collector.count == 3


def test_block_delay_statistics():
    trace = TraceBus()
    collector = BlockDelayCollector(trace)
    for block_id, delay in enumerate([0.1, 0.3, 0.2]):
        trace.emit(0.0, "conn.block_done", block_id=block_id, delay=delay)
    assert collector.mean_delay_s() == pytest.approx(0.2)
    assert collector.jitter_s() == pytest.approx(0.15)
    assert collector.delay_percentile_s(100) == pytest.approx(0.3)


def test_metrics_suite_summary_keys():
    trace = TraceBus()
    suite = MetricsSuite(trace)
    trace.emit(0.1, "conn.delivered", bytes=8192)
    trace.emit(0.2, "conn.block_done", block_id=0, delay=0.05)
    summary = suite.summary(1.0)
    for key in (
        "goodput_mbps",
        "goodput_mbytes_per_s",
        "total_mbytes",
        "blocks",
        "mean_block_delay_ms",
        "jitter_ms",
        "delay_p95_ms",
        "delay_max_ms",
    ):
        assert key in summary
    assert summary["blocks"] == 1.0
    assert summary["mean_block_delay_ms"] == pytest.approx(50.0)


def test_bin_width_validation():
    # nan died mid-run at the first delivery; inf returned [(inf, 0.0)].
    for value in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bin_width_s"):
            GoodputMeter(TraceBus(), bin_width_s=value)
