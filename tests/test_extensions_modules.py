"""Tests for the extension modules: systematic coding, fairness,
replication, reporting and trace export."""

import math
import random

import pytest

from repro.core.config import FmtcpConfig
from repro.experiments.catalog import Grid, Scale
from repro.experiments.fairness import jain_index, run_fairness
from repro.experiments.replication import summarise, t_quantile
from repro.experiments.reporting import (
    bar_chart,
    rows_to_csv,
    series_plot,
    series_to_csv,
    sparkline,
)
from repro.experiments.runner import run_transfer
from repro.fountain.codec import BlockDecoder, SystematicBlockEncoder
from repro.net.topology import PathConfig, build_shared_bottleneck_network
from repro.sim.trace import TraceBus
from repro.sim.tracefile import TraceFileWriter, read_trace_file


# ----------------------------------------------------------------------
# Systematic fountain coding.
# ----------------------------------------------------------------------
def test_systematic_first_k_symbols_are_source_parts():
    data = bytes(range(64))
    encoder = SystematicBlockEncoder(data, k=8, part_size=8, rng=random.Random(0))
    decoder = BlockDecoder(k=8, part_size=8, data_length=64)
    for __ in range(8):
        symbol = encoder.next_symbol()
        assert bin(symbol.coeff).count("1") == 1
        decoder.add_symbol(symbol)
    assert decoder.is_complete
    assert decoder.decode() == data
    assert decoder.symbols_redundant == 0


def test_systematic_repair_symbols_recover_erasures():
    rng = random.Random(1)
    data = bytes(rng.getrandbits(8) for __ in range(64))
    encoder = SystematicBlockEncoder(data, k=8, part_size=8, rng=rng)
    decoder = BlockDecoder(k=8, part_size=8, data_length=64)
    for index in range(8):  # drop half the systematic symbols
        symbol = encoder.next_symbol()
        if index % 2 == 0:
            decoder.add_symbol(symbol)
    while not decoder.is_complete:
        decoder.add_symbol(encoder.next_symbol())  # coded repair
    assert decoder.decode() == data


def test_systematic_fmtcp_end_to_end():
    from repro.core.connection import FmtcpConnection
    from repro.sim.rng import RngStreams
    from repro.workloads.sources import RandomPayloadSource
    from tests.conftest import make_two_path

    config = FmtcpConfig(coding="real", systematic=True, max_pending_blocks=4)
    source = RandomPayloadSource(total_bytes=3 * config.block_bytes + 123)
    network, paths, trace = make_two_path(loss2=0.2)
    chunks = {}
    connection = FmtcpConnection(
        network.sim, paths, source, config=config, trace=trace,
        rng=RngStreams(5),
        sink=lambda block_id, data: chunks.__setitem__(block_id, data),
    )
    connection.start()
    network.sim.run(until=60.0)
    reassembled = b"".join(chunks[block_id] for block_id in sorted(chunks))
    assert reassembled == bytes(source.transcript)


def test_systematic_requires_real_coding():
    with pytest.raises(ValueError):
        FmtcpConfig(systematic=True, coding="statistical")


# ----------------------------------------------------------------------
# Shared bottleneck + fairness.
# ----------------------------------------------------------------------
def test_shared_bottleneck_topology_shapes():
    network, paths = build_shared_bottleneck_network(3)
    assert len(paths) == 3
    shared = {path.forward_links[-1] for path in paths}
    assert len(shared) == 1  # all paths end on the same bottleneck link


def test_jain_index_values():
    assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        jain_index([])


def test_tcp_flows_share_fairly():
    result = run_fairness(protocol_under_test="tcp", n_competitors=2, duration_s=15.0)
    assert result.jain > 0.95


def test_fmtcp_is_tcp_friendly():
    """Paper Section III-A: FMTCP must not out-compete TCP on a shared
    bottleneck (it inherits per-subflow Reno; coding is not a rate boost)."""
    result = run_fairness(
        protocol_under_test="fmtcp", n_competitors=3, duration_s=20.0
    )
    assert result.jain > 0.95
    assert 0.7 < result.test_flow_share < 1.2


def test_fairness_validation():
    with pytest.raises(ValueError):
        run_fairness(protocol_under_test="sctp")


@pytest.mark.parametrize("duration_s", [float("nan"), float("inf"), 0, -3])
def test_fairness_rejects_a_duration_that_is_not_finite_and_positive(duration_s):
    """Before anything is built: ``inf`` would never return on backlogged
    sources, ``0`` divided by zero and ``-3`` reported rates of ``-0.0``."""
    with pytest.raises(ValueError, match="duration_s must be finite and > 0, got"):
        run_fairness(duration_s=duration_s)


# ----------------------------------------------------------------------
# Replication.
# ----------------------------------------------------------------------
def test_summarise_statistics():
    summary = summarise([1.0, 2.0, 3.0])
    assert summary.mean == pytest.approx(2.0)
    assert summary.stdev == pytest.approx(1.0)
    assert summary.ci95 == pytest.approx(4.303 / 3**0.5, rel=1e-3)
    assert summary.n == 3


def test_summarise_single_value():
    summary = summarise([5.0])
    assert summary.mean == 5.0 and summary.n == 1
    assert math.isnan(summary.stdev) and math.isnan(summary.ci95)
    assert str(summary) == "5.000 (n=1)"
    assert str(summarise([1.0, 3.0])).startswith("2.000 ± ")


def test_t_quantile_bounds():
    assert t_quantile(2) == pytest.approx(12.706)
    assert t_quantile(11) == pytest.approx(2.228)
    assert t_quantile(31) == pytest.approx(2.042)
    assert t_quantile(100) == pytest.approx(1.96)
    with pytest.raises(ValueError):
        t_quantile(1)


def _replicated_transfer(protocol, point, scale, seed):
    paths = [
        PathConfig(bandwidth_bps=8e6, delay_s=0.01, loss_rate=0.0),
        PathConfig(bandwidth_bps=8e6, delay_s=0.01, loss_rate=0.1),
    ]
    return run_transfer(protocol, paths, duration_s=scale.duration_s, seed=seed).summary


def test_grid_aggregates_seeds():
    grid = Grid(({},), ("fmtcp",), _replicated_transfer, seeds=3, wide=False)
    (row,) = grid(Scale(4.0, seed=1), reduction=summarise)
    assert grid.seeds_at(Scale(4.0, seed=1)) == [1, 2, 3]
    goodput = row["goodput_mbytes_per_s"]
    assert goodput.n == 3
    assert goodput.mean > 0
    assert goodput.stdev >= 0


def test_grid_requires_seeds():
    with pytest.raises(ValueError):
        Grid(({},), ("fmtcp",), _replicated_transfer, seeds=0)


def test_grid_reduces_each_key_over_the_seeds_in_seed_order():
    """No simulation: a fake measure records its calls, and every key is
    folded by the entry's reduction for it, else by the mean."""
    calls = []

    def measure(protocol, point, scale, seed):
        calls.append((point["x"], protocol, seed))
        offset = {"a": 0, "b": 100}[protocol] + 10 * point["x"]
        return {
            "value": offset + seed, "outage": seed * 1.5, "violations": seed,
            "within": seed != 6, "order": [seed],
        }

    grid = Grid(
        ({"x": 1}, {"x": 2}), ("a", "b"), measure, seeds=3,
        reduce={"outage": max, "violations": sum, "within": all, "order": lambda runs: runs},
    )
    rows = grid(Scale(1.0, seed=4))
    assert calls == [
        (x, protocol, seed) for x in (1, 2) for protocol in ("a", "b") for seed in (4, 5, 6)
    ]
    assert rows[0] == {
        "x": 1,
        "a_value": 15.0, "a_outage": 9.0, "a_violations": 15, "a_within": False,
        "a_order": [[4], [5], [6]],
        "b_value": 115.0, "b_outage": 9.0, "b_violations": 15, "b_within": False,
        "b_order": [[4], [5], [6]],
    }
    assert rows[1]["a_value"] == 25.0 and rows[1]["b_value"] == 125.0
    # One seed passes every value through as measured, whatever its type.
    (single,) = Grid(({"x": 0},), ("a",), measure, wide=False)(Scale(1.0, seed=6))
    assert single == {
        "x": 0, "protocol": "a", "value": 6, "outage": 9.0, "violations": 6,
        "within": False, "order": [6],
    }


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------
def test_sparkline_levels():
    line = sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3
    assert line[0] == "▁" and line[-1] == "█"


def test_sparkline_flat_series():
    assert sparkline([0.0, 0.0]) == "▁▁"
    assert sparkline([]) == ""


def test_bar_chart_alignment_and_scale():
    lines = bar_chart([("a", 1.0), ("bb", 2.0)], width=10)
    assert len(lines) == 2
    assert lines[1].count("█") == 10  # peak fills the width
    assert lines[0].count("█") == 5


def test_series_plot_contains_all_series():
    lines = series_plot({"x": [(0.0, 1.0), (10.0, 2.0)], "y": [(5.0, 0.5)]})
    body = "\n".join(lines)
    assert "o" in body and "x=x" in body.replace(" ", "").lower() or "o=x" in body
    assert len(lines) >= 6


def test_rows_to_csv_roundtrip():
    rows = [{"case": 1, "value": 2.5}, {"case": 2, "value": 3.5}]
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "case,value"
    assert lines[1] == "1,2.5"
    assert rows_to_csv([]) == ""


def test_series_to_csv_long_format():
    text = series_to_csv({"fmtcp": [(0.5, 1.25)]})
    assert "series,time_s,value" in text
    assert "fmtcp,0.5,1.25" in text


# ----------------------------------------------------------------------
# Trace export.
# ----------------------------------------------------------------------
def test_trace_file_writer_roundtrip(tmp_path):
    trace = TraceBus()
    path = tmp_path / "trace.jsonl"
    with TraceFileWriter(trace, str(path), kinds=["conn.delivered"]):
        trace.emit(1.0, "conn.delivered", bytes=100)
        trace.emit(2.0, "other.kind", x=1)  # filtered out
        trace.emit(3.0, "conn.delivered", bytes=200)
    records = read_trace_file(str(path))
    assert len(records) == 2
    assert records[0] == {"t": 1.0, "kind": "conn.delivered", "bytes": 100}


def test_trace_file_writer_wildcard_and_complex_fields(tmp_path):
    trace = TraceBus()
    path = tmp_path / "trace.jsonl"
    writer = TraceFileWriter(trace, str(path))
    trace.emit(0.0, "k", nested={"a": (1, 2)}, obj=object())
    writer.close()
    records = read_trace_file(str(path))
    assert records[0]["nested"] == {"a": [1, 2]}
    assert isinstance(records[0]["obj"], str)
    # After close, further emissions are not recorded.
    trace.emit(1.0, "k")
    assert len(read_trace_file(str(path))) == 1


def test_trace_file_writer_counts(tmp_path):
    trace = TraceBus()
    with TraceFileWriter(trace, str(tmp_path / "t.jsonl"), kinds=["a"]) as writer:
        for __ in range(5):
            trace.emit(0.0, "a")
        assert writer.records_written == 5
