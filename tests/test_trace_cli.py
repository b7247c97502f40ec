"""The ``repro trace`` subcommand family, record through analysis."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    """One short recorded run shared by all analysis-command tests."""
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    assert (
        main(
            [
                "--duration", "3",
                "trace", "record",
                "--case", "2",
                "--output", str(path),
                "--profile",
            ]
        )
        == 0
    )
    return str(path)


def test_parser_knows_trace_subcommands():
    parser = build_parser()
    for argv in (
        ["trace", "record"],
        ["trace", "summarize", "f.jsonl"],
        ["trace", "subflows", "f.jsonl"],
        ["trace", "timeline", "f.jsonl", "--kind", "subflow.loss"],
        ["trace", "export-csv", "f.jsonl"],
        ["trace", "spans", "f.jsonl"],
        ["trace", "critical-path", "f.jsonl", "--top", "3"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.fn)


def test_bare_trace_prints_help(capsys):
    assert main(["trace"]) == 0
    out = capsys.readouterr().out
    assert "summarize" in out and "export-csv" in out


def test_record_reports_progress(tmp_path, capsys):
    output = tmp_path / "quick.jsonl"
    assert main(
        ["--duration", "1", "trace", "record", "--case", "1", "--output", str(output)]
    ) == 0
    out = capsys.readouterr().out
    assert "records written" in out
    assert "trace summarize" in out


def test_summarize_renders_kind_table_and_goodput(recorded_trace, capsys):
    assert main(["trace", "summarize", recorded_trace]) == 0
    out = capsys.readouterr().out
    assert "records over t=" in out
    assert "telemetry.subflow" in out
    assert "goodput:" in out
    assert "block delay (ms):" in out


def test_subflows_renders_series(recorded_trace, capsys):
    assert main(["trace", "subflows", recorded_trace]) == 0
    out = capsys.readouterr().out
    assert "subflow 0:" in out and "subflow 1:" in out
    assert "cwnd" in out and "srtt(ms)" in out and "eat(ms)" in out


def test_timeline_filters_and_limits(recorded_trace, capsys):
    assert main(
        [
            "trace", "timeline", recorded_trace,
            "--kind", "conn.delivered",
            "--limit", "5",
        ]
    ) == 0
    out = capsys.readouterr().out.strip().splitlines()
    data_lines = [line for line in out if "conn.delivered" in line]
    assert 0 < len(data_lines) <= 5
    assert all("conn.delivered" in line for line in out if "elided" not in line)


def test_timeline_window(recorded_trace, capsys):
    assert main(
        [
            "trace", "timeline", recorded_trace,
            "--kind", "telemetry.conn",
            "--start", "1.0", "--end", "2.0",
            "--limit", "100",
        ]
    ) == 0
    out = capsys.readouterr().out.strip().splitlines()
    times = [float(line.split()[0]) for line in out if "telemetry.conn" in line]
    assert times and all(1.0 <= t <= 2.0 for t in times)


def test_export_csv_stdout_and_file(recorded_trace, capsys, tmp_path):
    assert main(
        ["trace", "export-csv", recorded_trace, "--kind", "telemetry.subflow"]
    ) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header.startswith("t,kind,")
    assert "cwnd" in header and "srtt" in header

    output = tmp_path / "subflows.csv"
    assert main(
        [
            "trace", "export-csv", recorded_trace,
            "--kind", "telemetry.subflow",
            "--output", str(output),
        ]
    ) == 0
    assert output.read_text().splitlines()[0] == header


def test_summarize_handles_flight_dump(tmp_path, capsys):
    from repro.sim.trace import TraceBus
    from repro.telemetry import FlightRecorder

    trace = TraceBus()
    flight = FlightRecorder(trace, capacity=8)
    for index in range(12):
        trace.emit(float(index), "k", seq=index)
    path = tmp_path / "dump.jsonl"
    flight.dump(str(path), meta={"scenario": "unit"})
    assert main(["trace", "summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "flight-recorder dump" in out
    assert "scenario=unit" in out


def test_subflows_explains_missing_telemetry(tmp_path, capsys):
    from repro.sim.trace import TraceBus
    from repro.sim.tracefile import TraceFileWriter

    trace = TraceBus()
    path = tmp_path / "bare.jsonl"
    with TraceFileWriter(trace, str(path)):
        trace.emit(0.0, "subflow.send", subflow=0, seq=1)
    assert main(["trace", "subflows", str(path)]) == 0
    assert "no telemetry.subflow samples" in capsys.readouterr().out


def test_summarize_surfaces_trace_bus_drops(tmp_path, capsys):
    import json

    path = tmp_path / "dropped.jsonl"
    lines = [
        {"t": 0.0, "kind": "conn.delivered", "bytes": 1000},
        {"t": 1.0, "kind": "trace.dropped", "dropped": 42, "max_pending": 8},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert main(["trace", "summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dropped 42 records" in out
    assert "max_pending 8" in out


def test_spans_renders_stage_table(recorded_trace, capsys):
    # The recorded trace's wildcard writer captured every span record, so
    # the offline decomposition works without any --spans flag at record
    # time.
    assert main(["trace", "spans", recorded_trace]) == 0
    out = capsys.readouterr().out
    assert "finished block spans" in out
    for stage in ("sched_wait", "transmit", "decode_wait", "reorder_wait"):
        assert stage in out
    assert "p95" in out or "p95(ms)" in out


def test_critical_path_renders_slowest_blocks(recorded_trace, capsys):
    assert main(["trace", "critical-path", recorded_trace, "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "slowest 2 of" in out
    assert "critical stage" in out
    assert "legs:" in out


def test_span_and_block_delay_quantiles_are_exact(recorded_trace, capsys):
    """The stage table and ``summarize``'s block-delay line are exact
    order statistics (``metrics.stats.percentile``, the definition the
    Fig. 7 block-delay percentiles use) of the spans and records they
    describe, not streaming estimates."""
    from repro.metrics.stats import mean, percentile
    from repro.sim.tracefile import read_trace_file
    from repro.telemetry import collect_spans

    def exact(values):
        return {
            "count": len(values),
            "mean": mean(values),
            "p50": percentile(values, 50),
            "p95": percentile(values, 95),
            "p99": percentile(values, 99),
        }

    records = read_trace_file(recorded_trace)
    collector = collect_spans(records)
    assert len(collector.finished) > 5  # past where a streaming estimate is exact
    for protocol, stages in collector.summary()["stages"].items():
        spans = [span for span in collector.finished if span.protocol == protocol]
        for name, snapshot in stages.items():
            delays_ms = [
                (span.total_delay if name == "total" else span.stage_durations()[name])
                * 1e3
                for span in spans
            ]
            assert snapshot == exact(delays_ms), (protocol, name)

    delays_ms = [
        record["delay"] * 1e3
        for record in records
        if record["kind"] == "conn.block_done" and "delay" in record
    ]
    assert main(["trace", "summarize", recorded_trace]) == 0
    line = next(
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("block delay (ms):")
    )
    stats = exact(delays_ms)
    assert line == (
        f"block delay (ms): n={len(delays_ms)} mean={stats['mean']:.2f} "
        f"p50={stats['p50']:.2f} p95={stats['p95']:.2f} p99={stats['p99']:.2f} "
        f"max={max(delays_ms):.2f}"
    )


def test_summarize_hints_at_span_decomposition(recorded_trace, capsys):
    assert main(["trace", "summarize", recorded_trace]) == 0
    out = capsys.readouterr().out
    assert "span records" in out
    assert "repro trace spans" in out


def test_unknown_trace_subcommand_exits_2_with_menu(capsys):
    assert main(["trace", "bogus"]) == 2
    captured = capsys.readouterr()
    assert "invalid choice" in captured.err
    assert "trace subcommands:" in captured.out
    assert "spans" in captured.out and "critical-path" in captured.out


@pytest.mark.parametrize(
    "subcommand", ["summarize", "subflows", "timeline", "export-csv", "spans"]
)
def test_missing_trace_file_exits_2_with_menu(subcommand, capsys, tmp_path):
    assert main(["trace", subcommand, str(tmp_path / "nope.jsonl")]) == 2
    captured = capsys.readouterr()
    assert "error: cannot read trace file" in captured.err
    assert "trace subcommands:" in captured.out


def test_corrupt_trace_file_exits_2_with_menu(tmp_path, capsys):
    path = tmp_path / "corrupt.jsonl"
    # Mid-file garbage (a torn *last* line would be silently dropped).
    path.write_text('{"t": 0.0, "kind": "a"}\nnot json at all\n{"t": 1.0}\n')
    assert main(["trace", "spans", str(path)]) == 2
    captured = capsys.readouterr()
    assert "not a JSONL trace file" in captured.err
    assert "trace subcommands:" in captured.out


def test_record_with_spans_prints_conservation_line(tmp_path, capsys):
    output = tmp_path / "spanned.jsonl"
    assert main(
        [
            "--duration", "1",
            "trace", "record",
            "--case", "1",
            "--output", str(output),
            "--spans",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "spans:" in out
    assert "conservation error" in out
