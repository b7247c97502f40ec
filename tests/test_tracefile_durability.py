"""TraceFileWriter lifecycle and crash tolerance of the JSONL format."""

import json

import pytest

from repro.sim.trace import TraceBus
from repro.sim.tracefile import TraceFileWriter, _jsonable, read_trace_file


def test_context_manager_closes_and_detaches(tmp_path):
    trace = TraceBus()
    path = tmp_path / "t.jsonl"
    with TraceFileWriter(trace, str(path)) as writer:
        trace.emit(0.0, "k")
        assert not writer.closed
    assert writer.closed
    assert not trace.has_subscribers("k")
    trace.emit(1.0, "k")
    assert len(read_trace_file(str(path))) == 1


def test_close_is_idempotent(tmp_path):
    trace = TraceBus()
    with TraceFileWriter(trace, str(tmp_path / "t.jsonl")) as writer:
        writer.close()
        writer.close()  # explicit close inside the with block is fine


def test_flush_makes_lines_visible_before_close(tmp_path, monkeypatch):
    monkeypatch.setattr(TraceFileWriter, "FLUSH_EVERY", 1)
    trace = TraceBus()
    path = tmp_path / "t.jsonl"
    writer = TraceFileWriter(trace, str(path))
    trace.emit(0.0, "k", n=1)
    # Readable mid-run: the writer is still attached.
    assert read_trace_file(str(path)) == [{"t": 0.0, "kind": "k", "n": 1}]
    writer.close()


def test_flush_every_n_records(tmp_path, monkeypatch):
    monkeypatch.setattr(TraceFileWriter, "FLUSH_EVERY", 3)
    trace = TraceBus()
    path = tmp_path / "t.jsonl"
    writer = TraceFileWriter(trace, str(path))
    for index in range(7):
        trace.emit(float(index), "k")
    # Two automatic flushes at records 3 and 6; at least 6 lines on disk.
    assert len(read_trace_file(str(path))) >= 6
    writer.close()
    assert len(read_trace_file(str(path))) == 7


def test_torn_trailing_line_is_dropped(tmp_path):
    """A crashed writer leaves a partial final line; the reader returns
    every complete record before it."""
    path = tmp_path / "crashed.jsonl"
    with open(path, "w") as handle:
        handle.write(json.dumps({"t": 0.0, "kind": "a"}) + "\n")
        handle.write(json.dumps({"t": 1.0, "kind": "b"}) + "\n")
        handle.write('{"t": 2.0, "kind": "c", "fie')  # torn mid-write
    records = read_trace_file(str(path))
    assert [record["kind"] for record in records] == ["a", "b"]


def test_torn_line_raises_in_strict_mode(tmp_path):
    path = tmp_path / "crashed.jsonl"
    with open(path, "w") as handle:
        handle.write(json.dumps({"t": 0.0, "kind": "a"}) + "\n")
        handle.write('{"torn')
    with pytest.raises(json.JSONDecodeError):
        read_trace_file(str(path), strict=True)


def test_mid_file_corruption_still_raises(tmp_path):
    path = tmp_path / "corrupt.jsonl"
    with open(path, "w") as handle:
        handle.write(json.dumps({"t": 0.0, "kind": "a"}) + "\n")
        handle.write("NOT JSON\n")
        handle.write(json.dumps({"t": 2.0, "kind": "c"}) + "\n")
    with pytest.raises(json.JSONDecodeError):
        read_trace_file(str(path))


def test_crashed_writer_leaves_parseable_file(tmp_path, monkeypatch):
    """Simulated crash: the writer is abandoned without close(); whatever
    was flushed must read back cleanly."""
    trace = TraceBus()
    path = tmp_path / "abandoned.jsonl"
    monkeypatch.setattr(TraceFileWriter, "FLUSH_EVERY", 2)
    writer = TraceFileWriter(trace, str(path))
    for index in range(5):
        trace.emit(float(index), "k", seq=index)
    # No close() — only force the OS view like a dying process would.
    writer._handle.flush()
    records = read_trace_file(str(path))
    assert [record["seq"] for record in records] == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# _jsonable round-trips.
# ----------------------------------------------------------------------
class _Opaque:
    def __repr__(self):
        return "<Opaque thing>"


@pytest.mark.parametrize(
    "value, expected",
    [
        (1, 1),
        (1.5, 1.5),
        ("s", "s"),
        (True, True),
        (None, None),
        ((1, 2), [1, 2]),
        ([1, (2, 3)], [1, [2, 3]]),
        ({"a": (1,), 2: "b"}, {"a": [1], "2": "b"}),
        (_Opaque(), "<Opaque thing>"),
    ],
)
def test_jsonable_values(value, expected):
    converted = _jsonable(value)
    assert converted == expected
    json.dumps(converted)  # must always be serialisable


def test_nonscalar_fields_roundtrip_through_file(tmp_path):
    trace = TraceBus()
    path = tmp_path / "t.jsonl"
    with TraceFileWriter(trace, str(path)):
        trace.emit(
            0.5,
            "k",
            table={1: 0.25, 2: 0.5},
            seq=(7, 8),
            opaque=_Opaque(),
            none=None,
        )
    record = read_trace_file(str(path))[0]
    assert record["table"] == {"1": 0.25, "2": 0.5}
    assert record["seq"] == [7, 8]
    assert record["opaque"] == "<Opaque thing>"
    assert record["none"] is None


def test_close_writes_terminal_dropped_record(tmp_path):
    trace = TraceBus()
    trace.MAX_PENDING = 2
    path = tmp_path / "t.jsonl"

    def burst(record):
        for __ in range(5):
            trace.emit(record.time, "quiet")

    trace.subscribe("burst", burst)
    with TraceFileWriter(trace, str(path)) as writer:
        trace.emit(3.0, "burst")
    assert trace.records_dropped == 3
    records = read_trace_file(str(path))
    terminal = records[-1]
    assert terminal["kind"] == "trace.dropped"
    assert terminal["dropped"] == 3
    assert terminal["max_pending"] == 2
    assert terminal["t"] == 3.0  # stamped at the last record's time


def test_no_terminal_record_without_drops(tmp_path):
    trace = TraceBus()
    path = tmp_path / "t.jsonl"
    with TraceFileWriter(trace, str(path)):
        trace.emit(0.0, "k")
    kinds = [record["kind"] for record in read_trace_file(str(path))]
    assert "trace.dropped" not in kinds
