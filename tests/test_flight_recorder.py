"""Flight recorder: bounded ring semantics, dump format, and the chaos
harness writing post-mortems on invariant violations."""

import json

import pytest

from repro import soak
from repro.faults import FaultScenario, resolve_scenario
from repro.faults.chaos import CHAOS
from repro.soak import run_soak
from repro.sim.tracefile import read_trace_file
from repro.telemetry import FlightRecorder


def test_ring_keeps_only_last_capacity_records(trace):
    flight = FlightRecorder(trace, capacity=10)
    for index in range(25):
        trace.emit(float(index), "k", seq=index)
    assert len(flight) == 10
    assert flight.records_seen == 25
    assert flight.dropped == 15
    assert [record["seq"] for record in flight._ring] == list(range(15, 25))


def test_close_detaches_and_is_idempotent(trace):
    flight = FlightRecorder(trace, capacity=4)
    trace.emit(0.0, "k")
    flight.close()
    flight.close()
    trace.emit(1.0, "k")
    assert len(flight) == 1  # nothing captured after close


def test_dump_format_reads_back_with_trace_reader(trace, tmp_path):
    flight = FlightRecorder(trace, capacity=4)
    for index in range(6):
        trace.emit(float(index), "k", seq=index, nested={"a": (1, 2)})
    path = tmp_path / "dump.jsonl"
    flight.dump(str(path), meta={"scenario": "test"})
    records = read_trace_file(str(path))
    header, body = records[0], records[1:]
    assert header["kind"] == "flight.meta"
    assert header["capacity"] == 4
    assert header["records_seen"] == 6
    assert header["records_retained"] == 4
    assert header["dropped"] == 2
    assert header["scenario"] == "test"
    assert [record["seq"] for record in body] == [2, 3, 4, 5]
    assert body[0]["nested"] == {"a": [1, 2]}  # _jsonable applied


def test_chaos_violation_writes_flight_dump_and_profile(tmp_path, monkeypatch):
    monkeypatch.setattr(soak, "FLIGHT_CAPACITY", 128)
    # A run cut off mid-transfer cannot complete: guaranteed violation.
    report = run_soak(
        CHAOS,
        "fmtcp",
        resolve_scenario("path_death"),
        seed=3,
        duration_s=6.0,
        flight_dump_dir=str(tmp_path),
    )
    assert not report.ok
    assert report.flight_dump_path is not None
    records = read_trace_file(report.flight_dump_path)
    header = records[0]
    assert header["kind"] == "flight.meta"
    assert header["capacity"] == 128
    assert header["protocol"] == "fmtcp"
    assert header["seed"] == 3
    assert header["violations"]
    assert len(records) == header["records_retained"] + 1
    with open(report.profile_dump_path) as handle:
        profile = json.load(handle)
    assert profile["events"] > 0
    assert profile["by_kind"]


def test_chaos_clean_run_leaves_no_dump(tmp_path):
    report = run_soak(
        CHAOS,
        "fmtcp",
        resolve_scenario("path_death"),
        flight_dump_dir=str(tmp_path),
    )
    assert report.ok
    assert report.flight_dump_path is None
    assert report.profile_dump_path is None
    assert not list(tmp_path.iterdir())


def test_chaos_sanitizes_scenario_name_in_dump_path(tmp_path):
    report = run_soak(
        CHAOS,
        "fmtcp",
        FaultScenario.random(5),
        seed=5,
        duration_s=5.0,  # too short to finish -> violation
        flight_dump_dir=str(tmp_path),
    )
    assert not report.ok
    assert ":" not in report.flight_dump_path.rsplit("/", 1)[-1]


def _violating_runs():
    """One run per harness that cannot finish, under a scenario name that
    needs sanitising (``:`` and ``/``)."""
    import dataclasses

    from repro.faults import presets
    from repro.faults.scenario import FaultEvent, trace_replay_scenario
    from repro.faults.churn import CHURN
    from repro.faults.corruption import CORRUPTION
    from repro.recovery.harness import RECOVERY
    from repro.robustness.exhaustion import EXHAUSTION
    from repro.traces.harness import TRACES

    handover = [FaultEvent(2.0, "handover", 0, (1, 0.3))]
    corrupt = [FaultEvent(1.0, "corrupt", 1, 0.05), FaultEvent(4.0, "corrupt", 1, None)]
    short = dict(seed=4, duration_s=5.0)
    return {
        "chaos": (CHAOS, FaultScenario.random(5), short),
        "churn": (
            CHURN,
            FaultScenario("mobility:wifi/lte", handover, active_paths=(0,)),
            short,
        ),
        "corruption": (CORRUPTION, FaultScenario("rot:bit/flip", corrupt), short),
        "exhaustion": (
            EXHAUSTION,
            dataclasses.replace(
                presets("exhaustion")["tiny_receive_buffer"](),
                name="tiny:buffer/32k",
                duration_s=2.0,
            ),
            dict(seed=4),
        ),
        # measure_recovery's clean-baseline naming convention.
        "recovery": (RECOVERY, FaultScenario("baseline:receiver_crash", []), short),
        "traces": (TRACES, trace_replay_scenario("gprs:1"), short),
    }


@pytest.mark.parametrize(
    "harness", ["chaos", "churn", "corruption", "exhaustion", "recovery", "traces"]
)
def test_every_harness_writes_the_same_post_mortem(harness, tmp_path):
    """One dump function: flight ring + profiler report, both paths on
    the report, ``:``/``/`` slugged out of the file names."""
    declaration, scenario, kwargs = _violating_runs()[harness]
    report = run_soak(
        declaration, "mptcp", scenario, flight_dump_dir=str(tmp_path), **kwargs
    )
    assert not report.ok
    for path in (report.flight_dump_path, report.profile_dump_path):
        assert path is not None
        name = path.rsplit("/", 1)[-1]
        assert name.startswith(f"{harness}_mptcp_")
        assert ":" not in name and name.count("/") == 0
    header = read_trace_file(report.flight_dump_path)[0]
    assert header["kind"] == "flight.meta"
    assert header["harness"] == harness
    assert header["scenario"] == scenario.name
    assert header["seed"] == 4
    assert header["violations"] == report.violations
    with open(report.profile_dump_path) as handle:
        assert json.load(handle)["events"] > 0
    written = {p.name for p in tmp_path.iterdir() if not p.name.startswith("watchdog_")}
    assert written == {
        path.rsplit("/", 1)[-1]
        for path in (report.flight_dump_path, report.profile_dump_path)
    }
