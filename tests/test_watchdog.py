"""The no-progress watchdog: stall detection and the escalation ladder."""

import pytest

from repro.robustness.watchdog import Watchdog, WatchdogConfig
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.sim.tracefile import read_trace_file
from repro.telemetry.flight import FlightRecorder


class FakeSubflow:
    def __init__(self, subflow_id=0, srtt=0.05):
        self.subflow_id = subflow_id
        self.srtt = srtt
        self.in_flight = 3
        self.state = "established"
        self.potentially_failed = False


class FakeSender:
    def __init__(self):
        self.margin = 10.0
        self.pumps = 0

    def pump_all(self):
        self.pumps += 1


class FakeConnection:
    def __init__(self, srtt=0.05):
        self.delivered_bytes = 0
        self.subflows = [FakeSubflow(0, srtt), FakeSubflow(1, srtt * 2)]
        self.sender = FakeSender()
        self.pumps = 0

    def pump(self):
        self.pumps += 1

    def memory_stats(self):
        return {"recv_occupancy": 7}

    def flow_stats(self):
        return {"enabled": True, "flow_pauses": 2}


class FakeSampler:
    def __init__(self):
        self._running = True

    def stop(self):
        self._running = False


def test_config_validation():
    with pytest.raises(ValueError):
        WatchdogConfig(min_stall_s=0.0)


def test_stall_threshold_scales_with_srtt():
    sim = Simulator()
    connection = FakeConnection(srtt=0.5)  # slowest subflow srtt = 1.0
    watchdog = Watchdog(sim, connection)
    assert watchdog.stall_threshold_s() == pytest.approx(8.0)  # 8 × SRTT
    connection.subflows = []
    assert watchdog.stall_threshold_s() == pytest.approx(1.0)  # the floor


def test_progress_keeps_the_ladder_at_zero():
    sim = Simulator()
    connection = FakeConnection()
    watchdog = Watchdog(sim, connection, WatchdogConfig(min_stall_s=1.0))
    watchdog.start()

    def advance():
        connection.delivered_bytes += 1000
        sim.schedule(0.5, advance)

    sim.schedule(0.5, advance)
    sim.run(until=10.0)
    assert watchdog.escalation == 0
    assert not watchdog.failed
    assert watchdog.stalls_detected == 0
    watchdog.stop()


def test_escalation_ladder_shed_boost_fail():
    sim = Simulator()
    trace = TraceBus()
    seen = []
    trace.subscribe("*", lambda record: seen.append(record.kind))
    connection = FakeConnection()
    samplers = [FakeSampler(), FakeSampler()]
    watchdog = Watchdog(
        sim,
        connection,
        WatchdogConfig(min_stall_s=1.0),
        trace=trace,
        samplers=samplers,
    )
    watchdog.start()
    sim.run(until=10.0)

    assert watchdog.failed
    assert watchdog.escalation == 3
    assert watchdog.samplers_shed == 2
    assert all(not sampler._running for sampler in samplers)
    assert watchdog.margin_boosts == 1
    assert connection.sender.margin == pytest.approx(18.0)
    assert connection.sender.pumps == 1 and connection.pumps == 1
    assert seen == ["watchdog.shed", "watchdog.margin_boost", "watchdog.failed"]
    # The timer retired itself on failure: nothing left to run.
    assert sim.pending_events == 0

    diagnosis = watchdog.diagnosis
    assert diagnosis["memory"] == {"recv_occupancy": 7}
    assert diagnosis["flow"]["flow_pauses"] == 2
    assert [entry["id"] for entry in diagnosis["subflows"]] == [0, 1]


def test_margin_rung_is_noop_without_a_margin_knob():
    sim = Simulator()
    connection = FakeConnection()
    connection.sender = object()  # an MPTCP-style stack: no margin
    watchdog = Watchdog(sim, connection, WatchdogConfig(min_stall_s=1.0))
    watchdog.start()
    sim.run(until=10.0)
    assert watchdog.failed
    assert watchdog.margin_boosts == 0


def test_progress_mid_ladder_resets_escalation():
    sim = Simulator()
    connection = FakeConnection()
    watchdog = Watchdog(sim, connection, WatchdogConfig(min_stall_s=1.0))
    watchdog.start()
    # Let it climb one rung, then deliver bytes before the second.
    sim.schedule_at(1.5, lambda: setattr(connection, "delivered_bytes", 99))
    sim.run(until=1.6)
    assert watchdog.escalation == 0
    assert watchdog.stalls_detected == 1
    watchdog.stop()
    sim.drain_cancelled()
    assert sim.pending_events == 0


def test_failure_dumps_flight_post_mortem(tmp_path):
    sim = Simulator()
    trace = TraceBus()
    flight = FlightRecorder(trace, capacity=64)
    trace.emit(0.0, "conn.delivered", bytes=0)
    connection = FakeConnection()
    watchdog = Watchdog(
        sim,
        connection,
        WatchdogConfig(min_stall_s=1.0),
        trace=trace,
        flight=flight,
        dump_dir=str(tmp_path),
        label="unit test/run",
    )
    watchdog.start()
    sim.run(until=10.0)
    assert watchdog.dump_path is not None
    records = read_trace_file(watchdog.dump_path)
    assert records[0]["kind"] == "flight.meta"
    assert records[0]["reason"] == "watchdog_failed"
    assert any(record["kind"] == "watchdog.failed" for record in records)
