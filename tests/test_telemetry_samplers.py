"""Samplers and the telemetry session: series content, clean teardown,
and the zero-cost-when-off guarantee."""

import pytest

from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.mptcp.connection import MptcpConfig, MptcpConnection
from repro.net.topology import PathConfig
from repro.sim.rng import RngStreams
from repro.telemetry import PeriodicSampler, TelemetryConfig, attach_samplers
from repro.workloads.sources import BulkSource

from tests.conftest import make_two_path


def _fmtcp(network, paths, trace, seed=7):
    return FmtcpConnection(
        network.sim, paths, BulkSource(), config=FmtcpConfig(),
        trace=trace, rng=RngStreams(seed),
    )


def _collect(trace, kinds):
    seen = {kind: [] for kind in kinds}
    for kind in kinds:
        trace.subscribe(kind, seen[kind].append)
    return seen


def test_attach_samplers_fmtcp_emits_all_series():
    network, paths, trace = make_two_path(loss2=0.05)
    connection = _fmtcp(network, paths, trace)
    seen = _collect(
        trace, ["telemetry.subflow", "telemetry.decoder", "telemetry.conn"]
    )
    samplers = attach_samplers(network.sim, connection, trace, period_s=0.1)
    assert len(samplers) == 3
    connection.start()
    network.sim.run(until=3.0)

    subflow_records = seen["telemetry.subflow"]
    assert subflow_records, "no subflow samples"
    ids = {record["subflow"] for record in subflow_records}
    assert ids == {0, 1}
    sample = subflow_records[-1]
    for key in ("cwnd", "ssthresh", "srtt", "rto", "in_flight", "loss_est", "eat"):
        assert key in sample.fields
    assert sample["eat"] is not None  # FMTCP sender provides the EAT table

    assert seen["telemetry.conn"], "no connection samples"
    assert "pending_blocks" in seen["telemetry.conn"][-1].fields


def test_sampled_eats_are_the_allocators_eat_table():
    """Each ``telemetry.subflow`` record's ``eat`` is Eq. (11)'s initial EAT
    as :func:`eat_table` computes it from the sender's path estimates,
    suspect paths included, on every tick of a run in which path 1 dies."""
    from repro.core.estimators import eat_table
    from repro.faults.scenario import FaultEvent, FaultScenario

    network, paths, trace = make_two_path(loss2=0.05)
    connection = _fmtcp(network, paths, trace)
    FaultScenario("kill", [FaultEvent(2.0, "down", 1)]).apply(network.sim, paths)
    sender = connection.sender
    checked, suspect_rows = [], []

    def check(record):
        want = eat_table(sender.path_estimates(include_suspect=True))
        assert record["eat"] == want.get(record["subflow"]), record
        checked.append(record)
        if record["suspect"]:
            suspect_rows.append(record)

    trace.subscribe("telemetry.subflow", check)
    attach_samplers(network.sim, connection, trace, period_s=0.1)
    connection.start()
    network.sim.run(until=6.0)
    assert len(checked) > 100
    assert suspect_rows and all(row["eat"] is not None for row in suspect_rows)


def test_attach_samplers_mptcp_duck_typing():
    network, paths, trace = make_two_path()
    connection = MptcpConnection(
        network.sim, paths, BulkSource(), config=MptcpConfig(), trace=trace
    )
    seen = _collect(trace, ["telemetry.subflow", "telemetry.conn"])
    samplers = attach_samplers(network.sim, connection, trace, period_s=0.1)
    # MPTCP has no fountain decoder, so no DecoderSampler.
    assert len(samplers) == 2
    connection.start()
    network.sim.run(until=2.0)
    assert seen["telemetry.subflow"]
    assert seen["telemetry.subflow"][-1]["eat"] is None
    assert "reorder_occupancy" in seen["telemetry.conn"][-1].fields
    for sampler in samplers:
        sampler.stop()


def test_sampler_stop_cancels_pending_event(sim):
    class Noop(PeriodicSampler):
        def sample(self):
            pass

    sampler = Noop(sim, period_s=0.1)
    sampler.start()
    assert sim.pending_events == 1
    sampler.stop()
    sim.drain_cancelled()
    assert sim.pending_events == 0
    # Stop mid-run too: the rescheduled event must also be cancelled.
    sampler.start()
    sim.run(until=0.35)
    assert sampler.samples_taken == 3
    sampler.stop()
    sim.drain_cancelled()
    assert sim.pending_events == 0


def test_sampler_validation(sim):
    class Noop(PeriodicSampler):
        def sample(self):
            pass

    with pytest.raises(ValueError):
        Noop(sim, period_s=0.0)


def test_no_telemetry_records_without_samplers():
    """The zero-cost path: an uninstrumented run emits no telemetry.*
    records and pays no subscriber cost at the emit call sites."""
    network, paths, trace = make_two_path()
    connection = _fmtcp(network, paths, trace)
    assert not trace.has_subscribers("telemetry.subflow")
    seen = _collect(trace, ["telemetry.subflow", "telemetry.decoder", "telemetry.conn"])
    connection.start()
    network.sim.run(until=2.0)
    assert all(not records for records in seen.values())


def test_decoder_sampler_unsubscribes_on_stop():
    """Samplers poll on their own timer: once stopped, no bus callback
    belongs to one of them and no ``telemetry.*`` record follows."""
    network, paths, trace = make_two_path()
    connection = _fmtcp(network, paths, trace)
    samplers = attach_samplers(network.sim, connection, trace, period_s=0.1)
    for sampler in samplers:
        sampler.stop()
    owners = [
        getattr(callback, "__self__", None)
        for callbacks in (*trace._subscribers.values(), trace._wildcard)
        for callback in callbacks
    ]
    assert not any(owner is sampler for owner in owners for sampler in samplers)
    seen = _collect(trace, ["telemetry.subflow", "telemetry.decoder", "telemetry.conn"])
    connection.start()
    network.sim.run(until=2.0)
    assert all(not records for records in seen.values())


def test_run_transfer_with_telemetry_config(tmp_path):
    from repro.experiments.runner import run_transfer

    trace_path = tmp_path / "run.jsonl"
    result = run_transfer(
        "fmtcp",
        [PathConfig(bandwidth_bps=4e6, delay_s=0.02, loss_rate=0.01)] * 2,
        duration_s=3.0,
        telemetry=TelemetryConfig(
            sample_period_s=0.1,
            trace_path=str(trace_path),
            profile_sim=True,
        ),
    )
    report = result.telemetry
    assert report is not None
    assert report.trace_records_written > 0
    assert trace_path.exists()
    assert report.profile is not None and report.profile["events"] > 0


def test_run_transfer_without_telemetry_has_none():
    from repro.experiments.runner import run_transfer

    result = run_transfer(
        "fmtcp",
        [PathConfig(bandwidth_bps=4e6, delay_s=0.02)] * 2,
        duration_s=1.0,
    )
    assert result.telemetry is None


def test_telemetry_config_validation():
    for period in (0.0, -1.0, float("nan")):  # NaN is not <= 0 either
        with pytest.raises(ValueError, match="sample_period_s must be positive"):
            TelemetryConfig(sample_period_s=period)


def test_telemetry_session_finish_is_idempotent(sim, trace):
    from repro.telemetry import TelemetrySession

    session = TelemetrySession(sim, trace, config=TelemetryConfig(profile_sim=True))
    assert sim.profiler is session.profiler
    first = session.finish()
    second = session.finish()
    assert sim.profiler is None
    assert first.profile is not None and second.profile is not None


def test_telemetry_session_stop_is_idempotent_from_crash_paths(tmp_path, sim, trace):
    """Recovery teardown calls ``stop()`` with no report; a later second
    stop (or ``finish()``) must not double-cancel samplers, double-close
    the trace writer, or detach someone else's profiler."""
    from repro.net.topology import PathConfig, build_two_path_network
    from repro.sim.rng import RngStreams
    from repro.telemetry import TelemetryConfig, TelemetrySession
    from repro.telemetry.profiler import SimProfiler
    from repro.workloads.sources import BulkSource
    from repro.mptcp.connection import MptcpConnection

    configs = [PathConfig(bandwidth_bps=4e6, delay_s=0.02) for __ in range(2)]
    network, paths = build_two_path_network(configs, rng=RngStreams(1))
    connection = MptcpConnection(network.sim, paths, BulkSource(50_000))
    session = TelemetrySession(
        network.sim,
        trace,
        config=TelemetryConfig(
            sample_period_s=0.1,
            trace_path=str(tmp_path / "crash.jsonl"),
            profile_sim=True,
        ),
    )
    session.attach(connection)
    connection.start()
    network.sim.run(until=0.5)

    session.stop()  # the crash path: teardown mid-run, no report
    assert all(not s._running for s in session.samplers)
    assert network.sim.profiler is None
    session.stop()  # double-stop from a second crash handler: no raise
    report = session.finish()  # and a late report still works
    assert report.trace_records_written > 0
    connection.close()

    # stop() must not steal a profiler installed after the session's.
    other_sim_session = TelemetrySession(sim, trace, config=TelemetryConfig(profile_sim=True))
    replacement = SimProfiler()
    sim.set_profiler(replacement)
    other_sim_session.stop()
    assert sim.profiler is replacement
    sim.set_profiler(None)
