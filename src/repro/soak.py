"""The soak kernel: one experiment skeleton for every robustness harness.

A soak run is always the same experiment — build a two-path topology and
a finite FMTCP or MPTCP transfer, let something hostile happen to it,
then check that what reached the application is what a robust transport
owes it. What differs between harnesses is *data*:

* a :class:`Harness` declares a name (the scenario group :meth:`route`
  must send to it), a payload source, an ordered tuple of wiring
  **steps**, a tuple of **invariants** and its **size** — the clean
  paths, the transfer, the run length and the stack's config, as a
  :class:`Sizing` computed from the protocol and the scenario;
* a step is ``step(run)``: it builds, subscribes or schedules one piece
  of wiring on the :class:`Run` (arm the fault timeline, probe at heal
  time, ride a watchdog, ...). Steps run in declaration order *because
  order is behaviour*: two events at the same simulated instant fire in
  scheduling order, so the order of the steps fixes the simulator's
  sequence numbers and with them every pinned result;
* an invariant is a pure function ``Run -> Iterable[str]`` yielding one
  message per violation. Pure, so each can be shown to fail on a
  hand-built :class:`Run` (``tests/test_soak_invariants.py``).

:func:`run_soak` is the one entry point. It builds the flight recorder,
the sink and the source, takes the topology and the connection from
:mod:`repro.experiments.runner`'s builder pair (the one every transfer
uses), polls for completion, tears down, checks that the event queue
drained and writes the post-mortem. It never asks which harness it
serves.

The shared steps and invariants live here; the ones only one harness
uses live next to its declaration (``repro.faults.{chaos,churn,
corruption}``, ``repro.robustness.exhaustion``,
``repro.recovery.harness``, ``repro.traces.harness``). This module
imports none of those packages, so any of them can be imported first.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import zlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import FmtcpConfig
from repro.experiments.runner import build_connection, build_topology
from repro.mptcp.connection import MptcpConfig
from repro.net.topology import PathConfig
from repro.robustness.budget import MemoryBudget
from repro.robustness.watchdog import Watchdog, WatchdogConfig
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.profiler import SimProfiler
from repro.telemetry.samplers import attach_samplers
from repro.workloads.sources import BulkSource, RandomPayloadSource

PROTOCOLS = ("fmtcp", "mptcp")

#: Completion is polled, not signalled: every harness learns of it on the
#: same 250 ms grid, so completion times compare across harnesses.
POLL_S = 0.25
#: How many of the newest trace records a post-mortem keeps.
FLIGHT_CAPACITY = 4096
#: How often :func:`guard`'s telemetry samplers read the connection.
TELEMETRY_PERIOD_S = 0.1


@dataclass
class SoakReport:
    """Outcome of one soak run, whichever harness produced it.

    The identity and delivery fields are always filled; the rest are
    filled by the steps a harness declares and stay at their defaults
    otherwise (``docs/robustness.md`` has the step → field table).
    """

    harness: str
    protocol: str
    scenario_name: str
    seed: int
    duration_s: float
    expected_bytes: int
    expected_units: int
    # None = the scenario makes no promise; True/False = it must complete /
    # must end in a clean failure (exhaustion and recovery scenarios).
    expect_complete: Optional[bool] = None
    delivered_bytes: int = 0
    delivered_units: int = 0
    completed: bool = False
    completion_time_s: Optional[float] = None
    payload_crc32: int = 0
    # heal_probe
    bytes_at_heal: int = 0
    # churn
    pre_churn_mbps: float = 0.0
    recovered_at_s: Optional[float] = None
    path_downs: int = 0
    path_ups: int = 0
    handovers: int = 0
    # integrity (every harness; nonzero only when the wire corrupted)
    packets_corrupted: int = 0
    corruption_stats: Dict[str, int] = field(default_factory=dict)
    # guard (flow control + bounded memory) and ride_watchdog
    budget_units: int = 0
    peak_occupancy: int = 0
    memory_peaks: Dict[str, float] = field(default_factory=dict)
    flow: Dict[str, Any] = field(default_factory=dict)
    watchdog_failed: bool = False
    watchdog_escalation: int = 0
    fail_reason: Optional[str] = None
    diagnosis: Optional[Dict[str, Any]] = None
    # traces: samples the player applied, one per change of the sample in force
    trace_ticks: int = 0
    # recovery
    crashes: int = 0
    resumes: int = 0
    attempts: int = 0
    epochs: int = 0
    recovery_state: str = "running"
    outages: List[Dict[str, Any]] = field(default_factory=list)
    max_outage_s: float = 0.0
    checkpoint_bytes: int = 0
    violations: List[str] = field(default_factory=list)
    flight_dump_path: Optional[str] = None
    profile_dump_path: Optional[str] = None
    watchdog_dump_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class Run:
    """One wired soak run: what the steps fill in and the invariants read.

    Every field has a default so a test can hand-build the one defect an
    invariant names without wiring a simulation.
    """

    report: SoakReport
    scenario: Any = None
    sim: Any = None
    trace: Any = None
    network: Any = None
    paths: Sequence[Any] = ()
    config: Any = None
    source: Any = None
    sink: Any = None
    # The live connection; a recovery epoch replaces it.
    connection: Any = None
    delivered_ids: List[int] = field(default_factory=list)
    delivered_chunks: List[bytes] = field(default_factory=list)
    payload: bytes = b""  # the delivered stream, joined after the run
    transcript: bytes = b""  # what a real-payload source handed out
    flight: Optional[FlightRecorder] = None
    profiler: Optional[SimProfiler] = None
    flight_dump_dir: Optional[str] = None
    # Slots the steps fill.
    controller: Any = None
    budget: Optional[MemoryBudget] = None
    watchdog: Optional[Watchdog] = None
    manager: Any = None
    timers_at_heal: List[str] = field(default_factory=list)
    # Hooks the steps register, each run in registration order: started
    # after the completion poll is scheduled, collected after the run,
    # closed after the invariants and before ``connection.close()``.
    starters: List[Callable[[], None]] = field(default_factory=list)
    collectors: List[Callable[[], None]] = field(default_factory=list)
    closers: List[Callable[[], None]] = field(default_factory=list)


Step = Callable[[Run], None]
Invariant = Callable[[Run], Iterable[str]]


@dataclass(frozen=True)
class Sizing:
    """One soak transfer's shape: clean paths, bytes, run length, config."""

    paths: Sequence[PathConfig]
    total_bytes: int
    duration_s: float
    config: Any = None  # None = the protocol's default config
    active_paths: Optional[Sequence[int]] = None  # None = every path
    # None = the scenario makes no promise; see SoakReport.expect_complete.
    expect_complete: Optional[bool] = None


@dataclass(frozen=True)
class Harness:
    """A soak harness as data; see the module docstring."""

    name: str
    source: Callable[[int, int], Any]  # (expected_bytes, seed) -> source
    steps: Tuple[Step, ...]
    invariants: Tuple[Invariant, ...]
    size: Callable[[str, Any], Sizing]  # (protocol, scenario) -> Sizing


# ----------------------------------------------------------------------
# Helpers shared by the kernel and the open-ended ``measure_*`` probes.
# ----------------------------------------------------------------------
def uniform_paths(
    n_paths: int, bandwidth_bps: float, delay_s: float, loss_rate: float = 0.0
) -> List[PathConfig]:
    return [
        PathConfig(bandwidth_bps=bandwidth_bps, delay_s=delay_s, loss_rate=loss_rate)
        for __ in range(n_paths)
    ]


def receive_units(protocol: str, budget_bytes: int) -> int:
    """A receiver byte budget in the protocol's units (8 KiB blocks for
    FMTCP, MSS chunks for MPTCP), so both stacks face the same bytes."""
    if protocol == "fmtcp":
        return max(2, budget_bytes // FmtcpConfig().block_bytes)
    if protocol == "mptcp":
        return max(2, budget_bytes // MptcpConfig().mss)
    raise ValueError(f"unknown protocol {protocol!r}")


def window_units(protocol: str, config) -> int:
    """The flow-control window ``config`` grants, in the protocol's units."""
    if protocol == "fmtcp":
        return config.recv_window_blocks
    return config.recv_buffer_chunks


def bulk_source(expected_bytes: int, seed: int):
    """Synthetic payload: delivery is counted, not byte-verified."""
    return BulkSource(total_bytes=expected_bytes)


def random_payload(expected_bytes: int, seed: int):
    """Real random bytes with a transcript for :func:`byte_identical`."""
    return RandomPayloadSource(expected_bytes, rng=random.Random(seed))


# ----------------------------------------------------------------------
# The kernel.
# ----------------------------------------------------------------------
def admit(harness: Harness, protocol: str, scenario) -> None:
    """Reject a protocol or a scenario this harness cannot check.

    ``scenario.route`` owns the routing rule and the diagnostic; a
    scenario run under the wrong invariants would pass vacuously.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    scenario.route(harness.name)


def run_soak(
    harness: Harness,
    protocol: str,
    scenario,
    *,
    seed: int = 1,
    duration_s: Optional[float] = None,
    flight_dump_dir: Optional[str] = None,
) -> SoakReport:
    """Run one finite transfer under ``harness`` and check its invariants.

    ``duration_s`` cuts the run short of (or past) the harness's own
    length. With ``flight_dump_dir`` set, a flight recorder and the sim
    profiler ride along and — only if an invariant is violated — the
    last :data:`FLIGHT_CAPACITY` trace records plus a profiler report
    are written there for post-mortem analysis with ``repro trace``.
    """
    admit(harness, protocol, scenario)
    size = harness.size(protocol, scenario)
    if duration_s is None:
        duration_s = size.duration_s
    config = size.config
    if config is None:
        config = FmtcpConfig() if protocol == "fmtcp" else MptcpConfig()
    total_bytes = size.total_bytes
    trace, network, paths = build_topology(size.paths, seed)
    sim = network.sim
    flight = profiler = None
    if flight_dump_dir is not None:
        flight = FlightRecorder(trace, capacity=FLIGHT_CAPACITY)
        profiler = SimProfiler()
        sim.set_profiler(profiler)

    # Whole units, so completion accounting is exact: FMTCP rounds down
    # to whole blocks, MPTCP's last chunk may be short.
    if protocol == "fmtcp":
        expected_units = max(1, total_bytes // config.block_bytes)
        expected_bytes = expected_units * config.block_bytes
    else:
        expected_units = -(-total_bytes // config.mss)
        expected_bytes = total_bytes
    report = SoakReport(
        harness=harness.name,
        protocol=protocol,
        scenario_name=scenario.name,
        seed=seed,
        duration_s=duration_s,
        expected_bytes=expected_bytes,
        expected_units=expected_units,
        expect_complete=size.expect_complete,
    )
    run = Run(
        report=report, scenario=scenario, sim=sim, trace=trace,
        network=network, paths=paths, config=config,
        source=harness.source(expected_bytes, seed),
        flight=flight, profiler=profiler, flight_dump_dir=flight_dump_dir,
    )
    # The sink holds the lists, not the run: the receiver holding a run
    # that holds the receiver would be a cycle.
    delivered_ids, delivered_chunks = run.delivered_ids, run.delivered_chunks
    if protocol == "fmtcp":
        def sink(block_id, data):
            delivered_ids.append(block_id)
            delivered_chunks.append(data or b"")
    else:
        def sink(chunk):
            delivered_ids.append(chunk.dsn)
            delivered_chunks.append(chunk.payload_bytes or b"")
    run.sink = sink
    active_paths = size.active_paths
    if active_paths is None:
        active_paths = range(len(paths))
    run.connection = build_connection(
        protocol, sim, [paths[index] for index in active_paths], run.source,
        seed, trace, config=config, sink=sink,
    )

    for step in harness.steps:
        step(run)

    def poll() -> None:
        if run.budget is not None:
            run.budget.observe(run.connection.memory_stats())
        if run.connection.delivered_bytes >= expected_bytes:
            report.completion_time_s = sim.now
            # A finished transfer makes no further progress; that is not
            # a stall, so the watchdog retires with the transfer.
            if run.watchdog is not None:
                run.watchdog.stop()
            return
        if run.watchdog is not None and run.watchdog.failed:
            return  # terminal: the diagnosis is already frozen
        sim.schedule(POLL_S, poll)

    sim.schedule(POLL_S, poll)
    for start in run.starters:
        start()
    run.connection.start()
    sim.run(until=duration_s)
    del poll  # its closure cell held ``poll`` itself: a cycle

    report.delivered_bytes = int(run.connection.delivered_bytes)
    report.delivered_units = len(run.delivered_ids)
    report.completed = report.delivered_bytes >= expected_bytes
    run.payload = b"".join(run.delivered_chunks)
    run.transcript = bytes(getattr(run.source, "transcript", None) or b"")
    report.payload_crc32 = zlib.crc32(run.payload)
    # What the wire damaged and what each integrity defense discarded.
    report.packets_corrupted = sum(
        link.packets_corrupted
        for path in paths
        for link in (*path.forward_links, *path.reverse_links)
    )
    report.corruption_stats = run.connection.corruption_stats()
    for collect in run.collectors:
        collect()

    for invariant in harness.invariants:
        report.violations.extend(invariant(run))

    for close in run.closers:
        close()
    # The hooks are spent; dropping them cuts each closure's edge back to
    # the run.
    for hooks in (run.starters, run.collectors, run.closers):
        hooks.clear()
    run.connection.close()
    sim.drain_cancelled()
    # Every harness: once the transfer is done and closed the simulator's
    # heap compacts to empty — no leaked timer keeps the simulation alive.
    if report.completed and sim.pending_events != 0:
        report.violations.append(
            f"event queue did not drain: {sim.pending_events} live events "
            "after completion and close"
        )
    _dump(run)
    return report


def _dump(run: Run) -> None:
    """The one post-mortem writer: flight ring + profiler report, only on
    a violation, named ``<harness>_<protocol>_<scenario>_seed<N>``."""
    report = run.report
    if run.flight is None:
        return
    if report.violations:
        os.makedirs(run.flight_dump_dir, exist_ok=True)
        slug = report.scenario_name.replace(":", "-").replace("/", "-")
        stem = os.path.join(
            run.flight_dump_dir,
            f"{report.harness}_{report.protocol}_{slug}_seed{report.seed}",
        )
        report.profile_dump_path = stem + ".profile.json"
        with open(report.profile_dump_path, "w") as handle:
            json.dump(run.profiler.report(), handle, indent=2)
        report.flight_dump_path = run.flight.dump(
            stem + ".jsonl",
            meta={"scenario": report.scenario_name, **dataclasses.asdict(report)},
        )
    run.flight.close()
    run.sim.set_profiler(None)


# ----------------------------------------------------------------------
# Shared steps.
# ----------------------------------------------------------------------
def arm_timeline(run: Run) -> None:
    """Schedule the scenario's fault events (with whatever lifecycle and
    endpoint handlers earlier steps wired) and stop its trace players at
    teardown."""
    injector = run.scenario.apply(
        run.sim, run.paths, trace=run.trace,
        lifecycle=run.controller, endpoints=run.manager,
    )
    run.closers.append(injector.stop_players)


def heal_probe(run: Run) -> None:
    """Record progress and timer health the instant the last fault heals.

    Scheduled after the injector's own heal event (same time, later
    sequence number), so it sees the healed network.
    """
    def at_heal() -> None:
        run.report.bytes_at_heal = run.connection.delivered_bytes
        run.timers_at_heal = list(wedged_timers(run.connection, "at heal"))

    if run.scenario.events:
        run.sim.schedule_at(run.scenario.heal_time, at_heal)


def ride_watchdog(run: Run, config: WatchdogConfig, samplers=()) -> None:
    """A :class:`Watchdog` guaranteeing a stalled run fails cleanly, with
    a diagnosis, instead of hanging."""
    report = run.report
    watchdog = run.watchdog = Watchdog(
        run.sim, run.connection, config=config, trace=run.trace,
        samplers=samplers, flight=run.flight, dump_dir=run.flight_dump_dir,
        label=f"{report.protocol}_{report.scenario_name}_seed{report.seed}",
    )

    def collect() -> None:
        report.watchdog_failed = watchdog.failed
        report.watchdog_escalation = watchdog.escalation
        report.fail_reason = watchdog.fail_reason
        report.diagnosis = watchdog.diagnosis
        report.watchdog_dump_path = watchdog.dump_path

    run.starters.append(watchdog.start)
    run.collectors.append(collect)
    run.closers.append(watchdog.stop)


def guard(run: Run) -> None:
    """Flow-control accounting: telemetry samplers, a
    :class:`MemoryBudget` on receiver occupancy (fed by the completion
    poll) and a watchdog that sheds the samplers first."""
    report, config = run.report, run.config
    samplers = attach_samplers(
        run.sim, run.connection, run.trace, period_s=TELEMETRY_PERIOD_S
    )
    report.budget_units = window_units(report.protocol, config)
    budget = run.budget = MemoryBudget(limits={"recv_occupancy": report.budget_units})
    ride_watchdog(run, WatchdogConfig(), samplers)

    def collect() -> None:
        budget.observe(run.connection.memory_stats())
        report.peak_occupancy = int(budget.peak("recv_occupancy"))
        report.memory_peaks = budget.summary()
        report.flow = run.connection.flow_stats()

    run.collectors.append(collect)
    run.closers.extend(sampler.stop for sampler in samplers)


# ----------------------------------------------------------------------
# Shared invariants.
# ----------------------------------------------------------------------
def wedged_timers(connection, label: str) -> Iterator[str]:
    """Outstanding data without a pending RTO timer can stall forever."""
    for subflow in connection.subflows:
        if subflow.in_flight > 0 and not subflow.timer_armed:
            yield (
                f"wedged timer {label}: subflow {subflow.subflow_id} has "
                f"{subflow.in_flight} packets in flight and no RTO pending"
            )


def exactly_once_in_order(run: Run) -> Iterator[str]:
    """The application sink saw every unit exactly once, in sequence —
    across subflow removals, duplicated-and-mutated packets and stale-
    checkpoint re-sends alike — and a completed transfer delivered
    exactly the expected number of units."""
    ids, report = run.delivered_ids, run.report
    if ids != list(range(len(ids))):
        first = next(index for index, unit in enumerate(ids) if unit != index)
        yield (
            f"delivery not exactly-once/in-order: got {len(ids)} units, "
            f"first disorder near index {first}"
        )
    if report.completed and report.delivered_units != report.expected_units:
        yield (
            f"unit count mismatch: delivered {report.delivered_units}, "
            f"expected {report.expected_units}"
        )


def byte_identical(run: Run) -> Iterator[str]:
    """Zero corrupted bytes delivered: the reassembled stream is a prefix
    of — and on completion equal to — the source transcript. The prefix
    is compared even on incomplete runs: a wrong byte is a violation
    whether or not the transfer finished."""
    payload, transcript = run.payload, run.transcript
    if payload != transcript[: len(payload)]:
        offset = next(
            (
                index
                for index, (got, want) in enumerate(zip(payload, transcript))
                if got != want
            ),
            min(len(payload), len(transcript)),
        )
        yield (
            f"corrupted bytes delivered: the stream diverges from the source "
            f"transcript at offset {offset} (delivered {len(payload)}, "
            f"transcript {len(transcript)})"
        )
    if run.report.completed and len(payload) != run.report.expected_bytes:
        yield (
            f"completed but payload length {len(payload)} != expected "
            f"{run.report.expected_bytes}"
        )


def no_wedged_timers(run: Run) -> Iterator[str]:
    """At the end of the run every subflow with packets outstanding has a
    retransmission timer pending."""
    return wedged_timers(run.connection, "at end")


def completes_after_heal(run: Run) -> Iterator[str]:
    """Post-fault recovery: timers were sane the instant the last fault
    healed, delivery made progress afterwards, and the transfer finished
    despite everything."""
    report = run.report
    yield from run.timers_at_heal
    if not report.completed:
        yield (
            f"transfer incomplete: {report.delivered_bytes}/"
            f"{report.expected_bytes} bytes after {report.duration_s:.0f}s"
        )
        if report.delivered_bytes <= report.bytes_at_heal:
            yield (
                "no goodput recovery: nothing delivered after the last fault "
                f"healed at t={run.scenario.heal_time:.1f}s"
            )


def bounded_memory(run: Run) -> Iterable[str]:
    """Peak receiver occupancy never exceeded the flow-control budget —
    the licence actually held, even while a trace crushed bandwidth."""
    return run.budget.violations()


def completes_or_fails_cleanly(run: Run) -> Iterator[str]:
    """No deadlock: the transfer completes or the watchdog declares a
    clean failure *with* a structured diagnosis; hanging in between is a
    violation."""
    report = run.report
    if not report.completed and not report.watchdog_failed:
        yield (
            f"deadlock: transfer neither completed nor failed cleanly "
            f"({report.delivered_bytes}/{report.expected_bytes} bytes after "
            f"{report.duration_s:.0f}s, watchdog escalation "
            f"{report.watchdog_escalation}, state {report.recovery_state})"
        )
    if report.watchdog_failed and report.diagnosis is None:
        yield "watchdog failed without a diagnosis"


def outcome_as_promised(run: Run) -> Iterator[str]:
    """Scenarios that promise completion complete; the unrecoverable ones
    must *not* quietly succeed — that would mean they test nothing."""
    report = run.report
    if report.expect_complete and not report.completed:
        yield (
            f"expected completion: {report.delivered_bytes}/"
            f"{report.expected_bytes} bytes after {report.duration_s:.0f}s "
            f"(state {report.recovery_state})"
        )
    if report.expect_complete is False and report.completed:
        yield (
            "expected a clean failure but the transfer completed "
            "(the scenario no longer exercises what it promises)"
        )
