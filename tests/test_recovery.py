"""Unit and property tests for the crash-recovery layer.

Covers the checkpoint schema (round-trips, version refusal, consistency
validation), the replayable source, the crash fault kinds, the
reconnection state machine (token handshake, deterministic backoff,
budget exhaustion escalating through the watchdog) and the
snapshot→restore→continuation property: resuming from a checkpoint must
be byte-identical to never having been interrupted.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connection import FmtcpConnection
from repro.faults.scenario import FaultEvent, FaultScenario
from repro.net.topology import PathConfig, build_two_path_network
from repro.recovery import (
    ReceiverCheckpoint,
    ReconnectPolicy,
    RecoveryManager,
    SenderCheckpoint,
    resume_state,
    snapshot_receiver,
    snapshot_sender,
)
from repro.recovery.harness import RECOVERY
from repro.sim.rng import RngStreams
from repro.soak import run_soak
from repro.workloads.sources import BulkSource, RandomPayloadSource, ReplayableSource


# ----------------------------------------------------------------------
# Checkpoint schema.
# ----------------------------------------------------------------------
def restored(text: str) -> SenderCheckpoint:
    """A sender checkpoint rebuilt from its serialized form: what
    ``size_bytes`` measures must carry every field."""
    data = json.loads(text)
    return SenderCheckpoint(**{**data, "chunk_map": tuple(map(tuple, data["chunk_map"]))})


def test_sender_checkpoint_round_trip():
    ckpt = SenderCheckpoint(
        protocol="mptcp",
        frontier=17,
        byte_offset=17 * 1400,
        chunk_map=((17, 1400), (18, 900)),
    )
    assert restored(ckpt.to_json()) == ckpt
    assert ckpt.size_bytes == len(ckpt.to_json().encode())


def test_checkpoint_validation():
    with pytest.raises(ValueError):
        SenderCheckpoint(protocol="sctp", frontier=0, byte_offset=0)
    with pytest.raises(ValueError):
        SenderCheckpoint(protocol="fmtcp", frontier=-1, byte_offset=0)
    with pytest.raises(ValueError):
        ReceiverCheckpoint(protocol="fmtcp", frontier=0, delivered_bytes=-5)


def test_resume_state_rejects_inconsistent_pairs():
    sender = SenderCheckpoint(protocol="fmtcp", frontier=5, byte_offset=5 * 8192)
    other = ReceiverCheckpoint(protocol="mptcp", frontier=5, delivered_bytes=0)
    with pytest.raises(ValueError, match="protocol mismatch"):
        resume_state(sender, other)
    behind = ReceiverCheckpoint(protocol="fmtcp", frontier=3, delivered_bytes=0)
    with pytest.raises(ValueError, match="behind"):
        resume_state(sender, behind)


def test_resume_state_carries_both_frontiers():
    sender = SenderCheckpoint(
        protocol="fmtcp", frontier=4, byte_offset=4 * 8192, margin=6.5
    )
    receiver = ReceiverCheckpoint(protocol="fmtcp", frontier=7, delivered_bytes=7 * 8192)
    resume = resume_state(sender, receiver)
    assert resume.sender_frontier == 4  # never skips ahead of its own knowledge
    assert resume.receiver_frontier == 7  # the durable delivery commit
    assert resume.sender_margin == 6.5


@given(frontier=st.integers(0, 10_000), chunks=st.integers(0, 64))
@settings(max_examples=25, deadline=None)
def test_sender_checkpoint_dict_round_trip_property(frontier, chunks):
    ckpt = SenderCheckpoint(
        protocol="mptcp",
        frontier=frontier,
        byte_offset=frontier * 1400,
        chunk_map=tuple((frontier + i, 1400) for i in range(chunks)),
    )
    assert restored(ckpt.to_json()) == ckpt


# ----------------------------------------------------------------------
# Live snapshots.
# ----------------------------------------------------------------------
def _tiny_fmtcp():
    configs = [PathConfig(bandwidth_bps=4e6, delay_s=0.02) for __ in range(2)]
    network, paths = build_two_path_network(configs, rng=RngStreams(3))
    connection = FmtcpConnection(
        network.sim, paths, BulkSource(200_000), rng=RngStreams(3)
    )
    return network.sim, connection


def test_snapshot_fresh_connection_is_zero():
    sim, connection = _tiny_fmtcp()
    sender = snapshot_sender(connection)
    receiver = snapshot_receiver(connection)
    assert (sender.protocol, sender.frontier, sender.byte_offset) == ("fmtcp", 0, 0)
    assert sender.chunk_map == ()  # FMTCP's checkpoint is O(1): no chunk map
    assert (receiver.frontier, receiver.delivered_bytes) == (0, 0)
    connection.close()


def test_snapshot_mid_transfer_tracks_frontier():
    sim, connection = _tiny_fmtcp()
    connection.start()
    sim.run(until=2.0)
    sender = snapshot_sender(connection)
    receiver = snapshot_receiver(connection)
    assert sender.frontier > 0
    assert sender.byte_offset == sender.frontier * connection.config.block_bytes
    assert receiver.frontier >= sender.frontier
    assert resume_state(sender, receiver).receiver_bytes == receiver.delivered_bytes
    connection.close()


# ----------------------------------------------------------------------
# ReplayableSource.
# ----------------------------------------------------------------------
def test_replayable_source_replays_bytes_identically():
    inner = RandomPayloadSource(5000, rng=RngStreams(1).get("p"))
    source = ReplayableSource(inner)
    first = [source.pull(1000) for __ in range(3)]
    source.rewind(1000)
    assert source.pull(1000) == first[1]
    assert source.pull(1000) == first[2]
    assert source.replayed_bytes == 2000 and source.rewinds == 1
    rest = []
    while chunk := source.pull(1000):
        rest.append(chunk)
    assert b"".join(first + rest) == bytes(inner.transcript)


def test_replayable_source_int_mode_replays_counts():
    source = ReplayableSource(BulkSource(4000))
    assert [source.pull(1000) for __ in range(4)] == [1000] * 4
    source.rewind(2000)
    assert source.pull(1500) == 1500  # replay clamped to the recorded region
    assert source.pull(1500) == 500
    assert source.pull(1500) == 0


def test_replayable_source_rejects_mode_switch_and_bad_rewind():
    source = ReplayableSource(RandomPayloadSource(100, rng=RngStreams(2).get("p")))
    source.pull(50)
    with pytest.raises(ValueError):
        source.rewind(51)  # beyond what was ever granted
    with pytest.raises(ValueError):
        source.rewind(-1)

    class FlipFlop:
        def __init__(self):
            self.calls = 0

        def pull(self, max_bytes):
            self.calls += 1
            return b"x" * max_bytes if self.calls == 1 else max_bytes

    flip = ReplayableSource(FlipFlop())
    flip.pull(10)
    with pytest.raises(TypeError):
        flip.pull(10)


# ----------------------------------------------------------------------
# Crash fault kinds.
# ----------------------------------------------------------------------
def test_crash_event_validation():
    FaultEvent(1.0, "crash_sender", 0)
    FaultEvent(2.0, "restart", 0)
    with pytest.raises(ValueError):
        FaultEvent(1.0, "crash_receiver", 0, 0.5)  # crash takes no value
    with pytest.raises(ValueError):
        FaultEvent(1.0, "restart", 0, "router")  # nor does a restart


def test_endpoint_scenario_requires_endpoints_handler():
    scenario = FaultScenario("x", [FaultEvent(1.0, "crash_sender", 0)])
    assert scenario.has_endpoint_faults
    configs = [PathConfig(bandwidth_bps=4e6, delay_s=0.02) for __ in range(2)]
    network, paths = build_two_path_network(configs, rng=RngStreams(1))
    with pytest.raises(ValueError, match="endpoints handler"):
        scenario.apply(network.sim, paths)


# ----------------------------------------------------------------------
# Reconnection state machine.
# ----------------------------------------------------------------------
class _StubWatchdog:
    def __init__(self):
        self.failed = False
        self.fail_reason = None
        self.connection = None
        self.starts = 0
        self.stops = 0

    def start(self):
        self.starts += 1

    def stop(self):
        self.stops += 1

    def fail(self, reason):
        self.failed = True
        self.fail_reason = reason


def _manager(policy, watchdog=None, rebuild=None, seed=3):
    sim, connection = _tiny_fmtcp()
    manager = RecoveryManager(
        sim,
        connection,
        rebuild or (lambda epoch, resume: connection),
        RngStreams(seed),
        policy=policy,
        watchdog=watchdog,
    )
    return sim, connection, manager


def test_token_mismatch_exhausts_budget_and_fails_watchdog():
    policy = ReconnectPolicy(retry_budget=3, initial_backoff_s=0.1, max_backoff_s=0.4)
    watchdog = _StubWatchdog()
    sim, connection, manager = _manager(policy, watchdog)
    manager._peer_token = "0000000000000000"  # model a peer that rejects us
    connection.start()
    sim.run(until=1.0)
    manager.crash_sender()
    assert watchdog.stops == 1  # ladder paused for the outage
    manager.restart()
    sim.run(until=30.0)
    assert manager.state == "failed"
    assert manager.attempts_total == 3
    assert watchdog.failed and "budget exhausted" in watchdog.fail_reason
    assert watchdog.starts == 0  # never resumed
    assert manager.outages and "gave_up_at" in manager.outages[-1]
    manager.close()


def test_backoff_schedule_is_deterministic_per_seed():
    def giveup_time(seed):
        policy = ReconnectPolicy(retry_budget=4)
        sim, connection, manager = _manager(policy, seed=seed)
        manager._peer_token = "0000000000000000"
        connection.start()
        sim.run(until=1.0)
        manager.crash_sender()
        manager.restart()
        sim.run(until=60.0)
        assert manager.state == "failed"
        manager.close()
        return manager.outages[-1]["gave_up_at"]

    assert giveup_time(7) == giveup_time(7)  # jitter replays per seed
    assert giveup_time(7) != giveup_time(8)  # but is jitter, not a constant


def test_successful_resume_increments_epoch_and_rearms_watchdog():
    watchdog = _StubWatchdog()
    built = []

    def rebuild(epoch, resume):
        built.append((epoch, resume))
        __, connection = _tiny_fmtcp()
        return connection

    sim, connection, manager = _manager(ReconnectPolicy(), watchdog, rebuild)
    connection.start()
    sim.run(until=2.0)
    frontier_at_crash = connection.sender.decoded_frontier
    manager.crash_sender()
    assert manager.state == "down" and not manager.sender_up
    manager.restart()
    sim.run(until=4.0)
    assert manager.state == "running"
    assert (manager.epoch, manager.resumes) == (1, 1)
    (epoch, resume), = built
    assert epoch == 1
    assert resume.sender_frontier <= frontier_at_crash  # periodic ckpt may lag
    assert resume.receiver_frontier >= resume.sender_frontier
    assert watchdog.connection is manager.connection
    assert watchdog.starts == 1  # ladder re-armed against the new epoch
    assert manager.outages[-1]["outage_s"] > 0
    manager.close()
    manager.connection.close()


def test_crash_is_noop_outside_running_state():
    sim, connection, manager = _manager(ReconnectPolicy())
    manager.crash_sender()
    assert manager.crashes == 1
    manager.crash_receiver()  # already down: no second outage
    manager.crash_sender()
    assert manager.crashes == 1
    manager.close()


def test_policy_validation():
    with pytest.raises(ValueError):
        ReconnectPolicy(retry_budget=0)
    with pytest.raises(ValueError):
        ReconnectPolicy(initial_backoff_s=2.0, max_backoff_s=1.0)
    with pytest.raises(ValueError):
        ReconnectPolicy(jitter_fraction=1.5)


# ----------------------------------------------------------------------
# Snapshot -> restore -> continuation == uninterrupted run.
# ----------------------------------------------------------------------
def _roundtrip_size(protocol, scenario):
    """The recovery harness's sizing, with a 150 kB transfer."""
    return dataclasses.replace(RECOVERY.size(protocol, scenario), total_bytes=150_000)


ROUNDTRIP = dataclasses.replace(RECOVERY, size=_roundtrip_size)


@given(
    protocol=st.sampled_from(["fmtcp", "mptcp"]),
    seed=st.integers(1, 50),
    crash_t=st.floats(1.0, 4.0),
    gap_s=st.floats(0.2, 1.5),
)
@settings(max_examples=10, deadline=None)
def test_checkpoint_restore_matches_uninterrupted_run(protocol, seed, crash_t, gap_s):
    """Interrupting a transfer with a checkpoint/teardown/rebuild cycle
    must deliver the byte-identical stream of the run that was never
    interrupted — the restore path adds nothing and loses nothing."""
    interrupted = FaultScenario(
        "roundtrip",
        [
            FaultEvent(crash_t, "crash_sender", 0),
            FaultEvent(crash_t + gap_s, "restart", 0),
        ],
    )
    clean = FaultScenario("roundtrip_clean", [])
    kwargs = dict(seed=seed, duration_s=30.0)
    crashed_report = run_soak(ROUNDTRIP, protocol, interrupted, **kwargs)
    clean_report = run_soak(ROUNDTRIP, protocol, clean, **kwargs)
    assert crashed_report.ok, crashed_report.violations
    assert clean_report.ok, clean_report.violations
    assert crashed_report.completed and clean_report.completed
    assert crashed_report.payload_crc32 == clean_report.payload_crc32
    assert crashed_report.delivered_bytes == clean_report.delivered_bytes
    assert crashed_report.delivered_units == clean_report.delivered_units
