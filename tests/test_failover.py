"""Dead-path failover: suspect detection, probing, exclusion, reinjection.

A path that silently dies (``link.set_down``) stops producing ACKs, so
the only signal is consecutive RTO expiries. After
``failover_rto_threshold`` of them a subflow is *potentially failed*:
FMTCP's allocator stops counting on it and it degrades to one probe per
backed-off RTO; MPTCP additionally reinjects the dead subflow's unacked
chunks onto live ones. The first ACK rehabilitates the path.
"""

import pytest

from repro.core.config import FmtcpConfig
from repro.experiments.runner import build_connection, build_topology
from repro.faults import FaultScenario
from repro.faults.scenario import FaultEvent
from repro.mptcp.connection import MptcpConfig
from repro.net.topology import PathConfig
from repro.workloads.sources import BulkSource, RandomPayloadSource


def build(protocol, *, fmtcp_config=None, mptcp_config=None, source=None,
          sink=None, seed=2):
    configs = [
        PathConfig(bandwidth_bps=4e6, delay_s=0.02),
        PathConfig(bandwidth_bps=4e6, delay_s=0.02),
    ]
    trace, network, paths = build_topology(configs, seed)
    connection = build_connection(
        protocol, network.sim, paths,
        source if source is not None else BulkSource(), seed, trace,
        config=fmtcp_config if protocol == "fmtcp" else mptcp_config, sink=sink,
    )
    return network, paths, connection, trace


def kill_path(sim, paths, index, at, until=None):
    events = [FaultEvent(at, "down", index)]
    if until is not None:
        events.append(FaultEvent(until, "up", index))
    FaultScenario("kill", events).apply(sim, paths)


# ----------------------------------------------------------------------
# Config knobs.
# ----------------------------------------------------------------------
def test_failover_threshold_validation():
    with pytest.raises(ValueError):
        FmtcpConfig(failover_rto_threshold=0)
    with pytest.raises(ValueError):
        MptcpConfig(failover_rto_threshold=0)
    # None disables failover entirely.
    assert FmtcpConfig(failover_rto_threshold=None).failover_rto_threshold is None


# ----------------------------------------------------------------------
# Suspect detection and probing (both stacks share the Subflow logic).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_dead_path_becomes_suspect(protocol):
    network, paths, connection, trace = build(protocol)
    suspects = []
    trace.subscribe("subflow.suspect", suspects.append)
    kill_path(network.sim, paths, 1, at=5.0)
    connection.start()
    network.sim.run(until=25.0)
    dead = connection.subflows[1]
    assert dead.potentially_failed
    assert dead.consecutive_timeouts >= 3
    assert suspects and suspects[0]["subflow"] == 1
    # The live path kept the transfer going the whole time.
    assert connection.delivered_bytes > 1_000_000


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_suspect_path_capped_at_one_probe_in_flight(protocol):
    network, paths, connection, __ = build(protocol)
    kill_path(network.sim, paths, 1, at=5.0)
    connection.start()
    dead = connection.subflows[1]
    over_cap = []

    def check():
        if dead.potentially_failed and dead.in_flight > 1:
            over_cap.append((network.sim.now, dead.in_flight))
        network.sim.schedule(0.1, check)

    network.sim.schedule(10.0, check)
    network.sim.run(until=30.0)
    assert dead.potentially_failed
    assert not over_cap


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_path_recovers_when_link_revives(protocol):
    network, paths, connection, trace = build(protocol)
    recoveries = []
    trace.subscribe("subflow.recovered", recoveries.append)
    kill_path(network.sim, paths, 1, at=5.0, until=20.0)
    connection.start()
    network.sim.run(until=20.0)
    assert connection.subflows[1].potentially_failed
    network.sim.run(until=45.0)
    revived = connection.subflows[1]
    assert not revived.potentially_failed
    assert revived.consecutive_timeouts == 0
    assert recoveries and recoveries[0]["subflow"] == 1
    # The revived path is carrying real traffic again.
    assert revived.last_ack_at is not None and revived.last_ack_at > 20.0


def test_failover_disabled_never_flags_suspect():
    network, paths, connection, __ = build(
        "fmtcp", fmtcp_config=FmtcpConfig(failover_rto_threshold=None)
    )
    kill_path(network.sim, paths, 1, at=5.0)
    connection.start()
    network.sim.run(until=25.0)
    assert not connection.subflows[1].potentially_failed


# ----------------------------------------------------------------------
# FMTCP: allocator exclusion + failover probes.
# ----------------------------------------------------------------------
def test_fmtcp_allocator_excludes_suspect_path():
    network, paths, connection, __ = build("fmtcp")
    kill_path(network.sim, paths, 1, at=5.0)
    connection.start()
    network.sim.run(until=25.0)
    sender = connection.sender
    assert sender.suspect_events >= 1
    assert sender.failover_probes_sent >= 1
    live_estimates = sender.path_estimates()
    assert [estimate.subflow_id for estimate in live_estimates] == [0]
    everything = sender.path_estimates(include_suspect=True)
    assert [estimate.subflow_id for estimate in everything] == [0, 1]


def test_fmtcp_goodput_survives_path_death():
    """With failover, the dead path must not drag down the live one."""
    network, paths, connection, trace = build("fmtcp")
    from repro.metrics.collectors import MetricsSuite

    metrics = MetricsSuite(trace, bin_width_s=1.0)
    kill_path(network.sim, paths, 1, at=5.0)
    connection.start()
    network.sim.run(until=30.0)
    series = dict(metrics.goodput.series(30.0))
    # Steady single-path delivery well after the death.
    late = [rate for t, rate in series.items() if 20.0 <= t < 30.0]
    assert min(late) > 0.2


# ----------------------------------------------------------------------
# MPTCP: reinjection of stranded chunks.
# ----------------------------------------------------------------------
def test_mptcp_reinjects_unacked_chunks_from_dead_subflow():
    network, paths, connection, __ = build("mptcp")
    kill_path(network.sim, paths, 1, at=5.0)
    connection.start()
    network.sim.run(until=25.0)
    assert connection.subflows[1].potentially_failed
    assert connection.chunks_reinjected >= 1
    assert connection.failover_events >= 1


def test_mptcp_probe_duplicates_are_absorbed_exactly_once():
    """Failover probes duplicate the head-of-line chunk; the receiver
    must still deliver a byte-exact, exactly-once stream."""
    source = RandomPayloadSource(total_bytes=600_000)
    received = bytearray()
    network, paths, connection, __ = build(
        "mptcp", source=source,
        sink=lambda chunk: received.extend(chunk.payload_bytes),
    )
    kill_path(network.sim, paths, 1, at=2.0, until=12.0)
    connection.start()
    network.sim.run(until=40.0)
    assert bytes(received) == bytes(source.transcript)


def test_mptcp_transfer_completes_despite_permanent_path_death():
    source = RandomPayloadSource(total_bytes=600_000)
    received = bytearray()
    network, paths, connection, __ = build(
        "mptcp", source=source,
        sink=lambda chunk: received.extend(chunk.payload_bytes),
    )
    kill_path(network.sim, paths, 1, at=2.0)  # never comes back
    connection.start()
    network.sim.run(until=60.0)
    assert bytes(received) == bytes(source.transcript)
