"""Dynamic subflow lifecycle: JOINING handshakes, runtime add/remove,
handover, and graceful degradation when paths disappear mid-transfer.

The state machine lives in :class:`repro.tcp.subflow.Subflow` (state is
*derived*, so it can never disagree with behaviour); the connection-level
policies live in ``FmtcpConnection`` / ``MptcpConnection``
(``add_subflow`` / ``remove_subflow``) and differ by design: FMTCP writes
abandoned symbols off and lets the EAT allocator route fresh ones, MPTCP
owes the receiver those exact bytes and reinjects them.
"""

import pytest

from repro.core.config import FmtcpConfig
from repro.experiments import runner
from repro.faults.churn import PathChurnController
from repro.fixedrate import FixedRateConnection
from repro.mptcp.connection import MptcpConfig
from repro.net.topology import PathConfig, build_two_path_network
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.tcp.subflow import SubflowOwner, SubflowSink
from repro.workloads.sources import BulkSource
from tests.conftest import make_single_path, make_subflow


class RecordingOwner(SubflowOwner):
    """Counts lifecycle callbacks; supplies nothing by default."""

    def __init__(self, supply=0, size=1000):
        self.supply = supply
        self.size = size
        self.ready = []
        self.delivered = []
        self.lost = []

    def next_payload(self, subflow):
        if self.supply <= 0:
            return None
        self.supply -= 1
        return f"p{self.supply}", self.size

    def on_payload_delivered(self, subflow, info):
        self.delivered.append(info.payload)

    def on_payload_lost(self, subflow, info, reason):
        self.lost.append((info.payload, reason))

    def on_subflow_ready(self, subflow):
        self.ready.append(subflow.subflow_id)


def build_network(n_paths=2, bandwidth=4e6, delay=0.02, seed=2, trace=None):
    configs = [
        PathConfig(bandwidth_bps=bandwidth, delay_s=delay) for __ in range(n_paths)
    ]
    return build_two_path_network(
        configs, rng=RngStreams(seed), trace=trace or TraceBus()
    )


def build_connection(protocol, paths, network, trace, total_bytes=400_000,
                     fmtcp_config=None, mptcp_config=None, seed=2):
    delivered = []
    config, sink = {
        "fmtcp": (fmtcp_config, lambda block_id, data: delivered.append(block_id)),
        "fixedrate": (None, None),
        "mptcp": (mptcp_config, lambda chunk: delivered.append(chunk.dsn)),
    }[protocol]
    connection = runner.build_connection(
        protocol, network.sim, paths, BulkSource(total_bytes=total_bytes), seed,
        trace, config=config, sink=sink,
    )
    return connection, delivered


# ----------------------------------------------------------------------
# The state machine itself.
# ----------------------------------------------------------------------
def test_default_subflow_is_born_active():
    network, path, __ = make_single_path()
    subflow = make_subflow(network.sim, path, RecordingOwner())
    assert subflow.state == "active"
    assert subflow.usable
    assert not subflow.is_joining and not subflow._closed


def test_joining_subflow_holds_fire_until_handshake_completes():
    network, path, trace = make_single_path()
    records = []
    trace.subscribe("subflow.join", records.append)
    trace.subscribe("subflow.active", records.append)
    owner = RecordingOwner(supply=5)
    subflow = make_subflow(
        network.sim, path, owner, subflow_id=7, join_delay_s=0.5, trace=trace
    )
    SubflowSink(network.sim, path, subflow, on_segment=lambda sf, seg: None)
    assert subflow.state == "joining"
    assert not subflow.usable
    subflow.pump()  # must be a no-op while joining
    assert subflow.packets_sent == 0
    network.sim.run(until=0.4)
    assert subflow.state == "joining" and subflow.packets_sent == 0
    network.sim.run()
    assert subflow.state == "active"
    assert owner.ready == [7]  # on_subflow_ready fired exactly once
    assert len(owner.delivered) == 5  # and the handshake pump sent the data
    assert [r.kind for r in records] == ["subflow.join", "subflow.active"]
    assert records[1]["subflow"] == 7
    assert records[1].time == pytest.approx(0.5)


def test_close_cancels_pending_join():
    network, path, __ = make_single_path()
    owner = RecordingOwner(supply=5)
    subflow = make_subflow(network.sim, path, owner, join_delay_s=0.5)
    subflow.close()
    assert subflow.state == "closed"
    network.sim.run()
    # The cancelled handshake never completes: no ready hook, no data.
    assert owner.ready == []
    assert subflow.packets_sent == 0


def test_shutdown_drains_outstanding_in_sequence_order():
    network, path, trace = make_single_path(bandwidth=8e3)  # 1 s per packet
    closed = []
    trace.subscribe("subflow.closed", closed.append)
    owner = RecordingOwner(supply=4)
    subflow = make_subflow(network.sim, path, owner, subflow_id=3, trace=trace)
    SubflowSink(network.sim, path, subflow, on_segment=lambda sf, seg: None)
    subflow.pump()
    assert subflow.in_flight > 0
    infos = subflow.shutdown()
    assert [info.seq for info in infos] == sorted(info.seq for info in infos)
    assert len(infos) >= 1
    assert subflow.state == "closed" and not subflow.usable
    assert subflow.in_flight == 0
    assert not subflow.timer_armed
    # Shutdown is administrative: the congestion loss hooks must NOT fire.
    assert owner.lost == []
    assert closed and closed[0]["drained"] == len(infos)
    # The simulation still drains cleanly (no leaked timers or callbacks).
    network.sim.run()


def test_state_vocabulary_is_stable():
    """One subflow walks all four states: joining, active, suspect (its
    path dies), closed."""
    from repro.faults.scenario import FaultEvent, FaultScenario

    network, path, __ = make_single_path()
    subflow = make_subflow(
        network.sim, path, RecordingOwner(supply=10**6), join_delay_s=0.1,
        failed_rto_threshold=1,
    )
    SubflowSink(network.sim, path, subflow, on_segment=lambda sf, seg: None)
    scenario = FaultScenario("kill", [FaultEvent(0.5, "down", 0)])
    scenario.n_paths = 1  # the class constant, on a one-path network
    scenario.apply(network.sim, [path])
    seen = [subflow.state]
    network.sim.run(until=0.3)
    seen.append(subflow.state)
    network.sim.run(until=5.0)
    seen.append(subflow.state)
    subflow.close()
    seen.append(subflow.state)
    assert seen == ["joining", "active", "suspect", "closed"]


# ----------------------------------------------------------------------
# Connection-level add/remove: FMTCP.
# ----------------------------------------------------------------------
def test_fmtcp_add_subflow_mid_transfer_joins_then_carries():
    trace = TraceBus()
    added = []
    trace.subscribe("conn.subflow_added", added.append)
    network, paths = build_network(trace=trace)
    connection, delivered = build_connection(
        "fmtcp", paths[:1], network, trace, total_bytes=1_500_000
    )
    connection.start()
    network.sim.run(until=1.0)
    single_path_bytes = connection.delivered_bytes
    new = connection.add_subflow(paths[1])
    assert new.state == "joining"
    assert new.subflow_id == 1
    network.sim.run(until=1.0 + 2.5 * paths[1].one_way_delay_s)
    assert new.state == "active"
    network.sim.run()
    assert connection.delivered_bytes > single_path_bytes
    assert new.packets_acked > 0  # the joined path actually carried symbols
    assert delivered == sorted(delivered)
    assert added and added[0]["subflow"] == 1 and added[0]["path"] == "path1"


def test_fmtcp_remove_subflow_writes_off_symbols_and_completes():
    trace = TraceBus()
    removed = []
    trace.subscribe("conn.subflow_removed", removed.append)
    network, paths = build_network(trace=trace)
    connection, delivered = build_connection("fmtcp", paths, network, trace)
    connection.start()
    network.sim.run(until=0.5)
    assert connection.subflows[1].in_flight > 0
    lost_before = connection.sender.symbols_lost
    abandoned = connection.remove_subflow(1)
    assert abandoned > 0
    # FMTCP never retransmits: the in-flight symbols are written off ...
    assert connection.sender.symbols_lost > lost_before
    assert len(connection.subflows) == 1
    network.sim.run()
    # ... and fresh fountain symbols finish the transfer on the survivor.
    expected_blocks = -(-400_000 // FmtcpConfig().block_bytes)
    assert delivered == list(range(expected_blocks))
    assert removed and removed[0]["abandoned"] == abandoned


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp", "fixedrate"])
def test_remove_unknown_subflow_raises(protocol):
    network, paths = build_network()
    connection, __ = build_connection(protocol, paths, network, TraceBus())
    with pytest.raises(ValueError):
        connection.remove_subflow(99)
    connection.close()


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_subflow_ids_are_never_reused(protocol):
    network, paths = build_network()
    connection, __ = build_connection(protocol, paths, network, TraceBus())
    connection.remove_subflow(1)
    replacement = connection.add_subflow(paths[1])
    # A re-associated path gets a fresh identity and congestion state.
    assert replacement.subflow_id == 2
    assert {s.subflow_id for s in connection.subflows} == {0, 2}
    connection.close()


# ----------------------------------------------------------------------
# Connection-level add/remove: MPTCP.
# ----------------------------------------------------------------------
def test_mptcp_remove_subflow_reinjects_unacked_chunks():
    trace = TraceBus()
    removed = []
    trace.subscribe("conn.subflow_removed", removed.append)
    network, paths = build_network(trace=trace)
    connection, delivered = build_connection("mptcp", paths, network, trace)
    connection.start()
    network.sim.run(until=0.5)
    assert connection.subflows[1].in_flight > 0
    reinjected = connection.remove_subflow(1)
    assert reinjected > 0
    assert connection.chunks_reinjected >= reinjected
    network.sim.run()
    # MPTCP owes the receiver those exact bytes: exactly-once, in-order.
    assert connection.delivered_bytes == 400_000
    assert delivered == list(range(len(delivered)))
    assert removed and removed[0]["reinjected"] == reinjected


def test_mptcp_add_subflow_mid_transfer():
    network, paths = build_network()
    connection, delivered = build_connection(
        "mptcp", paths[:1], network, TraceBus(), total_bytes=600_000
    )
    connection.start()
    network.sim.run(until=1.0)
    new = connection.add_subflow(paths[1])
    network.sim.run()
    assert connection.delivered_bytes == 600_000
    assert delivered == list(range(len(delivered)))
    assert new.packets_acked > 0


def test_mptcp_total_blackout_orphans_then_recovers():
    """Removing the last usable subflow parks its chunks in the orphan
    queue; a later add_subflow drains them before fresh data."""
    network, paths = build_network()
    connection, delivered = build_connection("mptcp", paths[:1], network, TraceBus())
    connection.start()
    network.sim.run(until=0.5)
    owed = connection.remove_subflow(0)
    assert owed > 0
    assert len(connection._orphan_chunks) == owed
    connection.add_subflow(paths[1])
    network.sim.run()
    assert not connection._orphan_chunks
    assert connection.delivered_bytes == 400_000
    assert delivered == list(range(len(delivered)))


# ----------------------------------------------------------------------
# Handover through the churn controller (the injector's lifecycle handler).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_handover_moves_transfer_to_new_path(protocol):
    trace = TraceBus()
    churn = []
    for kind in ("churn.handover", "churn.path_down", "churn.path_up"):
        trace.subscribe(kind, churn.append)
    network, paths = build_network(trace=trace)
    connection, delivered = build_connection(protocol, paths[:1], network, trace)
    network.detach_path(paths[1])
    controller = PathChurnController(
        network.sim, paths, connection, network=network,
        active_paths=(0,), trace=trace,
    )
    network.sim.schedule_at(1.0, controller.handover, 0, 1, 0.2)
    connection.start()
    network.sim.run(until=30.0)
    assert controller.handovers == 1
    assert controller.path_downs == 1 and controller.path_ups == 1
    assert controller._subflow_of_path.get(0) is None
    assert controller._subflow_of_path.get(1) is not None
    assert [r.kind for r in churn] == [
        "churn.handover", "churn.path_down", "churn.path_up"
    ]
    assert churn[2].time == pytest.approx(1.2)  # break_s gap honoured
    # The transfer survived the blackout and finished on the new path.
    if protocol == "fmtcp":
        assert delivered == list(range(-(-400_000 // FmtcpConfig().block_bytes)))
    else:
        assert connection.delivered_bytes == 400_000
        assert delivered == list(range(len(delivered)))
    connection.close()


def test_duplicate_path_up_is_a_noop():
    network, paths = build_network()
    connection, __ = build_connection("mptcp", paths, network, TraceBus())
    controller = PathChurnController(
        network.sim, paths, connection, network=network
    )
    controller.path_up(1)  # already attached
    assert controller.path_ups == 0
    assert len(connection.subflows) == 2
    connection.close()


# ----------------------------------------------------------------------
# Satellite: HOL-blocking subflow removed mid-transfer unblocks the
# receive buffer (reinjection fills the DSN gap).
# ----------------------------------------------------------------------
def test_removing_hol_blocking_subflow_unblocks_recv_buffer():
    network, paths = build_network()
    # failover disabled: removal (not suspect-reinjection) must do the work.
    config = MptcpConfig(failover_rto_threshold=None)
    connection, delivered = build_connection(
        "mptcp", paths, network, TraceBus(), mptcp_config=config,
        total_bytes=2_000_000,
    )
    connection.start()

    def kill_path_1():
        for link in (*paths[1].forward_links, *paths[1].reverse_links):
            link.set_down(True)

    network.sim.schedule_at(0.2, kill_path_1)
    network.sim.run(until=4.0)
    # Chunks lost on the dead path leave DSN gaps: the reorder buffer is
    # holding fast-path data it cannot deliver, and delivery has stalled.
    assert connection.reorder_buffer.occupancy > 0
    stalled_bytes = connection.delivered_bytes
    assert stalled_bytes < 2_000_000

    reinjected = connection.remove_subflow(1)
    assert reinjected > 0
    network.sim.run()
    # Reinjection fills the gaps: the buffer drains and the transfer ends.
    assert connection.reorder_buffer.occupancy == 0
    assert connection.delivered_bytes == 2_000_000
    assert delivered == list(range(len(delivered)))


# ----------------------------------------------------------------------
# The lifecycle contract both protocols inherit from one skeleton
# (repro.tcp.multipath): what a shared implementation must keep apart.
# ----------------------------------------------------------------------
def lia_connection(protocol):
    """A subflow-coupled transport with LIA."""
    network, paths = build_network()
    connection, __ = build_connection(
        protocol, paths, network, TraceBus(),
        fmtcp_config=FmtcpConfig(congestion="lia"),
        mptcp_config=MptcpConfig(congestion="lia"),
    )
    return network, paths, connection


def lia_members(connection):
    return connection._lia_group._members


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_lia_group_tracks_exactly_the_live_subflows(protocol):
    __, paths, connection = lia_connection(protocol)
    connection.remove_subflow(0)
    connection.add_subflow(paths[0])
    assert lia_members(connection) == [s.cc for s in connection.subflows]
    assert [s.subflow_id for s in connection.subflows] == [1, 2]
    connection.close()


@pytest.mark.parametrize(
    "protocol, field",
    [("fmtcp", "abandoned"), ("mptcp", "reinjected")],
)
def test_subflow_removed_record_keeps_each_protocols_field(protocol, field):
    """FMTCP *abandons* symbols, MPTCP *reinjects* chunks: one shared
    remove_subflow must not unify the two words."""
    trace = TraceBus()
    removed = []
    trace.subscribe("conn.subflow_removed", removed.append)
    network, paths = build_network(trace=trace)
    connection, __ = build_connection(protocol, paths, network, trace)
    connection.start()
    network.sim.run(until=0.5)
    settled = connection.remove_subflow(1)
    assert settled > 0
    (record,) = removed
    assert record["subflow"] == 1 and record[field] == settled
    other = "reinjected" if field == "abandoned" else "abandoned"
    with pytest.raises(KeyError):
        record[other]
    connection.close()


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_close_after_sever_receiver_is_idempotent_and_leaves_no_timer(protocol):
    network, paths = build_network()
    flow = dict(flow_control=True, recv_drain_rate_bps=0.0)
    connection, __ = build_connection(
        protocol, paths, network, TraceBus(),
        fmtcp_config=FmtcpConfig(recv_window_blocks=4, **flow),
        mptcp_config=MptcpConfig(recv_buffer_chunks=16, **flow),
    )
    connection.start()
    network.sim.run(until=2.0)
    # The stopped reader has paused the sender: the zero-window prober
    # the shared flow-control half owns is live right now.
    stats = connection.flow_stats()
    assert stats["flow_paused"] and stats["window_probes"] > 0
    assert connection.memory_stats()["recv_occupancy"] > 0
    assert connection.sever_receiver() == 2
    connection.close()
    connection.close()
    network.sim.run(until=10.0)  # packets still on the wire die unbound
    network.sim.drain_cancelled()
    assert network.sim.pending_events == 0


def test_single_path_builders_keep_plain_reno_and_no_failover():
    """Conventional TCP is the baseline over one path with failover off —
    a configuration of the skeleton, so a path added to it is simply
    MPTCP. FixedRateConnection is the skeleton with plain Reno and no
    failover pinned; the strawman binds each repair to the path that
    first carried it."""
    from repro.mptcp.connection import MptcpConnection, conventional_tcp
    from repro.tcp.congestion import RenoController
    from repro.tcp.subflow import SubflowPacketInfo

    network, paths = build_network()
    tcp = conventional_tcp(network.sim, paths[0], BulkSource(total_bytes=10_000))
    fixed = FixedRateConnection(network.sim, paths, BulkSource(total_bytes=10_000))
    assert type(tcp) is MptcpConnection and len(tcp.subflows) == 1
    assert tcp.config.failover_rto_threshold is None
    for subflow in (*tcp.subflows, *fixed.subflows):
        assert type(subflow.cc) is RenoController
        assert subflow.failed_rto_threshold is None
        assert subflow.state == "active" and subflow.owner in (tcp, fixed)
    assert [s.subflow_id for s in fixed.subflows] == [0, 1]

    fixed.start()
    doomed = fixed.subflows[1]
    (seq, payload), *__ = doomed.outstanding_payloads()
    # Its first packet declared lost: every symbol it carried (and, by
    # Go-Back-N, everything behind it) queues for repair on subflow 1.
    fixed.on_payload_lost(doomed, SubflowPacketInfo(seq, payload, 0, 0.0), "timeout")
    assert fixed._retx_queues[1] and not fixed._retx_queues[0]
    tcp.close()
    fixed.close()
