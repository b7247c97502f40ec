"""A closed transfer holds no reference cycle, and close() cuts edges only.

Every transport hands references to itself out: a subflow's port binding
and RTO timer hold its bound methods, a subflow holds its owner, a sink
holds the receiver's callbacks, the flow-control halves hold their
protocol's. ``close()`` gives each of them back, so once the last outside
reference goes, a finished transfer is freed by reference counting and
not left for the cyclic collector.

The census runs a transfer with the collector off and ``DEBUG_SAVEALL``
on, closes it, and counts what a collection then finds unreachable. A
finished transfer must leave no object of any ``repro`` type; a transfer
cut off by its deadline may leave one cycle, the simulator heap's: events
hold the packets in flight and the links carrying them, and each link
holds the simulator. Every cut is shown able to fail: skipping it leaves
a cycle, named by its types.
"""

import gc

import pytest

from repro.core.config import FmtcpConfig
from repro.experiments.runner import _subflow_stats, build_connection, build_topology
from repro.fixedrate.connection import FixedRateConfig
from repro.mptcp.connection import MptcpConfig
from repro.net.topology import PathConfig
from repro.robustness.flowcontrol import AppDrain, ProbedGate, ZeroWindowProber
from repro.sim.timers import Timer
from repro.tcp.congestion import LiaCoupledController
from repro.tcp.multipath import MultipathConnection
from repro.tcp.subflow import Subflow, SubflowSink
from repro.telemetry.session import TelemetryConfig, TelemetrySession
from repro.traces.generators import gprs_trace
from repro.traces.player import TracePlayer
from repro.workloads.sources import BulkSource

PATHS = [
    PathConfig(bandwidth_bps=2e6, delay_s=0.02, loss_rate=0.01),
    PathConfig(bandwidth_bps=1e6, delay_s=0.05, loss_rate=0.02),
]
TOTAL_BYTES = 200_000
CONFIGS = {
    "fmtcp": FmtcpConfig,
    "mptcp": MptcpConfig,
    "fixedrate": FixedRateConfig,
    "tcp": MptcpConfig,
}
VARIANTS = {
    "default": {},
    "lia": {"congestion": "lia"},
    "flow": {"flow_control": True, "recv_drain_rate_bps": 200e3},
    "telemetry": {},
    "trace": {},
}
# The fixed-rate strawman pins plain Reno and no flow control; the trace
# player is protocol-agnostic, so one protocol runs it.
CASES = [
    (protocol, variant)
    for protocol in CONFIGS
    for variant in VARIANTS
    if (protocol != "fixedrate" or variant in ("default", "telemetry"))
    and (variant != "trace" or protocol == "mptcp")
]
#: What the simulator heap's cycle may hold when a run ends mid-flight.
HEAP_COMPONENT_TYPES = {"DropTailQueue", "Event", "Link", "Packet", "Simulator"}


def _build(protocol, variant, total_bytes=None):
    trace, network, paths = build_topology(PATHS, seed=7)
    if protocol == "tcp":
        paths = paths[:1]
    config = CONFIGS[protocol](**VARIANTS[variant])
    connection = build_connection(
        protocol, network.sim, paths, BulkSource(total_bytes), 7, trace, config=config
    )
    return connection, network, paths, trace


def _transfer(protocol, variant, deadline_s=None, tamper=None):
    """Build, run and close one transfer; return what close() left readable.

    ``deadline_s=None`` runs a finite source to completion.
    ``tamper(connection, links)`` runs right after construction.
    """
    connection, network, paths, trace = _build(
        protocol, variant, None if deadline_s is not None else TOTAL_BYTES
    )
    sim = network.sim
    if tamper is not None:
        tamper(connection, network.links)
    session = player = None
    if variant == "telemetry":
        session = TelemetrySession(
            sim, trace, config=TelemetryConfig(profile_sim=True, spans=True)
        )
        session.attach(connection)
    if variant == "trace":
        player = TracePlayer(
            sim, paths[1].forward_links, gprs_trace(seed=7, duration_s=10.0), bus=trace
        )
        player.start()
    connection.start()
    sim.run(until=deadline_s if deadline_s is not None else 60.0)
    if player is not None:
        player.stop()
    delivered = connection.delivered_bytes
    connection.close()
    if session is not None:
        session.finish()
    sim.drain_cancelled()
    return delivered, sim.pending_events


def _left_behind(run):
    """``run()`` with the collector off; the objects a collection then
    finds unreachable (``DEBUG_SAVEALL`` keeps them for inspection)."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    return result, garbage


def _cycles(objects):
    """The reference cycles among ``objects`` (strongly connected
    components), each as the sorted names of the ``repro`` types in it."""
    index = {id(obj): i for i, obj in enumerate(objects)}
    edges = [
        [index[id(ref)] for ref in gc.get_referents(obj) if id(ref) in index]
        for obj in objects
    ]
    reach = []
    for start in range(len(objects)):
        seen, stack = set(), list(edges[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(edges[node])
        reach.append(seen)
    cycles, placed = [], set()
    for node in range(len(objects)):
        if node in placed or node not in reach[node]:
            continue
        members = {other for other in reach[node] if node in reach[other]}
        placed |= members
        cycles.append(
            sorted(
                {
                    type(objects[m]).__name__
                    for m in members
                    if type(objects[m]).__module__.startswith("repro.")
                }
            )
        )
    return cycles


def _repro_objects(objects):
    return [obj for obj in objects if type(obj).__module__.startswith("repro.")]


@pytest.mark.parametrize("protocol,variant", CASES)
def test_a_finished_transfer_leaves_nothing_for_the_collector(protocol, variant):
    (delivered, pending), garbage = _left_behind(lambda: _transfer(protocol, variant))
    assert delivered == TOTAL_BYTES and pending == 0
    assert not _repro_objects(garbage), f"left in cycles: {_cycles(garbage)}"


@pytest.mark.parametrize("protocol,variant", CASES)
def test_a_deadline_cut_transfer_leaves_only_the_heap_cycle(protocol, variant):
    (__, pending), garbage = _left_behind(
        lambda: _transfer(protocol, variant, deadline_s=3.0)
    )
    assert pending > 0  # packets were still in flight
    cycles = _cycles(garbage)
    assert len(cycles) == 1 and set(cycles[0]) <= HEAP_COMPONENT_TYPES, cycles


# ----------------------------------------------------------------------
# Seeded defects: each cut skipped in turn leaves a named cycle.
# ----------------------------------------------------------------------
def _keep_attributes(cls, method, *names):
    """``cls.method`` as before, but the attributes it clears survive it."""
    original = getattr(cls, method)

    def keeping(self, *args):
        kept = {name: getattr(self, name) for name in names}
        original(self, *args)
        for name, value in kept.items():
            setattr(self, name, value)

    return keeping


def _stored_link_callbacks(connection, links):
    for link in links:
        link.on_serialised = link._finish_transmission


def _self_capturing_reorder_clock(connection, links):
    connection._reorder.clock = lambda: connection.sim.now


DEFECTS = {
    # name: (protocol, variant, the class and method that make the cut, the
    #        skip — a replacement method, or the attributes the method clears
    #        kept alive — a tamper after construction instead, and the types
    #        the left cycle must hold)
    "subflow owner": (
        "fmtcp", "default", Subflow, "close", ("owner",), None,
        {"FmtcpSender", "Subflow"},
    ),
    "rto timer callback": (
        "mptcp", "default", Timer, "release", Timer.stop, None,
        {"Subflow", "Timer"},
    ),
    "lia registrations": (
        "fmtcp", "lia", LiaCoupledController, "release", lambda self: None, None,
        {"LiaCoupledController", "LiaGroup", "Subflow"},
    ),
    "sink callbacks": (
        "mptcp", "default", SubflowSink, "close",
        ("_on_segment", "_feedback_provider"), None,
        {"MptcpConnection", "SubflowSink"},
    ),
    "skeleton callbacks": (
        "mptcp", "default", MultipathConnection, "close",
        ("_owner", "_on_segment", "_feedback_provider"), None,
        {"MptcpConnection"},
    ),
    "probed gate callbacks": (
        "fmtcp", "flow", ProbedGate, "close", ("_blocked", "_pump"), None,
        {"FmtcpSender", "ProbedGate"},
    ),
    "prober callback": (
        "mptcp", "flow", ZeroWindowProber, "close", ZeroWindowProber.disarm, None,
        {"ProbedGate", "ZeroWindowProber"},
    ),
    "app drain callback": (
        "fmtcp", "flow", AppDrain, "close", ("_deliver",), None,
        {"AppDrain", "FmtcpReceiver"},
    ),
    "trace player timer": (
        "mptcp", "trace", TracePlayer, "_drop_timer",
        lambda self: self._timer.stop(), None,
        {"PeriodicTimer", "TracePlayer"},
    ),
    "link callbacks stored on the link": (
        "fmtcp", "default", None, None, None, _stored_link_callbacks, {"Link"},
    ),
    "reorder clock capturing the connection": (
        "mptcp", "default", None, None, None, _self_capturing_reorder_clock,
        {"MptcpConnection", "ReorderBuffer"},
    ),
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_skipping_a_cut_leaves_a_cycle_named_by_its_types(defect, monkeypatch):
    protocol, variant, cls, method, skip, tamper, expected = DEFECTS[defect]
    if cls is not None:
        if isinstance(skip, tuple):
            skip = _keep_attributes(cls, method, *skip)
        monkeypatch.setattr(cls, method, skip)
    __, garbage = _left_behind(lambda: _transfer(protocol, variant, tamper=tamper))
    cycles = _cycles(garbage)
    assert any(expected <= set(cycle) for cycle in cycles), (defect, cycles)


# ----------------------------------------------------------------------
# close() cuts edges, not state.
# ----------------------------------------------------------------------
def _readings(connection):
    """Every field a run's report, the benchmark digest and the stats
    surfaces read from a transfer once it is over."""
    readings = {
        "subflows": [_subflow_stats(subflow) for subflow in connection.subflows],
        "corruption": connection.corruption_stats(),
        "flow": connection.flow_stats(),
        "delivered_bytes": connection.delivered_bytes,
    }
    if hasattr(connection, "memory_stats"):
        readings["memory"] = connection.memory_stats()
    if hasattr(connection, "symbols_retransmitted"):
        readings["fixedrate"] = (
            connection.symbols_sent,
            connection.symbols_retransmitted,
            connection.blocks_decoded,
            connection.redundancy_ratio(),
        )
    elif hasattr(connection, "sender"):
        readings["fmtcp"] = (
            connection.sender.symbols_sent,
            connection.sender.symbols_lost,
            connection.receiver.symbols_received,
            connection.receiver.symbols_redundant,
            connection.receiver.blocks_decoded,
            connection.redundancy_ratio(),
        )
    elif hasattr(connection, "reorder_buffer"):
        readings["mptcp"] = (
            connection.reorder_buffer.high_watermark,
            connection.chunks_retransmitted,
            connection.chunks_reinjected,
        )
    return readings


def _mid_transfer(protocol, variant):
    connection, network, __, __ = _build(protocol, variant)
    connection.start()
    network.sim.run(until=3.0)
    return connection, network.sim


READ_CASES = [("fmtcp", "flow"), ("fmtcp", "lia"), ("mptcp", "flow"),
              ("fixedrate", "default"), ("tcp", "default")]


@pytest.mark.parametrize("protocol,variant", READ_CASES)
def test_every_reading_survives_close_and_a_second_close(protocol, variant):
    connection, sim = _mid_transfer(protocol, variant)
    assert any(subflow.timer_armed for subflow in connection.subflows)
    before = _readings(connection)
    connection.close()
    assert _readings(connection) == before
    assert all(subflow.state == "closed" for subflow in connection.subflows)
    assert not any(subflow.timer_armed for subflow in connection.subflows)
    connection.close()
    assert _readings(connection) == before
    sim.drain_cancelled()
    sim.run(until=10.0)  # packets still on the wire die at unbound ports
    assert _readings(connection) == before


@pytest.mark.parametrize("protocol,variant", READ_CASES)
def test_every_reading_survives_sever_receiver_then_close(protocol, variant):
    connection, sim = _mid_transfer(protocol, variant)
    before = _readings(connection)
    connection.sever_receiver()
    connection.close()
    assert _readings(connection) == before
    sim.run(until=10.0)
    sim.drain_cancelled()
    assert sim.pending_events == 0


def test_a_drain_closed_by_sever_receiver_never_reads_again():
    """A subflow added after the receiver was severed still feeds it; the
    blocks it decodes queue for the crashed application, which reads none."""
    connection, sim = _mid_transfer("fmtcp", "flow")
    connection.sever_receiver()
    drained = connection.receiver.drained_blocks
    connection.add_subflow(connection.subflows[0].path)
    sim.run(until=8.0)
    assert connection.receiver.app_queue_blocks > 0
    assert connection.receiver.drained_blocks == drained
    connection.close()
