"""Golden-value regression: exact behavioural anchors.

If any of these fail after an intentional behaviour change, regenerate
the anchors with ``python -m repro.experiments.golden`` and review the
diff of ``golden.json`` like any other code change.
"""

import json

import pytest

from repro.experiments.golden import ANCHORS, GOLDEN_PATH, measure_all, measure_anchor

GOLDEN = json.loads(GOLDEN_PATH.read_text())
#: Golden values are exact for a given code version; the tolerance only
#: absorbs float-formatting round-trips.
RELATIVE_TOLERANCE = 1e-9


@pytest.mark.parametrize(
    "protocol,case_id,duration_s,seed",
    ANCHORS,
    ids=[f"{p}-case{c}" for p, c, __, __ in ANCHORS],
)
def test_anchor_matches_golden(protocol, case_id, duration_s, seed):
    key = f"{protocol}/case{case_id}/{duration_s:g}s/seed{seed}"
    assert key in GOLDEN, (
        f"no golden value for {key}; run `python -m repro.experiments.golden`"
    )
    measured = measure_anchor(protocol, case_id, duration_s, seed)
    for metric, expected in GOLDEN[key].items():
        assert measured[metric] == pytest.approx(
            expected, rel=RELATIVE_TOLERANCE
        ), f"{key}:{metric} drifted from golden"


def test_golden_file_covers_all_anchors():
    keys = {
        f"{protocol}/case{case_id}/{duration_s:g}s/seed{seed}"
        for protocol, case_id, duration_s, seed in ANCHORS
    }
    assert keys <= set(GOLDEN)


def test_churn_knobs_default_off():
    """The subflow-lifecycle machinery must be invisible unless asked for:
    statically built connections are born ACTIVE with every path in play."""
    from repro.core.config import FmtcpConfig
    from repro.core.connection import FmtcpConnection
    from repro.faults import FaultScenario
    from repro.mptcp.connection import MptcpConnection
    from repro.net.topology import PathConfig, build_two_path_network
    from repro.sim.rng import RngStreams
    from repro.workloads.sources import BulkSource

    import inspect

    from repro.tcp.subflow import Subflow

    assert inspect.signature(Subflow).parameters["join_delay_s"].default is None

    configs = [PathConfig(bandwidth_bps=4e6, delay_s=0.02) for __ in range(2)]
    network, paths = build_two_path_network(configs, rng=RngStreams(1))
    for connection in (
        FmtcpConnection(
            network.sim, paths, BulkSource(), config=FmtcpConfig(),
            rng=RngStreams(1),
        ),
        MptcpConnection(network.sim, paths, BulkSource()),
    ):
        assert all(s.state == "active" for s in connection.subflows)
        assert all(s.usable for s in connection.subflows)
        connection.close()

    # Scenarios without an explicit active_paths use every path, exactly
    # as before the churn extension.
    assert FaultScenario("x", [], n_paths=2).active_paths == (0, 1)


def test_corruption_knobs_default_off():
    """The data-integrity machinery must be invisible unless asked for:
    no link grows a corruption model, packets start unsealed, and the
    randomized chaos scenarios never draw corruption events (which would
    shift every downstream RNG draw and break old seeds)."""
    import inspect

    from repro.faults import FaultScenario
    from repro.faults.scenario import FAULT_TABLE
    from repro.net.corruption import BernoulliCorruption
    from repro.net.link import Link
    from repro.net.packet import Packet
    from repro.net.topology import PathConfig, build_two_path_network
    from repro.sim.rng import RngStreams

    # Only the fault injector installs one, mid-run (Link.set_corruption_model).
    assert "corruption_model" not in inspect.signature(Link).parameters
    assert inspect.signature(BernoulliCorruption).parameters["evade_crc"].default == 0.0

    configs = [PathConfig(bandwidth_bps=4e6, delay_s=0.02) for __ in range(2)]
    __, paths = build_two_path_network(configs, rng=RngStreams(1))
    for path in paths:
        for link in (*path.forward_links, *path.reverse_links):
            assert link.corruption_model is None
            assert link.packets_corrupted == 0
    assert Packet(100, "a", "b", 1, 2).checksum is None

    # The random chaos generator's kind pool must stay corruption-free:
    # old seeds must keep producing the exact same timelines.
    for seed in range(1, 20):
        scenario = FaultScenario.random(seed)
        assert not scenario.has_corruption
        assert all(FAULT_TABLE[e.kind].group != "corruption" for e in scenario.events)


def test_flow_control_knobs_default_off():
    """The flow-control machinery must be invisible unless asked for: no
    window accountant or sender gate exists, the application drains
    instantly, ACK feedback carries no advertised window (so its
    integrity digest — and therefore every golden trace — is unchanged),
    and the trace bus boots with an empty pending queue."""
    import inspect

    from repro.core.config import FmtcpConfig
    from repro.core.connection import FmtcpConnection
    from repro.core.packets import FmtcpFeedback
    from repro.mptcp.connection import MptcpConfig, MptcpConnection
    from repro.net.topology import PathConfig, build_two_path_network
    from repro.sim.rng import RngStreams
    from repro.sim.trace import TraceBus
    from repro.workloads.sources import BulkSource

    assert FmtcpConfig().flow_control is False
    assert FmtcpConfig().recv_drain_rate_bps is None
    assert MptcpConfig().flow_control is False
    assert MptcpConfig().recv_drain_rate_bps is None
    assert (
        inspect.signature(FmtcpFeedback).parameters["advertised_window"].default
        is None
    )
    # No advertised window -> the digest has no ":aw" suffix: the wire
    # format (and packet CRC coverage) is byte-identical to the seed.
    digest = FmtcpFeedback({}, 0).integrity_digest()
    assert b":aw" not in digest

    configs = [PathConfig(bandwidth_bps=4e6, delay_s=0.02) for __ in range(2)]
    network, paths = build_two_path_network(configs, rng=RngStreams(1))
    fmtcp = FmtcpConnection(
        network.sim, paths, BulkSource(), config=FmtcpConfig(),
        rng=RngStreams(1),
    )
    assert fmtcp.receiver.window is None
    assert fmtcp.sender.flow_gate is None
    mptcp = MptcpConnection(network.sim, paths, BulkSource())
    assert mptcp.recv_window is None
    assert mptcp.flow_gate is None
    for connection in (fmtcp, mptcp):
        flow = connection.flow_stats()
        assert flow["enabled"] is False
        connection.close()

    bus = TraceBus()
    assert bus.records_dropped == 0 and len(bus._pending) == 0


def test_span_knobs_default_off():
    """The span layer must be invisible unless asked for: telemetry does
    not collect spans by default, block managers are born untraced, and a
    fresh trace bus has no span subscribers (so every ``span.*`` emit
    stays behind its ``has_subscribers`` guard and costs two lookups)."""
    import inspect

    from repro.core.blocks import BlockManager
    from repro.sim.trace import TraceBus
    from repro.telemetry import TelemetryConfig, TelemetrySession
    from repro.telemetry.spans import SPAN_KINDS
    from repro.sim.engine import Simulator

    assert TelemetryConfig().spans is False
    parameters = inspect.signature(BlockManager).parameters
    assert parameters["trace"].default is None
    assert parameters["clock"].default is None

    bus = TraceBus()
    for kind in SPAN_KINDS:
        assert not bus.has_subscribers(kind)

    # A default session attaches no collector either.
    session = TelemetrySession(Simulator(), bus)
    assert session.spans is None
    assert not bus.has_subscribers("span.block_open")
    session.finish()


def test_golden_file_is_byte_identical_when_regenerated():
    """With all churn and corruption knobs at their defaults, re-measuring
    every anchor reproduces ``experiments/golden.json`` byte for byte —
    zero behaviour drift from the lifecycle or integrity machinery."""
    regenerated = json.dumps(measure_all(), indent=2, sort_keys=True) + "\n"
    assert regenerated == GOLDEN_PATH.read_text()


def test_recovery_knobs_default_off():
    """The crash-recovery machinery must be invisible unless asked for:
    connections are born at epoch/frontier zero with no resume state, the
    RNG registry's epoch 0 derives the exact pre-epoch seed layout, and
    the randomized chaos scenarios never draw crash events (which would
    shift every downstream RNG draw and break old seeds)."""
    import inspect

    from repro.core.blocks import BlockManager
    from repro.core.connection import FmtcpConnection
    from repro.faults import FaultScenario
    from repro.faults.scenario import FAULT_TABLE
    from repro.mptcp.connection import MptcpConnection
    from repro.mptcp.recv_buffer import ReorderBuffer
    from repro.sim.rng import RngStreams

    assert inspect.signature(FmtcpConnection).parameters["resume"].default is None
    assert inspect.signature(MptcpConnection).parameters["resume"].default is None
    assert inspect.signature(BlockManager).parameters["start_block_id"].default == 0
    assert inspect.signature(ReorderBuffer).parameters["start_seq"].default == 0
    assert inspect.signature(RngStreams).parameters["epoch"].default == 0

    # Epoch 0 must reproduce the pre-epoch stream derivation exactly.
    assert (
        RngStreams(17).get("loss:path0").random()
        == RngStreams(17, epoch=0).get("loss:path0").random()
    )

    # The random chaos generator's kind pool must stay crash-free.
    for seed in range(1, 20):
        scenario = FaultScenario.random(seed)
        assert not scenario.has_endpoint_faults
        assert all(FAULT_TABLE[e.kind].group != "recovery" for e in scenario.events)


def test_trace_knobs_default_off():
    """The trace-replay machinery must be invisible unless asked for: no
    link is born with a player attached, scenarios without trace events
    never import repro.traces, and the randomized chaos scenarios never
    draw trace events (which would shift every downstream RNG draw and
    break old seeds)."""
    from repro.faults import FaultScenario
    from repro.faults.scenario import FAULT_TABLE
    from repro.net.topology import PathConfig, build_two_path_network
    from repro.sim.rng import RngStreams

    # Trace replay rides the injector; a fresh injector has no players.
    configs = [PathConfig(bandwidth_bps=4e6, delay_s=0.02) for __ in range(2)]
    network, paths = build_two_path_network(configs, rng=RngStreams(1))
    scenario = FaultScenario("plain", [])
    injector = scenario.apply(network.sim, paths)
    assert injector._players == {}
    assert not scenario.has_trace

    # The random chaos generator's kind pool must stay trace-free.
    for seed in range(1, 20):
        random_scenario = FaultScenario.random(seed)
        assert not random_scenario.has_trace
        assert all(FAULT_TABLE[e.kind].group != "traces" for e in random_scenario.events)

    # The trace harness's wiring must not leak into the shared harnesses:
    # the chaos/corruption declarations carry no trace step or invariant.
    from repro.faults.chaos import CHAOS
    from repro.faults.corruption import CORRUPTION

    for harness in (CHAOS, CORRUPTION):
        assert not any(
            "trace" in piece.__name__ for piece in harness.steps + harness.invariants
        )


def test_deferred_seal_is_free_when_clean_and_invisible_when_damaged(monkeypatch):
    """Transports seal without hashing; the CRC is computed only for a
    packet a corruption model is about to damage. So a clean-network
    transfer computes zero packet CRCs yet delivers the bytes and reports
    the ``corruption_stats()`` an eagerly sealing build does, and every
    corruption preset — ``bit_rot`` and ``duplicate_mutation`` let one flip
    in five evade the CRC; each ``corrupt`` fault attaches its model at
    t = 8 s, with whole windows already in flight — counts exactly what
    the eagerly sealing commit counted for this seed. The MPTCP rows also
    pin the DSS checksum, deferred the same way (stamped in
    ``Chunk.integrity_mutate``): they were measured with the eager stamp."""
    import random

    from repro.core.config import FmtcpConfig
    from repro.core.connection import FmtcpConnection
    from repro.faults import CORRUPTION_SCENARIOS
    from repro.faults.corruption import CORRUPTION
    from repro.net import integrity
    from repro.net.topology import Path, PathConfig, build_two_path_network
    from repro.sim.rng import RngStreams
    from repro.soak import run_soak
    from repro.workloads.sources import RandomPayloadSource

    crcs = []
    real_checksum = integrity.packet_checksum
    monkeypatch.setattr(
        integrity,
        "packet_checksum",
        lambda packet: crcs.append(packet.uid) or real_checksum(packet),
    )

    def clean_transfer():
        del crcs[:]
        configs = [PathConfig(bandwidth_bps=4e6, delay_s=0.02) for __ in range(2)]
        network, paths = build_two_path_network(configs, rng=RngStreams(5))
        delivered = []
        source = RandomPayloadSource(40 * 8192, rng=random.Random(5))
        connection = FmtcpConnection(
            network.sim, paths, source, config=FmtcpConfig(coding="real"),
            rng=RngStreams(5), sink=lambda block_id, data: delivered.append(data),
        )
        connection.start()
        network.sim.run(until=10.0)
        stats = connection.corruption_stats()
        packets = sum(sf.packets_sent for sf in connection.subflows)
        connection.close()
        assert b"".join(delivered) == bytes(source.transcript)
        assert len(delivered) == 40 and packets > 200
        return delivered, stats, network.sim.events_processed, len(crcs)

    deferred = clean_transfer()
    with monkeypatch.context() as eager_build:
        # Every packet a subflow or its sink sends enters its path here.
        for name in ("send_forward", "send_reverse"):
            send = getattr(Path, name)
            eager_build.setattr(
                Path,
                name,
                lambda path, packet, send=send: send(path, integrity.seal(packet)),
            )
        eager = clean_transfer()
    assert deferred[:3] == eager[:3]
    assert not any(deferred[1].values())
    assert deferred[3] == 0 and eager[3] > 400  # data + ACK, seal + verify

    # Measured with the eager forms: seal in Subflow/SubflowSink (before PR 12),
    # DSS stamp in Chunk.__init__ (before PR 14).
    parent = {
        ("bit_rot", "fmtcp"): (7, {
            "packets_discarded_corrupt": 3, "packets_rejected": 0,
            "acks_discarded_corrupt": 3, "blocks_quarantined": 1,
            "symbols_evicted": 256,
        }),
        ("bit_rot", "mptcp"): (5, {
            "packets_discarded_corrupt": 1, "packets_rejected": 1,
            "acks_discarded_corrupt": 3, "chunks_discarded_checksum": 1,
        }),
        ("truncation_storm", "fmtcp"): (15, {
            "packets_discarded_corrupt": 11, "packets_rejected": 0,
            "acks_discarded_corrupt": 4, "blocks_quarantined": 0,
            "symbols_evicted": 0,
        }),
        ("truncation_storm", "mptcp"): (11, {
            "packets_discarded_corrupt": 8, "packets_rejected": 0,
            "acks_discarded_corrupt": 3, "chunks_discarded_checksum": 0,
        }),
        ("corruption_burst", "fmtcp"): (8, {
            "packets_discarded_corrupt": 4, "packets_rejected": 0,
            "acks_discarded_corrupt": 4, "blocks_quarantined": 0,
            "symbols_evicted": 0,
        }),
        ("corruption_burst", "mptcp"): (8, {
            "packets_discarded_corrupt": 4, "packets_rejected": 0,
            "acks_discarded_corrupt": 4, "chunks_discarded_checksum": 0,
        }),
        ("duplicate_mutation", "fmtcp"): (8, {
            "packets_discarded_corrupt": 3, "packets_rejected": 0,
            "acks_discarded_corrupt": 4, "blocks_quarantined": 1,
            "symbols_evicted": 55,
        }),
        ("duplicate_mutation", "mptcp"): (5, {
            "packets_discarded_corrupt": 1, "packets_rejected": 1,
            "acks_discarded_corrupt": 3, "chunks_discarded_checksum": 1,
        }),
    }
    assert {name for name, __ in parent} == set(CORRUPTION_SCENARIOS)
    for (name, protocol), (corrupted, stats) in parent.items():
        report = run_soak(CORRUPTION, protocol, CORRUPTION_SCENARIOS[name](), seed=3)
        assert report.ok, report.violations
        assert report.packets_corrupted == corrupted, (name, protocol)
        assert report.corruption_stats == stats, (name, protocol)


_RTO_HEAVY = {
    # protocol: (MetricsSuite.summary, per subflow [sent, acked, lost_timeout,
    # lost_dupack, cwnd, srtt]) — measured at commit 352171a, where every
    # ACK cancelled and re-pushed the RTO event.
    "mptcp": (
        {
            "goodput_mbps": 0.16898933333333335,
            "goodput_mbytes_per_s": 0.02112366666666667,
            "total_mbytes": 12.6742,
            "blocks": 1546.0,
            "mean_block_delay_ms": 4536.068239957655,
            "jitter_ms": 377.39841787610663,
            "delay_p95_ms": 6796.799999998832,
            "delay_max_ms": 10353.037397947162,
        },
        [
            [5259, 5207, 0, 0, 119.94427117544359, 2.3751614271123036],
            [4042, 3848, 59, 132, 7.229742427839504, 0.7790675169991348],
        ],
    ),
    "fmtcp": (
        {
            "goodput_mbps": 0.1539003733333333,
            "goodput_mbytes_per_s": 0.019237546666666664,
            "total_mbytes": 11.542528,
            "blocks": 1412.0,
            "mean_block_delay_ms": 6618.243678285203,
            "jitter_ms": 1485.7950740290828,
            "delay_p95_ms": 9453.360000000215,
            "delay_max_ms": 14088.63999999744,
        },
        [
            [5755, 5683, 0, 6, 80.75599268046213, 5.985681922916601],
            [4480, 4269, 52, 149, 10.55166870834903, 0.7176835606194673],
        ],
    ),
}


@pytest.mark.parametrize("protocol", sorted(_RTO_HEAVY))
def test_rto_heavy_gprs_transfer_is_unchanged_by_the_lazy_timer(protocol):
    """The golden anchors are Table I cases with a handful of RTOs; the
    lazy ``Timer`` restart lives on the RTO path. A 600 s GPRS-trace
    transfer (bursty fades on path 1, ≥ 50 timeouts, back-off and back-off
    reset) must reproduce the cancel-and-push build's numbers exactly."""
    from repro.core.connection import FmtcpConnection
    from repro.metrics.collectors import MetricsSuite
    from repro.mptcp.connection import MptcpConnection
    from repro.net.topology import PathConfig, build_two_path_network
    from repro.sim.rng import RngStreams
    from repro.sim.trace import TraceBus
    from repro.traces.generators import gprs_trace
    from repro.traces.player import TracePlayer
    from repro.workloads.sources import BulkSource

    seed, duration_s = 9, 600.0
    bus = TraceBus()
    configs = [
        PathConfig(bandwidth_bps=1e5, delay_s=0.03, loss_rate=0.0),
        PathConfig(bandwidth_bps=6e5, delay_s=0.03, loss_rate=0.0),
    ]
    network, paths = build_two_path_network(configs, rng=RngStreams(seed), trace=bus)
    sim = network.sim
    metrics = MetricsSuite(bus)
    if protocol == "fmtcp":
        connection = FmtcpConnection(
            sim, paths, BulkSource(), trace=bus, rng=RngStreams(seed)
        )
    else:
        connection = MptcpConnection(sim, paths, BulkSource(), trace=bus)
    player = TracePlayer(
        sim, paths[1].forward_links, gprs_trace(seed=seed, duration_s=duration_s),
        bus=bus,
    )
    player.start()
    connection.start()
    sim.run(until=duration_s)
    summary, subflows = _RTO_HEAVY[protocol]
    assert metrics.summary(duration_s) == summary
    assert [
        [
            sf.packets_sent, sf.packets_acked, sf.packets_lost_timeout,
            sf.packets_lost_dupack, sf.cc.cwnd, sf.srtt,
        ]
        for sf in connection.subflows
    ] == subflows
    assert sum(sf.packets_lost_timeout for sf in connection.subflows) >= 50
    player.stop()
    connection.close()
