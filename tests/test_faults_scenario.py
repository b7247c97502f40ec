"""Unit tests for the fault-injection subsystem: link mutations,
reordering models, fault timelines, the injector, overlap diagnosis and
subflow-lifecycle (churn) events."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultScenario, presets, resolve_scenario
from repro.faults.scenario import FAULT_TABLE, FaultEvent
from repro.net.link import Link
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.packet import Packet
from repro.net.reorder import UniformReordering
from repro.net.topology import PathConfig, build_two_path_network
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus


class RecordingNode:
    """Sink node that records packet arrival order and times."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive(self, packet):
        self.received.append((self.sim.now, packet))


def make_link(sim, trace=None, **kwargs):
    node = RecordingNode(sim)
    defaults = dict(bandwidth_bps=8e6, delay_s=0.01)
    defaults.update(kwargs)
    link = Link(sim, "test-link", node, trace=trace, **defaults)
    return link, node


def packet(seq=0, size=1000):
    return Packet(size=size, src="a", dst="b", src_port=1, dst_port=2, payload=seq)


# ----------------------------------------------------------------------
# Link runtime mutations.
# ----------------------------------------------------------------------
def test_link_down_drops_everything(sim):
    trace = TraceBus()
    events = []
    trace.subscribe("link.down", events.append)
    trace.subscribe("link.up", events.append)
    link, node = make_link(sim, trace=trace)
    link.set_down(True)
    assert link.is_down
    for seq in range(5):
        link.send(packet(seq))
    sim.run()
    assert node.received == []
    assert link.packets_dropped_down == 5
    link.set_down(False)
    link.send(packet(99))
    sim.run()
    assert len(node.received) == 1
    assert [record.kind for record in events] == ["link.down", "link.up"]


def test_link_down_mid_serialisation_drops_at_wire_exit(sim):
    link, node = make_link(sim, bandwidth_bps=8e3)  # 1 s serialisation
    link.send(packet(0, size=1000))
    sim.schedule(0.5, link.set_down, True)
    sim.run()
    # The packet was still serialising when the link died: dropped.
    assert node.received == []
    assert link.packets_dropped_down == 1


def test_link_down_packet_already_propagating_still_arrives(sim):
    link, node = make_link(sim, bandwidth_bps=8e8, delay_s=1.0)
    link.send(packet(0))
    sim.schedule(0.5, link.set_down, True)  # after serialisation, mid-flight
    sim.run()
    assert len(node.received) == 1


def test_link_set_bandwidth_and_delay_take_effect(sim):
    link, node = make_link(sim, bandwidth_bps=8e6, delay_s=0.01)
    link.set_bandwidth(8e3)  # 1 s per 1000 B packet
    link.set_delay(2.0)
    link.send(packet(0))
    sim.run()
    assert node.received[0][0] == pytest.approx(3.0)


def test_link_mutation_validation(sim):
    link, __ = make_link(sim)
    with pytest.raises(ValueError):
        link.set_bandwidth(0.0)
    with pytest.raises(ValueError):
        link.set_delay(-0.1)


def test_link_set_loss_model_none_restores_lossless(sim):
    link, node = make_link(sim, loss_model=BernoulliLoss(0.9))
    link.set_loss_model(None)
    assert isinstance(link.loss_model, NoLoss)
    for seq in range(20):
        link.send(packet(seq))
    sim.run()
    assert len(node.received) == 20


def test_link_fallback_rngs_are_independent():
    """Two links built without an explicit rng must not share a stream
    (a shared Random(0) would give them identical drop sequences)."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    link_a, __ = make_link(sim)
    link_b = Link(sim, "other-link", RecordingNode(sim), bandwidth_bps=8e6,
                  delay_s=0.01)
    draws_a = [link_a.rng.random() for __ in range(50)]
    draws_b = [link_b.rng.random() for __ in range(50)]
    assert draws_a != draws_b


# ----------------------------------------------------------------------
# Reordering models.
# ----------------------------------------------------------------------
def test_uniform_reordering_validation():
    with pytest.raises(ValueError):
        UniformReordering(-0.1)
    with pytest.raises(ValueError):
        UniformReordering(1.5)
    with pytest.raises(ValueError):
        UniformReordering(0.5, max_extra_s=-0.1)


def test_uniform_reordering_counts_and_bounds():
    model = UniformReordering(1.0, max_extra_s=0.2)
    rng = random.Random(3)
    delays = [model.extra_delay(0.0, rng) for __ in range(200)]
    assert model.packets_reordered == 200
    assert all(0.0 <= delay <= 0.2 for delay in delays)


def test_reordering_model_reorders_packets_on_a_link(sim):
    link, node = make_link(sim, bandwidth_bps=8e8, delay_s=0.001)  # negligible serialisation
    link.set_reordering_model(UniformReordering(0.5, max_extra_s=0.1))
    for seq in range(100):
        sim.schedule(seq * 1e-4, link.send, packet(seq))
    sim.run()
    arrival_order = [pkt.payload for __, pkt in node.received]
    assert len(arrival_order) == 100
    assert arrival_order != sorted(arrival_order)


# ----------------------------------------------------------------------
# FaultEvent / FaultScenario.
# ----------------------------------------------------------------------
def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "down", 0)
    with pytest.raises(ValueError):
        FaultEvent(1.0, "meteor", 0)
    with pytest.raises(ValueError):
        FaultEvent(1.0, "down", -1)
    with pytest.raises(ValueError):
        FaultEvent(1.0, "down", 0, direction="sideways")


def test_fault_event_value_validation():
    """Out-of-range (and NaN/inf) link-mutation values fail at scenario
    build time with a diagnostic, not mid-run inside the injector."""
    nan, inf = float("nan"), float("inf")
    for bad in (0.0, -1.0, nan, inf):
        with pytest.raises(ValueError, match="bandwidth factor"):
            FaultEvent(1.0, "bandwidth", 0, bad)
    for bad in (-0.5, nan, inf):
        with pytest.raises(ValueError, match="delay factor"):
            FaultEvent(1.0, "delay", 0, bad)
    for bad in (-0.1, 1.0, 1.5, nan):
        with pytest.raises(ValueError, match=r"loss rate"):
            FaultEvent(1.0, "loss", 0, bad)
    with pytest.raises(ValueError, match="queue capacity"):
        FaultEvent(1.0, "queue", 0, 0)
    # In-range values still build.
    FaultEvent(1.0, "bandwidth", 0, 0.05)
    FaultEvent(1.0, "delay", 0, 0.0)
    FaultEvent(1.0, "loss", 0, 0.0)
    FaultEvent(1.0, "loss", 0, None)
    FaultEvent(1.0, "queue", 0, 1)


def test_trace_event_validation():
    """A trace event resolves (and so validates) its spec at build time."""
    event = FaultEvent(2.0, "trace", 1, "gprs:1")
    assert event.kind == "trace"
    with pytest.raises(ValueError, match="unknown trace spec"):
        FaultEvent(2.0, "trace", 1, "warp_drive")
    FaultEvent(18.0, "trace", 1, None)  # restore event


def test_scenario_sorts_events_and_exposes_window():
    scenario = FaultScenario(
        "x",
        [FaultEvent(9.0, "up", 0), FaultEvent(4.0, "down", 0)],
    )
    assert [event.kind for event in scenario.events] == ["down", "up"]
    assert scenario.fault_start == 4.0
    assert scenario.heal_time == 9.0


def test_scenario_rejects_out_of_range_path():
    with pytest.raises(ValueError):
        FaultScenario("x", [FaultEvent(1.0, "down", 2)])


def test_named_scenarios_and_unknown_name():
    for name in presets("chaos"):
        scenario = resolve_scenario(name)
        assert scenario.name == name
        assert scenario.events
    with pytest.raises(ValueError):
        resolve_scenario("no_such_scenario")


def test_random_scenario_is_deterministic_per_seed():
    first = FaultScenario.random(42)
    second = FaultScenario.random(42)
    other = FaultScenario.random(43)
    assert first.events == second.events
    assert first.events != other.events


def test_random_scenario_always_heals_in_window():
    for seed in range(20):
        scenario = FaultScenario.random(seed)
        assert scenario.events
        assert scenario.heal_time <= 18.0
        # Every fault kind that sets state also has a restoring event at
        # or after it; the latest event must be a restore.
        last = scenario.events[-1]
        restores = (
            last.kind == "up"
            or (last.kind in ("bandwidth", "delay") and last.value == 1.0)
            or (last.kind in ("loss", "reorder", "queue") and last.value is None)
        )
        assert restores, f"seed {seed}: last event {last} does not heal"


def test_resolve_scenario_specs():
    assert resolve_scenario("link_flap").name == "link_flap"
    assert resolve_scenario("random:9").name == "random:9"
    with pytest.raises(ValueError):
        resolve_scenario("bogus")


@pytest.mark.parametrize("seed", ["x", "", "1.5"])
def test_random_spec_with_a_non_integer_seed_names_the_spec(seed):
    with pytest.raises(
        ValueError, match=f"random:SEED needs an integer seed, got {seed!r}"
    ):
        resolve_scenario(f"random:{seed}")


def test_trace_presets_registered_and_resolvable(tmp_path):
    for name in presets("traces"):
        scenario = resolve_scenario(name)
        assert scenario.name == name
        assert scenario.has_trace
        assert not scenario.has_churn
        assert not scenario.has_corruption
        assert not scenario.has_endpoint_faults
        # Every preset restores: the last event clears the trace.
        last = scenario.events[-1]
        assert last.kind == "trace" and last.value is None
    # trace:PATH wraps an arbitrary CSV in the canonical window.
    from repro.traces import gprs_trace

    path = tmp_path / "drive.csv"
    path.write_text(gprs_trace(seed=4).to_csv())
    scenario = resolve_scenario(f"trace:{path}")
    assert scenario.has_trace
    with pytest.raises(ValueError, match="cannot read"):
        resolve_scenario(f"trace:{tmp_path / 'missing.csv'}")


# ----------------------------------------------------------------------
# The injector against a live topology.
# ----------------------------------------------------------------------
def build_network(n_paths=2):
    configs = [
        PathConfig(bandwidth_bps=4e6, delay_s=0.02) for __ in range(n_paths)
    ]
    return build_two_path_network(configs, rng=RngStreams(5), trace=TraceBus())


def test_injector_applies_and_restores_bandwidth():
    network, paths = build_network()
    baseline = paths[1].forward_links[0].bandwidth_bps
    scenario = FaultScenario(
        "bw",
        [FaultEvent(1.0, "bandwidth", 1, 0.1), FaultEvent(2.0, "bandwidth", 1, 1.0)],
    )
    injector = scenario.apply(network.sim, paths)
    network.sim.run(until=1.5)
    assert paths[1].forward_links[0].bandwidth_bps == pytest.approx(baseline * 0.1)
    # Path 0 untouched.
    assert paths[0].forward_links[0].bandwidth_bps == pytest.approx(baseline)
    network.sim.run(until=3.0)
    assert paths[1].forward_links[0].bandwidth_bps == pytest.approx(baseline)
    assert len(injector.applied) == 2


def test_injector_applies_a_due_event_when_armed():
    """An event whose time has come when the injector is armed applies at
    once, before any ``sim.run``: a t = 0 timeline shapes the links the
    transport's first send meets. Later events wait for their time."""
    network, paths = build_network()
    link = paths[1].forward_links[0]
    baseline = link.bandwidth_bps
    scenario = FaultScenario(
        "due",
        [FaultEvent(0.0, "bandwidth", 1, 0.5), FaultEvent(1.0, "bandwidth", 1, 1.0)],
    )
    injector = scenario.apply(network.sim, paths)
    assert link.bandwidth_bps == baseline * 0.5
    assert injector.applied == [scenario.events[0]]
    network.sim.run(until=2.0)
    assert link.bandwidth_bps == baseline
    assert injector.applied == list(scenario.events)


def test_injector_restores_loss_reorder_and_queue_baselines():
    network, paths = build_network()
    link = paths[1].forward_links[0]
    base_loss = link.loss_model
    base_capacity = link.queue.capacity
    scenario = FaultScenario(
        "mix",
        [
            FaultEvent(1.0, "loss", 1, 0.5),
            FaultEvent(1.0, "reorder", 1, (0.3, 0.1)),
            FaultEvent(1.0, "queue", 1, 2),
            FaultEvent(2.0, "loss", 1, None),
            FaultEvent(2.0, "reorder", 1, None),
            FaultEvent(2.0, "queue", 1, None),
        ],
    )
    scenario.apply(network.sim, paths)
    network.sim.run(until=1.5)
    assert isinstance(link.loss_model, BernoulliLoss)
    assert isinstance(link.reordering_model, UniformReordering)
    assert link.queue.capacity == 2
    network.sim.run(until=2.5)
    assert link.loss_model is base_loss
    assert link.reordering_model is None
    assert link.queue.capacity == base_capacity


def test_injector_direction_forward_spares_reverse():
    network, paths = build_network()
    scenario = FaultScenario(
        "oneway", [FaultEvent(1.0, "down", 0, direction="forward")]
    )
    scenario.apply(network.sim, paths)
    network.sim.run(until=1.5)
    assert all(link.is_down for link in paths[0].forward_links)
    assert not any(link.is_down for link in paths[0].reverse_links)


def test_injector_emits_fault_trace():
    network, paths = build_network()
    trace = TraceBus()
    records = []
    trace.subscribe("fault.apply", records.append)
    scenario = FaultScenario("one", [FaultEvent(1.0, "down", 1)])
    scenario.apply(network.sim, paths, trace=trace)
    network.sim.run(until=2.0)
    assert len(records) == 1
    assert records[0]["fault"] == "down"
    assert records[0]["path"] == 1


def test_injector_rejects_too_few_paths(monkeypatch):
    network, paths = build_network()
    monkeypatch.setattr(FaultScenario, "n_paths", 3)
    scenario = FaultScenario("big", [FaultEvent(1.0, "down", 2)])
    with pytest.raises(ValueError):
        scenario.apply(network.sim, paths)


def test_injector_trace_event_plays_and_restores():
    from repro.traces import LinkTrace, TraceSample

    network, paths = build_network()
    links = paths[1].forward_links
    baseline_bw = links[0].bandwidth_bps
    replay = LinkTrace("crush", [TraceSample(0.0, bandwidth_bps=5e4)])
    scenario = FaultScenario(
        "replay",
        [FaultEvent(1.0, "trace", 1, replay), FaultEvent(3.0, "trace", 1, None)],
    )
    injector = scenario.apply(network.sim, paths)
    network.sim.run(until=2.0)
    assert links[0].bandwidth_bps == 5e4
    assert paths[0].forward_links[0].bandwidth_bps == baseline_bw  # path 0 clean
    network.sim.run(until=4.0)
    assert links[0].bandwidth_bps == baseline_bw  # restore event healed it
    assert not injector._players  # player retired with the restore
    # A replayed trace with no restore event is stopped by stop_players.
    open_ended = FaultScenario("open", [FaultEvent(1.0, "trace", 1, replay)])
    network2, paths2 = build_network()
    injector2 = open_ended.apply(network2.sim, paths2)
    network2.sim.run(until=2.0)
    assert paths2[1].forward_links[0].bandwidth_bps == 5e4
    injector2.stop_players()
    assert paths2[1].forward_links[0].bandwidth_bps == baseline_bw


# ----------------------------------------------------------------------
# Subflow-lifecycle (churn) events.
# ----------------------------------------------------------------------
def test_churn_event_validation():
    # handover needs a (to_path, break_s) pair ...
    with pytest.raises(ValueError):
        FaultEvent(1.0, "handover", 0)
    with pytest.raises(ValueError):
        FaultEvent(1.0, "handover", 0, (1, -0.5))
    with pytest.raises(ValueError):
        FaultEvent(1.0, "handover", 0, (-1, 0.3))
    assert FaultEvent(1.0, "handover", 0, (1, 0.3)).kind == "handover"
    # ... while path_down / path_up take no value at all.
    with pytest.raises(ValueError):
        FaultEvent(1.0, "path_down", 0, 0.5)
    with pytest.raises(ValueError):
        FaultEvent(1.0, "path_up", 0, 0.5)


def test_handover_target_checked_against_n_paths():
    with pytest.raises(ValueError):
        FaultScenario("h", [FaultEvent(1.0, "handover", 0, (5, 0.1))])


def test_has_churn_and_settle_time():
    plain = resolve_scenario("path_death")
    assert not plain.has_churn
    assert plain.settle_time == plain.heal_time
    churn = FaultScenario(
        "c", [FaultEvent(2.0, "path_down", 1), FaultEvent(4.0, "handover", 0, (1, 0.7))]
    )
    assert churn.has_churn
    # A handover only settles once its blackout gap has elapsed.
    assert churn.settle_time == pytest.approx(4.7)
    assert churn.heal_time == 4.0


def test_active_paths_validation_and_default(monkeypatch):
    assert FaultScenario("x", []).active_paths == (0, 1)
    scenario = FaultScenario("x", [], active_paths=(0,))
    assert scenario.active_paths == (0,)
    with pytest.raises(ValueError):
        FaultScenario("x", [], active_paths=())
    with pytest.raises(ValueError):
        FaultScenario("x", [], active_paths=(0, 5))
    monkeypatch.setattr(FaultScenario, "n_paths", 3)
    assert FaultScenario("x", []).active_paths == (0, 1, 2)


def test_churn_scenario_requires_lifecycle_handler():
    network, paths = build_network()
    scenario = FaultScenario("c", [FaultEvent(1.0, "path_down", 1)])
    with pytest.raises(ValueError):
        scenario.apply(network.sim, paths)


def test_mobility_presets_are_churn_only():
    for name in presets("churn"):
        scenario = resolve_scenario(name)
        assert scenario.has_churn, name
        assert all(FAULT_TABLE[event.kind].group == "churn" for event in scenario.events), name
    # The two registries stay disjoint: a preset belongs to one harness.
    assert not set(presets("churn")) & set(presets("chaos"))


# ----------------------------------------------------------------------
# Overlap diagnosis: same-kind faults clobbering each other on one link.
# ----------------------------------------------------------------------
def test_injector_records_same_kind_overlap():
    network, paths = build_network()
    trace = TraceBus()
    records = []
    trace.subscribe("fault.overlap", records.append)
    scenario = FaultScenario(
        "clobber",
        [
            FaultEvent(1.0, "bandwidth", 1, 0.5),
            FaultEvent(2.0, "bandwidth", 1, 0.1),  # clobbers the first
            FaultEvent(3.0, "bandwidth", 1, 1.0),
        ],
    )
    injector = scenario.apply(network.sim, paths, trace=trace)
    network.sim.run(until=4.0)
    assert len(injector.overlaps) == 1
    previous, current = injector.overlaps[0]
    assert previous.time == 1.0 and current.time == 2.0
    assert len(records) == 1
    assert records[0]["fault"] == "bandwidth"
    assert records[0]["clobbered_time"] == 1.0
    assert records[0]["clobbered_value"] == 0.5


def test_restore_clears_active_fault_so_no_overlap():
    network, paths = build_network()
    scenario = FaultScenario(
        "sequential",
        [
            FaultEvent(1.0, "loss", 1, 0.5),
            FaultEvent(2.0, "loss", 1, None),  # heals before the next hit
            FaultEvent(3.0, "loss", 1, 0.3),
            FaultEvent(4.0, "loss", 1, None),
        ],
    )
    injector = scenario.apply(network.sim, paths)
    network.sim.run(until=5.0)
    assert injector.overlaps == []


def test_down_down_overlap_uses_shared_base_kind():
    network, paths = build_network()
    scenario = FaultScenario(
        "double_down",
        [
            FaultEvent(1.0, "down", 0),
            FaultEvent(2.0, "down", 0),  # path is already down
            FaultEvent(3.0, "up", 0),
        ],
    )
    injector = scenario.apply(network.sim, paths)
    network.sim.run(until=4.0)
    assert len(injector.overlaps) == 1


def test_different_paths_and_kinds_never_overlap():
    network, paths = build_network()
    scenario = FaultScenario(
        "disjoint",
        [
            FaultEvent(1.0, "bandwidth", 0, 0.5),
            FaultEvent(1.5, "delay", 0, 4.0),  # different kind, same link
            FaultEvent(2.0, "bandwidth", 1, 0.5),  # same kind, other path
            FaultEvent(3.0, "bandwidth", 0, 1.0),
            FaultEvent(3.0, "delay", 0, 1.0),
            FaultEvent(3.0, "bandwidth", 1, 1.0),
        ],
    )
    injector = scenario.apply(network.sim, paths)
    network.sim.run(until=4.0)
    assert injector.overlaps == []


# ----------------------------------------------------------------------
# Property: event ordering and application are deterministic.
# ----------------------------------------------------------------------
_event_strategy = st.one_of(
    st.tuples(st.just("down"), st.none()),
    st.tuples(st.just("up"), st.none()),
    st.tuples(
        st.just("bandwidth"),
        st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    ),
    st.tuples(
        st.just("delay"), st.floats(min_value=0.5, max_value=8.0, allow_nan=False)
    ),
    st.tuples(
        st.just("loss"),
        st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=0.9, allow_nan=False)
        ),
    ),
    st.tuples(st.just("queue"), st.one_of(st.none(), st.integers(1, 5))),
)


def _link_state(paths):
    return [
        (
            link.is_down,
            round(link.bandwidth_bps, 6),
            round(link.delay_s, 9),
            type(link.loss_model).__name__,
            link.queue.capacity,
        )
        for path in paths
        for link in (*path.forward_links, *path.reverse_links)
    ]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            _event_strategy,
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_event_ordering_is_deterministic(raw_events):
    """Arming the same scenario against two identical topologies applies
    the events in exactly the same order (stable by time, listed order
    breaking ties) and leaves the links in exactly the same state."""
    events = [
        FaultEvent(time, kind, path, value)
        for time, (kind, value), path in raw_events
    ]
    scenario = FaultScenario("prop", events)

    # Sorting is stable: equal-time events keep their listed order.
    times = [event.time for event in scenario.events]
    assert times == sorted(times)
    for time in set(times):
        listed = [e for e in events if e.time == time]
        applied_order = [e for e in scenario.events if e.time == time]
        assert listed == applied_order

    outcomes = []
    for __ in range(2):
        network, paths = build_network()
        injector = scenario.apply(network.sim, paths)
        network.sim.run(until=11.0)
        outcomes.append((list(injector.applied), _link_state(paths)))
    assert outcomes[0][0] == list(scenario.events)
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# The fault-kind table and the preset registry: everything else derives.
# ----------------------------------------------------------------------
def test_every_fault_kind_has_one_table_row_and_the_views_are_its_columns():
    from repro.faults.scenario import ROUTES

    assert len(FAULT_TABLE) == 16
    by_group = {
        group: tuple(kind for kind, row in FAULT_TABLE.items() if row.group == group)
        for group in ROUTES
    }
    assert by_group["churn"] == ("path_down", "path_up", "handover")
    assert by_group["corruption"] == ("corrupt", "corrupt_ge")
    assert by_group["recovery"] == ("crash_sender", "crash_receiver", "restart")
    assert by_group["traces"] == ("trace",)
    assert sum(len(kinds) for kinds in by_group.values()) == 16
    # Link mutations name the setting they write; delegated kinds do not.
    for kind, row in FAULT_TABLE.items():
        assert (row.slot is None) == (row.group in ("churn", "recovery")), kind


@pytest.mark.parametrize(
    "kind, value, group",
    [
        ("down", None, "chaos"),
        ("path_down", None, "churn"),
        ("corrupt_ge", (0.02, 0.25, 0.5), "corruption"),
        ("crash_sender", None, "recovery"),
        ("trace", "leo:1", "traces"),
    ],
)
def test_has_predicates_and_route_read_the_group_column(kind, value, group):
    scenario = FaultScenario("one", [FaultEvent(1.0, kind, 0, value)])
    assert scenario.groups == {group}
    assert scenario.route() == group
    assert {
        "churn": scenario.has_churn,
        "corruption": scenario.has_corruption,
        "recovery": scenario.has_endpoint_faults,
        "traces": scenario.has_trace,
    } == {name: name == group for name in ("churn", "corruption", "recovery", "traces")}


def test_restore_column_matches_each_kinds_documented_restore_value():
    from repro.faults.scenario import FAULT_TABLE

    def restores(kind, value):
        return FAULT_TABLE[kind].restores(FaultEvent(1.0, kind, 0, value))

    assert restores("up", None) and not restores("down", None)
    for kind in ("bandwidth", "delay"):
        assert restores(kind, 1.0) and not restores(kind, 0.5)
    for kind, fault in (
        ("loss", 0.3), ("reorder", (0.2, 0.1)), ("queue", 2), ("corrupt", 0.1),
        ("corrupt_ge", (0.02, 0.25, 0.5)), ("trace", "gprs:1"),
    ):
        assert restores(kind, None) and not restores(kind, fault)


def test_bad_values_of_the_delegated_kinds_still_raise_at_construction():
    for kind in ("crash_sender", "crash_receiver"):
        with pytest.raises(ValueError, match="takes no value"):
            FaultEvent(1.0, kind, 0, "now")
    with pytest.raises(ValueError, match="restart takes no value"):
        FaultEvent(1.0, "restart", 0, "sender")
    with pytest.raises(ValueError, match="corrupt value"):
        FaultEvent(1.0, "corrupt", 0, object())
    with pytest.raises(ValueError, match="bad corrupt value"):
        FaultEvent(1.0, "corrupt", 0, (0.1, "melt"))
    with pytest.raises(ValueError, match="corrupt_ge value"):
        FaultEvent(1.0, "corrupt_ge", 0, 0.1)
    with pytest.raises(ValueError, match="bad corrupt_ge value"):
        FaultEvent(1.0, "corrupt_ge", 0, (0.02, 0.25, 0.5, 0.1, "extra"))


def test_one_preset_registry_behind_named_and_the_group_views():
    """All 27 presets, the exhaustion budgets included, sit in one
    registry: each resolves by name, routes to its registry group and is
    the factory its group's view lists, and an unknown name's message
    names every one of them."""
    from repro.faults.scenario import PRESETS, ROUTES

    groups = (*ROUTES, "exhaustion")
    assert len(PRESETS) == 27 == sum(len(presets(group)) for group in groups)
    for name, (group, factory) in PRESETS.items():
        assert presets(group)[name] is factory
        scenario = resolve_scenario(name)
        assert scenario.name == name
        assert scenario.route() == group  # the registry's group is the route
    with pytest.raises(ValueError, match="known: bandwidth_collapse, bit_rot, ") as error:
        resolve_scenario("nope")
    listed = str(error.value).split("(known: ", 1)[1].rstrip(")").split(", ")
    assert listed == sorted(PRESETS)
