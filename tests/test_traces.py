"""Unit and property tests for the trace-driven link model.

Covers the CSV schema (Hypothesis round-trip: parse -> serialise ->
parse is the identity), the edge cases the schema must reject (empty
traces, non-monotonic timestamps, NaN/inf, out-of-range values), the
end-of-trace policies and stepping semantics, the seeded
generators' determinism, the bundled package-data assets, and the
player's apply/restore contract against live links.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.loss import BernoulliLoss
from repro.net.topology import PathConfig, build_two_path_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.traces import (
    LinkTrace,
    TracePlayer,
    TraceSample,
    gprs_trace,
    load_trace_csv,
    parse_trace_csv,
    resolve_trace,
)
from repro.traces.generators import BUNDLED_TRACES, TRACE_GENERATORS, load_bundled_trace
from repro.traces.model import TraceFormatError

# ----------------------------------------------------------------------
# Hypothesis: CSV round-trip.
# ----------------------------------------------------------------------
_times = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=20,
    unique=True,
).map(sorted)

_bandwidth = st.one_of(
    st.none(),
    st.floats(min_value=1e-3, max_value=1e10, allow_nan=False, allow_infinity=False),
)
_delay = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
)
_loss = st.one_of(
    st.none(),
    st.floats(
        min_value=0.0,
        max_value=1.0,
        exclude_max=True,
        allow_nan=False,
        allow_infinity=False,
    ),
)


@st.composite
def traces(draw):
    times = draw(_times)
    samples = [
        TraceSample(
            time_s=t,
            bandwidth_bps=draw(_bandwidth),
            delay_s=draw(_delay),
            loss_rate=draw(_loss),
        )
        for t in times
    ]
    end_policy = draw(st.sampled_from(("hold", "loop")))
    return LinkTrace("prop", samples, end_policy=end_policy)


@settings(max_examples=60, deadline=None)
@given(trace=traces())
def test_csv_round_trip_is_identity(trace):
    text = trace.to_csv()
    parsed = parse_trace_csv(text, name=trace.name)
    assert len(parsed.samples) == len(trace.samples)
    for original, reparsed in zip(trace.samples, parsed.samples):
        # repr() serialisation preserves floats exactly — equality, not
        # approx, is the contract.
        assert reparsed == original
    # Second round trip is byte-identical (serialisation is canonical).
    assert parsed.to_csv() == text


# ----------------------------------------------------------------------
# Schema edge cases.
# ----------------------------------------------------------------------
def test_empty_trace_rejected():
    with pytest.raises(TraceFormatError, match="empty"):
        LinkTrace("empty", [])
    with pytest.raises(TraceFormatError, match="empty"):
        parse_trace_csv("time_s,bandwidth_bps,delay_s,loss_rate\n")


def test_single_row_trace_holds_forever():
    trace = parse_trace_csv(
        "time_s,bandwidth_bps,delay_s,loss_rate\n0.0,1000,,\n"
    )
    assert trace.duration_s == 0.0
    assert trace.sample_at(0.0).bandwidth_bps == 1000
    assert trace.sample_at(99.0).bandwidth_bps == 1000  # hold policy
    # Round-trips like any other trace.
    assert parse_trace_csv(trace.to_csv()).samples == trace.samples


def test_non_monotonic_timestamps_rejected():
    with pytest.raises(TraceFormatError, match="strictly increasing"):
        LinkTrace(
            "bad",
            [TraceSample(1.0, bandwidth_bps=1e6), TraceSample(1.0, bandwidth_bps=2e6)],
        )
    text = (
        "time_s,bandwidth_bps,delay_s,loss_rate\n"
        "2.0,1000,,\n"
        "1.0,2000,,\n"
    )
    with pytest.raises(TraceFormatError, match="strictly increasing"):
        parse_trace_csv(text)


@pytest.mark.parametrize(
    "row, message",
    [
        ("nan,1000,,", "finite"),
        ("0.0,inf,,", "finite"),
        ("0.0,nan,,", "finite"),
        ("0.0,-5,,", "positive"),
        ("0.0,0,,", "positive"),
        ("0.0,,-0.5,", "non-negative"),
        ("0.0,,inf,", "finite"),
        ("0.0,,,1.0", r"\[0, 1\)"),
        ("0.0,,,-0.1", r"\[0, 1\)"),
        ("0.0,junk,,", "number or blank"),
        ("0.0,1000,", "columns"),
        (",1000,,", "blank"),
    ],
)
def test_malformed_rows_rejected_with_line_numbers(row, message):
    text = f"time_s,bandwidth_bps,delay_s,loss_rate\n{row}\n"
    with pytest.raises(TraceFormatError, match=message) as excinfo:
        parse_trace_csv(text)
    assert "line 2" in str(excinfo.value)


def test_wrong_header_rejected():
    with pytest.raises(TraceFormatError, match="header"):
        parse_trace_csv("t,bw,d,l\n0.0,1,2,0\n")


def test_unknown_end_policy_rejected():
    with pytest.raises(TraceFormatError, match="end policy"):
        LinkTrace("bad", [TraceSample(0.0, bandwidth_bps=1.0)], end_policy="bounce")


def test_unreadable_file_raises_trace_format_error(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read"):
        load_trace_csv(str(tmp_path / "missing.csv"))


# ----------------------------------------------------------------------
# End policies + interpolation.
# ----------------------------------------------------------------------
def _two_step() -> list:
    return [
        TraceSample(0.0, bandwidth_bps=1000.0, delay_s=0.1, loss_rate=0.2),
        TraceSample(10.0, bandwidth_bps=3000.0, delay_s=0.3, loss_rate=0.0),
    ]


def test_end_policy_semantics():
    hold = LinkTrace("h", _two_step(), end_policy="hold")
    assert hold.sample_at(25.0).bandwidth_bps == 3000.0
    loop = LinkTrace("l", _two_step(), end_policy="loop")
    assert loop.sample_at(12.0).bandwidth_bps == 1000.0  # 12 mod 10 = 2


def test_between_samples_the_channel_steps():
    trace = LinkTrace("s", _two_step())
    assert trace.sample_at(5.0) is trace.samples[0]
    assert trace.sample_at(10.0) is trace.samples[1]


def test_sample_before_first_uses_first():
    trace = LinkTrace(
        "late",
        [TraceSample(5.0, bandwidth_bps=700.0), TraceSample(9.0, bandwidth_bps=900.0)],
    )
    assert trace.sample_at(0.0).bandwidth_bps == 700.0


def _sample_at_by_linear_scan(trace: LinkTrace, t: float):
    """Oracle for :meth:`LinkTrace.sample_at`: the end-policy prologue,
    then a scan for the first sample later than ``t`` (the form the
    bisect replaced)."""
    samples = trace.samples
    duration = samples[-1].time_s
    if t > duration:
        if trace.end_policy == "hold" or duration == 0.0:
            return samples[-1]
        t = t % duration
    if t <= samples[0].time_s:
        return samples[0]
    for previous, sample in zip(samples, samples[1:]):
        if t < sample.time_s:
            return previous
    return samples[-1]


@settings(max_examples=300, deadline=None)
@given(
    times=_times,
    data=st.data(),
    end_policy=st.sampled_from(["hold", "loop"]),
)
def test_sample_at_matches_a_linear_scan(times, data, end_policy):
    """Every policy and the boundary times: on a sample, before the first,
    past the last, between two."""
    samples = [
        TraceSample(
            time_s, data.draw(_bandwidth), data.draw(_delay), data.draw(_loss)
        )
        for time_s in times
    ]
    trace = LinkTrace("t", samples, end_policy=end_policy)
    probes = list(times)
    probes += [times[0] / 2.0, times[-1] + 1.0, times[-1] * 2.5 + 0.125]
    probes += [(a + b) / 2.0 for a, b in zip(times, times[1:])]
    probes += data.draw(
        st.lists(st.floats(min_value=0.0, max_value=3e4), max_size=5)
    )
    for t in probes:
        assert trace.sample_at(t) == _sample_at_by_linear_scan(trace, t)


# ----------------------------------------------------------------------
# Generators + resolve.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(TRACE_GENERATORS))
def test_generators_deterministic_and_valid(family):
    a = TRACE_GENERATORS[family](seed=7)
    b = TRACE_GENERATORS[family](seed=7)
    assert a.to_csv() == b.to_csv()
    assert a.to_csv() != TRACE_GENERATORS[family](seed=8).to_csv()
    assert a.duration_s >= 10.0
    for sample in a.samples:
        if sample.bandwidth_bps is not None:
            assert math.isfinite(sample.bandwidth_bps) and sample.bandwidth_bps > 0
        if sample.loss_rate is not None:
            assert 0.0 <= sample.loss_rate < 1.0


@pytest.mark.parametrize("name", BUNDLED_TRACES)
def test_bundled_assets_load_and_match_recipes(name):
    from repro.traces.generators import _BUNDLE_RECIPES

    bundled = load_bundled_trace(name)
    regenerated = _BUNDLE_RECIPES[name]()
    assert [
        (s.time_s, s.bandwidth_bps, s.delay_s, s.loss_rate) for s in bundled.samples
    ] == [
        (s.time_s, s.bandwidth_bps, s.delay_s, s.loss_rate)
        for s in regenerated.samples
    ], f"bundled asset {name} drifted from its recipe; regenerate with python -m repro.traces.generators"


def test_resolve_trace_specs(tmp_path):
    assert resolve_trace("gprs:3").name == "gprs:3"
    assert resolve_trace("cellular_drive").name == "cellular_drive"
    trace = gprs_trace(seed=2)
    assert resolve_trace(trace) is trace
    path = tmp_path / "mine.csv"
    path.write_text(trace.to_csv())
    assert resolve_trace(str(path)).name == "mine"
    with pytest.raises(ValueError, match="unknown trace spec"):
        resolve_trace("warp_drive")
    with pytest.raises(ValueError, match="seed must be an int"):
        resolve_trace("gprs:soon")
    with pytest.raises(ValueError, match="unknown bundled trace"):
        load_bundled_trace("nope")
    with pytest.raises(ValueError, match="trace spec"):
        resolve_trace(42)


# ----------------------------------------------------------------------
# Player contract.
# ----------------------------------------------------------------------
def _network():
    configs = [
        PathConfig(bandwidth_bps=1e6, delay_s=0.01, loss_rate=0.0) for __ in range(2)
    ]
    return build_two_path_network(configs, rng=RngStreams(1))


def test_player_applies_and_restores_baselines():
    network, paths = _network()
    links = paths[1].forward_links
    baseline_bw = links[0].bandwidth_bps
    baseline_loss = links[0].loss_model
    trace = LinkTrace(
        "t",
        [
            TraceSample(0.0, bandwidth_bps=5e4, delay_s=0.2, loss_rate=0.3),
            TraceSample(1.0, bandwidth_bps=2e5, delay_s=0.05, loss_rate=0.0),
        ],
    )
    player = TracePlayer(network.sim, links, trace)
    player.start()
    network.sim.run(until=0.6)
    assert links[0].bandwidth_bps == 5e4
    assert links[0].delay_s == 0.2
    assert isinstance(links[0].loss_model, BernoulliLoss)
    network.sim.run(until=1.2)
    assert links[0].bandwidth_bps == 2e5
    player.stop()
    assert links[0].bandwidth_bps == baseline_bw
    assert links[0].loss_model is baseline_loss
    assert not player.playing


def test_a_hold_player_past_the_end_leaves_nothing_queued():
    network, paths = _network()
    links = paths[1].forward_links
    trace = LinkTrace("h", [TraceSample(0.0, bandwidth_bps=5e4)])
    player = TracePlayer(network.sim, links, trace)
    player.start()
    network.sim.run(until=0.05)  # before the second tick, at STEP_S
    assert links[0].bandwidth_bps == 5e4
    network.sim.run(until=1.0)
    # Holding the last sample needs no ticks: the timer retired and the
    # link keeps the sample's conditions.
    assert not player.playing
    assert links[0].bandwidth_bps == 5e4
    network.sim.drain_cancelled()
    assert network.sim.pending_events == 0


def test_player_none_fields_mean_baseline():
    network, paths = _network()
    links = paths[1].forward_links
    baseline_delay = links[0].delay_s
    trace = LinkTrace("bwonly", [TraceSample(0.0, bandwidth_bps=7e4)])
    player = TracePlayer(network.sim, links, trace)
    player.start()
    network.sim.run(until=0.1)
    assert links[0].bandwidth_bps == 7e4
    assert links[0].delay_s == baseline_delay
    player.stop()


def test_player_rejects_bad_inputs():
    network, paths = _network()
    trace = LinkTrace("t", [TraceSample(0.0, bandwidth_bps=1e5)])
    with pytest.raises(ValueError, match="at least one link"):
        TracePlayer(network.sim, [], trace)
    player = TracePlayer(network.sim, paths[1].forward_links, trace)
    player.start()
    with pytest.raises(RuntimeError, match="already playing"):
        player.start()
    player.stop()


def test_a_restarted_hold_player_still_restores_the_pre_trace_link():
    network, paths = _network()
    links = paths[1].forward_links
    trace = LinkTrace("h", [TraceSample(0.0, bandwidth_bps=5e4)])
    player = TracePlayer(network.sim, links, trace)
    player.start()
    network.sim.run(until=0.5)
    assert not player.playing  # the hold retired its timer
    player.start()  # the play goes on: the held sample is no baseline
    network.sim.run(until=1.0)
    player.stop()
    assert links[0].bandwidth_bps == 1e6


def test_a_second_stop_changes_nothing():
    network, paths = _network()
    links = paths[1].forward_links
    bus = TraceBus()
    restores = []
    bus.subscribe("trace.restore", restores.append)
    trace = LinkTrace("h", [TraceSample(0.0, bandwidth_bps=5e4)])
    player = TracePlayer(network.sim, links, trace, bus=bus)
    player.start()
    network.sim.run(until=0.5)
    player.stop()
    links[0].set_bandwidth(3e5)  # a fault's mutation after the replay
    network.sim.run(until=0.7)
    player.stop()
    assert links[0].bandwidth_bps == 3e5
    assert [record.time for record in restores] == [0.5]


# ----------------------------------------------------------------------
# Oracle: the player applies exactly what a 0.1 s poll that re-applied
# the sample in force on every grid tick changed, at the same instants.
# ----------------------------------------------------------------------
_BASELINE = (1e6, 0.01, 0.0)


class _RecordingLink:
    """A link that logs (sim time, bandwidth, delay, loss rate) after each
    complete ``set_*`` round (the loss model is set last)."""

    name = "recording"

    def __init__(self, sim, log):
        self.sim = sim
        self.log = log
        self.bandwidth_bps, self.delay_s, __ = _BASELINE
        self.loss_model = None

    def set_bandwidth(self, bandwidth_bps):
        self.bandwidth_bps = bandwidth_bps

    def set_delay(self, delay_s):
        self.delay_s = delay_s

    def set_loss_model(self, model):
        self.loss_model = model
        loss = model.rate if isinstance(model, BernoulliLoss) else 0.0
        self.log.append((self.sim.now, self.bandwidth_bps, self.delay_s, loss))


def _polled(trace, epoch, horizon_s):
    """The reference: the fixed-grid poll, filtered to the ticks whose
    sample differs from the previous tick's."""
    log, in_force = [], None
    tick = 0
    while epoch + tick * TracePlayer.STEP_S <= epoch + horizon_s:
        sample = trace.sample_at(tick * TracePlayer.STEP_S)
        if sample is not in_force:
            in_force = sample
            bandwidth, delay, loss = _BASELINE
            log.append(
                (
                    epoch + tick * TracePlayer.STEP_S,
                    bandwidth if sample.bandwidth_bps is None else sample.bandwidth_bps,
                    delay if sample.delay_s is None else sample.delay_s,
                    loss if sample.loss_rate is None else sample.loss_rate,
                )
            )
        tick += 1
    return log


def _played(trace, epoch, horizon_s, player_class=TracePlayer):
    sim = Simulator()
    log = []
    player = player_class(sim, [_RecordingLink(sim, log)], trace)
    sim.run(until=epoch)
    player.start()
    sim.run(until=epoch + horizon_s)
    return log, player


def _looped(trace):
    return LinkTrace(f"{trace.name}:loop", trace.samples, end_policy="loop")


#: Sample times on the float edges of the 0.1 s grid, each following a
#: sample that is in force one tick earlier: decimal times whose grid
#: product rounds up (0.3, 0.7, 2.3) or lands exactly (1.5, 3.0), grid
#: products themselves and their neighbours, and two samples within one
#: step (0.31, 0.32: the grid applies only the second).
_EDGE_TIMES = (
    0.0, 0.15, 3 * 0.1, 0.31, 0.32, 0.55, 6 * 0.1, 0.65, 0.7, 0.75,
    12 * 0.1, 1.25, math.nextafter(1.3, 0.0), 1.45, 1.5, math.nextafter(1.5, 2.0),
    2.15, 2.3, 2.35, 24 * 0.1, 2.85, math.nextafter(3.0, 0.0), 3.15, 3.5, 4.45,
)
_EDGE = LinkTrace(
    "edges",
    [
        TraceSample(t, bandwidth_bps=1e5 + index, loss_rate=0.01 * (index % 3))
        for index, t in enumerate(_EDGE_TIMES)
    ],
)
#: A loop period of one grid step: the grid lands on its samples only
#: through rounding, so most ticks find the sample already in force.
_ALIASED = LinkTrace(
    "aliased",
    [TraceSample(0.0, bandwidth_bps=1e5), TraceSample(0.05, bandwidth_bps=2e5),
     TraceSample(0.1, bandwidth_bps=3e5)],
    end_policy="loop",
)
#: Under ``loop`` the last sample is in force only at the instant the
#: trace ends (20 * 0.1 is exactly 2.0): each period after it wakes the
#: player once, to find the first sample still in force.
_WRAP = LinkTrace(
    "wrap", [TraceSample(0.0, bandwidth_bps=1e5), TraceSample(2.0, bandwidth_bps=2e5)]
)
_ORACLE_TRACES = {
    **{family: TRACE_GENERATORS[family](seed=5) for family in TRACE_GENERATORS},
    **{name: load_bundled_trace(name) for name in BUNDLED_TRACES},
    "edges": _EDGE,
    "aliased": _ALIASED,
    "wrap": _WRAP,
}


@pytest.mark.parametrize("policy", ("hold", "loop"))
@pytest.mark.parametrize("name", sorted(_ORACLE_TRACES))
def test_player_applies_what_the_poll_changed(name, policy):
    trace = _ORACLE_TRACES[name]
    if policy == "loop":
        trace = _looped(trace)
    horizon_s = 2.5 * trace.duration_s + 3.0
    for epoch in (0.0, 1.234):
        log, player = _played(trace, epoch, horizon_s)
        assert log == _polled(trace, epoch, horizon_s)
        assert player.ticks_applied == len(log)


def test_player_wakes_only_where_the_sample_changes():
    trace = gprs_trace(seed=3000, duration_s=800.0)
    sim = Simulator()
    log = []
    player = TracePlayer(sim, [_RecordingLink(sim, log)], trace)
    player.start()
    sim.run(until=800.0)
    # One event per 0.5 s sample instead of one per 0.1 s grid point.
    assert sim.events_processed == player.ticks_applied == len(trace.samples) == 1601
    assert not player.playing


class _AtSampleTime(TracePlayer):
    """Seeded defect: each sample takes effect at its own trace time
    instead of at the first grid tick at or after it."""

    def start(self):
        super().start()
        self._drop_timer()
        for sample in self.trace.samples:
            self.sim.schedule(sample.time_s, self._apply, sample)


def test_the_oracle_catches_a_player_off_the_grid():
    horizon_s = _EDGE.duration_s + 1.0
    log, __ = _played(_EDGE, 0.0, horizon_s, player_class=_AtSampleTime)
    assert log != _polled(_EDGE, 0.0, horizon_s)
