"""The sim-engine profiler: attribution, lifecycle, and determinism."""

from repro.sim.engine import Simulator
from repro.telemetry import SimProfiler, callback_label


def _profile(sim):
    profiler = SimProfiler()
    sim.set_profiler(profiler)
    return profiler


def _busy(sim, depth=0):
    if depth < 3:
        sim.schedule(0.1, _busy, sim, depth + 1)


class _Component:
    def __init__(self, sim):
        self.sim = sim
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        if self.ticks < 5:
            self.sim.schedule(0.05, self.tick)


def test_profiler_counts_and_attributes_events():
    sim = Simulator()
    profiler = _profile(sim)
    component = _Component(sim)
    sim.schedule(0.0, _busy, sim)
    sim.schedule(0.0, component.tick)
    sim.run(until=2.0)
    report = profiler.report()
    assert report["events"] == 9  # 4 _busy + 5 ticks
    assert report["runs"] == 1
    assert report["wall_s"] > 0
    assert report["events_per_s"] > 0
    labels = {entry["kind"]: entry["count"] for entry in report["by_kind"]}
    assert labels[callback_label(_busy)] == 4
    assert labels[callback_label(component.tick)] == 5
    assert all(entry["mean_us"] >= 0 for entry in report["by_kind"])


def test_profiler_sim_wall_ratio_and_heap_depth():
    sim = Simulator()
    profiler = _profile(sim)
    for index in range(20):
        sim.schedule(0.1 * index, lambda: None)
    sim.run(until=5.0)
    assert profiler.max_heap_depth >= 19
    assert profiler.sim_time_span > 0
    # Twenty empty callbacks over 1.9 simulated seconds run far faster
    # than real time.
    assert profiler.sim_wall_ratio > 1.0


def test_detached_profiler_stops_accumulating():
    sim = Simulator()
    profiler = _profile(sim)
    sim.schedule(0.0, lambda: None)
    sim.run(until=1.0)
    count = profiler.events
    sim.set_profiler(None)
    assert sim.profiler is None
    sim.schedule(1.5, lambda: None)
    sim.run(until=2.0)
    assert profiler.events == count


def test_profiler_does_not_change_simulation_outcome():
    def run(profiled):
        sim = Simulator()
        if profiled:
            _profile(sim)
        order = []
        sim.schedule(0.2, order.append, "b")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.2, order.append, "c")
        sim.run(until=1.0)
        return order, sim.now

    assert run(False) == run(True)


def test_profiler_accumulates_across_runs():
    sim = Simulator()
    profiler = SimProfiler()
    sim.set_profiler(profiler)
    sim.schedule(0.1, lambda: None)
    sim.run(until=0.5)
    sim.schedule(0.1, lambda: None)
    sim.run(until=1.0)
    assert profiler.runs == 2
    assert profiler.events == 2


def test_callback_label_shapes():
    sim = Simulator()
    component = _Component(sim)
    assert callback_label(component.tick).endswith("_Component.tick")
    assert "test_sim_profiler" in callback_label(_busy)



class _Unhashable:
    """A callable object that cannot be a dict key."""

    __hash__ = None

    def __call__(self):
        pass


class _LabelPerEvent:
    """Reference profiler: builds the label of every event as it runs."""

    def __init__(self):
        self.counts = {}

    def on_event(self, fn, elapsed_s, heap_depth, sim_time):
        label = callback_label(fn)
        self.counts[label] = self.counts.get(label, 0) + 1

    def on_run_complete(self, wall_s):
        pass


def _shared_label_program(sim, unhashable):
    first, second = (lambda: None), (lambda: None)  # two functions, one label
    components = [_Component(sim), _Component(sim)]  # one method, two instances
    callbacks = [first, second, second, unhashable, *(c.tick for c in components)]
    for index, fn in enumerate(callbacks * 3):
        sim.schedule(0.01 * index, fn)


def test_report_merges_functions_that_share_a_label():
    """Stats are keyed by function and labelled in report(); the counts
    per label equal a reference that labels every event."""
    runs = []
    unhashable = _Unhashable()  # labelled by its repr: one object for both
    for profiler in (SimProfiler(), _LabelPerEvent()):
        sim = Simulator()
        sim.set_profiler(profiler)
        _shared_label_program(sim, unhashable)
        sim.run(until=5.0)
        runs.append(profiler)
    profiled, reference = runs
    counts = {entry["kind"]: entry["count"] for entry in profiled.report()["by_kind"]}
    assert counts == reference.counts
    assert sorted(counts.values()) == [3, 9, 14]  # unhashable, lambdas, ticks
