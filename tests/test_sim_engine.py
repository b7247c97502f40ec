"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order(sim):
    order = []
    for name in "abcde":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events(sim):
    ran = []
    sim.schedule(1.0, ran.append, 1)
    sim.schedule(5.0, ran.append, 5)
    sim.run(until=2.0)
    assert ran == [1]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run()
    assert ran == [1, 5]


def test_run_until_exact_boundary_inclusive(sim):
    ran = []
    sim.schedule(2.0, ran.append, 2)
    sim.run(until=2.0)
    assert ran == [2]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_run(sim):
    ran = []
    event = sim.schedule(1.0, ran.append, "x")
    event.cancel()
    sim.run()
    assert ran == []


def test_cancel_one_of_many(sim):
    ran = []
    sim.schedule(1.0, ran.append, "keep")
    victim = sim.schedule(1.0, ran.append, "drop")
    victim.cancel()
    sim.run()
    assert ran == ["keep"]


def test_events_scheduled_during_run_execute(sim):
    ran = []

    def chain(depth):
        ran.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert ran == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_stop_halts_processing(sim):
    ran = []
    sim.schedule(1.0, lambda: (ran.append(1), sim.stop()))
    sim.schedule(2.0, ran.append, 2)
    sim.run()
    assert ran == [1]
    sim.run()
    assert ran == [1, 2]


def test_max_events_limits_execution(sim):
    ran = []
    for index in range(10):
        sim.schedule(float(index), ran.append, index)
    sim.run(max_events=4)
    assert ran == [0, 1, 2, 3]


def test_events_processed_counter(sim):
    for index in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_reentrant_run_rejected(sim):
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_drain_cancelled_compacts_heap(sim):
    events = [sim.schedule(10.0, lambda: None) for __ in range(20)]
    for event in events[:15]:
        event.cancel()
    assert sim.pending_events == 20
    removed = sim.drain_cancelled()
    assert removed == 15
    assert sim.pending_events == 5
    sim.run()
    assert sim.events_processed == 5


def test_drain_cancelled_on_empty_heap_is_a_noop(sim):
    assert sim.drain_cancelled() == 0
    assert sim.pending_events == 0


def test_drain_cancelled_preserves_execution_order(sim):
    """Compaction re-heapifies; surviving events must still fire in
    (time, insertion-seq) order."""
    seen = []
    keep = []
    for index in range(10):
        event = sim.schedule(1.0, seen.append, index)  # all at the same time
        if index % 2:
            keep.append(index)
        else:
            event.cancel()
    sim.schedule(0.5, seen.append, "early")
    sim.drain_cancelled()
    sim.run()
    assert seen == ["early"] + keep


def test_drain_cancelled_mid_run_from_a_callback(sim):
    """Transports call drain_cancelled() while the simulation is running;
    it must not disturb pending live events."""
    fired = []
    timers = [sim.schedule(5.0, fired.append, f"t{i}") for i in range(4)]

    def restart_timers():
        for timer in timers[:3]:
            timer.cancel()
        assert sim.drain_cancelled() == 3
        sim.schedule(1.0, fired.append, "restarted")

    sim.schedule(2.0, restart_timers)
    sim.run()
    assert fired == ["restarted", "t3"]


def test_zero_delay_runs_at_current_time(sim):
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [1.0]


def test_run_to_exhaustion_leaves_clock_at_last_event(sim):
    sim.schedule(4.2, lambda: None)
    sim.run()
    assert sim.now == 4.2


def test_event_repr_mentions_time(sim):
    event = sim.schedule(1.5, lambda: None)
    assert "1.5" in repr(event)


def test_nan_delay_rejected(sim):
    """`nan < 0` is False, so a sign check alone would queue the event and
    later set the clock itself to NaN."""
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_nan_schedule_at_rejected(sim):
    order = []
    sim.schedule(1.0, order.append, "a")
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), order.append, "nan")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b"]
    assert sim.now == 2.0


def test_nan_until_rejected(sim):
    """`when > nan` is never true, so a NaN bound would run a backlogged
    source forever (one finite event here, so a regression fails instead
    of hanging the suite)."""
    fired = []
    sim.schedule(1.0, fired.append, "a")
    with pytest.raises(SimulationError, match="nan"):
        sim.run(until=float("nan"))
    assert fired == [] and sim.now == 0.0
    sim.run(until=2.0)  # the refused call did not leave the loop marked running
    assert fired == ["a"]


def test_drain_cancelled_inside_a_callback_keeps_later_events(sim):
    """The run loop holds the heap list across callbacks, so compaction
    must happen in place: events queued before and after the drain still
    fire, in order."""
    order = []
    dead = [sim.schedule(5.0, order.append, "dead") for __ in range(10)]

    def drain():
        for event in dead:
            event.cancel()
        order.append(("drained", sim.drain_cancelled()))
        sim.schedule(1.0, order.append, "scheduled after the drain")

    sim.schedule(3.0, order.append, "queued before the drain")
    sim.schedule(1.0, drain)
    sim.schedule(4.0, order.append, "last")
    sim.run()
    assert order == [
        ("drained", 10),
        "scheduled after the drain",
        "queued before the drain",
        "last",
    ]
    assert sim.pending_events == 0
