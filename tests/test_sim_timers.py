"""Unit tests for restartable timers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.timers import Timer


def test_timer_fires_after_delay(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]


def test_timer_stop_prevents_firing(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(True))
    timer.start(1.0)
    timer.stop()
    sim.run()
    assert fired == []


def test_restart_supersedes_previous_schedule(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.restart(5.0)
    sim.run()
    assert fired == [5.0]


def test_timer_is_one_shot(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.run()
    assert fired == [1.0]
    assert not timer.armed


def test_armed_and_expiry_reflect_state(sim):
    timer = Timer(sim, lambda: None)
    assert not timer.armed
    assert timer.expiry is None
    timer.start(3.0)
    assert timer.armed
    assert timer.expiry == 3.0
    timer.stop()
    assert not timer.armed


def test_timer_can_rearm_inside_callback(sim):
    fired = []

    def on_fire():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(1.0)

    timer = Timer(sim, on_fire)
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_stop_is_idempotent(sim):
    timer = Timer(sim, lambda: None)
    timer.stop()
    timer.start(1.0)
    timer.stop()
    timer.stop()
    sim.run()
    assert not timer.armed


# ----------------------------------------------------------------------
# The lazy restart against the cancel-and-push form it replaced.
# ----------------------------------------------------------------------
class _CancelAndPushTimer:
    """The previous Timer, kept as the oracle: every start cancels the
    queued event and pushes a new one."""

    def __init__(self, sim, callback):
        self._sim = sim
        self._callback = callback
        self._event = None
        self._expiry = None

    @property
    def armed(self):
        return self._event is not None and self._event[2] is not None

    @property
    def expiry(self):
        return self._expiry if self.armed else None

    def start(self, delay):
        self.stop()
        self._expiry = self._sim.now + delay
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._expiry = None

    def _fire(self):
        if self._event is None or self._event[2] is None:
            return
        self._event = None
        self._expiry = None
        self._callback()


def _live_entries(sim):
    return sum(1 for event in sim._heap if event[2] is not None)


# Delays on a coarse grid so that deadlines collide, move earlier, move
# later and land exactly on the time a superseded event comes up.
_delays = st.integers(min_value=0, max_value=12).map(lambda n: n * 0.25)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("start"), _delays),
        st.tuples(st.just("stop"), st.none()),
        st.tuples(st.just("advance"), _delays),
    ),
    max_size=40,
)
# What the callback does each time it runs: nothing, re-arm, or stop.
_reactions = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.just("start"), _delays),
        st.tuples(st.just("stop"), st.none()),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(steps=_steps, reactions=_reactions)
def test_lazy_restart_matches_cancel_and_push(steps, reactions):
    def build(timer_class):
        sim = Simulator()
        fired = []
        pending = list(reactions)

        def callback():
            fired.append(sim.now)
            reaction = pending.pop(0) if pending else None
            if reaction is None:
                return
            action, delay = reaction
            if action == "start":
                timer.start(delay)
            else:
                timer.stop()

        timer = timer_class(sim, callback)
        return sim, timer, fired

    lazy_sim, lazy, lazy_fired = build(Timer)
    oracle_sim, oracle, oracle_fired = build(_CancelAndPushTimer)
    for action, value in steps:
        for sim, timer in ((lazy_sim, lazy), (oracle_sim, oracle)):
            if action == "start":
                timer.start(value)
            elif action == "stop":
                timer.stop()
            else:
                sim.run(until=sim.now + value)
        assert lazy_fired == oracle_fired
        assert lazy.armed == oracle.armed
        assert lazy.expiry == oracle.expiry
        assert lazy_sim.now == oracle_sim.now
        assert _live_entries(lazy_sim) <= 1
        assert _live_entries(lazy_sim) == (1 if lazy.armed else 0)
    lazy.stop()
    lazy_sim.drain_cancelled()
    assert lazy_sim.pending_events == 0
    lazy_sim.run()
    assert lazy_fired == oracle_fired


def test_restart_to_a_later_deadline_leaves_the_heap_alone(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    for __ in range(100):
        timer.restart(2.0)
    assert sim.pending_events == 1
    sim.run()
    assert fired == [2.0]
    assert sim.events_processed == 2  # the superseded firing, then the real one


def test_restart_to_an_earlier_deadline_fires_at_the_earlier_time(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(8.0)  # a backed-off RTO ...
    timer.restart(1.0)  # ... reset by an ACK
    assert timer.expiry == 1.0
    assert _live_entries(sim) == 1
    sim.run()
    assert fired == [1.0]


def test_rearmed_timer_runs_after_events_already_queued_at_its_deadline(sim):
    """The one observable difference from cancel-and-push. Re-arming to
    deadline D re-queues when the superseded event comes up (t = 1), so an
    event queued for exactly D in between (at t = 0.5) runs first; the
    cancel-and-push form queued the timer at restart time and ran it
    first."""

    def scenario(timer_class):
        sim = Simulator()
        order = []
        timer = timer_class(sim, lambda: order.append("timer"))
        timer.start(1.0)
        timer.start(3.0)  # deadline D = 3, decided at t = 0
        sim.schedule(0.5, lambda: sim.schedule_at(3.0, order.append, "event"))
        sim.run()
        assert sim.now == 3.0
        return order

    assert scenario(Timer) == ["event", "timer"]
    assert scenario(_CancelAndPushTimer) == ["timer", "event"]


@pytest.mark.parametrize("delay", [-0.1, float("nan")])
def test_timer_rejects_negative_and_nan_delays(sim, delay):
    """start() no longer goes through Simulator.schedule, so it checks."""
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    with pytest.raises(SimulationError):
        timer.start(delay)
    assert timer.expiry == 1.0  # the rejected call changed nothing
    assert sim.pending_events == 1
