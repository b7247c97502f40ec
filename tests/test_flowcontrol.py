"""Units and model-based properties for the flow-control primitives.

The stateful machine is the load-bearing test (the PR's safety
property): a sender gated by :class:`WindowGate` can never introduce a
unit the receiver's :class:`ReceiveWindow` did not license — even when
feedback is replayed stale and out of order, as multipath ACKs are —
so receiver occupancy stays bounded by capacity *by construction*.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.robustness.flowcontrol import ReceiveWindow, WindowGate, ZeroWindowProber
from repro.sim.engine import Simulator


class TestReceiveWindow:
    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            ReceiveWindow(0)

    def test_limit_is_drained_plus_capacity(self):
        window = ReceiveWindow(4)
        assert window.limit == 4
        assert window.admits(3) and not window.admits(4)
        window.on_drained(2)
        assert window.limit == 6
        assert window.admits(5) and not window.admits(6)

    def test_advertise_closes_the_licence(self):
        window = ReceiveWindow(4)
        # acked caught up with the licence and nothing drained: closed.
        assert window.advertise(4, occupancy=4) == 0
        assert window.zero_window_advertises == 1
        window.on_drained(1)
        assert window.advertise(4, occupancy=3) == 1

    def test_tracks_peak_occupancy(self):
        window = ReceiveWindow(8)
        window.advertise(0, occupancy=3)
        window.advertise(1, occupancy=5)
        window.advertise(2, occupancy=2)
        assert window.peak_occupancy == 5


class TestWindowGate:
    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            WindowGate(0)

    def test_limit_is_monotone_under_stale_feedback(self):
        gate = WindowGate(8)
        gate.advertise(10, 8)
        assert gate.limit == 18
        # A stale ACK from a slower subflow cannot retract the licence.
        gate.advertise(3, 8)
        assert gate.limit == 18

    def test_pause_resume_hysteresis(self):
        gate = WindowGate(8)
        assert (gate.HIGH_WATERMARK, gate.LOW_WATERMARK) == (0.75, 0.5)
        gate.advertise(0, 2)  # backlog 6 >= 6: pause
        assert gate.paused and gate.pauses == 1
        gate.advertise(0, 3)  # backlog 5, still above low watermark
        assert gate.paused and gate.credit(0) == 0
        gate.advertise(0, 4)  # backlog 4 <= 4: resume
        assert not gate.paused
        assert gate.pauses == 1

    def test_credit_and_blocked(self):
        gate = WindowGate(4)
        assert gate.credit(0) == 4
        assert gate.credit(4) == 0 and gate.blocked(4)
        gate.advertise(2, 4)
        assert gate.credit(4) == 2 and not gate.blocked(4)

    def test_counts_zero_windows(self):
        gate = WindowGate(4)
        gate.advertise(4, 0)
        assert gate.zero_windows_seen == 1
        assert gate.last_window == 0


class TestZeroWindowProber:
    def test_exponential_backoff_while_blocked(self):
        sim = Simulator()
        fired = []
        prober = ZeroWindowProber(sim, lambda: fired.append(sim.now) or True)
        assert (prober.INITIAL_S, prober.MAX_S) == (0.5, 4.0)
        prober.arm()
        prober.arm()  # idempotent: still one pending probe
        sim.run(until=20.0)
        # 0.5, then 1, 2, 4, 4, 4... between firings (capped).
        assert fired[0] == pytest.approx(0.5)
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert gaps[0] == pytest.approx(1.0)
        assert gaps[1] == pytest.approx(2.0)
        assert all(gap == pytest.approx(4.0) for gap in gaps[2:])
        assert prober.probes_fired == len(fired)

    def test_fire_returning_false_stops_and_resets(self):
        sim = Simulator()
        prober = ZeroWindowProber(sim, lambda: False)
        prober.arm()
        sim.run(until=10.0)
        assert prober.probes_fired == 1
        assert prober._event is None
        # Re-arming starts from the initial interval again.
        prober.arm()
        sim.run(until=10.6)
        assert prober.probes_fired == 2

    def test_disarm_cancels_and_resets(self):
        sim = Simulator()
        prober = ZeroWindowProber(sim, lambda: True)
        prober.arm()
        prober.disarm()
        sim.run(until=5.0)
        assert prober.probes_fired == 0
        assert prober._event is None


class FlowControlMachine(RuleBasedStateMachine):
    """Sender (WindowGate) vs receiver (ReceiveWindow) under adversarial
    feedback: delivery, drain, and ACK replay in any order. The licence
    must keep receiver occupancy bounded by capacity, always."""

    @initialize(
        capacity=st.integers(min_value=1, max_value=12),
        high=st.floats(min_value=0.5, max_value=1.0),
        low_frac=st.floats(min_value=0.1, max_value=1.0),
    )
    def setup(self, capacity, high, low_frac):
        self.capacity = capacity
        self.window = ReceiveWindow(capacity)
        self.gate = WindowGate(capacity)
        # Any watermark pair, on this instance only.
        self.gate.HIGH_WATERMARK = high
        self.gate.LOW_WATERMARK = high * low_frac
        self.next_seq = 0  # sender's next fresh unit id
        self.held = 0  # receiver-held (undrained) units
        self.feedback_log = []  # every (acked, window) ever generated
        self.limit_seen = self.gate.limit

    @precondition(lambda self: self.gate.credit(self.next_seq) > 0)
    @rule()
    def introduce_unit(self):
        # THE safety property: anything the gate admits, the receiver
        # licensed. A violation here is an overflow in a real run.
        assert self.window.admits(self.next_seq), (
            f"gate admitted seq {self.next_seq} beyond receiver limit "
            f"{self.window.limit}"
        )
        self.next_seq += 1
        self.held += 1

    @precondition(lambda self: self.held > 0)
    @rule(data=st.data())
    def drain(self, data):
        units = data.draw(st.integers(min_value=1, max_value=self.held))
        self.window.on_drained(units)
        self.held -= units

    @rule()
    def fresh_feedback(self):
        acked = self.next_seq  # cumulative ack of everything introduced
        window = self.window.advertise(acked, self.held)
        self.feedback_log.append((acked, window))
        self.gate.advertise(acked, window)

    @precondition(lambda self: len(self.feedback_log) > 0)
    @rule(data=st.data())
    def replay_stale_feedback(self, data):
        # Multipath reordering: any historical ACK may arrive again, late.
        acked, window = data.draw(st.sampled_from(self.feedback_log))
        self.gate.advertise(acked, window)

    @invariant()
    def occupancy_bounded_by_capacity(self):
        assert self.held <= self.capacity

    @invariant()
    def in_flight_never_exceeds_advertised_window(self):
        # Undrained units the sender has introduced fit in the licence.
        assert self.next_seq - self.window.drained <= self.capacity

    @invariant()
    def gate_never_outruns_receiver(self):
        assert self.gate.limit <= self.window.limit

    @invariant()
    def limit_is_monotone(self):
        assert self.gate.limit >= self.limit_seen
        self.limit_seen = self.gate.limit


TestFlowControlStateful = FlowControlMachine.TestCase
TestFlowControlStateful.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)
