"""Unit tests for the trace bus."""

from repro.sim.trace import TraceBus


def test_subscriber_receives_matching_kind(trace):
    seen = []
    trace.subscribe("packet", seen.append)
    trace.emit(1.0, "packet", size=100)
    assert len(seen) == 1
    assert seen[0].time == 1.0
    assert seen[0]["size"] == 100


def test_subscriber_ignores_other_kinds(trace):
    seen = []
    trace.subscribe("packet", seen.append)
    trace.emit(1.0, "other", x=1)
    assert seen == []


def test_wildcard_receives_everything(trace):
    seen = []
    trace.subscribe("*", seen.append)
    trace.emit(1.0, "a")
    trace.emit(2.0, "b")
    assert [record.kind for record in seen] == ["a", "b"]


def test_multiple_subscribers_all_notified(trace):
    seen_a, seen_b = [], []
    trace.subscribe("k", seen_a.append)
    trace.subscribe("k", seen_b.append)
    trace.emit(0.0, "k")
    assert len(seen_a) == len(seen_b) == 1


def test_unsubscribe_stops_delivery(trace):
    seen = []
    trace.subscribe("k", seen.append)
    trace.unsubscribe("k", seen.append)
    trace.emit(0.0, "k")
    assert seen == []


def test_unsubscribe_wildcard(trace):
    seen = []
    trace.subscribe("*", seen.append)
    trace.unsubscribe("*", seen.append)
    trace.emit(0.0, "k")
    assert seen == []


def test_has_subscribers(trace):
    assert not trace.has_subscribers("k")
    trace.subscribe("k", lambda record: None)
    assert trace.has_subscribers("k")
    assert not trace.has_subscribers("other")
    trace.subscribe("*", lambda record: None)
    assert trace.has_subscribers("other")


def test_live_tracks_subscribe_and_unsubscribe(trace):
    """``live`` answers what ``has_subscribers`` answers after every
    subscription change, an unsubscribe during a dispatch and the
    wildcard included."""

    def agrees(*kinds):
        return all((kind in trace.live) == trace.has_subscribers(kind) for kind in kinds)

    def first(record):
        pass

    def second(record):
        pass

    def one_shot(record):
        trace.unsubscribe("k", one_shot)
        assert "k" in trace.live  # ``first`` still listens.
        trace.unsubscribe("k", first)

    assert "k" not in trace.live
    trace.subscribe("k", first)
    trace.subscribe("j", second)
    assert "k" in trace.live and "j" in trace.live and "other" not in trace.live
    trace.unsubscribe("j", second)
    assert "j" not in trace.live and agrees("k", "j", "other")
    trace.subscribe("k", one_shot)
    trace.emit(0.0, "k")
    assert "k" not in trace.live and agrees("k", "j")
    trace.subscribe("*", second)
    assert "anything" in trace.live and agrees("k", "anything")
    trace.subscribe("k", first)
    trace.unsubscribe("*", second)
    assert "anything" not in trace.live and "k" in trace.live
    assert agrees("k", "anything")


def test_emit_without_subscribers_is_noop(trace):
    trace.emit(0.0, "nobody", listening=True)  # must not raise


def test_unsubscribe_self_during_emit(trace):
    """A callback may unsubscribe itself mid-emit without skipping or
    crashing the other subscribers (regression: mutation during
    iteration silently skipped the next callback in the list)."""
    seen = []

    def one_shot(record):
        seen.append(("one_shot", record.kind))
        trace.unsubscribe("k", one_shot)

    trace.subscribe("k", one_shot)
    trace.subscribe("k", lambda record: seen.append(("steady", record.kind)))
    trace.emit(0.0, "k")
    assert seen == [("one_shot", "k"), ("steady", "k")]
    seen.clear()
    trace.emit(1.0, "k")
    assert seen == [("steady", "k")]


def test_unsubscribe_wildcard_during_emit(trace):
    seen = []

    def one_shot(record):
        seen.append("one_shot")
        trace.unsubscribe("*", one_shot)

    trace.subscribe("*", one_shot)
    trace.subscribe("*", lambda record: seen.append("steady"))
    trace.emit(0.0, "k")
    trace.emit(1.0, "k")
    assert seen == ["one_shot", "steady", "steady"]


def test_subscribe_during_emit_sees_next_record_only(trace):
    seen = []

    def late(record):
        seen.append(("late", record.time))

    def adder(record):
        trace.subscribe("k", late)

    trace.subscribe("k", adder)
    trace.emit(0.0, "k")
    assert seen == []  # the new subscriber missed the in-flight record
    trace.unsubscribe("k", adder)
    trace.emit(1.0, "k")
    assert seen == [("late", 1.0)]


def test_reentrant_emit_is_deferred_in_causal_order(trace):
    """A subscriber emitting from inside a dispatch sees its record
    delivered after the triggering record finishes, not recursively."""
    seen = []

    def reactor(record):
        if record.kind == "cause":
            trace.emit(record.time, "effect")

    trace.subscribe("cause", reactor)
    trace.subscribe("*", lambda record: seen.append(record.kind))
    trace.emit(0.0, "cause")
    assert seen == ["cause", "effect"]
    assert trace.records_dropped == 0


def test_pending_queue_cap_counts_drops():
    """A pathological feedback loop degrades to counted drops instead of
    unbounded queue growth."""
    trace = TraceBus()
    trace.MAX_PENDING = 4
    dispatched = []

    def burst(record):
        for __ in range(10):
            trace.emit(record.time, "quiet")

    trace.subscribe("burst", burst)
    trace.subscribe("quiet", lambda record: dispatched.append(record))
    trace.emit(1.0, "burst")
    # 10 re-entrant emits against a cap of 4: 6 dropped, 4 delivered.
    assert len(dispatched) == 4
    assert trace.records_dropped == 6


def test_pending_queue_drains_below_cap(trace):
    dispatched = []

    def burst(record):
        for index in range(3):
            trace.emit(record.time, "quiet", index=index)

    trace.subscribe("burst", burst)
    trace.subscribe("quiet", lambda record: dispatched.append(record["index"]))
    trace.emit(0.0, "burst")
    assert dispatched == [0, 1, 2]
    assert trace.records_dropped == 0
