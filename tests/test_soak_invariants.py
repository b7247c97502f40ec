"""Every soak invariant can fail (first slice of ROADMAP item 4e).

The invariants are pure functions ``Run -> Iterable[str]``, so showing
that one is not vacuous needs no simulation: hand-build a :class:`Run`
with the one defect the checker names and it must yield its violation;
on the clean twin it must yield nothing. A checker declared by any of
the six harnesses without a defect case here fails
``test_every_declared_invariant_has_a_defect_case``.
"""

from types import SimpleNamespace

import pytest

from repro import soak
from repro.faults import FaultScenario
from repro.faults.scenario import FaultEvent
from repro.faults.chaos import CHAOS
from repro.faults.churn import CHURN, bounded_readd, survivors_complete
from repro.faults.corruption import CORRUPTION, defense_fired
from repro.recovery.harness import (
    RECOVERY,
    bounded_recovery,
    epoch_accounting,
    no_wedged_timers_on_live_epoch,
)
from repro.robustness import MemoryBudget
from repro.robustness.exhaustion import EXHAUSTION
from repro.traces.harness import TRACES, no_false_clean_fail, trace_played

HARNESSES = (CHAOS, CHURN, CORRUPTION, EXHAUSTION, RECOVERY, TRACES)
PAYLOAD = bytes(range(256)) * 96  # three 8 KiB units


def _subflow(in_flight=0, timer_armed=True):
    return SimpleNamespace(subflow_id=7, in_flight=in_flight, timer_armed=timer_armed)


def _budget(peak):
    budget = MemoryBudget(limits={"recv_occupancy": 4})
    budget.observe({"recv_occupancy": peak})
    return budget


def _outage(**fields):
    return {"kind": "crash_receiver", "crash_at": 8.0, "restart_at": 11.0,
            "resume_at": 12.0, "detect_s": 1.0, **fields}


def clean_run(report=None, **run_fields) -> soak.Run:
    """A completed, healthy run through a re-adding crash timeline: no
    invariant of any harness has anything to say about it."""
    fields = dict(
        harness="test", protocol="fmtcp", scenario_name="clean", seed=1,
        duration_s=40.0, expected_bytes=len(PAYLOAD), expected_units=3,
        expect_complete=True, delivered_bytes=len(PAYLOAD), delivered_units=3,
        completed=True, completion_time_s=12.0, bytes_at_heal=8192,
        pre_churn_mbps=0.1, recovered_at_s=11.5, packets_corrupted=5,
        corruption_stats={"packets_discarded_corrupt": 5}, trace_ticks=40,
        crashes=1, resumes=1, attempts=2, epochs=1, outages=[_outage()],
    )
    fields.update(report or {})
    scenario = FaultScenario(
        "clean",
        [FaultEvent(8.0, "path_down", 1), FaultEvent(9.0, "crash_receiver", 0),
         FaultEvent(10.0, "path_up", 1), FaultEvent(11.0, "restart", 0)],
    )
    run = soak.Run(
        report=soak.SoakReport(**fields),
        scenario=scenario,
        connection=SimpleNamespace(subflows=[_subflow(in_flight=2)]),
        delivered_ids=[0, 1, 2],
        payload=PAYLOAD,
        transcript=PAYLOAD,
        budget=_budget(peak=4),
    )
    for name, value in run_fields.items():
        setattr(run, name, value)
    return run


WEDGED = SimpleNamespace(subflows=[_subflow(in_flight=3, timer_armed=False)])
INCOMPLETE = {"completed": False, "delivered_bytes": 8192, "completion_time_s": None}

# (invariant, the defect as clean_run() overrides, what the violation says)
DEFECTS = [
    (soak.exactly_once_in_order, dict(delivered_ids=[0, 1, 1]),
     "not exactly-once/in-order: got 3 units, first disorder near index 2"),
    (soak.exactly_once_in_order, dict(delivered_ids=[0, 2, 1]), "near index 1"),
    (soak.exactly_once_in_order, dict(report={"delivered_units": 2}),
     "unit count mismatch: delivered 2, expected 3"),
    (soak.byte_identical,
     dict(payload=PAYLOAD[:1000] + b"\xff" + PAYLOAD[1001:]), "at offset 1000"),
    (soak.byte_identical, dict(payload=PAYLOAD + b"x"), "at offset 24576"),
    (soak.byte_identical, dict(payload=PAYLOAD[:-1]), "payload length 24575"),
    (soak.no_wedged_timers, dict(connection=WEDGED),
     "wedged timer at end: subflow 7 has 3 packets in flight"),
    (soak.completes_after_heal, dict(timers_at_heal=["wedged timer at heal: x"]),
     "wedged timer at heal"),
    (soak.completes_after_heal, dict(report={**INCOMPLETE, "delivered_bytes": 16384}),
     "transfer incomplete: 16384/24576"),
    (soak.completes_after_heal, dict(report=INCOMPLETE), "no goodput recovery"),
    (soak.bounded_memory, dict(budget=_budget(peak=5)),
     "recv_occupancy peaked at 5 (budget 4)"),
    (soak.completes_or_fails_cleanly, dict(report=INCOMPLETE), "deadlock"),
    (soak.completes_or_fails_cleanly,
     dict(report={**INCOMPLETE, "watchdog_failed": True}), "without a diagnosis"),
    (soak.outcome_as_promised, dict(report=INCOMPLETE), "expected completion"),
    (soak.outcome_as_promised, dict(report={"expect_complete": False}),
     "expected a clean failure"),
    (survivors_complete, dict(report=INCOMPLETE), "incomplete on surviving paths"),
    (bounded_readd, dict(report={"completion_time_s": 30.0, "recovered_at_s": 17.0}),
     "no goodput recovery within 5s of the last path_up"),
    (bounded_readd, dict(report={"completion_time_s": None, "recovered_at_s": None}),
     "threshold 0.080 MB/s"),
    (defense_fired, dict(report={"corruption_stats": {"packets_discarded_corrupt": 0}}),
     "5 packets corrupted on the wire but no integrity defense fired"),
    (trace_played, dict(report={"trace_ticks": 0}), "trace never applied a sample"),
    (no_false_clean_fail, dict(report={"watchdog_failed": True, "watchdog_escalation": 3}),
     "clean-failed a transfer that completed"),
    (bounded_recovery, dict(report={"outages": [_outage(resume_at=19.5)]}),
     "resumed 8.50s after restart (bound 8.0s)"),
    (bounded_recovery, dict(report={"outages": [_outage(detect_s=3.2)]}),
     "half-open detection took 3.20s"),
    (epoch_accounting, dict(report={"epochs": 2}), "epoch/resume mismatch"),
    (epoch_accounting, dict(report={"crashes": 2}), "unresolved outage: 2 crashes"),
    (epoch_accounting, dict(report={"crashes": 0, "resumes": 0, "epochs": 0}),
     "crash events but none were applied"),
    (epoch_accounting, dict(report={"attempts": 0}), "attempt accounting broken"),
    (no_wedged_timers_on_live_epoch, dict(connection=WEDGED), "wedged timer at end"),
]
DECLARED = sorted(
    {invariant for harness in HARNESSES for invariant in harness.invariants},
    key=lambda invariant: invariant.__name__,
)


@pytest.mark.parametrize(
    "invariant, defect, message",
    DEFECTS,
    ids=[f"{case[0].__name__}-{index}" for index, case in enumerate(DEFECTS)],
)
def test_invariant_fires_on_the_defect_it_names(invariant, defect, message):
    violations = list(invariant(clean_run(**defect)))
    assert len(violations) >= 1
    assert any(message in violation for violation in violations), violations


@pytest.mark.parametrize("invariant", DECLARED, ids=lambda inv: inv.__name__)
def test_invariant_is_silent_on_the_clean_twin(invariant):
    assert list(invariant(clean_run())) == []


def test_every_declared_invariant_has_a_defect_case():
    covered = {case[0] for case in DEFECTS}
    assert not [inv.__name__ for inv in DECLARED if inv not in covered]


def test_a_terminally_failed_epoch_owes_no_timers():
    """The clean-fail contract: the manager tore the connection down."""
    run = clean_run(report={"recovery_state": "failed"}, connection=WEDGED)
    assert list(no_wedged_timers_on_live_epoch(run)) == []


def test_no_readd_no_bound():
    run = clean_run(report={"completion_time_s": 30.0, "recovered_at_s": None})
    run.scenario = FaultScenario("gone", [FaultEvent(8.0, "path_down", 1)])
    assert list(bounded_readd(run)) == []


def test_invariants_are_pure():
    """Evaluating every invariant leaves the run's report untouched."""
    run = clean_run(report=INCOMPLETE)
    before = repr(run.report)
    for invariant in DECLARED:
        list(invariant(run))
    assert repr(run.report) == before
