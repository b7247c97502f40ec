"""Fault injection and chaos-soak testing for running simulations.

``repro.faults`` turns the static topologies of the experiment harness
into hostile ones: scriptable, deterministic fault timelines
(:class:`FaultScenario`) that flap links, collapse bandwidth, spike
delay, burst loss, reorder packets and saturate queues mid-run — plus
the chaos harness (:func:`run_chaos`) that drives a full transfer
through a scenario and checks the invariants a robust transport must
keep, and the benchmark probe (:func:`measure_fault_response`) that
quantifies goodput retention and recovery time.

Every ``run_*`` here is a declaration over the one soak kernel
(:mod:`repro.soak`) and returns its :class:`SoakReport`; which harness
can check a timeline is :meth:`FaultScenario.route`'s decision
(:data:`repro.faults.scenario.ROUTES`), and each ``run_*`` rejects a
scenario routed elsewhere. Data *corruption* scenarios get :func:`run_corruption` (real
payload, byte-verified), channel *trace* scenarios :func:`run_traces`
(plus bounded memory and watchdog interplay), subflow lifecycle
:func:`run_churn`; endpoint crashes are :func:`repro.recovery.run_recovery`
(that package builds on this one, so it is not re-exported here).
"""

from repro.faults.chaos import (
    FaultBenchResult,
    measure_fault_response,
    run_chaos,
)
from repro.faults.churn import PathChurnController, run_churn
from repro.faults.corruption import measure_corruption_goodput, run_corruption
from repro.faults.scenario import (
    CHURN_KINDS,
    CORRUPTION_KINDS,
    CORRUPTION_SCENARIOS,
    CRASH_KINDS,
    FAULT_KINDS,
    MOBILITY_SCENARIOS,
    RECOVERY_SCENARIOS,
    SCENARIOS,
    TRACE_KINDS,
    TRACE_SCENARIOS,
    FaultEvent,
    FaultInjector,
    FaultScenario,
    resolve_scenario,
    trace_replay_scenario,
)
from repro.robustness.exhaustion import (
    EXHAUSTION_SCENARIOS,
    ExhaustionScenario,
    measure_bufferblock,
    run_exhaustion,
)
from repro.soak import PROTOCOLS, SoakReport
from repro.traces.harness import measure_trace_goodput, run_traces

__all__ = [
    "CHURN_KINDS",
    "CORRUPTION_KINDS",
    "CORRUPTION_SCENARIOS",
    "CRASH_KINDS",
    "EXHAUSTION_SCENARIOS",
    "FAULT_KINDS",
    "MOBILITY_SCENARIOS",
    "RECOVERY_SCENARIOS",
    "SCENARIOS",
    "TRACE_KINDS",
    "TRACE_SCENARIOS",
    "PROTOCOLS",
    "ExhaustionScenario",
    "FaultBenchResult",
    "FaultEvent",
    "FaultInjector",
    "FaultScenario",
    "PathChurnController",
    "SoakReport",
    "measure_bufferblock",
    "measure_corruption_goodput",
    "measure_fault_response",
    "measure_trace_goodput",
    "resolve_scenario",
    "run_chaos",
    "run_churn",
    "run_corruption",
    "run_exhaustion",
    "run_traces",
    "trace_replay_scenario",
]
