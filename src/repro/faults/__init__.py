"""Fault injection and chaos-soak testing for running simulations.

``repro.faults`` turns the static topologies of the experiment harness
into hostile ones: scriptable, deterministic fault timelines
(:class:`FaultScenario`) that flap links, collapse bandwidth, spike
delay, burst loss, reorder packets and saturate queues mid-run — plus
the benchmark probe (:func:`measure_fault_response`) that quantifies
goodput retention and recovery time.

A scenario runs to completion under its invariants through the one
soak kernel, ``repro.soak.run_soak(harness, protocol, scenario)``, which
returns a :class:`SoakReport`. Which harness can check a timeline is
:meth:`FaultScenario.route`'s decision
(:data:`repro.faults.scenario.ROUTES`), and the kernel rejects a
scenario routed elsewhere: link faults go to
:data:`repro.faults.chaos.CHAOS`, subflow lifecycle to
:data:`repro.faults.churn.CHURN`, data *corruption* to
:data:`repro.faults.corruption.CORRUPTION` (real payload,
byte-verified), channel *traces* to :data:`repro.traces.harness.TRACES`
(plus bounded memory and watchdog interplay), endpoint crashes to
:data:`repro.recovery.harness.RECOVERY` (that package builds on this
one, so nothing of it is imported here) and the exhaustion presets to
:data:`repro.robustness.exhaustion.EXHAUSTION`.

Every named preset, whichever harness it routes to, is one row of
:data:`repro.faults.scenario.PRESETS`: :func:`presets` lists a group's
presets and :func:`resolve_scenario` turns a name, ``random:SEED`` or
``trace:FILE.csv`` into a scenario.
"""

from repro.faults.chaos import measure_fault_response
from repro.faults.scenario import FaultScenario, presets, resolve_scenario

__all__ = [
    "FaultScenario",
    "measure_fault_response",
    "presets",
    "resolve_scenario",
]
