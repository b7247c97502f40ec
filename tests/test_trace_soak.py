"""Trace soak: both protocols through every trace preset, many seeds.

Every run must satisfy the invariants checked by
:data:`repro.traces.harness.TRACES`:

1. byte-identical delivery (reassembled stream == source transcript);
2. exactly-once, in-order delivery;
3. bounded memory while the trace crushes bandwidth (peak receiver
   occupancy within the flow-control budget);
4. watchdog interplay — no false clean-fail on a completing transfer,
   no silent hang on an incomplete one;
5. completion after the restore event heals the channel;
6. the replay actually ticked (no vacuous pass);
7. no wedged timers, event queue drains.

Seeded and fully deterministic: a failure reproduces exactly from the
seed named in the assertion message. Set ``REPRO_FLIGHT_DIR`` for
flight-recorder dumps of failing runs (CI uploads them as artifacts);
``REPRO_FAST=1`` runs a single seed per preset.
"""

import os

import pytest

from repro.faults import presets, resolve_scenario
from repro.soak import SoakReport
from repro.faults.scenario import trace_replay_scenario
from repro.soak import run_soak
from repro.traces import gprs_trace
from repro.traces.harness import TRACES
from tests.conftest import soak_seeds

SOAK_SEEDS = soak_seeds()
FLIGHT_DIR = os.environ.get("REPRO_FLIGHT_DIR") or None


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
@pytest.mark.parametrize("name", sorted(presets("traces")))
def test_trace_soak_presets(protocol, name):
    """30 seeds per preset per protocol, zero violations."""
    failures = []
    for seed in SOAK_SEEDS:
        report = run_soak(
            TRACES,
            protocol,
            presets("traces")[name](),
            seed=seed,
            flight_dump_dir=FLIGHT_DIR,
        )
        if not report.ok:
            detail = f"seed {seed}: {report.violations}"
            if report.flight_dump_path:
                detail += f" [flight dump: {report.flight_dump_path}]"
            failures.append(detail)
    assert not failures, (
        f"{name}/{protocol} trace violations:\n" + "\n".join(failures)
    )


def test_trace_report_shape():
    report = run_soak(TRACES, "fmtcp", presets("traces")["gprs_bursty"]())
    assert isinstance(report, SoakReport)
    assert report.protocol == "fmtcp"
    assert report.scenario_name == "gprs_bursty"
    assert report.completed and report.completion_time_s is not None
    assert report.trace_ticks > 0
    assert 0 < report.peak_occupancy <= report.budget_units
    assert report.delivered_bytes == report.expected_bytes
    assert not report.watchdog_failed
    assert report.ok and not report.violations


def test_trace_runs_deterministic():
    a = run_soak(TRACES, "fmtcp", presets("traces")["leo_handover"](), seed=5)
    b = run_soak(TRACES, "fmtcp", presets("traces")["leo_handover"](), seed=5)
    assert a.completion_time_s == b.completion_time_s
    assert a.delivered_bytes == b.delivered_bytes
    assert a.trace_ticks == b.trace_ticks
    assert a.peak_occupancy == b.peak_occupancy


def test_trace_replay_scenario_wraps_custom_trace():
    scenario = trace_replay_scenario(gprs_trace(seed=9))
    assert scenario.has_trace
    report = run_soak(TRACES, "fmtcp", scenario, seed=1)
    assert report.ok, report.violations


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_trace_scenarios_rejected_by_other_harnesses(protocol):
    from repro.faults.chaos import CHAOS
    from repro.faults.corruption import CORRUPTION

    scenario = presets("traces")["gprs_bursty"]()
    with pytest.raises(ValueError, match="replays channel traces"):
        run_soak(CHAOS, protocol, scenario, seed=1)
    with pytest.raises(ValueError, match="no corruption events"):
        run_soak(CORRUPTION, protocol, scenario, seed=1)


def test_non_trace_scenario_rejected_by_run_traces():
    with pytest.raises(ValueError, match="no trace events"):
        run_soak(TRACES, "fmtcp", resolve_scenario("path_death"), seed=1)
