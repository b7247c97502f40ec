"""Fault response: goodput retention and recovery time under injected faults.

The paper's evaluation (§V) only varies static path quality; this
benchmark measures what happens when quality changes *mid-transfer* —
links flap, a path dies outright, bandwidth collapses, delay spikes.
FMTCP's rateless coding should retain more goodput through the fault
window than MPTCP's retransmission machinery: lost symbols are replaced
by any fresh symbols on any live path, whereas MPTCP must re-send the
specific missing chunks and stalls its receive window on them.

Runs on moderately lossy paths (5 % Bernoulli both ways on top of the
faults) — the regime the paper targets; on pristine paths the two
protocols are within noise of each other.

Writes both the human-readable report and a machine-readable baseline,
``benchmarks/results/BENCH_faults.json``.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import RESULTS_DIR
from repro.faults import (
    MOBILITY_SCENARIOS,
    SCENARIOS,
    FaultScenario,
    measure_fault_response,
)
from repro.metrics.stats import mean

BASE_LOSS = 0.05
SEEDS = (1,) if os.environ.get("REPRO_FAST") else (1, 2, 3)


def _measure_all():
    results = {}
    for name in sorted(SCENARIOS):
        scenario = FaultScenario.named(name)
        per_protocol = {}
        for protocol in ("fmtcp", "mptcp"):
            runs = [
                measure_fault_response(
                    protocol, scenario, seed=seed, base_loss=BASE_LOSS
                )
                for seed in SEEDS
            ]
            per_protocol[protocol] = {
                "retention": mean([run.retention for run in runs]),
                "pre_mbps": mean([run.pre_mbps for run in runs]),
                "during_mbps": mean([run.during_mbps for run in runs]),
                "post_mbps": mean([run.post_mbps for run in runs]),
                # A run that never recovers scores the full post-heal window.
                "recovery_s": mean(
                    [
                        run.recovery_s
                        if run.recovery_s is not None
                        else run.duration_s - scenario.heal_time
                        for run in runs
                    ]
                ),
            }
        results[name] = per_protocol
    return results


def test_fault_response(benchmark, report):
    results = benchmark.pedantic(_measure_all, rounds=1, iterations=1)

    lines = [
        f"Goodput through a 10 s fault window, {BASE_LOSS:.0%} base loss, "
        f"seeds {list(SEEDS)} (mean):",
        f"{'scenario':>20}  {'FMTCP ret':>9}  {'MPTCP ret':>9}  "
        f"{'FMTCP rec(s)':>12}  {'MPTCP rec(s)':>12}",
    ]
    for name, per_protocol in results.items():
        fmtcp, mptcp = per_protocol["fmtcp"], per_protocol["mptcp"]
        lines.append(
            f"{name:>20}  {fmtcp['retention']:>9.3f}  {mptcp['retention']:>9.3f}  "
            f"{fmtcp['recovery_s']:>12.1f}  {mptcp['recovery_s']:>12.1f}"
        )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_faults.json").write_text(
        json.dumps(
            {"base_loss": BASE_LOSS, "seeds": list(SEEDS), "scenarios": results},
            indent=2,
        )
        + "\n"
    )
    report("fault_response", lines)

    # The headline robustness claim: through link flaps and outright path
    # death, the fountain-coded transport retains strictly more goodput.
    for name in ("link_flap", "path_death"):
        fmtcp = results[name]["fmtcp"]["retention"]
        mptcp = results[name]["mptcp"]["retention"]
        assert fmtcp > mptcp, (
            f"{name}: FMTCP retention {fmtcp:.3f} <= MPTCP {mptcp:.3f}"
        )
    # Every scenario heals: both protocols recover within the post window.
    for name, per_protocol in results.items():
        for protocol in ("fmtcp", "mptcp"):
            assert per_protocol[protocol]["post_mbps"] > 0, (
                f"{name}/{protocol}: no goodput after heal"
            )


def _measure_churn():
    results = {}
    for name in sorted(MOBILITY_SCENARIOS):
        scenario = FaultScenario.named(name)
        per_protocol = {}
        for protocol in ("fmtcp", "mptcp"):
            runs = [
                measure_fault_response(
                    protocol, scenario, seed=seed, base_loss=BASE_LOSS
                )
                for seed in SEEDS
            ]
            per_protocol[protocol] = {
                "retention": mean([run.retention for run in runs]),
                "pre_mbps": mean([run.pre_mbps for run in runs]),
                "during_mbps": mean([run.during_mbps for run in runs]),
                "post_mbps": mean([run.post_mbps for run in runs]),
                "recovery_s": mean(
                    [
                        run.recovery_s
                        if run.recovery_s is not None
                        else run.duration_s - scenario.settle_time
                        for run in runs
                    ]
                ),
            }
        results[name] = per_protocol
    return results


def test_churn_response(benchmark, report):
    """Subflow lifecycle churn: handover, flap-with-rejoin, permanent loss.

    Unlike the link faults above, these remove and re-add the *subflows*
    themselves, so the cost measured here includes teardown, the join
    handshake and (for MPTCP) chunk reinjection.
    """
    results = benchmark.pedantic(_measure_churn, rounds=1, iterations=1)

    lines = [
        f"Goodput through subflow churn, {BASE_LOSS:.0%} base loss, "
        f"seeds {list(SEEDS)} (mean):",
        f"{'scenario':>24}  {'FMTCP ret':>9}  {'MPTCP ret':>9}  "
        f"{'FMTCP post':>10}  {'MPTCP post':>10}",
    ]
    for name, per_protocol in results.items():
        fmtcp, mptcp = per_protocol["fmtcp"], per_protocol["mptcp"]
        lines.append(
            f"{name:>24}  {fmtcp['retention']:>9.3f}  {mptcp['retention']:>9.3f}  "
            f"{fmtcp['post_mbps']:>10.3f}  {mptcp['post_mbps']:>10.3f}"
        )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_churn.json").write_text(
        json.dumps(
            {"base_loss": BASE_LOSS, "seeds": list(SEEDS), "scenarios": results},
            indent=2,
        )
        + "\n"
    )
    report("churn_response", lines)

    for name, per_protocol in results.items():
        for protocol in ("fmtcp", "mptcp"):
            # Graceful degradation: whatever was removed, the survivors
            # keep delivering after the churn settles.
            assert per_protocol[protocol]["post_mbps"] > 0, (
                f"{name}/{protocol}: no goodput after the churn settled"
            )
