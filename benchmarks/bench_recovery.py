"""Crash-recovery response: goodput retention and recovery latency.

Runs the endpoint-crash presets through :func:`repro.recovery.measure_recovery`
— each crashed transfer against its clean same-seed baseline — and
reports goodput retention (clean completion time / crashed completion
time), outage decomposition (half-open detection, reconnect handshake)
and the checkpoint-size asymmetry the paper's ratelessness argument
predicts: an FMTCP sender checkpoints an O(1) frontier while MPTCP
carries its unacked chunk map.

Writes the human-readable report plus the machine-readable row ledger
``benchmarks/results/BENCH_recovery.json``; ``trajectory.py check``
gates on the newest row (FMTCP retention must not regress and must stay
>= MPTCP's under the receiver-crash preset).
"""

from __future__ import annotations

import os

from benchmarks.conftest import RESULTS_DIR, bench_duration
from benchmarks.trajectory import RECOVERY_LEDGER_PATH, append_row
from repro.faults import RECOVERY_SCENARIOS
from repro.metrics.stats import mean
from repro.recovery import measure_recovery

PRESETS = ("receiver_crash", "sender_crash", "crash_storm")
SEEDS = (1,) if os.environ.get("REPRO_FAST") else (1, 2, 3)


def _duration() -> float:
    # The presets' crash windows span t=6-18 s and the soak transfer
    # needs ~20 s of clean air after the last restart; short smoke runs
    # would truncate recovery itself.
    return max(bench_duration(), 40.0)


def _measure_all():
    duration = _duration()
    results = {}
    for protocol in ("fmtcp", "mptcp"):
        per_preset = {}
        for preset in PRESETS:
            runs = [
                measure_recovery(
                    protocol,
                    RECOVERY_SCENARIOS[preset](),
                    seed=seed,
                    duration_s=duration,
                )
                for seed in SEEDS
            ]
            detects = [
                run["mean_detect_s"] for run in runs if run["mean_detect_s"] is not None
            ]
            per_preset[preset] = {
                "goodput_retention": round(
                    mean([run["goodput_retention"] for run in runs]), 4
                ),
                "max_outage_s": round(max(run["max_outage_s"] for run in runs), 3),
                "mean_detect_s": round(mean(detects), 3) if detects else None,
                "checkpoint_bytes": max(run["checkpoint_bytes"] for run in runs),
                "violations": sum(run["violations"] for run in runs),
            }
        results[protocol] = per_preset
    return results


def test_recovery_response(benchmark, report):
    results = benchmark.pedantic(_measure_all, rounds=1, iterations=1)

    lines = [
        "Goodput retention (clean/crashed completion time) per crash preset, "
        f"seeds {list(SEEDS)} (mean):",
        f"{'preset':>16}  "
        + "  ".join(f"{p + ' retain':>14}" for p in results)
        + f"  {'outage(s)':>10}  {'ckpt fm/mp (B)':>14}",
    ]
    for preset in PRESETS:
        lines.append(
            f"{preset:>16}  "
            + "  ".join(
                f"{results[p][preset]['goodput_retention']:>14.4f}" for p in results
            )
            + f"  {results['fmtcp'][preset]['max_outage_s']:>10.2f}"
            + f"  {results['fmtcp'][preset]['checkpoint_bytes']:>6}/"
            + f"{results['mptcp'][preset]['checkpoint_bytes']}"
        )

    row = {
        "schema": 1,
        "label": os.environ.get("GITHUB_SHA", "local")[:12],
        "seeds": list(SEEDS),
        "duration_s": _duration(),
        "fmtcp_goodput_retention": results["fmtcp"]["receiver_crash"][
            "goodput_retention"
        ],
        "mptcp_goodput_retention": results["mptcp"]["receiver_crash"][
            "goodput_retention"
        ],
        "fmtcp_max_outage_s": results["fmtcp"]["receiver_crash"]["max_outage_s"],
        "mptcp_max_outage_s": results["mptcp"]["receiver_crash"]["max_outage_s"],
        "results": results,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    append_row(row, path=RECOVERY_LEDGER_PATH)
    lines.append(f"ledger row appended to {RECOVERY_LEDGER_PATH.name}")
    report("recovery_response", lines)

    for protocol, per_preset in results.items():
        for preset, point in per_preset.items():
            assert point["violations"] == 0, (
                f"{protocol}/{preset}: {point['violations']} invariant violations"
            )
    # The ratelessness claim at its sharpest: losing the receiver (and
    # with it every partial decode matrix) must cost FMTCP no more
    # relative goodput than it costs chunk-map-replaying MPTCP.
    fmtcp_retain = results["fmtcp"]["receiver_crash"]["goodput_retention"]
    mptcp_retain = results["mptcp"]["receiver_crash"]["goodput_retention"]
    assert fmtcp_retain >= mptcp_retain, (
        f"FMTCP retention {fmtcp_retain} fell below MPTCP {mptcp_retain} "
        f"under receiver_crash"
    )
