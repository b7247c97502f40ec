"""Cross-PR performance-trajectory ledger.

The published ledgers in this directory are simulated numbers, which a
slower simulator reproduces byte for byte, so a slow events/sec bleed is
invisible in them. This ledger tracks it: ``record`` appends one
schema-versioned row (events/sec, wall time, goodput, per-stage
block-delay medians from the span layer) to
``results/BENCH_trajectory.json``, and ``check`` fails when the newest
row regresses more than a threshold against the previous one. CI's
``perf-smoke`` job runs both on every push (see
``.github/workflows/ci.yml``).

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py record --label my-change
    PYTHONPATH=src python benchmarks/trajectory.py check --threshold 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SCHEMA_VERSION = 1
LEDGER_PATH = Path(__file__).parent / "results" / "BENCH_trajectory.json"

# The probe workload: one fixed Table I transfer, profiled + span-traced.
PROBE_PROTOCOL = "fmtcp"
PROBE_CASE = 2
PROBE_DURATION_S = 8.0
PROBE_SEED = 1


def probe(
    duration_s: float = PROBE_DURATION_S,
    seed: int = PROBE_SEED,
    case_id: int = PROBE_CASE,
    protocol: str = PROBE_PROTOCOL,
    label: str = "local",
) -> Dict[str, object]:
    """Run the fixed probe transfer and shape one ledger row."""
    from repro.experiments.runner import run_transfer
    from repro.telemetry import TelemetryConfig
    from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs

    case = next(c for c in TABLE1_CASES if c.case_id == case_id)
    result = run_transfer(
        protocol,
        table1_path_configs(case),
        duration_s=duration_s,
        seed=seed,
        telemetry=TelemetryConfig(profile_sim=True, spans=True),
    )
    profile = result.telemetry.profile
    spans = result.telemetry.spans
    stage_p50_ms: Dict[str, float] = {}
    for stages in spans["stages"].values():
        for stage, snapshot in stages.items():
            stage_p50_ms[stage] = round(snapshot["p50"], 4)
    events = profile["events"]
    events_per_s = profile["events_per_s"]
    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "protocol": protocol,
        "case": case_id,
        "duration_s": duration_s,
        "seed": seed,
        "events": events,
        "events_per_s": round(events_per_s, 1),
        "wall_s": round(events / events_per_s, 4) if events_per_s else 0.0,
        "blocks": result.summary["blocks"],
        "goodput_mbytes_per_s": round(result.summary["goodput_mbytes_per_s"], 4),
        "spans_finished": spans["finished"],
        "max_conservation_error_s": spans["max_conservation_error_s"],
        "stage_p50_ms": stage_p50_ms,
    }


def load_ledger(path: Path = LEDGER_PATH) -> Dict[str, object]:
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "rows": []}
    with open(path) as handle:
        ledger = json.load(handle)
    if ledger.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path} has ledger schema {ledger.get('schema')!r}; "
            f"this tool speaks {SCHEMA_VERSION}"
        )
    return ledger


def append_row(row: Dict[str, object], path: Path = LEDGER_PATH) -> Dict[str, object]:
    ledger = load_ledger(path)
    ledger["rows"].append(row)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(ledger, handle, indent=2)
        handle.write("\n")
    return ledger


def check_regression(
    rows: List[Dict[str, object]],
    metric: str = "events_per_s",
    threshold: float = 0.25,
) -> Optional[str]:
    """Compare the newest row against the previous one.

    Returns an error string when ``metric`` dropped by more than
    ``threshold`` (fraction), ``None`` when fine or with fewer than two
    rows (the first row seeds the trajectory; nothing to compare).
    """
    if len(rows) < 2:
        return None
    previous, latest = rows[-2], rows[-1]
    base = previous.get(metric, 0)
    current = latest.get(metric, 0)
    if not base:
        return None
    drop = (base - current) / base
    if drop > threshold:
        return (
            f"{metric} regressed {drop:.1%} "
            f"({base:g} -> {current:g}, threshold {threshold:.0%}; "
            f"previous row {previous.get('label', '?')!r}, "
            f"latest {latest.get('label', '?')!r})"
        )
    return None


def cmd_record(args: argparse.Namespace) -> int:
    row = probe(label=args.label)
    ledger = append_row(row)
    print(
        f"appended row {len(ledger['rows'])} to {LEDGER_PATH}: "
        f"{row['events_per_s']:g} events/s, wall {row['wall_s']:g}s, "
        f"{row['spans_finished']} spans"
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    ledger = load_ledger()
    rows = ledger["rows"]
    if not rows:
        print(f"error: {LEDGER_PATH} has no rows; run `record` first", file=sys.stderr)
        return 1
    error = check_regression(rows, threshold=args.threshold)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    latest = rows[-1]
    print(
        f"trajectory ok: {len(rows)} rows, latest "
        f"{latest['events_per_s']:g} events/s "
        f"(threshold {args.threshold:.0%})"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="perf-trajectory ledger: record probe rows, gate regressions"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    record = sub.add_parser("record", help="run the probe and append a row")
    record.add_argument("--label", type=str, default="local", help="row provenance")
    record.set_defaults(fn=cmd_record)
    check = sub.add_parser("check", help="fail on events/sec regression")
    check.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max tolerated fractional drop vs the previous row",
    )
    check.set_defaults(fn=cmd_check)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
