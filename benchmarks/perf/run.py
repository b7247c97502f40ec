"""The repo benchmark: five fixed transfers, end to end and layer by layer.

    python3 benchmarks/perf/run.py [--seed N] [--workload NAME ...] [--json OUT]
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py compare A.json B.json

Workloads run one at a time, single-threaded, each rep set in a fresh child
interpreter (child.py). The untraced pass (``--trace 0``) gives the
end-to-end metrics; the traced pass (``--trace 1``) gives the per-layer
ones; without ``--trace`` both run. Every metric is printed by name with
its unit, outputs are checked, and the exit code is non-zero if a check
failed. With one workload and an explicit ``--trace`` the last line of
standard output is the result object the benchmark driver reads. The
benchmark claims no gain; see README.md for how to claim one with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
WORKLOADS = {workload["name"]: workload["why"] for workload in SPEC["workloads"]}

#: Fresh interpreters per untraced run; ``setup_s`` is their median set-up.
N_CHILDREN = 3
#: A rep is sized to about this much wall time, so ``--seconds`` fixes the
#: rep count (and with it the simulated work) whatever the machine's speed.
NOMINAL_REP_S = 1.0
#: Rep ``i`` of benchmark seed ``n`` runs with seed ``n * STRIDE + i``: every
#: rep is another transfer, so a run averages the simulated metrics over as
#: many independent transfers as it has reps.
SEED_STRIDE = 1000
CHILD_TIMEOUT_S = 170
SIMULATED = ("goodput_mbytes_per_s", "mean_block_delay_ms", "jitter_ms")
HOST_TIMINGS = ("wall_s", "cpu_s")
SPAN_FIELDS = ("id", "name", "start", "end", "parent")


def spawn_child(workload: str, seeds: List[int], quick: bool, *flags: str) -> Dict:
    """Run child.py to completion in a fresh interpreter; its JSON result."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seeds", ",".join(map(str, seeds)),
        "--spawned-at", repr(time.time()),
        *(["--quick"] if quick else []),
        *flags,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {
        "n": len(values), "min": min(values), "q1": q1, "median": median,
        "q3": q3, "max": max(values),
    }


def run_untraced(
    workload: str, seed: int, seconds: float, quick: bool, corrupt_rep: int = -1
) -> Dict[str, Any]:
    """The untraced pass: every end-to-end metric of one workload."""
    per_child = max(2, round(seconds / (N_CHILDREN * NOMINAL_REP_S)))
    children = []
    for child in range(N_CHILDREN):
        first = child * per_child
        seeds = [seed * SEED_STRIDE + first + j for j in range(per_child)]
        children.append(
            spawn_child(
                workload, seeds, quick, "--corrupt-rep", str(corrupt_rep - first)
            )
        )
    reps = [rep for child in children for rep in child["reps"]]
    good = [rep for rep in reps if "failed" not in rep]
    result: Dict[str, Any] = {
        "ops": len(reps),
        "failed_ops": len(reps) - len(good),
        "failures": [f"seed {r['seed']}: {r['failed']}" for r in reps if "failed" in r],
        "reps": [
            {key: rep.get(key) for key in ("seed", "wall_s", "cpu_s", "digest", "failed")}
            for rep in reps
        ],
        "setup_s_each": [child["setup_s"] for child in children],
    }
    if good:
        host = {name: quartiles([rep[name] for rep in good]) for name in HOST_TIMINGS}
        result["host"] = host
        result["metrics"] = {
            # The fastest rep, not the median: on this shared box a rep can
            # take twice as long for many seconds on end, and only the
            # minimum of a run stayed clean through such an episode.
            "wall_s": host["wall_s"]["min"],
            "cpu_s": host["cpu_s"]["min"],
            "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
            "setup_s": statistics.median(result["setup_s_each"]),
            **{
                name: statistics.fmean(rep["summary"][name] for rep in good)
                for name in SIMULATED
            },
        }
    return result


def run_traced(workload: str, seed: int, quick: bool) -> Dict[str, Any]:
    """The traced pass: every per-layer metric of one workload, from one rep
    (the first rep seed of the untraced pass) under the LayerTracer."""
    out = spawn_child(workload, [seed * SEED_STRIDE], quick, "--traced")
    failed = "failed" in out
    out.update(
        ops=1, failed_ops=int(failed),
        failures=[f"seed {out['seed']}: {out['failed']}"] if failed else [],
    )
    return out


# ----------------------------------------------------------------------
# Printing.
# ----------------------------------------------------------------------
def print_result(workload: str, kind: str, result: Dict[str, Any]) -> None:
    table = END_TO_END if kind == "end-to-end" else PER_LAYER
    print(f"\n== {workload} — {kind}: ops {result['ops']}, "
          f"failed_ops {result['failed_ops']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, value in result.get("metrics", {}).items():
        note = ""
        if kind == "end-to-end":
            note = "  [simulated, mean of reps]" if name in SIMULATED else "  [host]"
        if name in result.get("host", {}):
            h = result["host"][name]
            note = (f"  [host, fastest of n={h['n']}: q1 {h['q1']:.4f} median "
                    f"{h['median']:.4f} q3 {h['q3']:.4f} max {h['max']:.4f}]")
        print(f"  {name:<36} {value:>14.6g} {table[name]['unit']}{note}")


def contract_line(result: Dict[str, Any], units: Dict) -> str:
    return json.dumps(
        {
            "correct": result["failed_ops"] == 0,
            "attempted": result["ops"],
            "failed": result["failed_ops"],
            "metrics": {
                name: {"value": value, "unit": units[name]["unit"]}
                for name, value in result["metrics"].items()
            },
        }
    )


def provenance() -> Dict[str, Any]:
    commit: Optional[str] = None
    if (ROOT / ".git").exists():  # the driver's checkout is not a repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or None
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1min_at_start": os.getloadavg()[0],
    }


def cmd_run(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="wall seconds one untraced pass measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass only; 1: per-layer pass only")
    parser.add_argument("--json", metavar="OUT", help="write every result here")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced passes' first spans (JSON lines)")
    parser.add_argument("--quick", action="store_true",
                        help="shortened transfers (self-test; not comparable)")
    parser.add_argument("--corrupt-rep", type=int, default=-1, metavar="I",
                        help="self-test fault: corrupt the sink of timed rep I")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing: nothing to measure",
              file=sys.stderr)
        return 2

    document: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "provenance": provenance(), "workloads": {},
    }
    span_lines: List[str] = []
    results = []
    for workload in args.workload or list(WORKLOADS):
        entry: Dict[str, Any] = {"why": WORKLOADS[workload]}
        document["workloads"][workload] = entry
        if args.trace != 1:
            entry["end_to_end"] = run_untraced(
                workload, args.seed, args.seconds, args.quick, args.corrupt_rep
            )
            print_result(workload, "end-to-end", entry["end_to_end"])
            results.append((entry["end_to_end"], END_TO_END))
        if args.trace != 0:
            entry["per_layer"] = run_traced(workload, args.seed, args.quick)
            span_lines += [
                json.dumps({"workload": workload, **dict(zip(SPAN_FIELDS, span))})
                for span in entry["per_layer"].pop("span_log", [])
            ]
            print_result(workload, "per-layer", entry["per_layer"])
            results.append((entry["per_layer"], PER_LAYER))
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    if args.trace_out:
        Path(args.trace_out).write_text("\n".join(span_lines) + "\n")
    if args.trace is not None and len(results) == 1 and "metrics" in results[0][0]:
        print(contract_line(*results[0]))
    return 1 if any(result["failed_ops"] for result, __ in results) else 0


# ----------------------------------------------------------------------
# compare.
# ----------------------------------------------------------------------
def verdict(name: str, a: float, b: float, spread: float) -> str:
    metric = END_TO_END[name]
    worse_by = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    if worse_by > metric["bound"]:
        return "worse"
    if spread > metric["bound"]:
        return "unresolved"
    return "within-bound"


def rep_spread(end_to_end: Dict[str, Any], name: str) -> float:
    """How far a host timing's lower quartile of reps sits above its fastest
    rep, as a share of the fastest: how well one run resolves that floor."""
    h = end_to_end.get("host", {}).get(name)
    return (h["q1"] - h["min"]) / h["min"] if h else 0.0


def cmd_compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Per workload and metric: both values, B/A, and whether B "
        "is within BENCHMARK.json's bound of A.",
    )
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    doc_a = json.loads(Path(args.a).read_text())
    doc_b = json.loads(Path(args.b).read_text())
    if (doc_a["seed"], doc_a["seconds"], doc_a["quick"]) != (
        doc_b["seed"], doc_b["seconds"], doc_b["quick"]
    ):
        print("warning: A and B differ in seed, seconds or quick; simulated "
              "metrics are only comparable with the same settings")
    worse = 0
    for workload in doc_a["workloads"]:
        if workload not in doc_b["workloads"]:
            continue
        print(f"\n== {workload}   (ratio = B / A, base A = {args.a})")
        for kind, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            side_a = doc_a["workloads"][workload].get(kind, {})
            side_b = doc_b["workloads"][workload].get(kind, {})
            for name, a in side_a.get("metrics", {}).items():
                b = side_b.get("metrics", {}).get(name)
                if b is None:
                    continue
                ratio = f"{b / a:8.4f}" if a else "     n/a"
                status = ""
                if kind == "end_to_end":
                    spread = max(rep_spread(side_a, name), rep_spread(side_b, name))
                    status = verdict(name, a, b, spread)
                    status += f" (bound {table[name]['bound']:.0%}, spread {spread:.1%})"
                    if name in SIMULATED:
                        status += " identical" if a == b else " differs"
                    worse += status.startswith("worse")
                print(f"  {name:<36} {a:>13.6g} {b:>13.6g} {ratio} "
                      f"{table[name]['unit']:<6} {status}")
    return 1 if worse else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
