"""Python calls per benchmark rep: the host-independent cost count.

    python3 benchmarks/calls_per_rep.py [--root CHECKOUT] [--workload NAME ...]
                                        [--bytecodes] [--compare PARENT_ROOT]

For each workload of ``benchmarks/perf/workloads.py`` this runs ``run_rep``
on rep seed 3000 — a discarded warm-up, one rep under ``cProfile`` and one
with the cyclic garbage collector off — and prints the profile's call
count, the rep's ``garbage`` (the objects ``gc.collect()`` then finds
unreachable: what the rep left for the collector rather than freeing by
reference counting), ``sim.events`` and the rep digest. ``--bytecodes``
runs the rep once more under a ``sys.settrace`` hook that counts
``opcode`` events and adds the number of bytecode instructions executed
in Python frames (builtins run none; the traced rep takes about ten times
as long as a plain one). All of these
repeat exactly from run to run on one interpreter version (the call count includes builtins, so it differs
between minor versions: compare two checkouts with the same interpreter,
``--root`` naming the other one), except ``fmtcp_instrumented``'s
bytecodes, which move by a few dozen: ``SimProfiler.on_event`` takes its
``elapsed_s > stats.max_s`` branch whenever the host's clock produces a
new per-kind maximum (with ``elapsed_s`` held at 0.0 three traced reps
count the same), so ``--compare`` labels that delta host-dependent. A
digest that moves is a behaviour change; a call count that moves without it is work a change added or
removed, free of host noise (ROADMAP ``one-gate``).

``--compare PARENT_ROOT`` counts PARENT_ROOT and ``--root`` (each in its
own interpreter, since both import ``repro``) and prints them side by side
with the deltas; it exits 1 if any workload's digest or ``sim.events``
differs between the two.

The count is the sum of ``callcount`` over ``Profile.getstats()``, not
``pstats.Stats.total_calls``: ``pstats`` keys functions by (file, line,
name) and keeps one of any that collide — every dataclass ``__init__`` is
``<string>:2:__init__`` — so its total depends on which survives
(``mptcp_gprs`` reads 2 357 609 or 2 359 209 for one and the same rep; the
hand counts in ``results/perf/pr20_calls.txt`` are ``pstats`` totals).

Wraps ``benchmarks/perf``; edits nothing there and claims nothing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

REP_SEED = 3000
#: Workloads whose bytecode count follows the host's clock (see above).
HOST_TIMED_BYTECODES = ("fmtcp_instrumented",)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ and benchmarks/perf/ are counted (default: this one)",
    )
    parser.add_argument("--workload", action="append", help="default: all five")
    parser.add_argument(
        "--bytecodes", action="store_true",
        help="add executed bytecodes per rep (a third, traced run)",
    )
    parser.add_argument(
        "--compare", type=Path, metavar="PARENT_ROOT",
        help="count PARENT_ROOT too and print both with deltas; exit 1 if a "
        "digest or sim.events differs",
    )
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.compare is not None:
        sys.exit(compare(args.compare, args.root, args.workload, args.bytecodes))
    sys.path[:0] = [str(args.root / "src"), str(args.root / "benchmarks" / "perf")]
    import workloads

    if not args.json:
        bytecodes_header = f" {'bytecodes':>11}" if args.bytecodes else ""
        print(
            f"{'workload':<20} {'python calls':>13}{bytecodes_header} "
            f"{'garbage':>8} {'sim.events':>11}  rep digest"
        )
    for name in args.workload or workloads.WORKLOADS:
        row = count(workloads, name, args.bytecodes)
        if args.json:
            print(json.dumps(row), flush=True)
            continue
        bytecodes = f" {row['bytecodes']:>11}" if args.bytecodes else ""
        print(
            f"{name:<20} {row['calls']:>13}{bytecodes} {row['garbage']:>8} "
            f"{row['events']:>11}  {row['digest'][:16]}…"
        )


def count(workloads, name: str, bytecodes: bool) -> Dict[str, object]:
    """One workload's calls (and bytecodes), garbage, ``sim.events`` and
    digest."""
    workload = workloads.WORKLOADS[name]
    workloads.run_rep(workload, REP_SEED)
    profile = cProfile.Profile()
    rep = profile.runcall(workloads.run_rep, workload, REP_SEED)
    collected, garbage = count_garbage(workloads.run_rep, workload, REP_SEED)
    if collected["digest"] != rep["digest"]:
        raise SystemExit(f"{name}: the rep run with the collector off moved its digest")
    row: Dict[str, object] = {
        "workload": name,
        "calls": sum(entry.callcount for entry in profile.getstats()),
        "garbage": garbage,
        "events": rep["counts"]["sim.events"],
        "digest": rep["digest"],
    }
    if bytecodes:
        traced, executed = count_bytecodes(workloads.run_rep, workload, REP_SEED)
        if traced["digest"] != rep["digest"]:
            raise SystemExit(f"{name}: the traced rep's digest moved")
        row["bytecodes"] = executed
    return row


def _counted(root: Path, names: List[str], bytecodes: bool) -> Dict[str, dict]:
    command = [sys.executable, str(Path(__file__).resolve()), "--root", str(root)]
    command.append("--json")
    command += [arg for name in names for arg in ("--workload", name)]
    if bytecodes:
        command.append("--bytecodes")
    output = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    rows = [json.loads(line) for line in output.splitlines()]
    return {row["workload"]: row for row in rows}


def _delta(old: int, new: int) -> str:
    percent = f" ({(new - old) / old:+.1%})" if old else ""
    return f"{new - old:+d}{percent}"


def compare(parent: Path, root: Path, names, bytecodes: bool) -> int:
    """Print PARENT_ROOT beside ROOT per workload; 1 if behaviour moved."""
    before = _counted(parent, names or [], bytecodes)
    after = _counted(root, names or [], bytecodes)
    measures = ["calls"] + (["bytecodes"] if bytecodes else []) + ["garbage"]
    print(f"parent: {parent}\nthis:   {root}")
    moved = set(before) != set(after)
    for name in [name for name in before if name in after]:
        old, new = before[name], after[name]
        same_events = old["events"] == new["events"]
        same_digest = old["digest"] == new["digest"]
        moved |= not (same_events and same_digest)
        print(f"{name}")
        for measure in measures:
            host = measure == "bytecodes" and name in HOST_TIMED_BYTECODES
            print(
                f"  {measure:<11} {old[measure]:>11} -> {new[measure]:>11}  "
                f"{_delta(old[measure], new[measure])}"
                f"{'  (host-dependent)' if host else ''}"
            )
        print(
            f"  {'sim.events':<11} {old['events']:>11} -> {new['events']:>11}  "
            f"{'==' if same_events else 'DIFFERS'}"
        )
        print(
            f"  {'digest':<11} {old['digest'][:11]:>11} -> {new['digest'][:11]:>11}  "
            f"{'==' if same_digest else 'DIFFERS'}"
        )
    return 1 if moved else 0


def count_garbage(fn, *args):
    """``fn(*args)`` run with the cyclic collector off, and the number of
    objects a collection then finds unreachable (all of them the call's)."""
    gc.collect()
    gc.disable()
    try:
        result = fn(*args)
        return result, gc.collect()
    finally:
        gc.enable()


def count_bytecodes(fn, *args):
    """``fn(*args)`` and the bytecode instructions its Python frames ran."""
    executed = 0

    def trace(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        else:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return trace

    sys.settrace(trace)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, executed


if __name__ == "__main__":
    main()
