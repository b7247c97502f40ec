"""Python calls per benchmark rep: the host-independent cost count.

    python3 benchmarks/calls_per_rep.py [--root CHECKOUT] [--workload NAME ...]
                                        [--bytecodes]

For each workload of ``benchmarks/perf/workloads.py`` this runs ``run_rep``
twice on rep seed 3000 — a discarded warm-up, then one rep under
``cProfile`` — and prints the profile's call count beside ``sim.events``
and the rep digest. ``--bytecodes`` runs the rep once more under a
``sys.settrace`` hook that counts ``opcode`` events and adds the number of
bytecode instructions executed in Python frames (builtins run none; the
traced rep takes about ten times as long as a plain one). All of these
repeat exactly from run to run on one interpreter version (the call count includes builtins, so it differs
between minor versions: compare two checkouts with the same interpreter,
``--root`` naming the other one). A digest that moves is a behaviour
change; a call count that moves without it is work a change added or
removed, free of host noise (ROADMAP ``one-gate``).

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
import sys
from pathlib import Path

REP_SEED = 3000


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
    args = parser.parse_args()
    sys.path[:0] = [str(args.root / "src"), str(args.root / "benchmarks" / "perf")]
    import workloads

    bytecodes_header = f" {'bytecodes':>11}" if args.bytecodes else ""
    print(
        f"{'workload':<20} {'python calls':>13}{bytecodes_header} "
        f"{'sim.events':>11}  rep digest"
    )
    for name in args.workload or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        workloads.run_rep(workload, REP_SEED)
        profile = cProfile.Profile()
        rep = profile.runcall(workloads.run_rep, workload, REP_SEED)
        calls = sum(entry.callcount for entry in profile.getstats())
        bytecodes = ""
        if args.bytecodes:
            traced, executed = count_bytecodes(workloads.run_rep, workload, REP_SEED)
            if traced["digest"] != rep["digest"]:
                raise SystemExit(f"{name}: the traced rep's digest moved")
            bytecodes = f" {executed:>11}"
        print(
            f"{name:<20} {calls:>13}{bytecodes} {rep['counts']['sim.events']:>11}  "
            f"{rep['digest'][:16]}…"
        )


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
