"""Command-line entry point: regenerate any paper experiment.

Examples::

    python -m repro fig3                 # goodput across Table I cases
    python -m repro fig4 --surge 0.35    # the loss-surge time series
    python -m repro fig7                 # per-block delay, test case 4
    python -m repro analysis             # Section III-B / IV-C numbers
    python -m repro --duration 10 all    # every catalogued experiment, short runs
    python -m repro report --check       # EXPERIMENTS.md quotes the ledgers?

Every experiment verb reads its entries from
:mod:`repro.experiments.catalog`, the same declarations the benchmark
ledgers and EXPERIMENTS.md are generated from.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import soak, telemetry
from repro.experiments import catalog
from repro.experiments.replication import summarise
from repro.experiments.reporting import write_csv
from repro.experiments.runner import PROTOCOLS
from repro.workloads.scenarios import (
    DEFAULT_BANDWIDTH_BPS,
    TABLE1_CASES,
    table1_path_configs,
)


def _fmt_row(values: List[str], widths: List[int]) -> str:
    return "  ".join(value.rjust(width) for value, width in zip(values, widths))


def _experiments(args: argparse.Namespace) -> List[catalog.Experiment]:
    """The catalog entries a verb prints; ``fig4`` and ``fairness`` build
    theirs from their own flag."""
    if args.command == "fig4":
        return [catalog.figure4(args.surge)]
    if args.command == "fairness":
        return [catalog.fairness(args.competitors)]
    if args.command == "all":
        return list(catalog.CATALOG)
    return catalog.experiments_of(args.command)


def cmd_experiment(args: argparse.Namespace) -> Optional[int]:
    """Run a verb's catalog entries at the requested scale and print each
    one's table (at full scale: its ledger), chart and failed shape checks."""
    experiments = _experiments(args)
    for experiment in experiments:
        scale = experiment.scale(args.duration, args.bandwidth, args.seed)
        result = experiment.run(scale)
        print(f"{experiment.title}:")
        for line in experiment.render(result, scale):
            print(line)
        if experiment.chart:
            print()
            for line in experiment.chart(result):
                print(line)
        failed = experiment.failed_checks(result, scale)
        held = len(experiment.shape_checks) - len(failed)
        print(f"shape: {held}/{len(experiment.shape_checks)} checks hold at this scale")
        for description in failed:
            print(f"  not reproduced: {description}")
        if args.csv:
            target = _csv_target(args.csv, experiment, len(experiments))
            write_csv(target, experiment.to_csv(result))
            print(f"wrote {target}")
        print()
    return None


def _csv_target(path: str, experiment: catalog.Experiment, entries: int) -> str:
    """``--csv PATH`` itself for a one-table verb; for a verb that prints
    several tables, one file per entry: ``<stem>.<ledger>.csv`` beside it."""
    if entries == 1:
        return path
    target = Path(path)
    return str(target.with_name(f"{target.stem}.{experiment.ledger}.csv"))


def cmd_report(args: argparse.Namespace) -> Optional[int]:
    from repro.experiments.report import write_report

    try:
        stale = write_report(Path(args.results), Path(args.output), check=args.check)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not args.check:
        print(f"wrote {args.output}")
        return None
    for name in stale:
        print(f"{args.output}: the {name} block differs from {args.results}/{name}.txt")
    if stale:
        print("regenerate with: python -m repro report", file=sys.stderr)
        return 1
    print(f"{args.output} quotes every ledger it names verbatim")
    return None


def cmd_replicate(args: argparse.Namespace) -> None:
    scale = catalog.Scale(args.duration or 30.0, args.bandwidth, args.seed)
    case = TABLE1_CASES[args.case - 1]
    grid = catalog.Grid(
        ({"case": case.case_id},), catalog.PAIR, catalog.case_summary,
        seeds=args.seeds, wide=False,
    )
    print(
        f"Replicated comparison on Table I case {case.case_id} "
        f"({case.label()}), seeds {grid.seeds_at(scale)}, {scale.duration_s:.0f}s runs:"
    )
    for row in grid(scale, reduction=summarise):
        print(
            f"  {row['protocol']:>6}: goodput {row['goodput_mbytes_per_s']} MB/s, "
            f"block delay {row['mean_block_delay_ms']} ms, "
            f"jitter {row['jitter_ms']} ms"
        )


@dataclass(frozen=True)
class _FaultGroup:
    """One row of the ``repro faults`` table: how a scenario group is
    listed, run, summarised and benchmarked. ``cmd_faults`` looks the row
    up by ``scenario.route()`` and asks nothing else about the group; the
    group's presets are ``repro.faults.presets(route)``."""

    header: str  # listing header
    describe: Callable[[Any], str]  # a preset's line in the listing
    harness: Any  # the repro.soak.Harness the group's scenarios run under
    progress: Callable[[Any], str]  # the group's counters in a report
    bench: Optional[Callable[..., None]] = None  # None = no open-ended probe
    own_length: bool = False  # the scenario fixes its own run length


def _window(label: str, settle: bool = False) -> Callable[[Any], str]:
    def describe(scenario) -> str:
        end = f"{scenario.settle_time:.1f}" if settle else f"{scenario.heal_time:.0f}"
        return (
            f"{len(scenario.events)} events, "
            f"{label} {scenario.fault_start:.0f}-{end}s"
        )

    return describe


def _describe_crashes(scenario) -> str:
    kinds = [event.kind for event in scenario.events]
    crashes = kinds.count("crash_sender") + kinds.count("crash_receiver")
    return (
        f"{crashes} crash(es) / {kinds.count('restart')} restart(s), "
        f"window {scenario.fault_start:.0f}-{scenario.heal_time:.0f}s"
    )


def _outcome(report) -> str:
    if report.completion_time_s is not None:
        return f"completed at {report.completion_time_s:.1f}s"
    progress = f"({report.delivered_bytes}/{report.expected_bytes} B)"
    if report.watchdog_failed and report.fail_reason is None:  # the stall ladder
        return f"clean failure at escalation {report.watchdog_escalation} {progress}"
    return f"incomplete {progress}"


def _progress_corruption(report) -> str:
    stats = report.corruption_stats
    discarded = sum(
        count
        for name, count in stats.items()
        if name not in ("symbols_evicted", "blocks_quarantined")
    )
    return (
        f"{report.packets_corrupted} packets corrupted, {discarded} discarded, "
        f"{stats.get('blocks_quarantined', 0)} blocks quarantined"
    )


def _progress_recovery(report) -> str:
    text = (
        f"{report.crashes} crashes / {report.resumes} resumes / "
        f"{report.attempts} attempts"
    )
    if report.recovery_state == "failed":
        text += f", clean fail: {report.fail_reason}"
    return text


def _print_table(title: str, columns, rows) -> None:
    """``columns`` are ``(heading, width)`` pairs; ``rows`` lists of cells."""
    widths = [width for __, width in columns]
    print(title)
    print(_fmt_row([heading for heading, __ in columns], widths))
    for row in rows:
        print(_fmt_row(row, widths))


def _bench_goodput_response(protocols, scenario, seed, duration) -> None:
    from repro.faults import measure_fault_response
    from repro.faults.chaos import PROBE_BANDWIDTH_BPS, PROBE_DELAY_S

    # Clean 4 Mb/s paths at 1 % loss: the preset's faults come on top.
    paths = soak.uniform_paths(scenario.n_paths, PROBE_BANDWIDTH_BPS, PROBE_DELAY_S, 0.01)
    benches = [
        measure_fault_response(protocol, scenario, paths, seed=seed, duration_s=duration)
        for protocol in protocols
    ]
    _print_table(
        "Goodput response (open-ended transfer):",
        (("proto", 8), ("pre(MB/s)", 10), ("dur(MB/s)", 10), ("post(MB/s)", 10),
         ("retain", 10), ("recov(s)", 10)),
        [
            [
                bench.protocol,
                f"{bench.pre_mbps:.3f}",
                f"{bench.during_mbps:.3f}",
                f"{bench.post_mbps:.3f}",
                f"{bench.retention:.2f}",
                "never" if bench.recovery_s is None else f"{bench.recovery_s:.1f}",
            ]
            for bench in benches
        ],
    )


def _bench_recovery_response(protocols, scenario, seed, duration) -> None:
    from repro.recovery import measure_recovery

    def seconds(value) -> str:
        return f"{value:.1f}" if value else "never"

    rows = [
        measure_recovery(protocol, scenario, seed=seed, duration_s=duration)
        for protocol in protocols
    ]
    _print_table(
        "Recovery response (crash run vs clean baseline):",
        (("proto", 8), ("clean(s)", 10), ("crash(s)", 10), ("retain", 8),
         ("outage(s)", 10), ("ckpt(B)", 10)),
        [
            [
                row["protocol"],
                seconds(row["baseline_completion_s"]),
                seconds(row["crashed_completion_s"]),
                f"{row['goodput_retention']:.2f}",
                f"{row['max_outage_s']:.2f}",
                str(row["checkpoint_bytes"]),
            ]
            for row in rows
        ],
    )


def _fault_groups() -> Dict[str, _FaultGroup]:
    """The ``repro faults`` table, keyed by routing group, in listing order."""
    from repro.faults.chaos import CHAOS
    from repro.faults.churn import CHURN
    from repro.faults.corruption import CORRUPTION
    from repro.recovery.harness import RECOVERY
    from repro.robustness.exhaustion import EXHAUSTION
    from repro.traces.harness import TRACES

    return {
        "chaos": _FaultGroup(
            "Preset fault scenarios (also accepts random:SEED and trace:FILE.csv):",
            _window("faults"),
            CHAOS,
            lambda report: f"{report.bytes_at_heal}/{report.expected_bytes} B by heal",
            _bench_goodput_response,
        ),
        "churn": _FaultGroup(
            "Mobility presets (subflow lifecycle churn):",
            _window("churn", settle=True),
            CHURN,
            lambda report: (
                f"{report.path_downs} downs / {report.path_ups} ups / "
                f"{report.handovers} handovers"
            ),
            _bench_goodput_response,
        ),
        "corruption": _FaultGroup(
            "Corruption presets (data integrity, byte-verified delivery):",
            _window("corruption"),
            CORRUPTION,
            _progress_corruption,
            _bench_goodput_response,
        ),
        "exhaustion": _FaultGroup(
            "Exhaustion presets (receiver memory budget, flow control on):",
            lambda scenario: (
                f"{scenario.recv_budget_bytes // 1024} KiB budget — "
                f"{scenario.description}"
            ),
            EXHAUSTION,
            lambda report: (
                f"peak occupancy {report.peak_occupancy}/{report.budget_units} "
                f"units, {report.flow.get('flow_pauses', 0)} pauses, "
                f"{report.flow.get('window_probes', 0)} window probes"
            ),
            own_length=True,
        ),
        "recovery": _FaultGroup(
            "Recovery presets (endpoint crash/restart, byte-verified delivery):",
            _describe_crashes,
            RECOVERY,
            _progress_recovery,
            _bench_recovery_response,
        ),
        "traces": _FaultGroup(
            "Trace presets (replayed channel dynamics, byte-verified delivery):",
            _window("replay"),
            TRACES,
            lambda report: (
                f"{report.trace_ticks} trace ticks (samples applied), peak occupancy "
                f"{report.peak_occupancy}/{report.budget_units} units"
            ),
            _bench_goodput_response,
        ),
    }


def _print_fault_scenarios(groups: Dict[str, _FaultGroup]) -> None:
    from repro.faults import presets

    for route, group in groups.items():
        print(group.header)
        for name, factory in sorted(presets(route).items()):
            print(f"  {name:>23}: {group.describe(factory())}")


def cmd_faults(args: argparse.Namespace) -> Optional[int]:
    from repro.faults import resolve_scenario

    groups = _fault_groups()
    if args.scenario == "list":
        _print_fault_scenarios(groups)
        return None
    try:
        scenario = resolve_scenario(args.scenario)
        route = scenario.route()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        _print_fault_scenarios(groups)
        return 2
    group = groups[route]
    refused = None
    if args.bench and group.bench is None:
        refused = f"--bench: the {route} presets have no open-ended probe"
    elif args.duration is not None and group.own_length:
        refused = f"--duration: the {route} presets fix their own run length"
    if refused:
        print(f"error: {refused}", file=sys.stderr)
        return 2
    protocols = soak.PROTOCOLS if args.protocol == "both" else (args.protocol,)
    if group.own_length:
        duration = scenario.duration_s
        print(
            f"Exhaustion scenario {scenario.name}: "
            f"{scenario.recv_budget_bytes // 1024} KiB receive budget, "
            f"{scenario.total_bytes} B transfer, {duration:.0f}s run, "
            f"seed {args.seed}"
        )
    else:
        duration = scenario.run_length(args.duration or 40.0)
        print(
            f"Scenario {scenario.name}: {len(scenario.events)} events, "
            f"faults {scenario.fault_start:.1f}-{scenario.settle_time:.1f}s, "
            f"{duration:.0f}s run, seed {args.seed}"
        )
    for protocol in protocols:
        report = soak.run_soak(
            group.harness, protocol, scenario, seed=args.seed, duration_s=duration,
            flight_dump_dir=args.flight_dir,
        )
        status = "OK" if report.ok else "VIOLATIONS"
        print(
            f"  {protocol:>6}: {status} — {_outcome(report)}, {group.progress(report)}"
        )
        for violation in report.violations:
            print(f"          ! {violation}")
        if report.flight_dump_path is not None:
            print(f"          flight recorder dump: {report.flight_dump_path}")
            print(f"          profiler report:      {report.profile_dump_path}")
        if report.watchdog_dump_path is not None:
            print(f"          watchdog post-mortem: {report.watchdog_dump_path}")
    if args.bench:
        group.bench(protocols, scenario, args.seed, duration)
    return None


def cmd_trace_record(args: argparse.Namespace) -> None:
    from repro.experiments.runner import run_transfer

    case = TABLE1_CASES[args.case - 1]
    duration = args.duration or 30.0
    config = telemetry.TelemetryConfig(
        sample_period_s=args.sample_period,
        trace_path=args.output,
        profile_sim=args.profile,
        spans=args.spans,
    )
    print(
        f"Recording {args.protocol} on Table I case {case.case_id} "
        f"({case.label()}), {duration:.0f}s, seed {args.seed} -> {args.output}"
    )
    result = run_transfer(
        args.protocol,
        table1_path_configs(case, args.bandwidth),
        duration_s=duration,
        seed=args.seed,
        telemetry=config,
    )
    report = result.telemetry
    print(f"  {report.trace_records_written} records written")
    print(f"  goodput {result.summary['goodput_mbytes_per_s']:.3f} MB/s")
    if args.profile and report.profile is not None:
        profiler_report = report.profile
        print(
            f"  sim profile: {profiler_report['events']} events, "
            f"{profiler_report['events_per_s']:.0f} events/s, "
            f"sim/wall x{profiler_report['sim_wall_ratio']:.0f}"
        )
    if args.spans and report.spans is not None:
        print(
            f"  spans: {report.spans['finished']} finished blocks, "
            f"max conservation error "
            f"{report.spans['max_conservation_error_s']:.2e}s"
        )
    print(f"Inspect with: python -m repro trace summarize {args.output}")


#: The ``repro trace`` subcommands in menu order: name -> (the line the
#: menu and ``--help`` show, the view printing a loaded trace's lines, or
#: ``None`` for ``record`` and ``export-csv``, which have commands of
#: their own).
_TRACE_COMMANDS: Dict[str, Tuple[str, Optional[Callable[[list, Any], Iterable[str]]]]] = {
    "record": ("run one Table I transfer with telemetry -> JSONL", None),
    "summarize": (
        "totals, kinds, goodput, block-delay histogram",
        lambda records, args: telemetry.summarize(records),
    ),
    "subflows": (
        "per-subflow cwnd/srtt/eat series",
        lambda records, args: telemetry.subflow_report(records),
    ),
    "timeline": (
        "chronological event listing (filterable)",
        lambda records, args: telemetry.timeline(
            records, kinds=args.kind or None, start=args.start, end=args.end,
            limit=args.limit,
        ),
    ),
    "export-csv": ("flatten records to CSV (union-of-keys header)", None),
    "spans": (
        "per-stage block-delay decomposition (P50/P95/P99)",
        lambda records, args: telemetry.spans_report(records),
    ),
    "critical-path": (
        "slowest blocks with their dominant stage",
        lambda records, args: telemetry.critical_path_report(records, top=args.top),
    ),
}


def _print_trace_menu() -> None:
    print("trace subcommands:")
    for name, (line, __) in _TRACE_COMMANDS.items():
        print(f"  {name:<14} {line}")
    print("Record a trace first: python -m repro trace record --output trace.jsonl")


def _load_trace(path: str) -> Optional[list]:
    """Read a JSONL trace; on failure print error + menu and return None
    (callers turn that into exit code 2, the repro CLI error convention)."""
    from repro.sim.tracefile import read_trace_file

    try:
        return read_trace_file(path)
    except OSError as exc:
        print(f"error: cannot read trace file: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {path} is not a JSONL trace file: {exc}", file=sys.stderr)
    _print_trace_menu()
    return None


def cmd_trace_view(args: argparse.Namespace) -> Optional[int]:
    """Print one of :data:`_TRACE_COMMANDS`' views of a JSONL trace."""
    records = _load_trace(args.file)
    if records is None:
        return 2
    for line in _TRACE_COMMANDS[args.trace_command][1](records, args):
        print(line)
    return None


def cmd_trace_export_csv(args: argparse.Namespace) -> Optional[int]:
    records = _load_trace(args.file)
    if records is None:
        return 2
    text = telemetry.export_csv(records, kind=args.kind)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return None


class _MenuParser(argparse.ArgumentParser):
    """ArgumentParser that prints a subcommand menu on unknown choices.

    Matches the ``repro faults`` convention: unknown subcommands exit 2
    after a helpful listing instead of a bare usage string. Parsers
    without a ``menu`` keep stock argparse behaviour.
    """

    menu = None

    def error(self, message: str) -> None:
        if self.menu is not None and "invalid choice" in message:
            print(f"error: {message}", file=sys.stderr)
            self.menu()
            raise SystemExit(2)
        super().error(message)


def _run_length(text: str) -> float:
    """argparse ``type=`` of ``--duration``: finite seconds, > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"run length must be finite and > 0 seconds, got {text!r}"
        )
    return value


def _finite_positive(text: str) -> float:
    """argparse ``type=`` of ``--bandwidth`` / ``--sample-period``:
    finite and > 0 (a NaN period or bandwidth otherwise dies mid-run)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _output_file(text: str) -> str:
    """argparse ``type=`` of ``--csv`` and the two ``trace`` ``--output`` options:
    a file in a directory that exists (else the write dies after the run)."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory, not a file")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"the directory of {text!r} does not exist")
    return text


def _instant(text: str) -> float:
    """argparse ``type=`` of ``--start`` / ``--end``: finite seconds."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"time must be finite seconds, got {text!r}")
    return value


def _table1_case(text: str) -> int:
    """argparse ``type=`` of ``--case``: a Table I case id."""
    value = int(text)
    if not 1 <= value <= len(TABLE1_CASES):
        raise argparse.ArgumentTypeError(
            f"Table I has cases 1-{len(TABLE1_CASES)}, got {text!r}"
        )
    return value


def _at_least_one(text: str) -> int:
    """argparse ``type=`` of a count (``--seeds``, ``--competitors``,
    ``--limit``, ``--top``): >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _surge_loss(text: str) -> float:
    """argparse ``type=`` of ``--surge``: a loss rate in [0, 1)."""
    value = float(text)
    if not 0.0 <= value < 1.0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"loss rate must be in [0, 1), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FMTCP (ICDCS 2012) reproduction — regenerate paper experiments",
    )
    parser.add_argument(
        "--duration", type=_run_length, default=None, help="run length (s)"
    )
    parser.add_argument(
        "--bandwidth",
        type=_finite_positive,
        default=DEFAULT_BANDWIDTH_BPS,
        help="per-path bw (bps)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--csv", type=_output_file, default=None,
        help="export rows to CSV (a verb with several tables writes "
        "STEM.LEDGER.csv per table)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_MenuParser)
    for verb, help_text in catalog.VERBS.items():
        command = sub.add_parser(verb, help=help_text)
        command.set_defaults(fn=cmd_experiment)
        if verb == "fig4":
            command.add_argument(
                "--surge", type=_surge_loss, default=0.25, help="subflow-2 loss in the surge"
            )
        elif verb == "fairness":
            command.add_argument(
                "--competitors", type=_at_least_one, default=3, help="plain TCP flows"
            )
    replicate = sub.add_parser("replicate", help="multi-seed mean ± CI comparison")
    replicate.add_argument("--case", type=_table1_case, default=4, help="Table I case id")
    replicate.add_argument("--seeds", type=_at_least_one, default=3)
    replicate.set_defaults(fn=cmd_replicate)
    report = sub.add_parser(
        "report", help="copy the benchmark ledgers into EXPERIMENTS.md's marked blocks"
    )
    report.add_argument("--output", type=str, default="EXPERIMENTS.md")
    report.add_argument("--results", type=str, default="benchmarks/results")
    report.add_argument(
        "--check", action="store_true", help="exit 1 if a block differs, write nothing"
    )
    report.set_defaults(fn=cmd_report)
    faults = sub.add_parser("faults", help="fault injection: chaos run + recovery")
    faults.add_argument(
        "--scenario",
        type=str,
        default="path_death",
        help="preset name, random:SEED, trace:FILE.csv, or 'list'",
    )
    faults.add_argument(
        "--protocol", choices=(*soak.PROTOCOLS, "both"), default="both"
    )
    faults.add_argument(
        "--bench", action="store_true", help="also measure retention/recovery"
    )
    faults.add_argument(
        "--flight-dir",
        type=str,
        default=None,
        help="dump flight-recorder + profiler post-mortems here on violations",
    )
    faults.set_defaults(fn=cmd_faults)
    trace = sub.add_parser("trace", help="record and analyse JSONL telemetry traces")
    trace.menu = _print_trace_menu
    trace.set_defaults(fn=lambda args: trace.print_help())
    trace_sub = trace.add_subparsers(dest="trace_command")
    commands = {}
    for name, (line, view) in _TRACE_COMMANDS.items():
        command = commands[name] = trace_sub.add_parser(name, help=line)
        if view is not None:
            command.add_argument("file")
            command.set_defaults(fn=cmd_trace_view)
    record = commands["record"]
    record.add_argument("--case", type=_table1_case, default=4, help="Table I case id")
    record.add_argument("--protocol", choices=PROTOCOLS, default="fmtcp")
    record.add_argument("--output", type=_output_file, default="trace.jsonl")
    record.add_argument(
        "--sample-period",
        type=_finite_positive,
        default=0.1,
        help="sampler period (s)",
    )
    record.add_argument(
        "--profile", action="store_true", help="also profile the sim engine"
    )
    record.add_argument(
        "--spans",
        action="store_true",
        help="also decompose block delay live (summary line at the end)",
    )
    record.set_defaults(fn=cmd_trace_record)
    timeline = commands["timeline"]
    timeline.add_argument(
        "--kind", action="append", help="only these kinds (repeatable)"
    )
    timeline.add_argument("--start", type=_instant, default=None, help="window start (s)")
    timeline.add_argument("--end", type=_instant, default=None, help="window end (s)")
    timeline.add_argument(
        "--limit", type=_at_least_one, default=40, help="show last N records"
    )
    export = commands["export-csv"]
    export.add_argument("file")
    export.add_argument("--kind", type=str, default=None, help="only this kind")
    export.add_argument(
        "--output", type=_output_file, default=None, help="write here (default stdout)"
    )
    export.set_defaults(fn=cmd_trace_export_csv)
    commands["critical-path"].add_argument(
        "--top", type=_at_least_one, default=5, help="how many slowest blocks to show"
    )
    sub.add_parser("all", help="run every catalogued experiment").set_defaults(
        fn=cmd_experiment
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # Menu-driven exits (unknown subcommand) and --help land here;
        # surface the status as a return code like every other command.
        code = exc.code
        if isinstance(code, int):
            return code
        return 0 if code is None else 2
    return args.fn(args) or 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
