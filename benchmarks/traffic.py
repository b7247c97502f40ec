"""The traffic census: which ``src/repro`` code the production drivers run.

    python benchmarks/traffic.py            # rewrite benchmarks/results/traffic.json
    python benchmarks/traffic.py --check    # exit 1 if the ledger would change

Runs every production driver in this one process under a
``sys.setprofile`` recorder, started before ``repro`` is imported (the
catalog builds configs at import time), and writes the ledger
``benchmarks/results/traffic.json``:

- ``functions``: one row per ``src/repro`` function, method and property,
  ``true`` if a driver executed it;
- ``knobs``: one row per defaulted parameter of a ``def``, ``true`` if a
  call gave it a value other than its default;
- ``fields``: one row per init field of a config class, ``true`` if a
  construction gave it a value other than its default.

Rows are keyed ``module:qualname`` from the function objects (and
``module:Qualname(parameter)``), never by line, so an unrelated edit moves
no row. A property's setter and deleter share the getter's qualname, so
they get rows of their own, ``Cls.prop.setter`` / ``Cls.prop.deleter``.
Lambdas stay unkeyed: every lambda is named ``<lambda>``, and without a
line number nothing tells two apart. The drivers are what a user or the
benchmark runs; tests are not drivers: every CLI verb through ``cli.main``
at full scale and every option of every verb at least once (checked
against ``cli.build_parser()``), every ``faults`` preset, ``random:SEED``,
``trace:FILE`` and each group's ``--bench``, ``report`` writing a
temporary copy of EXPERIMENTS.md, every example, the five
``benchmarks/perf`` workloads (``run_rep(quick=True)``) and
``bench_micro.py`` / ``bench_telemetry.py`` under pytest with
``--benchmark-disable``. ``tests/test_repo_consistency.py`` reads the
ledger: a row without traffic is deleted code or an allowlisted reason.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import os
import runpy
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
LEDGER = REPO / "benchmarks" / "results" / "traffic.json"

#: The config classes: every init field one of them declares gets a
#: ``fields`` row, keyed by the declaring class.
CONFIG_CLASSES = (
    "repro.core.config:CodedConfig",
    "repro.core.config:FmtcpConfig",
    "repro.fixedrate.connection:FixedRateConfig",
    "repro.mptcp.connection:MptcpConfig",
    "repro.net.topology:PathConfig",
    "repro.robustness.watchdog:WatchdogConfig",
    "repro.tcp.multipath:MultipathConfig",
    "repro.telemetry.session:TelemetryConfig",
)

#: A field with no default: any construction sets it.
_REQUIRED = object()


def _same(value, default) -> bool:
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:  # an object whose == raises is not its default
        return False


class Recorder:
    """Which functions of one package ran and which of their defaulted
    parameters saw a non-default value, recorded by ``sys.setprofile``.

    A code object is classified on its first call: a ``repro`` function
    (or a dataclass ``__init__`` the package generated) is found among the
    package's imported modules and marked run; anything else is ignored
    from then on. A function is checked again only while one of its
    defaulted parameters has seen nothing but its default."""

    def __init__(
        self, package: str = "repro", source: Path = SRC, config_classes=CONFIG_CLASSES
    ) -> None:
        self.package = package
        self.config_classes = frozenset(config_classes)
        self._prefix = str(source / package.replace(".", os.sep))
        #: code → its pending ``[(parameter, default, table, row), ...]``,
        #: or None once nothing is left to learn from its calls.
        self._watch: Dict = {}
        #: code → (function row key or None, knob rows), for every known code.
        self._known: Dict = {}
        self.functions: Dict[str, bool] = {}
        self.knobs: Dict[str, bool] = {}
        self.fields: Dict[str, bool] = {}

    # -- recording ---------------------------------------------------------
    def start(self) -> None:
        # A closure over locals: the hook runs on every call and return.
        lookup, classify, check, unknown = self._watch.get, self._classify, self._check, self

        def profile(frame, event, arg) -> None:
            if event == "call":
                code = frame.f_code
                pending = lookup(code, unknown)
                if pending is None:
                    return
                if pending is unknown:
                    pending = classify(code)
                    if pending is None:
                        return
                check(code, frame.f_locals, pending)

        sys.setprofile(profile)

    def stop(self) -> None:
        sys.setprofile(None)

    def _check(self, code, arguments, pending: list) -> None:
        left = []
        for entry in pending:
            name, default, table, row = entry
            if table[row]:
                continue
            if name in arguments and not _same(arguments[name], default):
                table[row] = True
            else:
                left.append(entry)
        self._watch[code] = left or None

    def _classify(self, code) -> Optional[list]:
        filename = code.co_filename
        if not (filename.startswith(self._prefix) or filename == "<string>"):
            self._watch[code] = None
            return None
        if code not in self._known:
            self.scan()
        known = self._known.get(code)
        if known is None:  # a class body, a lambda, a comprehension
            self._watch[code] = None
            return None
        row, knobs = known
        if row is not None:
            self.functions[row] = True
        pending = [entry for entry in knobs if not entry[2][entry[3]]]
        self._watch[code] = pending or None
        return pending or None

    # -- the rows ----------------------------------------------------------
    def scan(self) -> None:
        """Register every function of the package's imported modules (a
        module still importing is scanned again on the next unknown code)."""
        for name, module in list(sys.modules.items()):
            if (name == self.package or name.startswith(self.package + ".")) and module:
                for value in list(vars(module).values()):
                    self._register_value(value, name)

    def _register_value(self, value, module: str, within: str = "") -> None:
        if isinstance(value, type):
            if value.__module__ == module and value.__qualname__.startswith(within):
                self._register_class(value)
            return
        for function, suffix in _functions_of(value):
            if (
                function.__module__ == module
                and function.__code__.co_filename.startswith(self._prefix)
            ):
                self._register_function(function, function.__qualname__ + suffix)

    def _register_class(self, cls: type) -> None:
        for value in list(vars(cls).values()):
            self._register_value(value, cls.__module__, cls.__qualname__ + ".")
        if dataclasses.is_dataclass(cls) and "__init__" in vars(cls):
            init = vars(cls)["__init__"]
            if init.__code__.co_filename == "<string>":
                self._register_dataclass_init(cls, init)

    def _register_function(self, function, qualname: str) -> None:
        code = function.__code__
        if code in self._known or code.co_name.startswith("<"):  # a lambda
            return
        row = f"{function.__module__}:{qualname}"
        self.functions.setdefault(row, False)
        head = row.removesuffix(".__init__")
        knobs = [
            (name, default, self.knobs, f"{head}({name})")
            for name, default in _defaults(function).items()
        ]
        for *__, key in knobs:
            self.knobs.setdefault(key, False)
        self._known[code] = (row, knobs)
        self._register_nested(code, qualname, function.__module__)

    def _register_nested(self, code, qualname: str, module: str, scope=".<locals>.") -> None:
        """Closures: a ``def`` (or a class body) inside a function is a code
        constant of it."""
        for constant in code.co_consts:
            if not hasattr(constant, "co_code") or constant.co_name.startswith("<"):
                continue
            inner = f"{qualname}{scope}{constant.co_name}"
            if not constant.co_flags & inspect.CO_NEWLOCALS:  # a class body
                self._register_nested(constant, inner, module, ".")
                continue
            row = f"{module}:{inner}"
            self.functions.setdefault(row, False)
            self._known.setdefault(constant, (row, []))
            self._register_nested(constant, inner, module)

    def _register_dataclass_init(self, cls: type, init) -> None:
        code = init.__code__
        if code in self._known:
            return
        declared = {}
        for base in reversed(cls.__mro__):
            for name in vars(base).get("__annotations__", {}):
                declared[name] = base
        defaults, knobs = _defaults(init), []
        for field in dataclasses.fields(cls):
            owner = declared[field.name]
            head = f"{owner.__module__}:{owner.__qualname__}"
            if not field.init or head not in self.config_classes:
                continue
            key = f"{head}({field.name})"
            self.fields.setdefault(key, False)
            knobs.append((field.name, defaults.get(field.name, _REQUIRED), self.fields, key))
        self._known[code] = (None, knobs)

    def ledger(self) -> dict:
        return {
            "functions": dict(sorted(self.functions.items())),
            "knobs": dict(sorted(self.knobs.items())),
            "fields": dict(sorted(self.fields.items())),
        }


def _defaults(function) -> Dict[str, object]:
    """Parameter → default, for each defaulted parameter of ``function``."""
    code = function.__code__
    positional = code.co_varnames[: code.co_argcount]
    defaults = function.__defaults__ or ()
    return {
        **dict(zip(positional[len(positional) - len(defaults):], defaults)),
        **(function.__kwdefaults__ or {}),
    }


def _functions_of(value) -> Iterable:
    """``(function, row suffix)`` for the plain functions behind a class
    attribute or module global: through ``staticmethod`` /
    ``classmethod``, ``property`` accessors (a setter or deleter keyed
    apart from its getter) and ``functools`` wrappers."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, property):
        return [
            (function, suffix)
            for accessor, suffix in ((value.fget, ""), (value.fset, ".setter"),
                                     (value.fdel, ".deleter"))
            if accessor is not None for function, __ in _functions_of(accessor)
        ]
    value = getattr(value, "func", value)  # functools.cached_property / partial
    while hasattr(value, "__wrapped__"):
        value = value.__wrapped__
    if hasattr(value, "__code__") and hasattr(value, "__qualname__"):
        return [(value, "")]
    return []


def import_all(package: str = "repro") -> None:
    """Import every module of the package, so code no driver imports
    still gets its rows."""
    import importlib
    import pkgutil

    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


# ----------------------------------------------------------------------
# The drivers.
# ----------------------------------------------------------------------
def cli_runs(work: Path) -> List[List[str]]:
    """Every ``python -m repro`` invocation the census makes, in order."""
    from repro.experiments import catalog

    trace_file = str(work / "trace.jsonl")
    # Each verb at full scale runs every catalog entry; ``all`` at a short
    # scale adds only its own branch (the per-process transfer cache would
    # not spare a second full-scale pass the robustness entries).
    runs: List[List[str]] = [[verb] for verb in catalog.VERBS]
    runs += [
        ["--duration", "2", "all"],
        ["--csv", str(work / "table1.csv"), "table1"],
        ["--csv", str(work / "analysis.csv"), "analysis"],
        ["--duration", "5", "--bandwidth", "2e6", "--seed", "2", "fig3"],
        ["--duration", "5", "--bandwidth", "3e6", "--csv", str(work / "fig4.csv"), "fig4",
         "--surge", "0.35"],
        ["--duration", "5", "fairness", "--competitors", "2"],
        ["replicate"],
        ["--duration", "5", "replicate", "--case", "2", "--seeds", "2"],
        ["report", "--output", str(work / "EXPERIMENTS.md"),
         "--results", str(REPO / "benchmarks" / "results")],
        ["report", "--check", "--output", str(work / "EXPERIMENTS.md")],
        ["faults", "--scenario", "list"],
    ]
    from repro.cli import _fault_groups
    from repro.faults import presets

    for route, group in _fault_groups().items():
        names = sorted(presets(route))
        for name in names:
            runs.append(["faults", "--scenario", name])
        if group.bench is not None:
            runs.append(["--duration", "30", "faults", "--scenario", names[0], "--bench"])
    runs += [
        ["faults", "--scenario", "random:7", "--protocol", "fmtcp"],
        ["faults", "--scenario", "trace:" + str(
            SRC / "repro" / "traces" / "data" / "wifi_walk.csv"
        )],
        ["--duration", "30", "faults", "--scenario", "path_death", "--protocol", "mptcp"],
        # A clean watchdog failure: the post-mortem dumps write.
        ["faults", "--scenario", "slow_drain_receiver", "--flight-dir", str(work / "flight")],
        ["trace"],
        ["trace", "record", "--output", trace_file, "--spans", "--sample-period", "0.2"],
        ["--duration", "10", "--bandwidth", "3e6", "trace", "record", "--case", "2",
         "--protocol", "mptcp", "--output", str(work / "mptcp.jsonl"), "--profile",
         "--spans"],
        ["trace", "summarize", trace_file],
        ["trace", "subflows", trace_file],
        ["trace", "timeline", trace_file],
        ["trace", "timeline", trace_file, "--kind", "subflow.loss", "--start", "1",
         "--end", "5", "--limit", "10"],
        ["trace", "export-csv", trace_file],
        ["trace", "export-csv", trace_file, "--kind", "subflow.loss",
         "--output", str(work / "trace.csv")],
        ["trace", "spans", trace_file],
        ["trace", "critical-path", trace_file],
        ["trace", "critical-path", trace_file, "--top", "3"],
    ]
    return runs


def _options(parser: argparse.ArgumentParser, context: str = "") -> Dict[str, str]:
    """Option string → its context (``""``, ``"faults"``, ``"trace record"``)
    for every option of the parser tree, ``-h`` aside."""
    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for verb, child in action.choices.items():
                options.update(_options(child, f"{context} {verb}".strip()))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            options[f"{context}:{action.option_strings[-1]}"] = context
    return options


def _options_used(parser: argparse.ArgumentParser, argv: Sequence[str]) -> Set[str]:
    used, context, current = set(), "", parser
    for token in argv:
        if token.startswith("--"):
            used.add(f"{context}:{token}")
            continue
        for action in current._actions:
            if isinstance(action, argparse._SubParsersAction) and token in action.choices:
                context, current = f"{context} {token}".strip(), action.choices[token]
                break
    return used


def check_options(runs: List[List[str]]) -> None:
    """Every option of every verb and subcommand appears in some run."""
    from repro.cli import build_parser

    parser = build_parser()
    used = set().union(*(_options_used(parser, argv) for argv in runs))
    missing = sorted(set(_options(parser)) - used)
    if missing:
        raise SystemExit(f"traffic: no census run passes {missing}")


def drivers(work: Path) -> List[tuple]:
    """``(name, callable)`` for every driver, in run order."""
    from repro import cli

    runs = cli_runs(work)
    check_options(runs)
    shutil.copy(REPO / "EXPERIMENTS.md", work / "EXPERIMENTS.md")
    steps = [
        (f"repro {' '.join(argv).replace(str(work), 'TMP').replace(str(REPO), '.')}",
         lambda argv=argv: cli.main(argv))
        for argv in runs
    ]
    steps += [
        (f"examples/{path.name}",
         lambda path=path: runpy.run_path(str(path), run_name="__main__"))
        for path in sorted((REPO / "examples").glob("*.py"))
    ]
    sys.path.insert(0, str(REPO / "benchmarks" / "perf"))
    import workloads

    steps += [
        (f"perf {name}",
         lambda name=name: workloads.run_rep(workloads.WORKLOADS[name], seed=1, quick=True))
        for name in workloads.WORKLOADS
    ]

    def benches() -> None:
        import pytest

        pytest.main([
            str(REPO / "benchmarks" / "bench_micro.py"),
            str(REPO / "benchmarks" / "bench_telemetry.py"),
            "--benchmark-disable", "-q", "-p", "no:cacheprovider",
        ])

    steps.append(("pytest bench_micro.py bench_telemetry.py", benches))
    return steps


def census() -> dict:
    """Run every driver under the recorder; the ledger as a dict."""
    sys.path.insert(0, str(SRC))
    recorder = Recorder()
    recorder.start()
    try:
        with tempfile.TemporaryDirectory() as scratch:
            work = Path(scratch)
            previous = os.getcwd()
            os.chdir(work)  # drivers that write to the working directory
            try:
                for name, step in drivers(work):
                    began = time.perf_counter()
                    with contextlib.redirect_stdout(io.StringIO()):
                        step()
                    print(f"{time.perf_counter() - began:8.1f} s  {name}", file=sys.stderr)
            finally:
                os.chdir(previous)
        import_all()
        recorder.scan()
    finally:
        recorder.stop()
    return recorder.ledger()


def render(ledger: dict) -> str:
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; exit 1 if the ledger differs from a fresh census",
    )
    args = parser.parse_args(argv)
    began = time.perf_counter()
    text = render(census())
    ledger = json.loads(text)
    print(
        f"traffic: {sum(not ran for ran in ledger['functions'].values())} of "
        f"{len(ledger['functions'])} functions never ran, "
        f"{sum(not set_ for set_ in ledger['knobs'].values())} of {len(ledger['knobs'])} "
        f"knobs and {sum(not set_ for set_ in ledger['fields'].values())} of "
        f"{len(ledger['fields'])} config fields never saw a non-default value "
        f"({time.perf_counter() - began:.0f} s)"
    )
    if args.check:
        if not LEDGER.is_file() or LEDGER.read_text() != text:
            print(f"traffic: {LEDGER.relative_to(REPO)} is stale; rerun without --check")
            return 1
        return 0
    LEDGER.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
