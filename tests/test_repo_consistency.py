"""Repository self-consistency: docs reference real things.

Keeps README/DESIGN/EXPERIMENTS honest as the codebase evolves — every
example, benchmark and CLI command mentioned must actually exist.
"""

import ast
import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text()


def load_script(relative: str):
    """Import a script that lives outside ``src`` and ``testpaths``."""
    path = REPO / relative
    if not path.is_file():
        pytest.skip(f"{relative} is not in this checkout")
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_examples_exist():
    readme = read("README.md")
    for match in re.findall(r"`examples/([a-z_]+\.py)`", readme):
        assert (REPO / "examples" / match).is_file(), match


def test_all_example_files_are_listed_in_readme():
    readme = read("README.md")
    for path in (REPO / "examples").glob("*.py"):
        assert f"examples/{path.name}" in readme, path.name


def test_design_benchmark_references_exist():
    design = read("DESIGN.md")
    for match in re.findall(r"`benchmarks/(bench_[a-z0-9_]+\.py)`", design):
        assert (REPO / "benchmarks" / match).is_file(), match


def test_experiments_bench_references_exist():
    experiments = read("EXPERIMENTS.md")
    for match in re.findall(r"`(bench_[a-z0-9_]+\.py)`", experiments):
        assert (REPO / "benchmarks" / match).is_file(), match


def test_readme_cli_commands_are_registered():
    from repro.cli import build_parser

    parser = build_parser()
    readme = read("README.md")
    for match in re.findall(r"python -m repro ([a-z0-9]+)", readme):
        if match in ("repro",):
            continue
        # parse_args must accept the command (SystemExit means unknown).
        args = [match] if match != "fig4" else [match]
        parser.parse_args(args)


def test_docs_directory_files_referenced():
    readme = read("README.md")
    for path in (REPO / "docs").glob("*.md"):
        assert f"docs/{path.name}" in readme or path.name == "paper-mapping.md" or (
            f"docs/{path.name}" in read("DESIGN.md")
        ), path.name


def test_paper_mapping_test_files_exist():
    mapping = read("docs/paper-mapping.md")
    for match in re.findall(r"`(test_[a-z0-9_]+\.py)`", mapping):
        assert (REPO / "tests" / match).is_file(), match


def test_version_consistent():
    import repro

    pyproject = read("pyproject.toml")
    assert f'version = "{repro.__version__}"' in pyproject


def test_public_api_importable():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_bundled_trace_assets_in_package_data():
    """Every bundled trace asset must exist on disk AND be covered by the
    package-data globs, or sdists/wheels would ship without them and
    ``load_bundled_trace`` would fail post-install."""
    from repro.traces import BUNDLED_TRACES

    data_dir = REPO / "src" / "repro" / "traces" / "data"
    for name in BUNDLED_TRACES:
        assert (data_dir / f"{name}.csv").is_file(), name
    pyproject = read("pyproject.toml")
    assert "traces/data/*.csv" in pyproject


def test_benchmark_boundary_table_resolves():
    """``benchmarks/perf/tracer.py`` looks each traced name up with
    ``vars(owner)[attr]``: a method a refactor moves into a base class
    (say ``MptcpConnection.start``) still works everywhere except the
    traced benchmark pass, which is outside ``testpaths``. Installing the
    tracer resolves every entry, so this is where such a move fails."""
    tracer = load_script("benchmarks/perf/tracer.py").LayerTracer()
    tracer.install()
    tracer.uninstall()


@pytest.mark.parametrize(
    "source, expected",
    [
        # Comments, blank lines and docstrings never count.
        ('"""Module doc."""\n\n# note\nX = 1  # trailing\n', 1),
        # A docstring is the *leading* string of a module, class or
        # function; any other string is code, on every line it spans.
        ('def f():\n    """Doc\n    two."""\n    s = """a\n    b"""\n    return s\n', 4),
        # One statement over several physical lines is several code lines.
        ("class C:\n    'doc'\n    y = f(\n        1,\n    )\n", 4),
    ],
)
def test_code_line_counting_rule(source, expected):
    assert load_script("benchmarks/codelines.py").code_lines(source) == expected


# ----------------------------------------------------------------------
# The traffic census (ROADMAP item 6): a config field is set by something
# that runs, or it is not a field.
# ----------------------------------------------------------------------
#: Fields nothing outside ``tests/`` sets, kept for the reason given. An
#: entry that gains traffic must leave (the test says so), so the list
#: only shrinks.
UNSET_FIELDS_KEPT = {
    "systematic": (
        "benchmarks/perf/tracer.py resolves SystematicBlockEncoder.next_symbol "
        "with vars(owner)[attr]; needs a benchmark-only PR first"
    ),
    "loss_estimate_half_life_s": (
        "benchmarks/perf/tracer.py resolves Subflow.aged_loss_estimate the "
        "same way; needs a benchmark-only PR first"
    ),
    "dup_ack_threshold": (
        "pass-through to Subflow, which has callers of its own; left for "
        "the next census"
    ),
    "flight_capacity": (
        "TelemetryConfig's ring size; only tests and docs/observability.md "
        "set it. Its traffic was the soak wrappers' same-named keyword, "
        "which this keyword-name census counted; left for the next census"
    ),
}


def _keywords_passed_by_file() -> dict:
    """File → every keyword-argument name a call in it passes, for the
    files under ``benchmarks/``, ``examples/`` and ``src/``."""
    return {
        path: {
            keyword.arg
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            for keyword in node.keywords
        }
        for root in ("benchmarks", "examples", "src")
        for path in (REPO / root).rglob("*.py")
    }


def test_every_config_field_has_traffic():
    """A benchmark, example, experiment, harness or CLI verb passes each
    config field by keyword, or the field is listed above with the reason
    it stays. Its own module, its own tests, a re-export and a docs line
    are not traffic; a knob with one value in use is a constant."""
    from repro.core.config import FmtcpConfig
    from repro.mptcp.connection import MptcpConfig
    from repro.net.topology import PathConfig
    from repro.robustness.watchdog import WatchdogConfig
    from repro.telemetry.session import TelemetryConfig

    assert all(reason.strip() for reason in UNSET_FIELDS_KEPT.values())
    passed_by_file = _keywords_passed_by_file()
    unset = set()
    for config_class in (
        FmtcpConfig, MptcpConfig, PathConfig, WatchdogConfig, TelemetryConfig
    ):
        for field in dataclasses.fields(config_class):
            owner = next(
                cls for cls in config_class.__mro__
                if field.name in vars(cls).get("__annotations__", ())
            )
            defining_module = Path(inspect.getsourcefile(owner))
            if not any(
                field.name in passed
                for path, passed in passed_by_file.items()
                if path != defining_module
            ):
                unset.add(field.name)
    assert unset == set(UNSET_FIELDS_KEPT), (
        f"no traffic and no recorded reason: {sorted(unset - set(UNSET_FIELDS_KEPT))}; "
        f"listed but set or gone: {sorted(set(UNSET_FIELDS_KEPT) - unset)}"
    )


def _calls_by_file() -> dict:
    """File → every call in it, for ``benchmarks/``, ``examples/``, ``src/``."""
    return {
        path: [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
        ]
        for root in ("benchmarks", "examples", "src")
        for path in (REPO / root).rglob("*.py")
    }


def test_every_soak_and_probe_knob_has_traffic():
    """The soak kernel's and the ``measure_*`` probes' keyword parameters
    are each passed — by keyword or by position — by a call to that
    function outside its own module. A knob nothing passes is a constant
    of the step, invariant or probe that reads it."""
    from repro import soak
    from repro.faults.chaos import measure_fault_response
    from repro.faults.corruption import measure_corruption_goodput
    from repro.recovery.harness import measure_recovery
    from repro.robustness.exhaustion import measure_bufferblock
    from repro.traces.harness import measure_trace_goodput

    calls_by_file = _calls_by_file()
    unpassed = []
    for function in (
        soak.run_soak, measure_fault_response, measure_corruption_goodput,
        measure_trace_goodput, measure_recovery, measure_bufferblock,
    ):
        parameters = list(inspect.signature(function).parameters.values())
        knobs = [
            parameter.name for parameter in parameters
            if parameter.default is not inspect.Parameter.empty
        ]
        home = Path(inspect.getsourcefile(function))
        passed = set()
        for path, calls in calls_by_file.items():
            if path == home:
                continue
            for call in calls:
                callee = call.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(
                    callee, "id", None
                )
                if name != function.__name__:
                    continue
                passed.update(keyword.arg for keyword in call.keywords)
                passed.update(parameter.name for parameter in parameters[: len(call.args)])
        unpassed.extend(
            f"{function.__name__}({knob})" for knob in knobs if knob not in passed
        )
    assert not unpassed, f"knobs no caller outside their module passes: {unpassed}"
