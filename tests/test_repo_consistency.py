"""Repository self-consistency: docs reference real things.

Keeps README/DESIGN/EXPERIMENTS honest as the codebase evolves — every
example, benchmark and CLI command mentioned must actually exist.
"""

import ast
import dataclasses
import functools
import importlib.util
import inspect
import re
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


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
    from repro.traces.generators import BUNDLED_TRACES

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
    "queue_capacity": (
        "PathConfig's queue size; the same-named keywords go to "
        "Network.add_link and the fault baseline; left for the next census"
    ),
}


class _Call(NamedTuple):
    """One call as the censuses read it: ``qualifier.name(…)``, or
    ``name(…)`` with ``qualifier`` None (``""`` when the qualifier is not
    a plain name)."""

    name: Optional[str]
    qualifier: Optional[str]
    keywords: frozenset
    positional: int


class _FileIndex(NamedTuple):
    """What the censuses read of one file. Plain data only: a syntax tree
    kept for the session would slow every later garbage collection."""

    calls: list
    #: Class name → the names of its bases.
    bases: dict
    #: Every name the file reads, every attribute, every ``from … import``
    #: and the head of every ``"module:Qualname"`` string.
    used: frozenset
    #: Top-level functions, classes and assigned names.
    defined: frozenset
    #: Top-level ``from M import name`` → M.
    imported_from: dict
    #: Top-level ``NAME = [...]`` / ``(...)`` → its strings, a ``*OTHER``
    #: item as ``("*", "OTHER")``.
    sequences: dict


#: The head of a ``"module:Qualname"`` string (benchmarks/perf/tracer.py's
#: boundary table names what it wraps this way).
_QUALNAME = re.compile(r"repro(?:\.\w+)*:(\w+)")


def _file_index(tree: ast.Module) -> _FileIndex:
    """Read one parsed file into a :class:`_FileIndex`."""
    calls, bases, used = [], {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Attribute):
                name, qualifier = callee.attr, getattr(callee.value, "id", "")
            else:
                name, qualifier = getattr(callee, "id", None), None
            calls.append(_Call(
                name, qualifier, frozenset(keyword.arg for keyword in node.keywords),
                len(node.args),
            ))
        elif isinstance(node, ast.ClassDef):
            bases[node.name] = {
                getattr(base, "id", getattr(base, "attr", None)) for base in node.bases
            }
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_QUALNAME.findall(node.value))
    defined, imported_from, sequences = set(), {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported_from[alias.asname or alias.name] = node.module
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
            defined.update(names)
            if isinstance(node.value, (ast.List, ast.Tuple)):
                items = [
                    ("*", getattr(item.value, "id", None)) if isinstance(item, ast.Starred)
                    else item.value if isinstance(item, ast.Constant) else None
                    for item in node.value.elts
                ]
                sequences.update(dict.fromkeys(names, items))
    return _FileIndex(
        calls, bases, frozenset(used), frozenset(defined), imported_from, sequences
    )


@functools.cache
def _index() -> dict:
    """File → its :class:`_FileIndex`, for ``benchmarks/``, ``examples/``
    and ``src/``: the one parse every census reads (once per session;
    callers only read it)."""
    return {
        path: _file_index(ast.parse(path.read_text()))
        for root in ("benchmarks", "examples", "src")
        for path in (REPO / root).rglob("*.py")
    }


@functools.cache
def _bases_of() -> dict:
    """Class name → the names of its bases, for every class under ``src/``."""
    return {
        name: bases
        for path, entry in _index().items()
        if path.is_relative_to(SRC)
        for name, bases in entry.bases.items()
    }


def _subclass_names(config_class) -> set:
    """``config_class``'s name and every class under ``src/`` that
    derives from it, by ``ast`` (a subclass need not be imported)."""
    bases_of = _bases_of()
    names = {config_class.__name__}
    while True:
        grown = names | {name for name, bases in bases_of.items() if bases & names}
        if grown == names:
            return names
        names = grown


def _fields_set(call: _Call, class_names: set, positional: list) -> set:
    """The config fields one call sets: ``Cls(field=…)`` (or by position)
    for ``Cls`` in ``class_names``, and ``dataclasses.replace(…, field=…)``."""
    if call.name in class_names:
        return call.keywords | set(positional[: call.positional])
    if call.name == "replace" and call.qualifier in (None, "dataclasses"):
        return call.keywords
    return set()


def test_every_config_field_has_traffic():
    """A benchmark, example, experiment, harness or CLI verb constructs the
    config class (or a subclass) with each field set, or ``replace``s it
    in, or the field is listed above with the reason it stays. Its own
    module, its own tests, a pass-through keyword of the same name, a
    re-export and a docs line are not traffic; a knob with one value in
    use is a constant."""
    from repro.core.config import FmtcpConfig
    from repro.mptcp.connection import MptcpConfig
    from repro.net.topology import PathConfig
    from repro.robustness.watchdog import WatchdogConfig
    from repro.telemetry.session import TelemetryConfig

    assert all(reason.strip() for reason in UNSET_FIELDS_KEPT.values())
    index = _index()
    unset = set()
    for config_class in (
        FmtcpConfig, MptcpConfig, PathConfig, WatchdogConfig, TelemetryConfig
    ):
        for field in dataclasses.fields(config_class):
            owner = next(
                cls for cls in config_class.__mro__
                if field.name in vars(cls).get("__annotations__", ())
            )
            class_names = _subclass_names(owner)
            # A subclass's own fields follow its base's, so the owner's
            # order is every subclass's positional order for them.
            positional = [f.name for f in dataclasses.fields(owner)]
            defining_module = Path(inspect.getsourcefile(owner))
            if not any(
                field.name in _fields_set(call, class_names, positional)
                for path, entry in index.items()
                if path != defining_module
                for call in entry.calls
            ):
                unset.add(field.name)
    assert unset == set(UNSET_FIELDS_KEPT), (
        f"no traffic and no recorded reason: {sorted(unset - set(UNSET_FIELDS_KEPT))}; "
        f"listed but set or gone: {sorted(set(UNSET_FIELDS_KEPT) - unset)}"
    )


def test_every_soak_and_probe_knob_has_traffic():
    """The soak kernel's, the transfer builder's and the ``measure_*``
    probes' keyword parameters are each passed — by keyword or by
    position — by a call to that function outside its own module. A knob
    nothing passes is a constant of the step, invariant or probe that
    reads it."""
    from repro import soak
    from repro.experiments.runner import build_connection
    from repro.faults.chaos import measure_fault_response
    from repro.faults.corruption import measure_corruption_goodput
    from repro.recovery.harness import measure_recovery
    from repro.robustness.exhaustion import measure_bufferblock
    from repro.traces.harness import measure_trace_goodput

    index = _index()
    unpassed = []
    for function in (
        soak.run_soak, build_connection, measure_fault_response,
        measure_corruption_goodput, measure_trace_goodput, measure_recovery,
        measure_bufferblock,
    ):
        parameters = list(inspect.signature(function).parameters.values())
        knobs = [
            parameter.name for parameter in parameters
            if parameter.default is not inspect.Parameter.empty
        ]
        home = Path(inspect.getsourcefile(function))
        passed = set()
        for path, entry in index.items():
            if path == home:
                continue
            for call in entry.calls:
                if call.name != function.__name__:
                    continue
                passed.update(call.keywords)
                passed.update(parameter.name for parameter in parameters[: call.positional])
        unpassed.extend(
            f"{function.__name__}({knob})" for knob in knobs if knob not in passed
        )
    assert not unpassed, f"knobs no caller outside their module passes: {unpassed}"


# ----------------------------------------------------------------------
# The public-surface census (ROADMAP public-surface a): the same rule for
# names. A public top-level name is referenced by something other than its
# own definition, a package ``__init__`` and ``tests/``; a name in a
# package's ``__all__`` is used by a file outside the module defining it.
# ----------------------------------------------------------------------
#: Names nothing outside ``tests/`` uses, kept for the reason given. Only
#: the reference a production path is tested against and the paper's
#: closed forms that ``docs/paper-mapping.md`` maps belong here. An entry
#: that gains traffic must leave (the test says so), so the list only
#: shrinks.
UNUSED_NAMES_KEPT = {
    "allocate_packet_reference": (
        "Algorithm 1 transcribed literally: the oracle allocate_packet is "
        "tested against"
    ),
    "expected_actual_delivered": "Eq. (5), mapped in docs/paper-mapping.md",
    "lemma1_min_r2": "Lemma 1 / Eq. (16), mapped in docs/paper-mapping.md",
    "rank_paths_by_sedt": "Theorem 2's path order, mapped in docs/paper-mapping.md",
}

#: Names this census deleted. The docs a reader follows must not send
#: them looking for one.
DELETED_NAMES = (
    "CHURN_KINDS",
    "CORRUPTION_KINDS",
    "CRASH_KINDS",
    "FAULT_KINDS",
    "GilbertElliottLoss",
    "NoCorruption",
    "NoReordering",
    "RELATIVE_TOLERANCE",
    "SUBFLOW1_CONFIG",
    "SUBFLOW_STATES",
    "TRACE_KINDS",
    "TimestampedSource",
    "load_golden",
    "seal_deferred",
)

def _exports(index: dict) -> list:
    """``(package __init__, name, defining file)`` for every ``__all__``
    entry. The defining file is the module the ``__init__`` imports the
    name from, else the module of that package defining it (a lazy
    re-export), else the ``__init__`` itself."""
    exports = []
    for init, entry in index.items():
        if init.name != "__init__.py" or not init.is_relative_to(SRC):
            continue
        listed = []
        for item in entry.sequences.get("__all__", ()):
            listed.extend(entry.sequences[item[1]] if isinstance(item, tuple) else [item])
        for name in listed:
            if name in entry.imported_from:
                stem = SRC.joinpath(*entry.imported_from[name].split("."))
                home = next(
                    path for path in (stem.with_suffix(".py"), stem / "__init__.py")
                    if path in index
                )
            else:
                home = next(
                    (
                        path for path, other in index.items()
                        if path.parent == init.parent and path != init
                        and name in other.defined
                    ),
                    init,
                )
            exports.append((init, name, home))
    return exports


def _surface_hits(index: dict) -> dict:
    """Name → the rule it breaks, for every public ``src/`` name without
    traffic. A package ``__init__`` is a re-export, never a use."""
    users = {
        path: entry.used for path, entry in index.items()
        if not (path.name == "__init__.py" and path.is_relative_to(SRC))
    }
    hits = {}
    for path in users:
        if not path.is_relative_to(SRC):
            continue
        for name in index[path].defined:
            if not name.startswith("_") and not any(name in used for used in users.values()):
                hits[name] = f"referenced nowhere but tests ({path.relative_to(REPO)})"
    for init, name, home in _exports(index):
        if name not in hits and not any(
            name in used for path, used in users.items() if path != home
        ):
            package = ".".join(init.parent.relative_to(SRC).parts)
            hits[name] = f"in {package}.__all__ but used only in {home.relative_to(REPO)}"
    return hits


def test_every_public_name_has_traffic():
    """Rule 1: a public top-level name in ``src/`` is referenced outside
    its definition, the package ``__init__``s and ``tests/``. Rule 2: an
    ``__all__`` name is used outside its defining module, by another
    ``src/`` module, a benchmark (``benchmarks/perf/tracer.py``'s
    ``"module:Qualname"`` strings count) or an example. What breaks
    either is deleted or un-exported, or kept above with its reason."""
    assert all(reason.strip() for reason in UNUSED_NAMES_KEPT.values())
    hits = _surface_hits(_index())
    unlisted = {name: rule for name, rule in hits.items() if name not in UNUSED_NAMES_KEPT}
    assert not unlisted and set(hits) == set(UNUSED_NAMES_KEPT), (
        "no traffic and no recorded reason:\n  "
        + "\n  ".join(f"{name}: {rule}" for name, rule in sorted(unlisted.items()))
        + f"\nlisted but used or gone: {sorted(set(UNUSED_NAMES_KEPT) - set(hits))}"
    )


def test_public_surface_census_catches_each_rule():
    """Seeded cases: a dead name breaks rule 1, an export that only its
    own module uses breaks rule 2."""
    index = dict(_index())
    package = SRC / "repro" / "seeded"
    for name, source in (
        ("dead.py", "def seeded_dead_name():\n    pass\n"),
        ("lonely.py", "def seeded_lonely_export():\n    pass\n\nVALUE = seeded_lonely_export()\n"),
        ("__init__.py", "from repro.seeded.lonely import VALUE, seeded_lonely_export\n"
                        "__all__ = ['VALUE', 'seeded_lonely_export']\n"),
    ):
        index[package / name] = _file_index(ast.parse(source))
    hits = _surface_hits(index)
    assert hits["seeded_dead_name"].startswith("referenced nowhere but tests")
    assert hits["seeded_lonely_export"] == (
        "in repro.seeded.__all__ but used only in src/repro/seeded/lonely.py"
    )
    # VALUE is used by nothing either: a name exported and never read
    # breaks rule 1 first.
    assert hits["VALUE"].startswith("referenced nowhere but tests")


def test_api_doc_covers_the_exports_and_no_deleted_name():
    """``docs/api.md`` names every ``__all__`` entry, and no doc a reader
    follows names something deleted."""
    api = read("docs/api.md")
    missing = sorted(
        f"{'.'.join(init.parent.relative_to(SRC).parts)}.{name}"
        for init, name, __ in _exports(_index())
        if not re.search(rf"`[^`]*\b{re.escape(name)}\b[^`]*`", api)
    )
    assert not missing, f"exported but not in docs/api.md: {missing}"
    defined = set().union(*(
        entry.defined for path, entry in _index().items() if path.is_relative_to(SRC)
    ))
    assert not defined & set(DELETED_NAMES), "a deleted name is defined again"
    stale = [
        (doc, name)
        for doc in ("docs/api.md", "docs/tuning.md", "docs/robustness.md",
                    "docs/paper-mapping.md", "DESIGN.md")
        for name in DELETED_NAMES
        if re.search(rf"\b{name}\b", read(doc))
    ]
    assert not stale, f"deleted names still in the docs: {stale}"
