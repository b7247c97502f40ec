"""Repository self-consistency: docs reference real things.

Keeps README/DESIGN/EXPERIMENTS honest as the codebase evolves — every
example, benchmark and CLI command mentioned must actually exist.
"""

import ast
import functools
import importlib.util
import json
import re
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

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
# The traffic census (ROADMAP item 6): what no production driver runs is
# not code. ``benchmarks/traffic.py`` runs every driver under a recorder
# and writes ``benchmarks/results/traffic.json``; these tests read it.
# ----------------------------------------------------------------------
LEDGER = REPO / "benchmarks" / "results" / "traffic.json"

#: The reasons a row may keep no traffic; nothing else is one.
ORACLE = "oracle: a test compares production code against it"
SAFETY = "safety code: a boundary check or an error path"
BASE_DEFAULT = "base-class default that every production subclass overrides"
PERF_PINNED = "pinned by benchmarks/perf/ (tracer.BOUNDARIES, child.py or a workload import)"
GENERATOR = "generator of committed data; a tier-1 test pins the data to it"
REASONS = (ORACLE, SAFETY, BASE_DEFAULT, PERF_PINNED, GENERATOR)

#: Ledger rows without traffic, each kept for one of :data:`REASONS`. An
#: entry that gains traffic, or whose code is gone, must leave (the tests
#: say so), so the list only shrinks.
NO_TRAFFIC_KEPT = {
    # Algorithm 1 transcribed literally, the allocator's oracle.
    "repro.core.allocation:allocate_packet_reference": ORACLE,
    "repro.core.allocation:_estimates_by_id": ORACLE,
    "repro.core.allocation:_fill_packet_literal": ORACLE,
    # Eqs. (10)-(12) and Theorem 2 over PathEstimate rows: what the path
    # table and the shadow sender are checked against.
    "repro.core.estimators:PathTable.estimates": ORACLE,
    "repro.core.estimators:eat": ORACLE,
    "repro.core.estimators:eat(virtual_queue)": ORACLE,
    "repro.core.estimators:eat_table": ORACLE,
    "repro.core.estimators:edt_for_flows": ORACLE,
    "repro.core.estimators:expected_rt": ORACLE,
    "repro.core.estimators:rank_paths_by_sedt": ORACLE,
    # The public Subflow reads the shadow sender rebuilds each row from.
    "repro.tcp.subflow:Subflow.tau": ORACLE,
    "repro.tcp.subflow:Subflow.is_joining": ORACLE,
    # The paper's closed forms: Lemma 1's two-path bound (mapped in
    # docs/paper-mapping.md), and the ones the rank model's sampled
    # redundancy and the Gilbert-Elliott chain's hit rate are held to.
    "repro.analysis.allocation:lemma1_min_r2": ORACLE,
    "repro.fountain.rank_model:decoding_failure_probability": ORACLE,
    "repro.net.corruption:GilbertElliottCorruption.rate_at": ORACLE,
    "repro.net.corruption:GilbertElliottCorruption.stationary_bad_fraction": ORACLE,
    # Boundary checks and error paths.
    "repro.cli:_MenuParser.error": SAFETY,
    "repro.cli:_print_trace_menu": SAFETY,
    "repro.core.estimators:PathEstimate._make": SAFETY,
    "repro.core.sender:_Keeps.__missing__": SAFETY,
    "repro.core.sender:_Losses.__missing__": SAFETY,
    "repro.mptcp.recv_buffer:BufferOverflowError.__init__": SAFETY,
    "repro.sim.engine:Simulator.run(max_events)": SAFETY,
    "repro.sim.tracefile:read_trace_file(strict)": SAFETY,
    # Interfaces whose every production implementation overrides them.
    "repro.net.corruption:CorruptionModel.apply": BASE_DEFAULT,
    "repro.net.loss:LossModel.should_drop": BASE_DEFAULT,
    "repro.net.reorder:ReorderingModel.extra_delay": BASE_DEFAULT,
    "repro.tcp.congestion:CongestionController.on_ack": BASE_DEFAULT,
    "repro.tcp.congestion:CongestionController.on_fast_loss": BASE_DEFAULT,
    "repro.tcp.congestion:CongestionController.on_timeout": BASE_DEFAULT,
    "repro.tcp.multipath:MultipathConnection._flow_counters": BASE_DEFAULT,
    "repro.tcp.multipath:MultipathConnection._settle_removed": BASE_DEFAULT,
    "repro.tcp.multipath:MultipathConnection._subflow_attached": BASE_DEFAULT,
    "repro.tcp.subflow:SubflowOwner.next_payload": BASE_DEFAULT,
    "repro.tcp.subflow:SubflowOwner.on_ack_feedback": BASE_DEFAULT,
    "repro.tcp.subflow:SubflowOwner.on_payload_delivered": BASE_DEFAULT,
    "repro.tcp.subflow:SubflowOwner.on_payload_lost": BASE_DEFAULT,
    "repro.tcp.subflow:SubflowOwner.on_subflow_ready": BASE_DEFAULT,
    "repro.tcp.subflow:SubflowOwner.on_subflow_recovered": BASE_DEFAULT,
    "repro.tcp.subflow:SubflowOwner.on_subflow_suspect": BASE_DEFAULT,
    "repro.telemetry.samplers:PeriodicSampler.sample": BASE_DEFAULT,
    # benchmarks/perf/tracer.py's BOUNDARIES name these (the two fields
    # feed SystematicBlockEncoder.next_symbol and the half_life_s of
    # Subflow.aged_loss_estimate); a benchmark-only change must retire
    # them first.
    "repro.core.blocks:PendingBlock.k_tilde": PERF_PINNED,
    "repro.core.sender:FmtcpSender.path_estimates": PERF_PINNED,
    "repro.fountain.codec:SystematicBlockEncoder.next_symbol": PERF_PINNED,
    "repro.core.config:FmtcpConfig(systematic)": PERF_PINNED,
    "repro.core.config:FmtcpConfig(loss_estimate_half_life_s)": PERF_PINNED,
    # experiments/golden.json (test_golden_regression regenerates it) and
    # the bundled trace CSVs (test_bundled_assets_load_and_match_recipes).
    "repro.experiments.golden:_case": GENERATOR,
    "repro.experiments.golden:measure_all": GENERATOR,
    "repro.experiments.golden:measure_anchor": GENERATOR,
    "repro.experiments.golden:write_golden": GENERATOR,
    "repro.traces.generators:cellular_trace": GENERATOR,
    "repro.traces.generators:regenerate_bundled_assets": GENERATOR,
    "repro.traces.generators:wifi_trace": GENERATOR,
    "repro.traces.model:LinkTrace.save": GENERATOR,
    "repro.traces.model:LinkTrace.to_csv": GENERATOR,
}


class _Def(NamedTuple):
    """One ``def``: its ``module:qualname`` row and parameters."""

    row: str
    parameters: frozenset
    #: The defaulted parameters, by position or keyword-only.
    knobs: tuple


class _FileIndex(NamedTuple):
    """What the censuses read of one file. Plain data only: a syntax tree
    kept for the session would slow every later garbage collection."""

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
    defs: list
    #: ``(module:Qualname, field)`` per dataclass init field.
    fields: list


#: The head of a ``"module:Qualname"`` string (benchmarks/perf/tracer.py's
#: boundary table names what it wraps this way).
_QUALNAME = re.compile(r"repro(?:\.\w+)*:(\w+)")


def _accessor(node) -> str:
    """``.setter`` / ``.deleter`` for a property's setter or deleter, which
    share the getter's ``__qualname__`` but not its ledger row."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter"):
            return "." + decorator.attr
    return ""


def _scoped(node, prefix=""):
    """``(def or class node, qualname)`` for every definition under
    ``node``, named the way ``__qualname__`` names it (a property's setter
    and deleter as the traffic ledger keys them)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + child.name + _accessor(child)
            yield child, qualname
            inner = "." if isinstance(child, ast.ClassDef) else ".<locals>."
            yield from _scoped(child, qualname + inner)
        else:
            yield from _scoped(child, prefix)


def _def(node, row: str) -> _Def:
    arguments = node.args
    bound = [argument.arg for argument in (*arguments.posonlyargs, *arguments.args)]
    knobs = bound[len(bound) - len(arguments.defaults):] if arguments.defaults else []
    knobs += [
        argument.arg for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    return _Def(row, frozenset(bound + [a.arg for a in arguments.kwonlyargs]), tuple(knobs))


def _dataclass_fields(node) -> Iterator[str]:
    """The init fields a ``@dataclass`` declares."""
    if not any(
        getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"
        or getattr(getattr(decorator, "func", None), "id", None) == "dataclass"
        for decorator in node.decorator_list
    ):
        return
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {keyword.arg: keyword.value for keyword in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
        yield statement.target.id


def _file_index(tree: ast.Module, module: str = "") -> _FileIndex:
    """Read one parsed file (``module`` is its dotted name) into a
    :class:`_FileIndex`."""
    used, defs, fields = set(), [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_QUALNAME.findall(node.value))
    for node, qualname in _scoped(tree):
        if isinstance(node, ast.ClassDef):
            fields.extend((f"{module}:{qualname}", name) for name in _dataclass_fields(node))
        else:
            defs.append(_def(node, f"{module}:{qualname}"))
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
    return _FileIndex(frozenset(used), frozenset(defined), imported_from, sequences, defs, fields)


def _module_name(path: Path, root: Path = SRC) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@functools.cache
def _index() -> dict:
    """File → its :class:`_FileIndex`, for ``benchmarks/``, ``examples/``
    and ``src/``: the one parse every census reads (once per session;
    callers only read it)."""
    return {
        path: _file_index(
            ast.parse(path.read_text()),
            _module_name(path) if path.is_relative_to(SRC) else "",
        )
        for root in ("benchmarks", "examples", "src")
        for path in (REPO / root).rglob("*.py")
    }


def _rows(entries, config_classes) -> dict:
    """The ledger rows a tree must have, per section: every ``def``; every
    defaulted parameter; every init field of a config class."""
    rows = {"functions": set(), "knobs": set(), "fields": set()}
    for entry in entries:
        for definition in entry.defs:
            rows["functions"].add(definition.row)
            head = definition.row.removesuffix(".__init__")
            rows["knobs"].update(f"{head}({knob})" for knob in definition.knobs)
        rows["fields"].update(
            f"{owner}({name})" for owner, name in entry.fields if owner in config_classes
        )
    return rows


def _ledger_hits(ledger: dict, rows: dict, kept: dict) -> dict:
    """Section → {row → what is wrong with it}: missing from the ledger,
    naming code that is gone, without traffic and not kept, or kept with
    traffic."""
    hits = {}
    for section, expected in rows.items():
        recorded = ledger[section]
        found = hits[section] = dict.fromkeys(expected - set(recorded), "no ledger row")
        found.update(dict.fromkeys(set(recorded) - expected, "a ledger row for code that is gone"))
        for row, traffic in recorded.items():
            if row in found:
                continue
            if not traffic and row not in kept:
                found[row] = (
                    "never ran" if section == "functions"
                    else "never given a value other than its default"
                )
            elif traffic and row in kept:
                found[row] = "kept without traffic, but it has traffic"
    return hits


@functools.cache
def _src_hits() -> dict:
    rows = _rows(
        (entry for path, entry in _index().items() if path.is_relative_to(SRC)),
        load_script("benchmarks/traffic.py").CONFIG_CLASSES,
    )
    return _ledger_hits(json.loads(LEDGER.read_text()), rows, NO_TRAFFIC_KEPT)


def _listed(section: str) -> str:
    return f"{section}:\n  " + "\n  ".join(
        f"{row}: {hit}" for row, hit in sorted(_src_hits()[section].items())
    )


def test_no_traffic_allowlist_gives_a_known_reason():
    assert set(NO_TRAFFIC_KEPT.values()) <= set(REASONS)
    unknown = set(NO_TRAFFIC_KEPT) - set().union(*json.loads(LEDGER.read_text()).values())
    assert not unknown, f"kept rows with no ledger row: {sorted(unknown)}"


def test_every_function_has_traffic():
    """Every ``def`` under ``src/repro`` has a ledger row, and a driver ran
    it — or it is kept above with its reason. What only tests run is
    deleted, with the tests that only checked it."""
    assert not _src_hits()["functions"], _listed("functions")


def test_every_knob_has_traffic():
    """Every defaulted parameter (and defaulted dataclass init field) has a
    ledger row, and a driver gave it a value other than its default — or
    it is kept above with its reason. A knob with one value in use is a
    constant where it is read."""
    assert not _src_hits()["knobs"], _listed("knobs")


def test_every_config_field_has_traffic():
    """Every init field of a config class has a ledger row, and a driver
    constructed the config with a value other than the field's default —
    or it is kept above with its reason."""
    assert not _src_hits()["fields"], _listed("fields")


def _merged(hits: dict) -> dict:
    return {row: hit for section in hits.values() for row, hit in section.items()}


_TOY = """\
import dataclasses


def never_called():
    return 0


def only_default(value, knob=1):
    return value + knob


def varied(value, knob=1):
    return value + knob


class Record:
    def get(self, key, default=None):
        return default


class Other:
    def get(self, key, default=None):
        return key


class Box:
    @property
    def size(self):
        return 1

    @size.setter
    def size(self, value):
        pass


@dataclasses.dataclass
class ToyConfig:
    left_alone: int = 1
    varied: int = 2


def drive():
    only_default(1)
    only_default(1, knob=1)
    varied(1, knob=2)
    Record().get("key")
    Other().get("key", default=5)
    ToyConfig(varied=3)
    return Box().size
"""


def test_traffic_census_catches_each_rule(tmp_path, monkeypatch):
    """Seeded cases on a toy package and driver: a function never called,
    a knob only ever passed its default, a config field left at its
    default, a same-named method of an unrelated class passing the knob
    (which must not count), a property setter only a test would call
    (its getter running must not count) and a ``def`` with no ledger
    row."""
    traffic = load_script("benchmarks/traffic.py")
    package = tmp_path / "seededtraffic"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "toy.py").write_text(_TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    config = ("seededtraffic.toy:ToyConfig",)
    recorder = traffic.Recorder("seededtraffic", tmp_path, config)
    recorder.start()
    try:
        import seededtraffic.toy

        seededtraffic.toy.drive()
        recorder.scan()
    finally:
        recorder.stop()
        for name in ("seededtraffic.toy", "seededtraffic"):
            sys.modules.pop(name, None)
    ledger = recorder.ledger()
    # A def added after the census has no row.
    source = _TOY + "\n\ndef added_later(knob=0):\n    return knob\n"
    rows = _rows([_file_index(ast.parse(source), "seededtraffic.toy")], config)
    hits = _merged(_ledger_hits(ledger, rows, {}))
    assert hits == {
        "seededtraffic.toy:never_called": "never ran",
        "seededtraffic.toy:only_default(knob)": "never given a value other than its default",
        "seededtraffic.toy:ToyConfig(left_alone)": "never given a value other than its default",
        "seededtraffic.toy:Record.get(default)": "never given a value other than its default",
        "seededtraffic.toy:Box.size.setter": "never ran",
        "seededtraffic.toy:added_later": "no ledger row",
        "seededtraffic.toy:added_later(knob)": "no ledger row",
    }
    assert ledger["functions"]["seededtraffic.toy:Other.get"]
    assert ledger["functions"]["seededtraffic.toy:Box.size"]
    assert ledger["fields"]["seededtraffic.toy:ToyConfig(varied)"]
    # Kept rows clear their hits; a kept row with traffic is a hit.
    kept = dict.fromkeys(hits, SAFETY)
    kept["seededtraffic.toy:varied(knob)"] = SAFETY
    assert _merged(_ledger_hits(ledger, rows, kept)) == {
        "seededtraffic.toy:added_later": "no ledger row",
        "seededtraffic.toy:added_later(knob)": "no ledger row",
        "seededtraffic.toy:varied(knob)": "kept without traffic, but it has traffic",
    }


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
    "decoding_failure_probability": (
        "Eq. (2), the oracle the rank model's sampled redundancy is tested against"
    ),
    "lemma1_min_r2": "Lemma 1 / Eq. (16), mapped in docs/paper-mapping.md",
    "rank_paths_by_sedt": "Theorem 2's path order, mapped in docs/paper-mapping.md",
}

#: Names this census deleted. The docs a reader follows must not send
#: them looking for one.
DELETED_NAMES = (
    "CHURN_KINDS",
    "CORRUPTION_KINDS",
    "CORRUPTION_SCENARIOS",
    "CRASH_KINDS",
    "EXHAUSTION_SCENARIOS",
    "FAULT_KINDS",
    "GilbertElliottLoss",
    "MOBILITY_SCENARIOS",
    "NoCorruption",
    "NoReordering",
    "RECOVERY_SCENARIOS",
    "RELATIVE_TOLERANCE",
    "SCENARIOS",
    "SUBFLOW1_CONFIG",
    "SUBFLOW_STATES",
    "TRACE_KINDS",
    "TRACE_SCENARIOS",
    "TimestampedSource",
    "expected_actual_delivered",
    "load_golden",
    "measure_bufferblock",
    "measure_corruption_goodput",
    "measure_trace_goodput",
    "seal_deferred",
)

#: Keywords the parameter and traffic censuses deleted: no ``src/``
#: function takes them any more, so no doc may show one as ``name=``.
DELETED_KEYWORDS = (
    "acked_per_window", "base_loss", "bottleneck_bps", "bottleneck_delay_s", "bottleneck_queue",
    "corrupt_good", "dup_ack_threshold", "edge_bps", "edge_delay_s", "fault_window",
    "fire_now", "flush_every", "fps", "ge_fallback", "gop_pattern", "heal_time",
    "hello_rtt_s", "high_watermark", "initial_cwnd", "initial_rto", "initial_s",
    "initial_ssthresh", "interpolate", "join_handshake_s", "loss_ewma_gain",
    "loss_forward", "loss_reverse", "low_watermark", "max_cwnd", "max_faults",
    "max_pending", "max_rto", "min_extra_s", "min_faults", "min_rto", "newly_acked",
    "redundancy_ratio", "repair", "total_frames", "wake_interval", "with_edge_routers",
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
        if name in hits:
            continue
        package = ".".join(init.parent.relative_to(SRC).parts)
        if not any(name in used for path, used in users.items() if path != home):
            hits[name] = f"in {package}.__all__ but used only in {home.relative_to(REPO)}"
        elif package != "repro" and not home.is_relative_to(init.parent):
            hits[name] = f"in {package}.__all__ but defined in {home.relative_to(REPO)}"
    return hits


def test_every_public_name_has_traffic():
    """Rule 1: a public top-level name in ``src/`` is referenced outside
    its definition, the package ``__init__``s and ``tests/``. Rule 2: an
    ``__all__`` name is used outside its defining module, by another
    ``src/`` module, a benchmark (``benchmarks/perf/tracer.py``'s
    ``"module:Qualname"`` strings count) or an example. Rule 3: a
    subpackage's ``__all__`` holds only names defined under it (the
    top-level ``repro`` re-exports by design). What breaks one is
    deleted or un-exported, or kept above with its reason."""
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
    own module uses breaks rule 2, a re-export of another package's name
    breaks rule 3."""
    index = dict(_index())
    package = SRC / "repro" / "seeded"
    for name, source in (
        ("dead.py", "def seeded_dead_name():\n    pass\n"),
        ("lonely.py", "def seeded_lonely_export():\n    pass\n\nVALUE = seeded_lonely_export()\n"),
        ("__init__.py", "from repro.seeded.lonely import VALUE, seeded_lonely_export\n"
                        "from repro.soak import run_soak\n"
                        "__all__ = ['VALUE', 'run_soak', 'seeded_lonely_export']\n"),
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
    assert hits["run_soak"] == "in repro.seeded.__all__ but defined in src/repro/soak.py"


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
    docs = ("docs/api.md", "docs/tuning.md", "docs/robustness.md",
            "docs/paper-mapping.md", "docs/observability.md", "DESIGN.md", "README.md")
    stale = [
        (doc, name)
        for doc in docs
        for name in DELETED_NAMES
        if re.search(rf"\b{name}\b", read(doc))
    ]
    assert not stale, f"deleted names still in the docs: {stale}"
    parameters = set().union(*(
        definition.parameters
        for path, entry in _index().items() if path.is_relative_to(SRC)
        for definition in entry.defs
    ))
    assert not parameters & set(DELETED_KEYWORDS), "a deleted keyword is a parameter again"
    stale = [
        (doc, f"{name}=")
        for doc in docs
        for name in DELETED_KEYWORDS
        if re.search(rf"\b{name}=", read(doc))
    ]
    assert not stale, f"deleted keywords still in the docs: {stale}"
