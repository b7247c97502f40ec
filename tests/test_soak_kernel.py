"""The soak kernel's structure: routing is enforced for every harness,
the six harnesses are declarations (and the docs matrix is those
declarations), the packages import in any order, and each shared thing
exists once."""

import ast
import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import soak
from repro.faults import FaultScenario, presets
from repro.faults.scenario import FaultEvent
from repro.faults.chaos import CHAOS
from repro.faults.churn import CHURN
from repro.faults.corruption import CORRUPTION
from repro.recovery.harness import RECOVERY
from repro.robustness.exhaustion import EXHAUSTION
from repro.soak import run_soak
from repro.traces.harness import TRACES

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
HARNESSES = (CHAOS, CHURN, CORRUPTION, EXHAUSTION, RECOVERY, TRACES)
ENTRY_POINTS = {harness.name: harness for harness in HARNESSES}

DOWN = [FaultEvent(8.0, "path_down", 1)]
FLAP = [FaultEvent(8.0, "down", 1), FaultEvent(9.0, "up", 1)]
CORRUPT = [FaultEvent(8.0, "corrupt", 1, 0.05), FaultEvent(10.0, "corrupt", 1, None)]
REPLAY = [FaultEvent(2.0, "trace", 1, "gprs:1"), FaultEvent(10.0, "trace", 1, None)]
CRASH = [FaultEvent(8.0, "crash_receiver", 0), FaultEvent(10.0, "restart", 0)]
# (events, the one harness that may run them; None = no harness can)
MIXES = {
    "churn+corrupt": (DOWN + CORRUPT, None),
    "churn+trace": (DOWN + REPLAY, None),
    "link+churn": (FLAP + DOWN, "churn"),
    "link+corrupt": (FLAP + CORRUPT, "corruption"),
    "corrupt+trace": (CORRUPT + REPLAY, "traces"),
    "churn+crash": (DOWN + CRASH, "recovery"),
    "trace+corrupt+crash": (REPLAY + CORRUPT + CRASH, "recovery"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("mix", sorted(MIXES))
def test_entry_points_accept_exactly_what_route_sends_them(mix, entry):
    """The churn harness on path_down + corrupt used to return ok=True
    having verified no bytes; now every harness rejects what is not its
    own."""
    events, target = MIXES[mix]
    scenario = FaultScenario(mix, events)
    if entry == target:
        assert scenario.route() == target
        report = run_soak(ENTRY_POINTS[entry], "fmtcp", scenario, duration_s=12.0)
        assert report.harness == target
    else:
        with pytest.raises(ValueError, match=re.escape(repr(mix))):
            run_soak(ENTRY_POINTS[entry], "fmtcp", scenario)
    if target is None:
        with pytest.raises(ValueError, match="no harness checks both"):
            scenario.route()


@pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - {"exhaustion"}))
def test_exhaustion_presets_run_only_through_run_exhaustion(entry):
    scenario = presets("exhaustion")["tiny_receive_buffer"]()
    assert scenario.route() == "exhaustion"
    with pytest.raises(ValueError, match="routes to the exhaustion harness"):
        scenario.route(entry)
    with pytest.raises(ValueError, match="routes to the exhaustion harness"):
        run_soak(ENTRY_POINTS[entry], "fmtcp", scenario)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_protocol_rejected_everywhere(entry):
    scenario = (
        presets("exhaustion")["tiny_receive_buffer"]()
        if entry == "exhaustion"
        else FaultScenario("x", {"churn": DOWN, "corruption": CORRUPT,
                                 "recovery": CRASH, "traces": REPLAY}.get(entry, FLAP))
    )
    with pytest.raises(ValueError, match="protocol"):
        run_soak(ENTRY_POINTS[entry], "sctp", scenario)


def test_recovery_takes_an_empty_timeline_as_its_baseline_and_nobody_else():
    empty = FaultScenario("clean", [])
    assert empty.route() == "chaos"
    assert empty.route("recovery") == "chaos"
    for entry in ("churn", "corruption", "traces", "exhaustion"):
        with pytest.raises(ValueError):
            empty.route(entry)


# ----------------------------------------------------------------------
# Harnesses are data, and the documentation is that data.
# ----------------------------------------------------------------------
def _matrix_rows():
    """The harness x step x invariant matrix, as docs/robustness.md prints it."""
    for harness in HARNESSES:
        yield (
            f"| `{harness.name}` | `{harness.source.__name__}` | "
            + " → ".join(f"`{step.__name__}`" for step in harness.steps)
            + " | "
            + ", ".join(f"`{inv.__name__}`" for inv in harness.invariants)
            + " |"
        )


def test_docs_matrix_is_the_harness_declarations():
    text = (REPO / "docs" / "robustness.md").read_text()
    for row in _matrix_rows():
        assert row in text, f"docs/robustness.md is missing or has drifted from:\n{row}"
    documented = re.findall(r"^\| `(\w+)` \| `\w+` \| `", text, flags=re.MULTILINE)
    assert documented == [harness.name for harness in HARNESSES]


def test_every_harness_checks_at_least_what_it_checked_before():
    """The floor from ISSUE 15: no safety check dropped by the refactor."""
    floor = {
        "chaos": {"exactly_once_in_order", "no_wedged_timers", "completes_after_heal"},
        "churn": {"exactly_once_in_order", "no_wedged_timers", "survivors_complete",
                  "bounded_readd"},
        "corruption": {"exactly_once_in_order", "no_wedged_timers", "byte_identical",
                       "completes_after_heal", "defense_fired"},
        "exhaustion": {"exactly_once_in_order", "no_wedged_timers", "bounded_memory",
                       "completes_or_fails_cleanly", "outcome_as_promised"},
        "recovery": {"exactly_once_in_order", "no_wedged_timers_on_live_epoch",
                     "byte_identical", "completes_or_fails_cleanly",
                     "outcome_as_promised", "bounded_recovery", "epoch_accounting"},
        "traces": {"exactly_once_in_order", "no_wedged_timers", "byte_identical",
                   "completes_after_heal", "bounded_memory", "trace_played",
                   "completes_or_fails_cleanly", "no_false_clean_fail"},
    }
    for harness in HARNESSES:
        declared = {invariant.__name__ for invariant in harness.invariants}
        assert floor[harness.name] <= declared, harness.name
    # completes_after_heal needs the heal probe to have run.
    for harness in (CHAOS, CORRUPTION, TRACES):
        assert soak.heal_probe in harness.steps


# ----------------------------------------------------------------------
# Import order and one-way-to-do-it structure.
# ----------------------------------------------------------------------
def _fresh_interpreter(code: str) -> None:
    subprocess.run(
        [sys.executable, "-c", code], check=True, cwd="/", timeout=60,
        env={"PYTHONPATH": str(REPO / "src")},
    )


@pytest.mark.parametrize(
    "first",
    ["repro.faults", "repro.recovery", "repro.traces", "repro.robustness", "repro.soak",
     "repro.faults.scenario", "repro.recovery.harness", "repro.traces.harness",
     "repro.robustness.exhaustion"],
)
def test_packages_import_in_any_order(first):
    code = (
        f"import {first}\n"
        "import repro.faults, repro.recovery, repro.traces, repro.robustness, repro.soak\n"
        "from repro.soak import run_soak\n"
        "from repro.traces.harness import TRACES\n"
        "from repro.recovery import measure_recovery\n"
        "from repro.recovery.harness import RECOVERY\n"
        "from repro.robustness.exhaustion import EXHAUSTION\n"
    )
    _fresh_interpreter(code)


def test_faults_does_not_import_recovery():
    """The recovery harness builds on ``repro.faults``, never the other
    way round (the parametrised case above loads them in both orders)."""
    _fresh_interpreter(
        "import sys, repro.faults\n"
        "loaded = [name for name in sys.modules if name.startswith('repro.recovery')]\n"
        "assert not loaded, loaded\n"
        "assert not hasattr(repro.faults, 'measure_recovery')\n"
    )


def _count(needle: str) -> int:
    return sum(
        path.read_text().count(needle)
        for path in SRC.rglob("*.py")
        if "telemetry" not in path.parts
    )


#: Each transport constructor and the module that defines it.
TRANSPORT_CONSTRUCTORS = {
    "FmtcpConnection": "core/connection.py",
    "MptcpConnection": "mptcp/connection.py",
    "conventional_tcp": "mptcp/connection.py",
    "FixedRateConnection": "fixedrate/connection.py",
}


def _calls(path: Path):
    """``(top-level function or None, callee name)`` for every call in ``path``."""
    for node in ast.parse(path.read_text()).body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                yield owner, getattr(call.func, "id", getattr(call.func, "attr", None))


def test_each_shared_thing_exists_once():
    assert _count("FlightRecorder(") == 1
    harness_modules = ("soak.py", "faults/chaos.py", "faults/churn.py",
                       "faults/corruption.py", "robustness/exhaustion.py",
                       "recovery/harness.py", "traces/harness.py")
    assert sum(
        (SRC / module).read_text().count("build_two_path_network(")
        for module in harness_modules
    ) == 0
    # One builder for every transfer: outside its own module a transport
    # is constructed only by runner.build_connection.
    sites = set()
    for path in SRC.rglob("*.py"):
        module = path.relative_to(SRC).as_posix()
        sites.update(
            (module, owner) for owner, callee in _calls(path)
            if TRANSPORT_CONSTRUCTORS.get(callee, module) != module
        )
    assert sites == {
        ("experiments/runner.py", "build_connection")
    }
    assert not any(
        isinstance(node, ast.FunctionDef) and node.name.startswith("build_")
        for node in ast.parse((SRC / "soak.py").read_text()).body
    )
    for message in ("delivery not exactly-once", "event queue did not drain", "wedged timer"):
        assert _count(message) == 1, message
    assert _count("class SoakReport") == 1
    assert len(re.findall(r"class \w+Report\b", "".join(
        path.read_text() for path in SRC.rglob("*.py")
        if path.parent.name in ("faults", "recovery", "traces", "robustness")
    ))) == 0
    kernel = (SRC / "soak.py").read_text()
    assert not re.search(r"harness(\.name)? (==|in) ", kernel)
    # One way in: run_soak. A harness is a declaration, not a wrapper, and
    # what a step or invariant needs is its own constant, not a pass-through.
    for module in harness_modules[1:]:
        tree = ast.parse((SRC / module).read_text())
        wrappers = [
            node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("run_")
        ]
        assert not wrappers, (module, wrappers)
    assert "options" not in {field.name for field in dataclasses.fields(soak.Run)}
    scenario = (SRC / "faults" / "scenario.py").read_text()
    assert len(re.findall(r"\.kind (==|in) ", scenario)) <= 8
