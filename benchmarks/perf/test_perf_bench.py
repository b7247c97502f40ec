"""Self-test of the benchmark, on shortened ("quick") transfers.

    PYTHONPATH=src python3 -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "1", *args],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_is_within_the_contract_limits():
    spec = run.SPEC
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(spec["workloads"]) <= 8
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert "quick" not in json.dumps(spec)
    # The spec and the code name the same workloads, for the same reasons.
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_in_the_spec_is_reported_and_vice_versa(workload):
    untraced = run_cli("--workload", workload, "--trace", "0")
    assert untraced.returncode == 0, untraced.stdout
    result = result_line(untraced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in run.END_TO_END:
        assert re.search(rf"^  {re.escape(name)} ", untraced.stdout, re.M)

    traced = run_cli("--workload", workload, "--trace", "1")
    assert traced.returncode == 0, traced.stdout
    result = result_line(traced)
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == set(run.PER_LAYER)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["trace.unattributed_share"] < 0.05
    spec = workloads.WORKLOADS[workload]
    off_layers = ["core", "fountain"] if spec.protocol == "mptcp" else ["mptcp"]
    for name, value in values.items():
        layer, __, what = name.partition(".")
        if layer in off_layers or (layer == "telemetry" and what == "calls"
                                   and not spec.instrumented):
            assert value == 0, name
    assert (values["net.link_mutations"] > 0) == spec.gprs
    assert (values["telemetry.calls"] > 0) == spec.instrumented


def test_a_corrupted_sink_is_one_failed_op_and_a_nonzero_exit():
    done = run_cli("--workload", "fmtcp_realcodec", "--trace", "0", "--corrupt-rep", "3")
    assert done.returncode != 0
    result = result_line(done)
    assert result["failed"] == 1 and not result["correct"]
    assert "FAILED seed 1003: sink ids were not delivered in order" in done.stdout


def test_simulated_results_repeat_exactly_and_follow_the_seed():
    w = workloads.WORKLOADS["mptcp_gprs"]
    first = workloads.run_rep(w, 7, quick=True)
    assert workloads.run_rep(w, 7, quick=True) == first
    assert workloads.run_rep(w, 8, quick=True)["digest"] != first["digest"]


def test_tracer_restores_every_patched_attribute_and_observes_only():
    def table_targets():
        entries = dict.fromkeys((*tracer.BOUNDARIES, *tracer.CALLBACK_BOUNDARIES))
        return {entry: tracer._resolve(entry)[1] for entry in entries}

    w = workloads.WORKLOADS["fmtcp_bulk"]
    before = table_targets()
    plain = workloads.run_rep(w, 1, quick=True)
    tr = tracer.LayerTracer()
    with tr:
        assert all(table_targets()[e] is not before[e] for e in before)
        traced = workloads.run_rep(w, 1, quick=True)
    after = table_targets()
    assert all(after[entry] is before[entry] for entry in before)
    assert traced["digest"] == plain["digest"]
    assert tr.calls("repro.sim.timers:Timer.start") > 0  # via `restart = start`
    assert tr.span_log and len(tr.span_log) <= tracer.SPAN_LOG_LIMIT


def test_a_boundary_that_no_longer_resolves_is_a_hard_error(monkeypatch):
    gone = "repro.core.sender:FmtcpSender.renamed_away"
    monkeypatch.setitem(tracer.BOUNDARIES, gone, "core")
    tr = tracer.LayerTracer()
    with pytest.raises(tracer.BoundaryError, match="renamed_away"):
        tr.install()
    assert not tr._patched  # the partial install was rolled back


def test_compare_labels_each_metric(tmp_path):
    out = tmp_path / "a.json"
    assert run_cli("--workload", "mptcp_bulk", "--json", str(out)).returncode == 0
    assert run.main(["compare", str(out), str(out)]) == 0
    slower = json.loads(out.read_text())
    slower["workloads"]["mptcp_bulk"]["end_to_end"]["metrics"]["wall_s"] *= 1.5
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    assert run.main(["compare", str(out), str(worse)]) == 1
