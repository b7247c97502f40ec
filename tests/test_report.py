"""EXPERIMENTS.md quotes the benchmark ledgers; the catalog declares them."""

import dataclasses
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.catalog import CATALOG, VERBS, Column, Experiment, Scale, surge_window
from repro.experiments.report import (
    MARKED_BLOCK,
    collect_results,
    fill_ledgers,
    quote,
    quoted_ledgers,
    stale_ledgers,
    write_report,
)

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"

DOCUMENT = """# Title

Prose before.

<!-- ledger: fig3_goodput -->
```text
a stale table
```
<!-- /ledger -->

Prose between.

<!-- ledger: fig5_block_delay -->
<!-- /ledger -->
"""


def test_collect_results_reads_txt_files(tmp_path):
    (tmp_path / "fig3_goodput.txt").write_text("rows\n")
    (tmp_path / "custom_thing.txt").write_text("data\n")
    (tmp_path / "ignored.json").write_text("{}")
    results = collect_results(tmp_path)
    assert set(results) == {"fig3_goodput", "custom_thing"}
    assert results["fig3_goodput"] == "rows"


def test_collect_results_missing_dir():
    assert collect_results(Path("/nonexistent/dir")) == {}


def test_write_report_fills_every_marked_block(tmp_path):
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    (results_dir / "fig3_goodput.txt").write_text("the rows\n")
    (results_dir / "fig5_block_delay.txt").write_text("delays\n")
    output = tmp_path / "OUT.md"
    output.write_text(DOCUMENT)
    assert write_report(results_dir, output, check=True) == [
        "fig3_goodput", "fig5_block_delay"
    ]
    assert output.read_text() == DOCUMENT  # --check writes nothing
    assert write_report(results_dir, output) == ["fig3_goodput", "fig5_block_delay"]
    text = output.read_text()
    assert quoted_ledgers(text) == {
        "fig3_goodput": quote("the rows"), "fig5_block_delay": quote("delays")
    }
    assert "a stale table" not in text
    assert "Prose before." in text and "Prose between." in text
    assert write_report(results_dir, output, check=True) == []


def test_write_report_without_results_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_report(results_dir=tmp_path / "empty", output_path=tmp_path / "OUT.md")


def test_a_block_naming_a_missing_ledger_is_refused():
    with pytest.raises(ValueError, match="fig5_block_delay"):
        fill_ledgers(DOCUMENT, {"fig3_goodput": "rows"})
    assert stale_ledgers(DOCUMENT, {"fig3_goodput": "a stale table"}) == ["fig5_block_delay"]


def test_experiments_md_quotes_every_catalog_ledger_verbatim():
    """Every catalog entry has exactly one block in EXPERIMENTS.md, and each
    block is its committed ledger byte for byte."""
    document = (REPO / "EXPERIMENTS.md").read_text()
    names = [match["name"] for match in MARKED_BLOCK.finditer(document)]
    assert sorted(names) == sorted(experiment.ledger for experiment in CATALOG)
    assert stale_ledgers(document, collect_results(RESULTS)) == []


def test_every_ledger_is_a_catalog_entry():
    """A number is published one way: each ledger under benchmarks/results
    is written by the catalog entry of that name, and by nothing else."""
    ledgers = {path.stem for path in RESULTS.glob("*.txt")}
    assert ledgers == {experiment.ledger for experiment in CATALOG}


def test_a_one_digit_drift_is_named():
    """The check above can fail: move one digit of one ledger."""
    document = (REPO / "EXPERIMENTS.md").read_text()
    results = collect_results(RESULTS)
    results["fig3_goodput"] = results["fig3_goodput"].replace("26.18", "26.17")
    assert stale_ledgers(document, results) == ["fig3_goodput"]


def test_report_check_exits_1_on_a_stale_block(tmp_path, capsys):
    output = tmp_path / "EXPERIMENTS.md"
    output.write_text((REPO / "EXPERIMENTS.md").read_text().replace("26.18", "26.17", 1))
    argv = ["report", "--results", str(RESULTS), "--output", str(output)]
    assert main(argv + ["--check"]) == 1
    assert "fig3_goodput" in capsys.readouterr().out
    assert main(argv) == 0
    assert main(argv + ["--check"]) == 0


def test_catalog_ledgers_are_unique():
    names = [experiment.ledger for experiment in CATALOG]
    assert len(names) == len(set(names))


def test_every_verb_is_registered_and_prints_an_entry():
    parser = build_parser()
    assert {experiment.verb for experiment in CATALOG} == set(VERBS)
    for verb in VERBS:
        assert parser.parse_args([verb]).fn.__name__ == "cmd_experiment"


@pytest.mark.parametrize("verb", ["table1", "analysis"])
def test_the_cli_prints_the_committed_ledger(verb, capsys):
    """At full scale a verb prints its ledger byte for byte; these two run
    in under a second, so tier-1 catches their drift (CI regenerates the
    rest at full scale)."""
    assert main([verb]) == 0
    out = capsys.readouterr().out
    for experiment in CATALOG:
        if experiment.verb == verb:
            assert (RESULTS / f"{experiment.ledger}.txt").read_text() in out
            assert "checks hold" in out and "not reproduced" not in out


def test_columns_align_heading_and_cells():
    experiment = Experiment(
        ledger="demo",
        verb="demo",
        title="demo",
        run=lambda scale: [{"name": "a", "value": 1.5}],
        columns=(
            Column("name", 6, lambda row: row["name"], align="<"),
            Column("v", 8, lambda row: row["value"], ".2f", "ms"),
        ),
        paper_columns=(Column("paper", 7, lambda row: 2),),
    )
    scale = experiment.scale()
    assert experiment.render(experiment.run(scale), scale) == [
        "name          v |   paper",
        "a        1.50ms |       2",
    ]
    assert experiment.to_csv(experiment.run(scale)).splitlines() == ["name,value", "a,1.5"]


def test_a_failed_shape_check_is_named():
    """Seeded defect: swap the protocols of Fig. 3's rows and the ramp
    checks must say so."""
    fig3 = next(experiment for experiment in CATALOG if experiment.ledger == "fig3_goodput")
    rows = [
        {"case": case, "fmtcp_goodput_mb": mptcp, "mptcp_goodput_mb": fmtcp,
         "ratio": mptcp / fmtcp}
        for case, fmtcp, mptcp in (
            (1, 29.0, 26.0), (2, 27.6, 23.2), (3, 26.5, 20.2), (4, 26.2, 18.4),
            (5, 30.2, 32.9), (6, 28.2, 27.6), (7, 26.5, 20.2), (8, 26.1, 27.2),
        )
    ]
    failed = fig3.failed_checks(rows, fig3.scale())
    assert "FMTCP above MPTCP on cases 2-4" in failed
    assert "the FMTCP/MPTCP ratio widens from case 1 to case 4" in failed


def test_scale_prefers_an_explicit_run_length(monkeypatch):
    fig4 = next(experiment for experiment in CATALOG if experiment.ledger == "fig4_surge_35")
    analysis = next(experiment for experiment in CATALOG if experiment.verb == "analysis")
    monkeypatch.delenv("REPRO_FAST", raising=False)
    assert fig4.scale() == Scale(300.0)
    assert fig4.scale(20.0, 8e6, 3) == Scale(20.0, 8e6, 3)
    assert analysis.scale(20.0).duration_s is None
    monkeypatch.setenv("REPRO_FAST", "1")
    assert fig4.scale().duration_s == 90.0
    assert dataclasses.replace(fig4, fast_duration_s=7.0).scale().duration_s == 7.0


def test_the_surge_window_is_the_papers_scaled_to_the_run():
    assert surge_window(300.0) == (50.0, 200.0)
    assert surge_window(90.0) == (15.0, 60.0)
