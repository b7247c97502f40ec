"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import catalog


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in (
        "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "analysis", "motivation",
        "fairness", "replicate", "heatmap", "sensitivity", "ablations", "robustness",
        "faults", "all",
    ):
        args = parser.parse_args(
            [command] if command != "fig4" else [command, "--surge", "0.2"]
        )
        assert callable(args.fn)


def test_parser_global_options():
    args = build_parser().parse_args(["--duration", "5", "--seed", "9", "fig3"])
    assert args.duration == 5.0
    assert args.seed == 9


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-3"])
def test_duration_must_be_finite_and_positive(value, capsys):
    """A NaN run length never returns on a backlogged source and a
    negative one prints an all-empty table: refused at the parser."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--duration", value, "fig7"])
    assert excinfo.value.code == 2
    assert f"--duration: run length must be finite and > 0 seconds, got {value!r}" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["replicate", "--case", "9"], "--case: Table I has cases 1-8, got '9'"),
        (["trace", "record", "--case", "0"], "--case: Table I has cases 1-8, got '0'"),
        (["replicate", "--case", "0"], "--case: Table I has cases 1-8, got '0'"),
        (["replicate", "--seeds", "0"], "--seeds: must be at least 1, got '0'"),
        (["replicate", "--seeds", "-2"], "--seeds: must be at least 1, got '-2'"),
        (["fairness", "--competitors", "0"], "--competitors: must be at least 1, got '0'"),
        (["fig4", "--surge", "1.5"], "--surge: loss rate must be in [0, 1), got '1.5'"),
        (["fig4", "--surge", "nan"], "--surge: loss rate must be in [0, 1), got 'nan'"),
        (
            ["trace", "timeline", "t.jsonl", "--limit", "-3"],
            "--limit: must be at least 1, got '-3'",
        ),
        (
            ["trace", "timeline", "t.jsonl", "--limit", "0"],
            "--limit: must be at least 1, got '0'",
        ),
        (
            ["trace", "timeline", "t.jsonl", "--start", "nan"],
            "--start: time must be finite seconds, got 'nan'",
        ),
        (
            ["trace", "timeline", "t.jsonl", "--end", "nan"],
            "--end: time must be finite seconds, got 'nan'",
        ),
        (
            ["trace", "record", "--sample-period", "0"],
            "--sample-period: must be finite and > 0, got '0'",
        ),
        (
            ["trace", "record", "--sample-period", "nan"],
            "--sample-period: must be finite and > 0, got 'nan'",
        ),
        (
            ["--bandwidth", "-1", "trace", "record"],
            "--bandwidth: must be finite and > 0, got '-1'",
        ),
        (
            ["--bandwidth", "nan", "trace", "record"],
            "--bandwidth: must be finite and > 0, got 'nan'",
        ),
        (
            ["trace", "critical-path", "t.jsonl", "--top", "0"],
            "--top: must be at least 1, got '0'",
        ),
        (
            ["trace", "critical-path", "t.jsonl", "--top", "-3"],
            "--top: must be at least 1, got '-3'",
        ),
    ],
)
def test_a_count_or_case_out_of_range_exits_2_naming_it(argv, message, capsys):
    """Each of these died in a StopIteration or ValueError traceback
    (a zero, negative or NaN ``--sample-period`` or ``--bandwidth`` only
    once the run had started), or was silently absorbed (``--limit -3``
    dropped the *first* three records, ``--limit 0`` printed all of them,
    a NaN window bound was ignored, ``--top 0`` showed one block)."""
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_csv_writes_one_file_per_table_of_a_multi_table_verb(tmp_path, capsys):
    """``--csv m.csv`` on a verb with several entries writes
    ``m.<ledger>.csv`` per entry and names each (it used to exit 2)."""
    target = tmp_path / "m.csv"
    assert main(["--duration", "2", "--csv", str(target), "analysis"]) == 0
    out = capsys.readouterr().out
    ledgers = [entry.ledger for entry in catalog.experiments_of("analysis")]
    assert len(ledgers) == 5
    for ledger in ledgers:
        written = tmp_path / f"m.{ledger}.csv"
        assert f"wrote {written}" in out
        assert written.read_text().count("\n") >= 2  # header + rows
    assert not target.exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"m.{ledger}.csv" for ledger in ledgers
    )


def test_table1_output(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert out.count("\n") >= 9  # header + 8 cases


def test_fig3_output(capsys):
    assert main(["--duration", "3", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "FMTCP" in out and "MPTCP" in out


def test_fig5_and_fig6_output(capsys):
    assert main(["--duration", "3", "fig5"]) == 0
    assert main(["--duration", "3", "fig6"]) == 0
    out = capsys.readouterr().out
    assert "delivery delay" in out
    assert "jitter" in out


def test_fig7_output(capsys):
    assert main(["--duration", "3", "fig7"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "max/mean" in out


def test_analysis_output(capsys):
    assert main(["analysis"]) == 0
    out = capsys.readouterr().out
    assert "Chernoff" in out
    assert "fountain" in out


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_the_retired_policy_verb_is_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["policy"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'policy'" in capsys.readouterr().err


def test_fairness_command(capsys):
    assert main(["--duration", "4", "fairness", "--competitors", "2"]) == 0
    out = capsys.readouterr().out
    assert "Jain" in out
    assert "fmtcp" in out and "tcp" in out


def test_replicate_command(capsys):
    assert main(["--duration", "3", "replicate", "--case", "4", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "±" in out
    assert "n=2" in out


def test_replicate_one_seed_prints_no_interval(capsys):
    """One seed has no spread: the summary is "mean (n=1)", not a
    zero-width "± 0.000" interval."""
    assert main(["--duration", "2", "replicate", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "(n=1)" in out
    assert "±" not in out


def test_replicate_starts_from_the_global_seed(capsys):
    assert main(["--seed", "7", "--duration", "2", "replicate", "--seeds", "2"]) == 0
    assert "seeds [7, 8]" in capsys.readouterr().out


def test_fig3_csv_export(tmp_path, capsys):
    target = tmp_path / "fig3.csv"
    assert main(["--duration", "3", "--csv", str(target), "fig3"]) == 0
    text = target.read_text()
    assert text.startswith("case,")
    assert len(text.strip().splitlines()) == 9  # header + 8 cases


def test_heatmap_command(capsys):
    assert main(["--duration", "3", "heatmap"]) == 0
    out = capsys.readouterr().out
    assert "loss" in out and "KB" in out


def test_sensitivity_command(capsys):
    assert main(["--duration", "3", "sensitivity"]) == 0
    out = capsys.readouterr().out
    assert "loss sweep" in out
    assert "ratio" in out


def test_fig4_plot_and_csv(tmp_path, capsys):
    target = tmp_path / "fig4.csv"
    assert main(
        ["--duration", "20", "--csv", str(target), "fig4", "--surge", "0.3"]
    ) == 0
    out = capsys.readouterr().out
    assert "┤" in out  # the ASCII series plot was rendered
    assert "series,time_s,value" in target.read_text()


def test_faults_list_command(capsys):
    assert main(["faults", "--scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "link_flap" in out and "path_death" in out
    assert "random:SEED" in out
    # Mobility (subflow churn) presets are listed alongside link faults.
    assert "Mobility presets" in out
    assert "wifi_to_lte_handover" in out and "flaky_path_churn" in out
    # And the corruption (data-integrity) registry gets its own group.
    assert "Corruption presets" in out
    assert "bit_rot" in out and "truncation_storm" in out


def test_faults_chaos_command(capsys):
    assert main(["faults", "--scenario", "path_death", "--protocol", "fmtcp"]) == 0
    out = capsys.readouterr().out
    assert "Scenario path_death" in out
    assert "fmtcp" in out
    assert "OK" in out
    assert "mptcp" not in out  # --protocol fmtcp runs one stack only


def test_faults_random_scenario_and_bench(capsys):
    assert main(
        ["--duration", "25", "faults", "--scenario", "random:3",
         "--protocol", "mptcp", "--bench"]
    ) == 0
    out = capsys.readouterr().out
    assert "Scenario random:3" in out
    assert "retain" in out and "recov(s)" in out


def test_faults_unknown_scenario_exits_2_with_preset_list(capsys):
    assert main(["faults", "--scenario", "nonsense"]) == 2
    captured = capsys.readouterr()
    assert "unknown scenario 'nonsense'" in captured.err
    # The user gets the full menu instead of a traceback.
    assert "path_death" in captured.out
    assert "wifi_to_lte_handover" in captured.out


def test_faults_churn_scenario_command(capsys):
    assert main(
        ["faults", "--scenario", "single_path_degradation", "--protocol", "mptcp"]
    ) == 0
    out = capsys.readouterr().out
    assert "Scenario single_path_degradation" in out
    assert "OK" in out
    assert "downs" in out  # churn reports show lifecycle counters


def test_faults_corruption_scenario_command(capsys):
    assert main(
        ["faults", "--scenario", "bit_rot", "--protocol", "fmtcp"]
    ) == 0
    out = capsys.readouterr().out
    assert "Scenario bit_rot" in out
    assert "OK" in out
    # Corruption reports show integrity-defense counters.
    assert "corrupted" in out and "discarded" in out and "quarantined" in out


def test_faults_unknown_scenario_menu_includes_corruption(capsys):
    assert main(["faults", "--scenario", "nonsense"]) == 2
    captured = capsys.readouterr()
    assert "bit_rot" in captured.out and "corruption_burst" in captured.out


def test_faults_list_includes_trace_presets(capsys):
    assert main(["faults", "--scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "Trace presets" in out
    assert "gprs_bursty" in out and "leo_handover" in out
    assert "trace:FILE.csv" in out


def test_faults_trace_scenario_command(capsys):
    assert main(
        ["faults", "--scenario", "dc_incast", "--protocol", "fmtcp"]
    ) == 0
    out = capsys.readouterr().out
    assert "Scenario dc_incast" in out
    assert "OK" in out
    # Trace reports show replay + flow-control counters.
    assert "trace ticks" in out and "peak occupancy" in out


def test_faults_trace_file_scenario(tmp_path, capsys):
    from repro.traces import gprs_trace

    path = tmp_path / "drive.csv"
    path.write_text(gprs_trace(seed=3).to_csv())
    assert main(["faults", "--scenario", f"trace:{path}", "--protocol",
                 "fmtcp"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "trace ticks" in out


def test_faults_malformed_trace_csv_exits_2_with_menu(tmp_path, capsys):
    path = tmp_path / "broken.csv"
    path.write_text("time_s,bandwidth_bps\n0.0,100\n")
    assert main(["faults", "--scenario", f"trace:{path}"]) == 2
    captured = capsys.readouterr()
    assert "expected header" in captured.err
    assert "gprs_bursty" in captured.out  # menu convention


def test_faults_unreadable_trace_csv_exits_2(tmp_path, capsys):
    assert main(["faults", "--scenario", f"trace:{tmp_path / 'nope.csv'}"]) == 2
    captured = capsys.readouterr()
    assert "cannot read trace file" in captured.err
    assert "Trace presets" in captured.out


def test_faults_exhaustion_preset_command(capsys):
    assert main(
        ["faults", "--scenario", "tiny_receive_buffer", "--protocol", "fmtcp"]
    ) == 0
    out = capsys.readouterr().out
    assert "Exhaustion scenario tiny_receive_buffer: 32 KiB receive budget" in out
    assert "30s run" in out
    assert "OK — completed at" in out and "peak occupancy" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["faults", "--scenario", "tiny_receive_buffer", "--bench"], "--bench"),
        (["--duration", "5", "faults", "--scenario", "tiny_receive_buffer"], "--duration"),
    ],
)
def test_faults_rejects_a_flag_the_routed_harness_cannot_honour(argv, flag, capsys):
    """Exhaustion presets fix their own run length and have no open-ended
    probe; the flags used to be silently ignored (a 30 s run, no table)."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "exhaustion presets" in captured.err
    assert "Exhaustion scenario" not in captured.out  # nothing ran


def test_faults_listing_prints_what_the_hand_written_listing_printed(capsys):
    """tests/fixtures/faults_list.txt is the listing of commit 1c0b514,
    when every group had its own copy of the loop."""
    from pathlib import Path

    assert main(["faults", "--scenario", "list"]) == 0
    expected = Path(__file__).parent / "fixtures" / "faults_list.txt"
    assert capsys.readouterr().out == expected.read_text()


def test_faults_recovery_bench_table(capsys):
    assert main(
        ["faults", "--scenario", "receiver_crash", "--protocol", "fmtcp", "--bench"]
    ) == 0
    out = capsys.readouterr().out
    assert "1 crashes / 1 resumes" in out
    assert "Recovery response (crash run vs clean baseline):" in out
    assert "ckpt(B)" in out


def test_faults_recovery_bench_runs_for_the_requested_duration(monkeypatch, capsys):
    """``--duration`` sizes the bench table's runs as well as the soak's
    (the table used to run 40 s whatever was asked)."""
    import repro.recovery

    durations = []

    def measure_recovery(protocol, scenario, seed=1, duration_s=40.0):
        durations.append(duration_s)
        return {
            "protocol": protocol, "baseline_completion_s": 1.0,
            "crashed_completion_s": 2.0, "goodput_retention": 0.5,
            "max_outage_s": 1.0, "checkpoint_bytes": 64,
        }

    monkeypatch.setattr(repro.recovery, "measure_recovery", measure_recovery)
    assert main(
        ["--duration", "25", "faults", "--scenario", "receiver_crash",
         "--protocol", "fmtcp", "--bench"]
    ) == 0
    assert "25s run" in capsys.readouterr().out
    assert durations == [25.0]
