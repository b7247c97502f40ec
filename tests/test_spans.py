"""Causal span layer: stage math, causal rollups, conservation, and the
zero-cost-when-off guarantee."""

import pytest

from repro.telemetry import (
    FMTCP_STAGES,
    MPTCP_STAGES,
    SPAN_KINDS,
    SpanCollector,
    collect_spans,
    critical_path_report,
    spans_report,
)


def _fm_records():
    """One clean FMTCP block, one with a loss episode, one left open."""
    return [
        {"t": 0.0, "kind": "span.block_open", "block_id": 0, "k": 4, "bytes": 128},
        {"t": 0.1, "kind": "span.symbols_tx", "block_id": 0, "subflow": 0, "n": 3,
         "first": True},
        {"t": 0.1, "kind": "span.symbols_tx", "block_id": 0, "subflow": 1, "n": 2,
         "first": False},
        {"t": 0.3, "kind": "span.symbols_rx", "block_id": 0, "subflow": 0, "n": 3},
        {"t": 0.35, "kind": "span.symbols_rx", "block_id": 0, "subflow": 1, "n": 2},
        {"t": 0.35, "kind": "fmtcp.block_decoded", "block_id": 0, "k": 4,
         "received": 5, "overhead": 1, "wait": 0.05},
        {"t": 0.5, "kind": "conn.delivered", "block_id": 0, "bytes": 128},
        # Block 1: a loss at 1.2 repaired by fresh symbols at 1.5.
        {"t": 1.0, "kind": "span.block_open", "block_id": 1, "k": 4, "bytes": 128},
        {"t": 1.1, "kind": "span.symbols_tx", "block_id": 1, "subflow": 0, "n": 4,
         "first": True},
        {"t": 1.15, "kind": "span.symbols_rx", "block_id": 1, "subflow": 0, "n": 2},
        {"t": 1.2, "kind": "span.symbols_lost", "block_id": 1, "subflow": 0, "n": 2,
         "reason": "timeout"},
        {"t": 1.4, "kind": "span.symbols_tx", "block_id": 1, "subflow": 1, "n": 2,
         "first": False},
        {"t": 1.5, "kind": "span.symbols_rx", "block_id": 1, "subflow": 1, "n": 2},
        {"t": 1.5, "kind": "fmtcp.block_decoded", "block_id": 1, "k": 4,
         "received": 4, "overhead": 0, "wait": 0.35},
        {"t": 1.6, "kind": "conn.delivered", "block_id": 1, "bytes": 128},
        # Block 2 never delivers: stays open.
        {"t": 2.0, "kind": "span.block_open", "block_id": 2, "k": 4, "bytes": 128},
    ]


def _mp_records():
    """Two MPTCP blocks of two chunks each; dsn 1 is lost once."""
    return [
        {"t": 0.0, "kind": "span.chunk_tx", "dsn": 0, "block": 0, "subflow": 0,
         "size": 1400},
        {"t": 0.05, "kind": "span.chunk_tx", "dsn": 1, "block": 0, "subflow": 1,
         "size": 1400},
        {"t": 0.2, "kind": "span.chunk_rx", "dsn": 0, "subflow": 0},
        {"t": 0.25, "kind": "conn.delivered", "dsn": 0, "bytes": 1400},
        {"t": 0.3, "kind": "span.chunk_lost", "dsn": 1, "subflow": 1,
         "reason": "timeout"},
        {"t": 0.35, "kind": "span.chunk_retx", "dsn": 1, "subflow": 1},
        {"t": 0.5, "kind": "span.chunk_rx", "dsn": 1, "subflow": 1},
        {"t": 0.55, "kind": "conn.delivered", "dsn": 1, "bytes": 1400},
        # Block 1 opens (closing block 0) but never completes.
        {"t": 1.0, "kind": "span.chunk_tx", "dsn": 2, "block": 1, "subflow": 0,
         "size": 1400},
    ]


def test_fmtcp_stage_decomposition_and_conservation():
    collector = collect_spans(_fm_records())
    assert len(collector.finished) == 2
    assert collector.incomplete == 0
    assert len(collector.open_spans) == 1

    clean = next(s for s in collector.finished if s.block_id == 0)
    stages = clean.stage_durations()
    assert tuple(stages) == FMTCP_STAGES
    assert stages["sched_wait"] == pytest.approx(0.1)
    assert stages["transmit"] == pytest.approx(0.2)
    assert stages["decode_wait"] == pytest.approx(0.05)
    assert stages["reorder_wait"] == pytest.approx(0.15)
    assert clean.total_delay == pytest.approx(0.5)
    assert clean.conservation_error < 1e-12
    # Parent/child rollup: per-subflow symbol legs.
    assert clean.legs[0] == {"tx": 3, "rx": 3, "lost": 0}
    assert clean.legs[1] == {"tx": 2, "rx": 2, "lost": 0}


def test_fmtcp_loss_recovery_annotation():
    collector = collect_spans(_fm_records())
    lossy = next(s for s in collector.finished if s.block_id == 1)
    assert lossy.annotations["loss_episodes"] == 1
    # Lost at 1.2, repaired by the next symbol arrival at 1.5.
    assert lossy.annotations["loss_recovery_s"] == pytest.approx(0.3)
    assert lossy.legs[0]["lost"] == 2
    # The overlay is NOT part of the additive sum.
    assert lossy.conservation_error < 1e-12


def test_mptcp_stage_decomposition_and_conservation():
    collector = collect_spans(_mp_records())
    assert len(collector.finished) == 1
    span = collector.finished[0]
    assert span.protocol == "mptcp"
    stages = span.stage_durations()
    assert tuple(stages) == MPTCP_STAGES
    # open == first chunk pulled at 0.0; first arrival 0.2; last arrival
    # 0.5; last delivery 0.55.
    assert stages["transmit"] == pytest.approx(0.2)
    assert stages["fill_wait"] == pytest.approx(0.3)
    assert stages["reorder_wait"] == pytest.approx(0.05)
    assert span.conservation_error < 1e-12
    # dsn 1: lost at 0.3, recovered at 0.5.
    assert span.annotations["loss_recovery_s"] == pytest.approx(0.2)
    assert span.annotations["retransmits"] == 1
    assert span.legs[1] == {"tx": 2, "rx": 1, "lost": 1}
    # The final block never closes (no later block opened after it).
    assert len(collector.open_spans) == 1


def test_events_for_unknown_blocks_are_ignored():
    collector = collect_spans(
        [
            {"t": 0.5, "kind": "span.symbols_rx", "block_id": 99, "subflow": 0,
             "n": 1},
            {"t": 0.6, "kind": "conn.delivered", "block_id": 99, "bytes": 10},
            {"t": 0.7, "kind": "span.chunk_rx", "dsn": 42, "subflow": 0},
            {"t": 0.8, "kind": "conn.delivered", "dsn": 42, "bytes": 10},
        ]
    )
    assert collector.finished == []
    assert collector.open_spans == []
    assert collector.incomplete == 0


def test_live_attach_matches_offline_feed():
    from repro.sim.trace import TraceBus

    trace = TraceBus()
    live = SpanCollector()
    live.attach(trace)
    for record in _fm_records():
        fields = {k: v for k, v in record.items() if k not in ("t", "kind")}
        trace.emit(record["t"], record["kind"], **fields)
    live.detach()
    offline = collect_spans(_fm_records())
    assert len(live.finished) == len(offline.finished)
    for a, b in zip(live.finished, offline.finished):
        assert a.stage_durations() == b.stage_durations()
    # Detach really unsubscribes: further emits change nothing.
    for kind in SPAN_KINDS:
        assert not trace.has_subscribers(kind)


def test_summary_and_reports():
    records = _fm_records() + _mp_records()
    summary = collect_spans(records).summary()
    assert summary["finished"] == 3
    assert summary["max_conservation_error_s"] < 1e-12
    assert set(summary["stages"]) == {"fmtcp", "mptcp"}
    assert tuple(summary["stages"]["fmtcp"]) == FMTCP_STAGES + ("total",)

    report = "\n".join(spans_report(records))
    for stage in FMTCP_STAGES + MPTCP_STAGES:
        assert stage in report
    assert "conservation error" in report
    assert "loss recovery" in report

    critical = "\n".join(critical_path_report(records, top=2))
    assert "critical stage" in critical
    assert "legs:" in critical

    with pytest.raises(ValueError, match="top must be >= 1, got 0"):
        critical_path_report(records, top=0)

    # Empty traces degrade to a hint, not a crash.
    assert "no finished block spans" in spans_report([])[0]
    assert "no finished block spans" in critical_path_report([])[0]


def test_span_enabled_run_is_behaviorally_identical():
    """TelemetryConfig(spans=True) must not move a single byte: the span
    emits draw no RNG and mutate nothing."""
    from repro.experiments.runner import run_transfer
    from repro.telemetry import TelemetryConfig
    from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs

    case = next(c for c in TABLE1_CASES if c.case_id == 2)
    for protocol in ("fmtcp", "mptcp"):
        plain = run_transfer(
            protocol, table1_path_configs(case), duration_s=2.0, seed=3
        )
        spanned = run_transfer(
            protocol,
            table1_path_configs(case),
            duration_s=2.0,
            seed=3,
            telemetry=TelemetryConfig(spans=True),
        )
        assert spanned.summary == plain.summary
        report = spanned.telemetry.spans
        assert report is not None and report["finished"] > 0
        assert report["max_conservation_error_s"] < 1e-9
