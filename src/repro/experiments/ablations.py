"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's evaluation: each ablation switches off or
re-parameterises one FMTCP (or baseline) design decision and reruns a
Table I scenario so the contribution of that piece is measurable.

* EAT allocation (Algorithm 1) vs the greedy strawman of Section IV-B.
* δ̂ sweep: redundancy/goodput/delay trade-off of the completeness margin.
* Block-size (k̂) sweep: Section III-B's coding-complexity constraint.
* Coupled (LIA) vs uncoupled congestion control (Section III-A's claim
  that the choice does not matter on disjoint paths).
* MPTCP scheduler (min-RTT vs round-robin) and rescue reinjection.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.config import FmtcpConfig
from repro.experiments.runner import (
    ExperimentResult,
    default_mptcp_config,
    run_transfer,
)
from repro.workloads.scenarios import (
    DEFAULT_BANDWIDTH_BPS,
    TABLE1_CASES,
    TestCase,
    table1_path_configs,
)


def _case(case_id: int) -> TestCase:
    for case in TABLE1_CASES:
        if case.case_id == case_id:
            return case
    raise KeyError(f"no Table I case {case_id}")


def ablate_allocation(
    case_id: int = 4,
    duration_s: float = 30.0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> Dict[str, ExperimentResult]:
    """EAT allocator vs greedy (Section IV-B) vs HMTP-like stop-and-wait
    (related work [21] — the mechanism the paper's prediction replaces)."""
    case = _case(case_id)
    results = {}
    for mode in ("eat", "greedy", "stopwait"):
        results[mode] = run_transfer(
            "fmtcp",
            table1_path_configs(case, bandwidth_bps),
            duration_s=duration_s,
            seed=seed,
            fmtcp_config=FmtcpConfig(allocation=mode),
        )
    return results


def ablate_delta_hat(
    deltas: Optional[List[float]] = None,
    case_id: int = 4,
    duration_s: float = 30.0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> Dict[float, ExperimentResult]:
    """Sweep the maximum acceptable decoding-failure probability δ̂."""
    case = _case(case_id)
    deltas = deltas or [1e-1, 1e-2, 1e-3, 1e-5]
    return {
        delta: run_transfer(
            "fmtcp",
            table1_path_configs(case, bandwidth_bps),
            duration_s=duration_s,
            seed=seed,
            fmtcp_config=FmtcpConfig(delta_hat=delta),
        )
        for delta in deltas
    }


def ablate_block_size(
    ks: Optional[List[int]] = None,
    case_id: int = 4,
    duration_s: float = 30.0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> Dict[int, ExperimentResult]:
    """Sweep symbols-per-block k̂ at a fixed 8 KiB block size."""
    case = _case(case_id)
    ks = ks or [64, 128, 256, 512]
    results = {}
    for k in ks:
        symbol_size = max(1, 8192 // k)
        config = FmtcpConfig(symbols_per_block=k, symbol_size=symbol_size)
        results[k] = run_transfer(
            "fmtcp",
            table1_path_configs(case, bandwidth_bps),
            duration_s=duration_s,
            seed=seed,
            fmtcp_config=config,
        )
    return results


def ablate_congestion_coupling(
    case_id: int = 4,
    duration_s: float = 30.0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> Dict[str, ExperimentResult]:
    """Uncoupled Reno vs LIA-coupled windows for FMTCP (disjoint paths)."""
    case = _case(case_id)
    return {
        kind: run_transfer(
            "fmtcp",
            table1_path_configs(case, bandwidth_bps),
            duration_s=duration_s,
            seed=seed,
            fmtcp_config=FmtcpConfig(congestion=kind),
        )
        for kind in ("reno", "lia")
    }


def ablate_buffer_size(
    pending_blocks: Optional[List[int]] = None,
    surge_loss_rate: float = 0.35,
    duration_s: float = 120.0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> Dict[int, Dict[str, ExperimentResult]]:
    """Receive-buffer sensitivity under the Fig. 4 loss surge.

    Receive-buffer head-of-line blocking — the paper's collapse mechanism
    for MPTCP — only binds when the buffer is scarce relative to the BDP.
    This ablation sweeps the (matched) buffer budget for both protocols.
    """
    from repro.experiments.figures import run_figure4

    pending_blocks = pending_blocks or [4, 6, 12, 24]
    results: Dict[int, Dict[str, ExperimentResult]] = {}
    for blocks in pending_blocks:
        results[blocks] = run_figure4(
            surge_loss_rate,
            duration_s=duration_s,
            surge_start_s=duration_s / 4,
            surge_end_s=3 * duration_s / 4,
            bandwidth_bps=bandwidth_bps,
            seed=seed,
            max_pending_blocks=blocks,
        )
    return results


def ablate_mptcp_scheduler(
    case_id: int = 4,
    duration_s: float = 30.0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> Dict[str, ExperimentResult]:
    """MPTCP baseline: min-RTT vs round-robin vs rescue reinjection."""
    case = _case(case_id)
    matched = default_mptcp_config(FmtcpConfig())  # scheduler: "minrtt"
    variants = {
        "minrtt": matched,
        "roundrobin": replace(matched, scheduler="roundrobin"),
        "minrtt+reinject": replace(matched, reinject_after_timeouts=1),
        "minrtt+orp": replace(matched, opportunistic_retransmission=True),
    }
    return {
        name: run_transfer(
            "mptcp",
            table1_path_configs(case, bandwidth_bps),
            duration_s=duration_s,
            seed=seed,
            mptcp_config=config,
        )
        for name, config in variants.items()
    }
