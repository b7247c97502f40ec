"""Per-figure experiment runners (the paper's Section V).

Figures 3, 5 and 6 all read off the same eight Table I runs, so
:func:`run_table1_suite` performs (and memoises) the sweep once per
parameter set and the three figure runners extract their own columns.
Durations default to shorter runs than the paper's for wall-clock sanity;
pass ``duration_s=300`` for paper-scale runs. Absolute goodput scales
with the configured bandwidth — shape, not magnitude, is the
reproduction target (DESIGN.md §5).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentResult, run_transfer
from repro.metrics.stats import mean
from repro.net.packet import Packet
from repro.net.topology import build_two_path_network
from repro.sim.rng import RngStreams
from repro.workloads.scenarios import (
    DEFAULT_BANDWIDTH_BPS,
    TABLE1_CASES,
    TestCase,
    surge_path_configs,
    table1_path_configs,
)


def default_duration_s() -> float:
    """Default run length; honours REPRO_FAST=1 for quick smoke runs."""
    if os.environ.get("REPRO_FAST"):
        return 20.0
    return 60.0


@dataclass(frozen=True)
class SuiteKey:
    duration_s: float
    bandwidth_bps: float
    seed: int
    case_ids: Tuple[int, ...]


@dataclass
class Table1Suite:
    """Results of both protocols across the Table I sweep."""

    duration_s: float
    bandwidth_bps: float
    seed: int
    cases: List[TestCase]
    results: Dict[str, List[ExperimentResult]] = field(default_factory=dict)

    def case_result(self, protocol: str, case_id: int) -> ExperimentResult:
        for case, result in zip(self.cases, self.results[protocol]):
            if case.case_id == case_id:
                return result
        raise KeyError(f"no result for {protocol} case {case_id}")


_SUITE_CACHE: Dict[SuiteKey, Table1Suite] = {}


def run_table1_suite(
    duration_s: Optional[float] = None,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
    cases: Sequence[TestCase] = TABLE1_CASES,
    use_cache: bool = True,
) -> Table1Suite:
    """Run FMTCP and MPTCP across the Table I cases (memoised)."""
    duration_s = duration_s if duration_s is not None else default_duration_s()
    key = SuiteKey(
        duration_s=duration_s,
        bandwidth_bps=bandwidth_bps,
        seed=seed,
        case_ids=tuple(case.case_id for case in cases),
    )
    if use_cache and key in _SUITE_CACHE:
        return _SUITE_CACHE[key]
    suite = Table1Suite(
        duration_s=duration_s,
        bandwidth_bps=bandwidth_bps,
        seed=seed,
        cases=list(cases),
    )
    # The sweep is embarrassingly parallel; REPRO_WORKERS > 1 fans the 16
    # runs over a process pool with bit-identical results.
    from repro.experiments.parallel import TransferJob, run_jobs

    protocols = ("fmtcp", "mptcp")
    jobs = [
        TransferJob(
            protocol=protocol,
            path_configs=table1_path_configs(case, bandwidth_bps),
            duration_s=duration_s,
            seed=seed,
        )
        for protocol in protocols
        for case in cases
    ]
    results = run_jobs(jobs)
    for index, protocol in enumerate(protocols):
        suite.results[protocol] = results[index * len(cases) : (index + 1) * len(cases)]
    if use_cache:
        _SUITE_CACHE[key] = suite
    return suite


# ----------------------------------------------------------------------
# Figure runners. Each returns rows ready for printing/plotting.
# ----------------------------------------------------------------------
def run_table1_paths(
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
    probes: int = 5000,
) -> List[Dict[str, float]]:
    """Table I: drive ``probes`` 100-byte packets, one per 2 ms, over each
    case's subflow-2 path and measure the loss and one-way delay it
    realises — the substrate check under every other experiment."""
    rows = []
    for case in TABLE1_CASES:
        network, paths = build_two_path_network(
            table1_path_configs(case, bandwidth_bps), rng=RngStreams(seed)
        )
        path, sim = paths[1], network.sim  # subflow 2 carries the case
        arrivals: List[float] = []
        network.nodes["dst"].bind(50, lambda packet: arrivals.append(sim.now - packet.sent_at))

        def send_probe(index: int) -> None:
            packet = Packet(size=100, src="src", dst="dst", src_port=49, dst_port=50)
            packet.sent_at = sim.now
            path.send_forward(packet)
            if index + 1 < probes:
                sim.schedule(0.002, send_probe, index + 1)

        send_probe(0)
        sim.run()
        rows.append(
            {
                "case": case.case_id,
                "delay_ms": case.delay_s * 1e3,
                "loss_pct": case.loss_rate * 1e2,
                "measured_delay_ms": mean(arrivals) * 1e3,
                "measured_loss_pct": (1.0 - len(arrivals) / probes) * 1e2,
            }
        )
    return rows


def run_figure3(
    duration_s: Optional[float] = None,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> List[Dict[str, float]]:
    """Fig. 3: total goodput per Table I case, both protocols."""
    suite = run_table1_suite(duration_s, bandwidth_bps, seed)
    rows = []
    for index, case in enumerate(suite.cases):
        fmtcp = suite.results["fmtcp"][index]
        mptcp = suite.results["mptcp"][index]
        rows.append(
            {
                "case": case.case_id,
                "delay_ms": case.delay_s * 1e3,
                "loss_pct": case.loss_rate * 1e2,
                "fmtcp_goodput_mb": fmtcp.goodput_mbytes,
                "mptcp_goodput_mb": mptcp.goodput_mbytes,
                "ratio": (
                    fmtcp.goodput_mbytes / mptcp.goodput_mbytes
                    if mptcp.goodput_mbytes > 0
                    else float("inf")
                ),
            }
        )
    return rows


def run_figure4(
    surge_loss_rate: float,
    duration_s: float = 300.0,
    surge_start_s: float = 50.0,
    surge_end_s: float = 200.0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
    bin_width_s: float = 5.0,
    max_pending_blocks: int = 6,
) -> Dict[str, ExperimentResult]:
    """Fig. 4: goodput-rate time series under a loss surge on subflow 2.

    This experiment uses a tighter receive buffer than the Table I sweep
    (``max_pending_blocks`` blocks ≈ half a path BDP at the defaults):
    receive-buffer head-of-line blocking is the collapse mechanism the
    paper's Fig. 4 displays, and it only binds when the buffer is scarce.
    The buffer-size ablation benchmark quantifies this sensitivity; the
    paper does not state its buffer sizes (DESIGN.md §3).
    """
    from repro.core.config import FmtcpConfig

    # run_transfer sizes the baseline's receive buffer to match.
    fmtcp_config = FmtcpConfig(max_pending_blocks=max_pending_blocks)
    results = {}
    for protocol in ("fmtcp", "mptcp"):
        # Loss schedules keep internal state; rebuild configs per run.
        results[protocol] = run_transfer(
            protocol=protocol,
            path_configs=surge_path_configs(
                surge_loss_rate,
                surge_start_s=surge_start_s,
                surge_end_s=surge_end_s,
                bandwidth_bps=bandwidth_bps,
            ),
            duration_s=duration_s,
            seed=seed,
            bin_width_s=bin_width_s,
            collect_series=True,
            fmtcp_config=fmtcp_config,
        )
    return results


def run_figure5(
    duration_s: Optional[float] = None,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> List[Dict[str, float]]:
    """Fig. 5: mean block delivery delay per Table I case."""
    suite = run_table1_suite(duration_s, bandwidth_bps, seed)
    rows = []
    for index, case in enumerate(suite.cases):
        fmtcp = suite.results["fmtcp"][index]
        mptcp = suite.results["mptcp"][index]
        rows.append(
            {
                "case": case.case_id,
                "delay_ms": case.delay_s * 1e3,
                "loss_pct": case.loss_rate * 1e2,
                "fmtcp_block_delay_ms": fmtcp.mean_block_delay_ms,
                "mptcp_block_delay_ms": mptcp.mean_block_delay_ms,
            }
        )
    return rows


def run_figure6(
    duration_s: Optional[float] = None,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> List[Dict[str, float]]:
    """Fig. 6: mean block jitter per Table I case."""
    suite = run_table1_suite(duration_s, bandwidth_bps, seed)
    rows = []
    for index, case in enumerate(suite.cases):
        fmtcp = suite.results["fmtcp"][index]
        mptcp = suite.results["mptcp"][index]
        rows.append(
            {
                "case": case.case_id,
                "delay_ms": case.delay_s * 1e3,
                "loss_pct": case.loss_rate * 1e2,
                "fmtcp_jitter_ms": fmtcp.jitter_ms,
                "mptcp_jitter_ms": mptcp.jitter_ms,
            }
        )
    return rows


def run_figure7(
    duration_s: Optional[float] = None,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
    max_blocks: int = 1000,
) -> Dict[str, List[float]]:
    """Fig. 7: per-block delivery delay series for Table I case 4."""
    case4 = TABLE1_CASES[3]
    duration_s = duration_s if duration_s is not None else default_duration_s()
    series = {}
    for protocol in ("fmtcp", "mptcp"):
        result = run_transfer(
            protocol=protocol,
            path_configs=table1_path_configs(case4, bandwidth_bps),
            duration_s=duration_s,
            seed=seed,
        )
        series[protocol] = result.block_delays[:max_blocks]
    return series
