"""Fixed-rate FEC vs fountain coding, protocol-vs-protocol (Section III-B).

The paper argues against fixed-rate erasure codes with Eqs. (3)-(7); this
benchmark stages the same argument between running transports:

* the p̂ misestimation sweep — fixed-rate must pick a code rate from an
  assumed loss rate, and pays redundancy (overestimate) or
  retransmission stalls (underestimate), while FMTCP has no such knob;
* the blackout — fixed-rate repairs are pinned to the path that carried
  the original symbols ("fixed-rate coding constrains the transmission
  for a block over the same path"), so a dead path stalls delivery
  entirely; FMTCP reroutes repairs and keeps delivering.
"""

from __future__ import annotations

from benchmarks.conftest import bench_duration
from repro.experiments.runner import build_connection, build_topology, run_transfer
from repro.fixedrate import FixedRateConfig
from repro.metrics.collectors import MetricsSuite
from repro.net.loss import ScheduledLoss
from repro.net.topology import PathConfig
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs
from repro.workloads.sources import BulkSource


def run_fixed_rate(configs, duration, config, seed=1):
    trace, network, paths = build_topology(configs, seed)
    metrics = MetricsSuite(trace, bin_width_s=1.0)
    connection = build_connection(
        "fixedrate", network.sim, paths, BulkSource(), seed, trace, config=config
    )
    connection.start()
    network.sim.run(until=duration)
    return connection, metrics


def test_fixed_rate_p_hat_sweep(benchmark, report):
    duration = min(bench_duration(), 30.0)
    p_hats = [0.0, 0.05, 0.15, 0.30]

    def run():
        rows = []
        for p_hat in p_hats:
            connection, metrics = run_fixed_rate(
                table1_path_configs(TABLE1_CASES[3]),
                duration,
                FixedRateConfig(estimated_loss=p_hat),
            )
            rows.append(
                (
                    p_hat,
                    metrics.goodput.goodput_mbytes_per_s(duration),
                    connection.redundancy_ratio(),
                    connection.symbols_retransmitted,
                )
            )
        fmtcp = run_transfer(
            "fmtcp", table1_path_configs(TABLE1_CASES[3]), duration_s=duration, seed=1
        )
        return rows, fmtcp

    rows, fmtcp = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "fixed-rate code-rate knob p̂ on case 4 (true loss 15% on subflow 2)",
        f"{'p̂':>6} {'goodput MB/s':>13} {'redundancy':>11} {'retx symbols':>13}",
    ]
    for p_hat, goodput, redundancy, retx in rows:
        lines.append(f"{p_hat:>6.2f} {goodput:>13.3f} {redundancy:>11.3f} {retx:>13}")
    lines.append(
        f" FMTCP {fmtcp.summary['goodput_mbytes_per_s']:>13.3f} "
        f"{fmtcp.extras['redundancy_ratio']:>11.3f}   (no p̂ to tune)"
    )
    # Redundancy rises monotonically with p̂ (Eq. 4's budget), goodput falls.
    redundancies = [row[2] for row in rows]
    goodputs = [row[1] for row in rows]
    assert redundancies == sorted(redundancies)
    assert goodputs[0] > goodputs[-1]
    # FMTCP is at least as good as every misestimated operating point
    # above the first (small tolerance for seed noise).
    for __, goodput, __, __ in rows[1:]:
        assert fmtcp.summary["goodput_mbytes_per_s"] > 0.95 * goodput
    report("fixedrate_p_hat_sweep", lines)


def test_fixed_rate_blackout_stall(benchmark, report):
    duration = 45.0

    def blackout():
        return [
            PathConfig(bandwidth_bps=4e6, delay_s=0.050, loss_rate=0.0),
            PathConfig(
                bandwidth_bps=4e6,
                delay_s=0.050,
                loss_model=ScheduledLoss([(0.0, 0.0), (10.0, 0.99), (20.0, 0.0)]),
            ),
        ]

    def run():
        fixed_conn, fixed_metrics = run_fixed_rate(
            blackout(), duration, FixedRateConfig(), seed=3
        )
        fmtcp = run_transfer(
            "fmtcp", blackout(), duration_s=duration, seed=3, collect_series=True
        )
        return fixed_metrics.goodput.series(duration), fmtcp.goodput_series

    fixed_series, fmtcp_series = benchmark.pedantic(run, rounds=1, iterations=1)

    def window(series, lo, hi):
        return sum(rate for t, rate in series if lo <= t < hi)

    fixed_stall = window(fixed_series, 13.0, 20.0)
    fmtcp_stall = window(fmtcp_series, 13.0, 20.0)
    lines = [
        "total blackout of path 2 during [10, 20)s — goodput inside [13, 20)s",
        f"  fixed-rate: {fixed_stall / 7:.3f} MB/s (repairs pinned to the dead path)",
        f"  FMTCP:      {fmtcp_stall / 7:.3f} MB/s (repairs rerouted to the live path)",
    ]
    assert fixed_stall < 0.05
    assert fmtcp_stall / 7 > 0.2
    report("fixedrate_blackout", lines)
