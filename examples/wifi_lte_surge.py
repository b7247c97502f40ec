#!/usr/bin/env python3
"""Abrupt path-quality collapse: the Fig. 4 scenario as a user story.

A laptop is transferring a large file over WiFi + LTE. At t = 50 s the
user walks away from the access point and the WiFi path's loss rate jumps
to 30 %; at t = 200 s they come back. The paper's claim (Section V-A,
Fig. 4) is that IETF-MPTCP's aggregate rate collapses and oscillates
under the surge while FMTCP degrades gracefully and stays stable.

Run:  python examples/wifi_lte_surge.py
"""

from repro import run_transfer, surge_path_configs
from repro.experiments.reporting import sparkline
from repro.metrics.stats import mean, stdev

SURGE_LOSS = 0.30
DURATION_S = 300.0
SURGE_START_S = 50.0
SURGE_END_S = 200.0


def phase_of(t: float) -> str:
    if t < SURGE_START_S:
        return "before"
    if t < SURGE_END_S:
        return "during"
    return "after"


def main() -> None:
    print(
        f"File transfer over two 4 Mbit/s paths; path 2's loss surges to "
        f"{SURGE_LOSS:.0%} during t ∈ [{SURGE_START_S:.0f}, {SURGE_END_S:.0f}) s\n"
    )
    results = {}
    for protocol in ("fmtcp", "mptcp"):
        results[protocol] = run_transfer(
            protocol=protocol,
            path_configs=surge_path_configs(
                SURGE_LOSS, surge_start_s=SURGE_START_S, surge_end_s=SURGE_END_S
            ),
            duration_s=DURATION_S,
            seed=3,
            bin_width_s=5.0,
            collect_series=True,
        )

    peak = max(
        value for result in results.values() for __, value in result.goodput_series
    )
    for protocol, result in results.items():
        rates = [value for __, value in result.goodput_series]
        print(f"{protocol:>6}: {sparkline(rates, hi=peak)}")
    print(f"{'':>8}^t=0{'':<24}surge begins{'':<20}surge ends\n")

    print(f"{'phase':<10}{'FMTCP MB/s (±σ)':>20}{'MPTCP MB/s (±σ)':>20}")
    for phase in ("before", "during", "after"):
        cells = []
        for protocol in ("fmtcp", "mptcp"):
            rates = [
                value
                for t, value in results[protocol].goodput_series
                if phase_of(t) == phase
            ]
            cells.append(f"{mean(rates):.3f} ± {stdev(rates):.3f}")
        print(f"{phase:<10}{cells[0]:>20}{cells[1]:>20}")

    fmtcp_during = [
        value
        for t, value in results["fmtcp"].goodput_series
        if phase_of(t) == "during"
    ]
    mptcp_during = [
        value
        for t, value in results["mptcp"].goodput_series
        if phase_of(t) == "during"
    ]
    fmtcp_cov = stdev(fmtcp_during) / mean(fmtcp_during) if mean(fmtcp_during) else 0
    mptcp_cov = stdev(mptcp_during) / mean(mptcp_during) if mean(mptcp_during) else 0
    print(
        f"\nStability during the surge (coefficient of variation): "
        f"FMTCP {fmtcp_cov:.2f} vs MPTCP {mptcp_cov:.2f}"
    )


if __name__ == "__main__":
    main()
