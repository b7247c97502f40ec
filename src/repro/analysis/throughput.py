"""Analytical TCP throughput: the PFTK model applied to subflows.

Padhye, Firoiu, Towsley & Kurose's steady-state Reno throughput formula
predicts what each subflow can carry given its RTT, RTO and loss rate.
Combining it with FMTCP's coding redundancy yields a closed-form
*aggregate goodput* prediction that the sensitivity benchmarks check
against simulation — useful both as a sanity cross-check on the substrate
and as a back-of-envelope tool for users sizing deployments.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.net.topology import PathConfig

#: The subflows' packet size in bytes and RTO floor in seconds, as
#: ``MultipathConfig.mss`` and ``tcp.rto.MIN_RTO`` default them.
MSS = 1400
MIN_RTO = 0.2
#: Symbols sent per symbol needed: the coding overhead FMTCP's goodput
#: prediction is discounted by.
REDUNDANCY_RATIO = 1.07


def pftk_throughput_pps(rtt: float, rto: float, loss: float) -> float:
    """PFTK full model, packets/second.

    T = 1 / ( rtt·√(2bp/3) + rto·min(1, 3·√(3bp/8))·p·(1+32p²) )

    with b = 1: the substrate ACKs every packet. Returns ``inf`` for a
    lossless path — the formula models loss-limited steady state; callers
    cap by link bandwidth.
    """
    if rtt <= 0 or rto <= 0:
        raise ValueError("rtt and rto must be positive")
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must be in [0, 1), got {loss}")
    if loss == 0.0:
        return float("inf")
    term_fast = rtt * math.sqrt(2.0 * loss / 3.0)
    term_timeout = (
        rto * min(1.0, 3.0 * math.sqrt(3.0 * loss / 8.0)) * loss * (1.0 + 32.0 * loss**2)
    )
    return 1.0 / (term_fast + term_timeout)


def subflow_goodput_bps(config: PathConfig) -> float:
    """Predicted goodput of one Reno subflow on ``config``'s path.

    RTT is twice the one-way delay; RTO is max(MIN_RTO, 2·RTT) as a crude
    stand-in for srtt+4·rttvar on a jittery path; the result is capped at
    the link bandwidth.
    """
    rtt = 2.0 * config.delay_s
    rto = max(MIN_RTO, 2.0 * rtt)
    pps = pftk_throughput_pps(rtt, rto, config.loss_rate)
    bps = pps * MSS * 8.0
    return min(bps, config.bandwidth_bps)


def predicted_aggregate_goodput_bps(
    configs: Sequence[PathConfig],
    protocol: str = "fmtcp",
) -> float:
    """Closed-form aggregate goodput prediction.

    * FMTCP: the sum of per-subflow PFTK rates, discounted by the coding
      redundancy (every transmitted symbol beyond k̂ per block is goodput
      the fountain spends on reliability).
    * MPTCP: the same sum — an *upper* bound, since it ignores the
      receive-buffer head-of-line blocking the simulation (and the paper)
      show. The gap between this bound and measured MPTCP goodput is
      precisely the HoL cost.
    """
    if protocol not in ("fmtcp", "mptcp"):
        raise ValueError("protocol must be 'fmtcp' or 'mptcp'")
    total = sum(subflow_goodput_bps(config) for config in configs)
    if protocol == "fmtcp":
        return total / REDUNDANCY_RATIO
    return total
