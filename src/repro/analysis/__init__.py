"""Closed-form models from the paper's analytical sections.

* :mod:`repro.analysis.coding` — Section III-B: Expected Packets
  Delivered for fixed-rate coding (Eqs. 3-5), the Chernoff bound on
  retransmission-free delivery (Eq. 6), and the fountain symbol-cost
  bound (Eq. 7), each with a Monte-Carlo cross-check.
* :mod:`repro.analysis.allocation` — Section IV-C: SEDT (Eq. 13),
  Theorem 2's quality ordering, Lemma 1's no-migration condition
  (Eq. 16), and Theorem 3's delivery-time ratio bound (Eq. 17).
"""

from repro.analysis.coding import (
    chernoff_no_retransmission_bound,
    expected_packets_delivered,
    fountain_expected_symbols_bound,
    fountain_expected_symbols_exact,
    simulate_fixed_rate_delivery,
    simulate_fountain_delivery,
)
from repro.analysis.throughput import (
    predicted_aggregate_goodput_bps,
)
from repro.analysis.allocation import (
    fmtcp_beats_mptcp_condition,
    lemma1_min_r2,
    mptcp_delivery_ratio,
    theorem3_ratio_bound,
)

__all__ = [
    "chernoff_no_retransmission_bound",
    "expected_packets_delivered",
    "fmtcp_beats_mptcp_condition",
    "fountain_expected_symbols_bound",
    "fountain_expected_symbols_exact",
    "lemma1_min_r2",
    "mptcp_delivery_ratio",
    "predicted_aggregate_goodput_bps",
    "simulate_fixed_rate_delivery",
    "simulate_fountain_delivery",
    "theorem3_ratio_bound",
]
