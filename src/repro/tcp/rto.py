"""RFC 6298 retransmission-timeout estimation.

The smoothed RTT / RTT-variance recursion with exponential back-off on
timeouts. The paper's analysis assumes RTO ≈ RTT on short-RTT paths, which
a 200 ms minimum RTO approximates for the Table I configurations.
"""

from __future__ import annotations

from typing import Optional

#: Timeout before the first RTT sample, in seconds.
INITIAL_RTO = 1.0
#: The timeout's floor and ceiling, in seconds.
MIN_RTO = 0.2
MAX_RTO = 60.0
#: RFC 6298's SRTT and RTTVAR gains.
ALPHA = 1.0 / 8.0
BETA = 1.0 / 4.0


class RtoEstimator:
    """Tracks SRTT/RTTVAR and derives the retransmission timeout."""

    def __init__(self):
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._backoff_factor = 1.0
        self.samples = 0
        #: Current timeout, including any exponential back-off: a plain
        #: attribute, re-derived by every method that moves an input.
        self.rto = self._derive_rto()

    def _derive_rto(self) -> float:
        if self.srtt is None:
            base = INITIAL_RTO
        else:
            base = self.srtt + max(4.0 * self.rttvar, 1e-9)
        return min(max(base * self._backoff_factor, MIN_RTO), MAX_RTO)

    def on_measurement(self, rtt: float) -> None:
        """Feed one RTT sample (must come from a non-retransmitted packet)."""
        if rtt <= 0:
            raise ValueError(f"rtt must be positive, got {rtt}")
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - rtt)
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt
        self.samples += 1
        self._backoff_factor = 1.0
        # _derive_rto with a unit back-off factor, without its frame.
        base = self.srtt + max(4.0 * self.rttvar, 1e-9)
        self.rto = min(max(base, MIN_RTO), MAX_RTO)

    def on_timeout(self) -> None:
        """Double the timeout (Karn back-off), clamped at ``MAX_RTO``."""
        self._backoff_factor = min(self._backoff_factor * 2.0, MAX_RTO / MIN_RTO)
        self.rto = self._derive_rto()
