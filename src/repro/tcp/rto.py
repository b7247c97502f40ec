"""RFC 6298 retransmission-timeout estimation.

The smoothed RTT / RTT-variance recursion with exponential back-off on
timeouts. The paper's analysis assumes RTO ≈ RTT on short-RTT paths, which
a 200 ms minimum RTO approximates for the Table I configurations.
"""

from __future__ import annotations

from typing import Optional


class RtoEstimator:
    """Tracks SRTT/RTTVAR and derives the retransmission timeout."""

    def __init__(
        self,
        initial_rto: float = 1.0,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        alpha: float = 1.0 / 8.0,
        beta: float = 1.0 / 4.0,
    ):
        if min_rto <= 0 or max_rto < min_rto:
            raise ValueError("require 0 < min_rto <= max_rto")
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.alpha = alpha
        self.beta = beta
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._backoff_factor = 1.0
        self.samples = 0
        #: Current timeout, including any exponential back-off: a plain
        #: attribute, re-derived by every method that moves an input.
        self.rto = self._derive_rto()

    def _derive_rto(self) -> float:
        if self.srtt is None:
            base = self.initial_rto
        else:
            base = self.srtt + max(4.0 * self.rttvar, 1e-9)
        return min(max(base * self._backoff_factor, self.min_rto), self.max_rto)

    def on_measurement(self, rtt: float) -> None:
        """Feed one RTT sample (must come from a non-retransmitted packet)."""
        if rtt <= 0:
            raise ValueError(f"rtt must be positive, got {rtt}")
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - self.beta) * self.rttvar + self.beta * abs(self.srtt - rtt)
            self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt
        self.samples += 1
        self._backoff_factor = 1.0
        # _derive_rto with a unit back-off factor, without its frame.
        base = self.srtt + max(4.0 * self.rttvar, 1e-9)
        self.rto = min(max(base, self.min_rto), self.max_rto)

    def on_timeout(self) -> None:
        """Double the timeout (Karn back-off), clamped at ``max_rto``."""
        self._backoff_factor = min(self._backoff_factor * 2.0, self.max_rto / self.min_rto)
        self.rto = self._derive_rto()

    def reset_backoff(self) -> None:
        self._backoff_factor = 1.0
        self.rto = self._derive_rto()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RtoEstimator(srtt={self.srtt}, rttvar={self.rttvar}, rto={self.rto:.3f})"
