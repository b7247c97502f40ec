"""Configuration of the block-coded transports: FMTCP and the fixed-rate
FEC strawman share one block geometry (:class:`CodedConfig`).

Defaults follow DESIGN.md item 4 (block geometry): 256 symbols of 32
bytes per block (8 KiB blocks), 1400-byte MSS (41 symbols per packet
with headers), and a maximum acceptable decoding-failure probability
δ̂ = 10⁻³, i.e. a block is predicted complete once its expected
independent-symbol count k̃ reaches k̂ + log₂(1/δ̂) ≈ k̂ + 10
(Definition 4 and the paper's completeness condition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.fountain.rank_model import MAX_K
from repro.tcp.multipath import MultipathConfig


#: Per-symbol wire overhead. Symbols travel in per-block groups whose
#: header (block id, PRNG seed, base symbol id) is amortised across the
#: group, so the marginal cost per symbol is small.
SYMBOL_HEADER_BYTES = 2


@dataclass
class CodedConfig(MultipathConfig):
    """The block geometry of a transport that codes blocks of symbols
    (paper Section III-B chooses k̂ to balance coding complexity, MSS fit
    and buffer size)."""

    symbols_per_block: int = 256
    symbol_size: int = 32
    # Sender-side concurrency: number of blocks simultaneously pending.
    # Bounds receiver buffer occupancy to max_pending_blocks blocks
    # (Section III-B's buffer-size constraint on k̂).
    max_pending_blocks: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.symbols_per_block < 1:
            raise ValueError(
                f"symbols_per_block must be >= 1, got {self.symbols_per_block}"
            )
        if self.symbol_size < 1:
            raise ValueError(f"symbol_size must be >= 1, got {self.symbol_size}")
        if self.max_pending_blocks < 1:
            raise ValueError(
                f"max_pending_blocks must be >= 1, got {self.max_pending_blocks} "
                "(with no pending block the transfer sends nothing)"
            )
        if self.symbol_wire_size > self.mss:
            raise ValueError(
                f"one symbol ({self.symbol_wire_size}B on the wire) must fit "
                f"in mss, got {self.mss}"
            )

    @property
    def block_bytes(self) -> int:
        """Application bytes carried by one full block."""
        return self.symbols_per_block * self.symbol_size

    @property
    def symbol_wire_size(self) -> int:
        return self.symbol_size + SYMBOL_HEADER_BYTES

    @property
    def symbols_per_packet(self) -> int:
        """How many symbols Eq. (9)'s MSS constraint admits per packet."""
        return max(1, self.mss // self.symbol_wire_size)


@dataclass
class FmtcpConfig(CodedConfig):
    """Tunables of the FMTCP sender/receiver pair (the subflow, failover
    and flow-control fields are :class:`MultipathConfig`'s, the block
    geometry :class:`CodedConfig`'s)."""

    # δ̂: maximum acceptable decoding failure probability (Definition 4).
    delta_hat: float = 1e-3

    # "statistical" samples exact decoder-rank evolution (fast, default);
    # "real" runs the byte-level GF(2) codec end to end.
    coding: str = "statistical"

    # Systematic encoding (source parts first, coded repair after) — the
    # deployed-fountain flavour; requires the real codec because the
    # statistical rank model assumes uniformly random coefficient rows.
    systematic: bool = False

    # "eat" runs Algorithm 1 (the paper's allocator); "greedy" is the
    # Section IV-B strawman; "stopwait" mimics HMTP (related work [21]):
    # every subflow keeps sending symbols of the *first* undecoded block
    # until the receiver's decode confirmation arrives — the inefficient
    # stop-and-wait behaviour the paper's prediction mechanism replaces.
    allocation: str = "eat"

    # Estimator aging: halve a subflow's loss estimate for every this many
    # seconds without an observed loss. Disabled by default — time-based
    # forgiveness makes the allocator oscillate between trusting and
    # distrusting a persistently lossy path; probe *chains* (the sender's
    # idle-path probing) are the default rehabilitation mechanism instead.
    loss_estimate_half_life_s: Optional[float] = None

    # Receive window of the shared flow control, in blocks: receiver
    # occupancy (active decoders + decoded-waiting + app backlog) never
    # exceeds it, because the sender may only *open* blocks below the
    # licensed limit.
    recv_window_blocks: int = 32

    def __post_init__(self) -> None:
        super().__post_init__()
        # Each range is tested as `not (inside it)`, which NaN fails too.
        if (
            self.loss_estimate_half_life_s is not None
            and not self.loss_estimate_half_life_s > 0
        ):
            raise ValueError(
                "loss_estimate_half_life_s must be positive or None, got "
                f"{self.loss_estimate_half_life_s}"
            )
        if not 0.0 < self.delta_hat < 1.0:
            raise ValueError("delta_hat must be in (0, 1)")
        if self.coding not in ("statistical", "real"):
            raise ValueError(f"unknown coding mode {self.coding!r}")
        if self.coding == "statistical" and self.symbols_per_block > MAX_K:
            raise ValueError(
                f"symbols_per_block must be <= {MAX_K} with coding='statistical' "
                f"(the rank model's float limit), got {self.symbols_per_block}"
            )
        if self.allocation not in ("eat", "greedy", "stopwait"):
            raise ValueError(f"unknown allocation mode {self.allocation!r}")
        if self.systematic and self.coding != "real":
            raise ValueError('systematic encoding requires coding="real"')
        if self.recv_window_blocks < 1:
            raise ValueError("recv_window_blocks must be >= 1")

    @property
    def completeness_margin(self) -> float:
        """log₂(1/δ̂): extra expected symbols needed beyond k̂."""
        return math.log2(1.0 / self.delta_hat)
