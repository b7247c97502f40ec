"""Two-dimensional advantage map: loss × buffer.

Where exactly does FMTCP pay? The two levers the single-axis sweeps
identified are subflow-2 loss (creates repair traffic) and the receive
buffer (arms head-of-line blocking). This experiment grids both and
renders the FMTCP/MPTCP goodput ratio as an ASCII heatmap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import FmtcpConfig
from repro.experiments.runner import run_transfer
from repro.net.topology import PathConfig
from repro.workloads.scenarios import DEFAULT_BANDWIDTH_BPS

# Ratio bucket glyphs, from "MPTCP clearly ahead" to "FMTCP ≥ 2x".
_GLYPHS = [
    (0.90, "--"),
    (1.00, "- "),
    (1.10, "≈ "),
    (1.40, "+ "),
    (2.00, "++"),
    (float("inf"), "##"),
]


@dataclass
class HeatmapResult:
    """Grid of FMTCP/MPTCP goodput ratios."""

    loss_rates: List[float]
    pending_blocks: List[int]
    ratios: Dict[Tuple[float, int], float] = field(default_factory=dict)

    def glyph(self, ratio: float) -> str:
        for bound, glyph in _GLYPHS:
            if ratio < bound:
                return glyph
        return "##"

    def render(self) -> List[str]:
        lines = [
            "FMTCP/MPTCP goodput ratio  (-- <0.9, - <1.0, ≈ <1.1, + <1.4, ++ <2.0, ## ≥2.0)",
            "          " + " ".join(f"{int(b * 8):>4}KB" for b in self.pending_blocks),
        ]
        for loss in self.loss_rates:
            cells = []
            for blocks in self.pending_blocks:
                ratio = self.ratios[(loss, blocks)]
                cells.append(f"{ratio:4.2f}{self.glyph(ratio)}")
            lines.append(f"loss {loss:4.0%}  " + " ".join(cells))
        return lines


def run_heatmap(
    loss_rates: Optional[Sequence[float]] = None,
    pending_blocks: Optional[Sequence[int]] = None,
    duration_s: float = 30.0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    seed: int = 1,
) -> HeatmapResult:
    """Grid subflow-2 loss against the (matched) receive-buffer budget."""
    loss_rates = list(loss_rates or (0.02, 0.10, 0.20))
    pending_blocks = list(pending_blocks or (6, 16, 32))
    result = HeatmapResult(loss_rates=loss_rates, pending_blocks=pending_blocks)
    for loss in loss_rates:
        for blocks in pending_blocks:
            # run_transfer matches the baseline's receive buffer to this.
            fmtcp_config = FmtcpConfig(max_pending_blocks=blocks)

            def configs():
                return [
                    PathConfig(
                        bandwidth_bps=bandwidth_bps, delay_s=0.100, loss_rate=0.0
                    ),
                    PathConfig(
                        bandwidth_bps=bandwidth_bps, delay_s=0.100, loss_rate=loss
                    ),
                ]

            fmtcp = run_transfer(
                "fmtcp", configs(), duration_s=duration_s, seed=seed,
                fmtcp_config=fmtcp_config,
            )
            mptcp = run_transfer(
                "mptcp", configs(), duration_s=duration_s, seed=seed,
                fmtcp_config=fmtcp_config,
            )
            denominator = mptcp.summary["goodput_mbytes_per_s"] or 1e-9
            result.ratios[(loss, blocks)] = (
                fmtcp.summary["goodput_mbytes_per_s"] / denominator
            )
    return result
