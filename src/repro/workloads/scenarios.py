"""The paper's evaluation scenarios.

Table I parameterises subflow 2 across eight test cases while subflow 1
stays fixed at 100 ms one-way delay and zero loss; Fig. 4's scenario holds
both paths at 100 ms / 1 % and surges subflow 2's loss at t = 50 s,
restoring it at t = 200 s.

The paper does not state link bandwidth; ``DEFAULT_BANDWIDTH_BPS`` is
4 Mbit/s per path (DESIGN.md §3.1), which puts aggregate goodput on the
same ~1 MB/s scale as Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.net.loss import ScheduledLoss
from repro.net.topology import PathConfig

DEFAULT_BANDWIDTH_BPS = 4e6


@dataclass(frozen=True)
class TestCase:
    """One column of Table I: subflow 2's delay and loss rate."""

    case_id: int
    delay_s: float
    loss_rate: float

    def label(self) -> str:
        return f"case {self.case_id}: {self.delay_s * 1e3:.0f}ms/{self.loss_rate * 1e2:.0f}%"


#: Table I — "Path parameters of subflow 2".
TABLE1_CASES: List[TestCase] = [
    TestCase(1, 0.100, 0.02),
    TestCase(2, 0.100, 0.05),
    TestCase(3, 0.100, 0.10),
    TestCase(4, 0.100, 0.15),
    TestCase(5, 0.025, 0.10),
    TestCase(6, 0.050, 0.10),
    TestCase(7, 0.100, 0.10),
    TestCase(8, 0.150, 0.10),
]

def table1_path_configs(
    case: TestCase, bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
) -> List[PathConfig]:
    """Both paths' configs for one Table I test case. Subflow 1 is held
    at 100 ms delay and zero loss throughout Section V."""
    return [
        PathConfig(bandwidth_bps=bandwidth_bps, delay_s=0.100, loss_rate=0.0),
        PathConfig(
            bandwidth_bps=bandwidth_bps,
            delay_s=case.delay_s,
            loss_rate=case.loss_rate,
        ),
    ]


def surge_path_configs(
    surge_loss_rate: float,
    surge_start_s: float = 50.0,
    surge_end_s: float = 200.0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
) -> List[PathConfig]:
    """Fig. 4's scenario: two 100 ms paths at 1 % loss, where subflow 2's
    loss surges and later recovers."""
    if not 0.0 <= surge_loss_rate < 1.0:
        raise ValueError("surge_loss_rate must be in [0, 1)")
    base_loss_rate, delay_s = 0.01, 0.100
    schedule = ScheduledLoss(
        [
            (0.0, base_loss_rate),
            (surge_start_s, surge_loss_rate),
            (surge_end_s, base_loss_rate),
        ]
    )
    return [
        PathConfig(
            bandwidth_bps=bandwidth_bps, delay_s=delay_s, loss_rate=base_loss_rate
        ),
        PathConfig(bandwidth_bps=bandwidth_bps, delay_s=delay_s, loss_model=schedule),
    ]
