"""Traffic sources and evaluation scenarios (Table I, the Fig. 4 surge)."""

from repro.workloads.scenarios import (
    TABLE1_CASES,
    surge_path_configs,
    table1_path_configs,
)
from repro.workloads.sources import BulkSource, CbrSource, RandomPayloadSource
from repro.workloads.video import VbrVideoSource

__all__ = [
    "BulkSource",
    "CbrSource",
    "RandomPayloadSource",
    "TABLE1_CASES",
    "VbrVideoSource",
    "surge_path_configs",
    "table1_path_configs",
]
