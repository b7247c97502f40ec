"""Traffic sources and evaluation scenarios (Table I, the Fig. 4 surge)."""

from repro.workloads.scenarios import (
    SUBFLOW1_CONFIG,
    TABLE1_CASES,
    TestCase,
    surge_path_configs,
    table1_path_configs,
)
from repro.workloads.sources import BulkSource, CbrSource, RandomPayloadSource
from repro.workloads.video import VbrVideoSource

__all__ = [
    "BulkSource",
    "CbrSource",
    "RandomPayloadSource",
    "SUBFLOW1_CONFIG",
    "TABLE1_CASES",
    "TestCase",
    "VbrVideoSource",
    "surge_path_configs",
    "table1_path_configs",
]
