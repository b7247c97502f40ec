"""Benchmark-harness plumbing.

Each benchmark registers a human-readable report. Reports are written to
``benchmarks/results/`` and echoed in pytest's terminal summary (so they
survive output capture).

Every published ledger is a :data:`repro.experiments.catalog.CATALOG`
entry, run by ``bench_experiments.py`` at the entry's full scale;
``REPRO_FAST=1`` picks each entry's fast scale and
``REPRO_BENCH_DURATION=SECONDS`` one run length for every simulated entry.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
_REPORTS: List[str] = []


@pytest.fixture
def report():
    """Register a report: ``report(name, lines)``."""

    def _record(name: str, lines: List[str]) -> None:
        text = "\n".join(lines)
        _REPORTS.append(f"--- {name} ---\n{text}")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction reports")
    for block in _REPORTS:
        terminalreporter.write_line(block)
        terminalreporter.write_line("")
