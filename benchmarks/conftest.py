"""Benchmark-harness plumbing.

Each benchmark regenerates one paper table/figure and registers a
human-readable report. Reports are written to ``benchmarks/results/`` and
echoed in pytest's terminal summary (so they survive output capture).

Durations: paper runs are 300 s; benchmarks default to 60 s per run
(shapes are stable well before that). Override with
``REPRO_BENCH_DURATION`` seconds, or set ``REPRO_FAST=1`` for 15 s smoke
runs. The catalogued paper artefacts (``bench_experiments.py``) take
their full and fast run lengths from their catalog entry instead.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
_REPORTS: List[str] = []


def bench_duration() -> float:
    if os.environ.get("REPRO_BENCH_DURATION"):
        return float(os.environ["REPRO_BENCH_DURATION"])
    if os.environ.get("REPRO_FAST"):
        return 15.0
    return 60.0


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
