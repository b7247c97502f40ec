"""Every published ledger: one catalog entry each, timed, shape-checked, written.

One test per :data:`repro.experiments.catalog.CATALOG` entry, named after
its ledger (``pytest benchmarks/bench_experiments.py -k fig3_goodput`` runs
one). Each runs at full scale (``REPRO_FAST=1``: the entry's fast scale;
``REPRO_BENCH_DURATION=SECONDS``: that run length for every simulated
entry), asserts the entry's shape checks and writes its rendered lines to
``benchmarks/results/<ledger>.txt``; ``python -m repro report`` then copies
the ledgers into EXPERIMENTS.md. A catalog transfer with identical inputs
runs once per process, so Figures 3, 5, 6 and 7 read one Table I grid and
the 30 s case-4 runs of the extension entries are made once between them.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.catalog import CATALOG


@pytest.mark.parametrize("experiment", CATALOG, ids=lambda experiment: experiment.ledger)
def test_experiment(benchmark, report, experiment):
    override = os.environ.get("REPRO_BENCH_DURATION")
    scale = experiment.scale(float(override) if override else None)
    result = benchmark.pedantic(experiment.run, args=(scale,), rounds=1, iterations=1)
    failed = experiment.failed_checks(result, scale)
    assert not failed, f"{experiment.ledger}: shape checks failed: {failed}"
    report(experiment.ledger, experiment.render(result, scale))
