"""Multi-seed replication: mean and spread across independent runs.

The paper reports single ns-2 runs; sound methodology replicates each
configuration over several seeds and reports mean ± confidence interval.
This module wraps :func:`repro.experiments.runner.run_transfer`
accordingly; the CLI exposes it via ``--seeds N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.runner import ExperimentResult, run_transfer
from repro.net.topology import PathConfig

# Two-sided t-distribution 97.5 % quantiles for n-1 degrees of freedom,
# n = 2..10 (enough for typical replication counts; beyond that use 1.96).
_T_QUANTILES = {
    2: 12.706, 3: 4.303, 4: 3.182, 5: 2.776, 6: 2.571,
    7: 2.447, 8: 2.365, 9: 2.306, 10: 2.262,
}


def t_quantile(n_samples: int) -> float:
    """97.5 % two-sided t quantile for a mean over ``n_samples`` runs."""
    if n_samples < 2:
        raise ValueError("confidence intervals need at least two samples")
    return _T_QUANTILES.get(n_samples, 1.96)


@dataclass(frozen=True)
class MetricSummary:
    """Mean, standard deviation and 95 % CI half-width of one metric."""

    mean: float
    stdev: float
    ci95: float
    n: int

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"{self.mean:.3f} ± {self.ci95:.3f} (n={self.n})"


@dataclass
class ReplicatedResult:
    """Aggregated measurements across seeds for one configuration."""

    protocol: str
    seeds: List[int]
    metrics: Dict[str, MetricSummary] = field(default_factory=dict)
    runs: List[ExperimentResult] = field(default_factory=list)

    def __getitem__(self, key: str) -> MetricSummary:
        return self.metrics[key]


def summarise(values: Sequence[float]) -> MetricSummary:
    """Sample mean, sample stdev and a t-based 95 % CI half-width."""
    n = len(values)
    if n == 0:
        raise ValueError("no values to summarise")
    mean = sum(values) / n
    if n == 1:
        return MetricSummary(mean=mean, stdev=0.0, ci95=0.0, n=1)
    variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    stdev = math.sqrt(variance)
    ci95 = t_quantile(n) * stdev / math.sqrt(n)
    return MetricSummary(mean=mean, stdev=stdev, ci95=ci95, n=n)


def run_replicated(
    protocol: str,
    path_config_factory,
    duration_s: float,
    seeds: Sequence[int] = (1, 2, 3),
    **run_kwargs,
) -> ReplicatedResult:
    """Run one configuration across several seeds and aggregate.

    ``path_config_factory`` is a zero-argument callable returning fresh
    :class:`PathConfig` objects per run (loss models are stateful, so
    configs must not be shared between runs).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    result = ReplicatedResult(protocol=protocol, seeds=list(seeds))
    for seed in seeds:
        configs = path_config_factory()
        if not all(isinstance(config, PathConfig) for config in configs):
            raise TypeError("path_config_factory must return PathConfig objects")
        result.runs.append(
            run_transfer(
                protocol, configs, duration_s=duration_s, seed=seed, **run_kwargs
            )
        )
    metric_keys = result.runs[0].summary.keys()
    for key in metric_keys:
        result.metrics[key] = summarise([run.summary[key] for run in result.runs])
    return result
