"""Multi-seed replication: mean and spread across independent runs.

The paper reports single ns-2 runs; sound methodology replicates each
configuration over several seeds and reports mean ± confidence interval.
:func:`summarise` is that reduction: ``replicate --seeds N`` passes it to
a catalog :class:`~repro.experiments.catalog.Grid`, which folds each
metric's seeds with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Two-sided t-distribution 97.5 % quantiles for n-1 degrees of freedom,
# n = 2..31 (a standard t table); beyond that the normal's 1.96.
_T_QUANTILES = {
    2: 12.706, 3: 4.303, 4: 3.182, 5: 2.776, 6: 2.571,
    7: 2.447, 8: 2.365, 9: 2.306, 10: 2.262, 11: 2.228,
    12: 2.201, 13: 2.179, 14: 2.160, 15: 2.145, 16: 2.131,
    17: 2.120, 18: 2.110, 19: 2.101, 20: 2.093, 21: 2.086,
    22: 2.080, 23: 2.074, 24: 2.069, 25: 2.064, 26: 2.060,
    27: 2.056, 28: 2.052, 29: 2.048, 30: 2.045, 31: 2.042,
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

    def __str__(self) -> str:
        if math.isnan(self.ci95):
            return f"{self.mean:.3f} (n={self.n})"
        return f"{self.mean:.3f} ± {self.ci95:.3f} (n={self.n})"


def summarise(values: Sequence[float]) -> MetricSummary:
    """Sample mean, sample stdev and a t-based 95 % CI half-width.

    One value has no spread to estimate: its ``stdev`` and ``ci95`` are
    NaN (not a zero-width interval), and it prints without "±".
    """
    n = len(values)
    if n == 0:
        raise ValueError("no values to summarise")
    mean = sum(values) / n
    if n == 1:
        return MetricSummary(mean=mean, stdev=math.nan, ci95=math.nan, n=1)
    variance = sum((value - mean) ** 2 for value in values) / (n - 1)
    stdev = math.sqrt(variance)
    ci95 = t_quantile(n) * stdev / math.sqrt(n)
    return MetricSummary(mean=mean, stdev=stdev, ci95=ci95, n=n)
