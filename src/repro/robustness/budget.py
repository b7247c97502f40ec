"""Peak-memory accounting for bounded-operation soaks.

A :class:`MemoryBudget` is a passive accountant: the exhaustion harness
(or any caller) feeds it ``connection.memory_stats()`` snapshots and it
tracks the peak of every numeric category. Limits are optional; a
category with a limit whose peak exceeds it becomes a violation string,
which the soak invariant machinery folds into its report. Nothing here
touches protocol hot paths — all cost is borne by whoever samples.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

Number = Union[int, float]


class MemoryBudget:
    """Tracks peak occupancy per category against optional hard limits."""

    def __init__(self, limits: Optional[Mapping[str, Number]] = None):
        self.limits: Dict[str, Number] = dict(limits or {})
        self.peaks: Dict[str, Number] = {}
        self.observations = 0

    def observe(self, stats: Mapping[str, Number]) -> None:
        """Fold one snapshot of per-category occupancy into the peaks."""
        self.observations += 1
        for key, value in stats.items():
            if not isinstance(value, (int, float)):
                continue
            if key not in self.peaks or value > self.peaks[key]:
                self.peaks[key] = value

    def peak(self, key: str) -> Number:
        return self.peaks.get(key, 0)

    def violations(self) -> List[str]:
        """One message per category whose peak exceeded its limit."""
        over = []
        for key, limit in sorted(self.limits.items()):
            peak = self.peaks.get(key, 0)
            if peak > limit:
                over.append(
                    f"memory budget exceeded: {key} peaked at {peak} "
                    f"(budget {limit})"
                )
        return over

    def summary(self) -> Dict[str, Number]:
        """Peaks dict for reports (a copy; safe to serialise)."""
        return dict(self.peaks)
