"""Golden-value regression anchors.

The shape tests assert inequalities; this module pins a handful of scalar
measurements at fixed (scenario, seed, duration) points so that future
refactors that *silently shift* behaviour — a changed RNG consumption
order, an off-by-one in the window accounting — are caught even when the
qualitative shapes still hold. Values live in ``golden.json`` next to
this module; regenerate deliberately with::

    python -m repro.experiments.golden   # rewrites golden.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from repro.experiments.runner import run_transfer
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs

GOLDEN_PATH = Path(__file__).parent / "golden.json"

ANCHORS = [
    ("fmtcp", 1, 10.0, 1),
    ("fmtcp", 4, 10.0, 1),
    ("mptcp", 1, 10.0, 1),
    ("mptcp", 4, 10.0, 1),
    ("fixedrate", 4, 10.0, 1),
    ("tcp", 4, 10.0, 1),
]


def _case(case_id: int):
    return next(case for case in TABLE1_CASES if case.case_id == case_id)


def measure_anchor(protocol: str, case_id: int, duration_s: float, seed: int) -> Dict[str, float]:
    result = run_transfer(
        protocol,
        table1_path_configs(_case(case_id)),
        duration_s=duration_s,
        seed=seed,
    )
    return {
        "total_mbytes": result.summary["total_mbytes"],
        "blocks": result.summary["blocks"],
        "mean_block_delay_ms": result.summary["mean_block_delay_ms"],
    }


def measure_all() -> Dict[str, Dict[str, float]]:
    return {
        f"{protocol}/case{case_id}/{duration_s:g}s/seed{seed}": measure_anchor(
            protocol, case_id, duration_s, seed
        )
        for protocol, case_id, duration_s, seed in ANCHORS
    }


def write_golden() -> Dict[str, Dict[str, float]]:
    values = measure_all()
    GOLDEN_PATH.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
    return values


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    values = write_golden()
    print(f"wrote {len(values)} anchors to {GOLDEN_PATH}")
