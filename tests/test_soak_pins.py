"""Behaviour pins for the six soak harnesses.

``tests/fixtures/soak_pins.json`` holds ``dataclasses.asdict(report)``
minus the dump paths for every preset x protocol (seed 1) and
``random:1..5`` x protocol (seed = N): 64 runs recorded at commit
1c0b514, the last one with six hand-copied harness skeletons. Every
field recorded there must compare ``==`` today, so "the kernel behaves
like the six copies did" is a check rather than a belief.

Regenerate only with a stated reason (a deliberate behaviour change)::

    PYTHONPATH=src python tests/test_soak_pins.py
"""

import dataclasses
import json
import os

import pytest

from repro.faults import FaultScenario, presets
from repro.faults.chaos import CHAOS
from repro.faults.churn import CHURN
from repro.faults.corruption import CORRUPTION
from repro.recovery.harness import RECOVERY
from repro.robustness.exhaustion import EXHAUSTION
from repro.soak import run_soak
from repro.traces.harness import TRACES

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "soak_pins.json")
DUMP_PATHS = ("flight_dump_path", "profile_dump_path", "watchdog_dump_path")
GROUPS = (
    (presets("chaos"), CHAOS),
    (presets("churn"), CHURN),
    (presets("corruption"), CORRUPTION),
    (presets("exhaustion"), EXHAUSTION),
    (presets("recovery"), RECOVERY),
    (presets("traces"), TRACES),
)


def _cases():
    """(row id, harness, protocol, scenario factory, seed) for all 64
    pinned runs."""
    for registry, harness in GROUPS:
        for name in sorted(registry):
            for protocol in ("fmtcp", "mptcp"):
                yield f"{name}/{protocol}", harness, protocol, registry[name], 1
    for seed in range(1, 6):
        for protocol in ("fmtcp", "mptcp"):
            yield (
                f"random:{seed}/{protocol}",
                CHAOS,
                protocol,
                lambda seed=seed: FaultScenario.random(seed),
                seed,
            )


def _row(harness, protocol, factory, seed):
    report = dataclasses.asdict(run_soak(harness, protocol, factory(), seed=seed))
    for key in DUMP_PATHS:
        report.pop(key, None)
    # Through JSON so tuples and lists compare the way the fixture holds them.
    return json.loads(json.dumps(report))


CASES = list(_cases())



@pytest.fixture(scope="module")
def pins():
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_covers_every_preset_and_protocol(pins):
    assert sorted(pins) == sorted(case[0] for case in CASES)
    assert len(pins) == 64


@pytest.mark.parametrize(
    "row_id, harness, protocol, factory, seed", CASES, ids=[case[0] for case in CASES]
)
def test_report_matches_parent_commit(pins, row_id, harness, protocol, factory, seed):
    got = _row(harness, protocol, factory, seed)
    want = pins[row_id]
    assert {key: got.get(key, "<missing>") for key in want} == want


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    rows = {case[0]: _row(*case[1:]) for case in CASES}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(rows, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(rows)} rows to {FIXTURE}")
