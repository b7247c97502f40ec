"""Corruption-soak harness: finite transfers through data-damaging
scenarios, with *byte-level* delivery verification.

The chaos harness can prove a transfer completed; it cannot prove the
delivered bytes are the *sent* bytes, because its workload is synthetic.
The :data:`CORRUPTION` harness of the soak kernel (:mod:`repro.soak`)
drives real random payloads end-to-end
(:class:`~repro.workloads.sources.RandomPayloadSource` keeps a
transcript; FMTCP runs with ``coding="real"`` so actual block bytes are
fountain-coded, mutated on the wire and decoded) and checks, on top of
the chaos invariants, :func:`~repro.soak.byte_identical` — even when
mutations evade the link CRC and must be caught by the DSS checksum, the
block CRC or GF(2) inconsistency — and :func:`defense_fired`.

The ``corruption_goodput`` catalog entry measures goodput at a fixed
per-link corruption rate as a timeline that corrupts from t = 0, through
:func:`repro.faults.chaos.measure_fault_response`.
"""

from __future__ import annotations

from typing import Iterator

from repro import soak
from repro.core.config import FmtcpConfig
from repro.faults.scenario import FaultScenario


def defense_fired(run: soak.Run) -> Iterator[str]:
    """The integrity layer actually fired: when links corrupted packets,
    at least one defense (discard / checksum reject / quarantine)
    accounts for them, so a run cannot pass vacuously."""
    report = run.report
    if report.packets_corrupted > 0 and not any(report.corruption_stats.values()):
        yield (
            f"{report.packets_corrupted} packets corrupted on the wire but "
            "no integrity defense fired (discard/reject/quarantine all zero)"
        )


def _size(protocol: str, scenario: FaultScenario) -> soak.Sizing:
    """The chaos sizing, smaller: real fountain coding pays for GF(2)
    elimination per block, and the soak runs this 30 seeds x 2 protocols
    x presets. At 2 x 0.1 Mb/s the 320 KiB transfer needs ~13 s clean, so
    it is mid-flight throughout the preset corruption window ([8, 18) s)
    and must survive it, yet finishes well inside the 40 s run once the
    links heal. FMTCP codes real bytes so they flow through the fountain
    codec."""
    return soak.Sizing(
        soak.uniform_paths(scenario.n_paths, 1e5, 0.03),
        total_bytes=327_680,
        duration_s=40.0,
        config=FmtcpConfig(coding="real") if protocol == "fmtcp" else None,
    )


CORRUPTION = soak.Harness(
    "corruption",
    soak.random_payload,
    steps=(soak.arm_timeline, soak.heal_probe),
    invariants=(
        soak.exactly_once_in_order,
        soak.byte_identical,
        soak.no_wedged_timers,
        soak.completes_after_heal,
        defense_fired,
    ),
    size=_size,
)
