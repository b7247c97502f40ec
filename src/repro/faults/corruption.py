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

:func:`measure_corruption_goodput` is the benchmark probe: steady-state
goodput of an open-ended transfer at a fixed per-link corruption rate.
"""

from __future__ import annotations

from typing import Iterator

from repro import soak
from repro.core.config import FmtcpConfig
from repro.experiments.runner import build_connection, build_topology
from repro.faults.scenario import FaultScenario
from repro.net.corruption import BernoulliCorruption
from repro.workloads.sources import BulkSource


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

#: The goodput probe: clean 2 x 4 Mb/s paths for 20 s, every forward link
#: flipping bits at the swept rate (none evading the link CRC).
_PROBE_BANDWIDTH_BPS = 4e6
_PROBE_DELAY_S = 0.03
_PROBE_DURATION_S = 20.0


def measure_corruption_goodput(
    protocol: str,
    rate: float,
    seed: int = 1,
    duration_s: float = _PROBE_DURATION_S,
) -> float:
    """Steady-state goodput (Mb/s) with every forward link corrupting at
    ``rate`` for the whole run. ``rate=0`` leaves the links pristine (no
    model installed, so the clean baseline draws no extra randomness)."""
    trace, network, paths = build_topology(
        soak.uniform_paths(2, _PROBE_BANDWIDTH_BPS, _PROBE_DELAY_S), seed
    )
    connection = build_connection(
        protocol, network.sim, paths, BulkSource(), seed, trace
    )
    if rate > 0.0:
        for path in paths:
            for link in path.forward_links:
                # Fresh model per link: realisations stay independent.
                link.set_corruption_model(BernoulliCorruption(rate))
    connection.start()
    network.sim.run(until=duration_s)
    goodput = connection.delivered_bytes * 8.0 / duration_s / 1e6
    connection.close()
    return goodput
