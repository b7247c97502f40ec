"""Corruption-soak harness: finite transfers through data-damaging
scenarios, with *byte-level* delivery verification.

:func:`run_chaos` can prove a transfer completed; it cannot prove the
delivered bytes are the *sent* bytes, because its workload is synthetic.
:func:`run_corruption` — the :data:`CORRUPTION` harness of the soak
kernel (:mod:`repro.soak`) — drives real random payloads end-to-end
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

from typing import Iterator, Optional

from repro import soak
from repro.core.config import FmtcpConfig
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
)


def run_corruption(
    protocol: str,
    scenario: FaultScenario,
    seed: int = 1,
    duration_s: float = 40.0,
    bandwidth_bps: float = 1e5,
    delay_s: float = 0.03,
    base_loss: float = 0.0,
    total_bytes: int = 327_680,
    flight_dump_dir: Optional[str] = None,
    flight_capacity: int = 4096,
) -> soak.SoakReport:
    """Run one finite *real-payload* transfer through ``scenario``.

    Sizing mirrors :func:`run_chaos` but smaller: real fountain coding
    pays for GF(2) elimination per block, and the soak runs this 30
    seeds x 2 protocols x presets. At 2 x 0.1 Mb/s the 320 KiB transfer
    needs ~13 s clean, so it is mid-flight throughout the preset
    corruption window ([8, 18) s) and must survive it, yet finishes
    well before ``duration_s`` once the links heal.
    """
    return soak.run_soak(
        CORRUPTION,
        protocol,
        scenario,
        seed=seed,
        duration_s=duration_s,
        path_configs=soak.uniform_paths(
            scenario.n_paths, bandwidth_bps, delay_s, base_loss
        ),
        total_bytes=total_bytes,
        # Real coding so actual bytes flow through the fountain codec.
        config=FmtcpConfig(coding="real") if protocol == "fmtcp" else None,
        flight_dump_dir=flight_dump_dir,
        flight_capacity=flight_capacity,
    )


def measure_corruption_goodput(
    protocol: str,
    rate: float,
    seed: int = 1,
    duration_s: float = 20.0,
    bandwidth_bps: float = 4e6,
    delay_s: float = 0.03,
    effect: str = "bitflip",
    evade_crc: float = 0.0,
) -> float:
    """Steady-state goodput (Mb/s) with every forward link corrupting at
    ``rate`` for the whole run. ``rate=0`` leaves the links pristine (no
    model installed, so the clean baseline draws no extra randomness)."""
    trace, network, paths = soak.build_topology(
        soak.uniform_paths(2, bandwidth_bps, delay_s), seed
    )
    connection = soak.build_connection(
        protocol, network.sim, paths, BulkSource(), seed, trace
    )
    if rate > 0.0:
        for path in paths:
            for link in path.forward_links:
                # Fresh model per link: realisations stay independent.
                link.set_corruption_model(
                    BernoulliCorruption(rate, effect=effect, evade_crc=evade_crc)
                )
    connection.start()
    network.sim.run(until=duration_s)
    goodput = connection.delivered_bytes * 8.0 / duration_s / 1e6
    connection.close()
    return goodput
