"""Resource-exhaustion soak harness: bounded-memory operation under
hostile receivers.

The chaos harness (:mod:`repro.faults.chaos`) attacks the *network*;
this one attacks the *endpoint*: a tiny receive buffer, an application
that stops reading, a path mix engineered for receive-buffer blocking.
Each :class:`ExhaustionScenario` fixes a receiver memory budget (bytes,
converted to blocks or chunks per protocol) and an application drain
model, then the :data:`EXHAUSTION` harness of the soak kernel
(:mod:`repro.soak`) drives one finite transfer with
flow control on, a :class:`~repro.robustness.budget.MemoryBudget`
accountant riding the run and a
:class:`~repro.robustness.watchdog.Watchdog` guaranteeing a stalled run
degrades and fails cleanly instead of hanging (the kernel's
:func:`~repro.soak.guard` step).

:func:`measure_bufferblock` is the open-ended companion behind the
``bufferblock_sweep`` catalog entry: goodput as a function of the
receive-buffer budget on an RTT-mismatched path pair, the paper's
receive-buffer-blocking story in one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import soak
from repro.core.config import FmtcpConfig
from repro.experiments.runner import build_connection, build_topology
from repro.mptcp.connection import MptcpConfig
from repro.net.topology import PathConfig
from repro.workloads.sources import BulkSource


@dataclass(frozen=True)
class ExhaustionScenario:
    """One resource-exhaustion preset: a memory budget plus a drain model.

    ``recv_budget_bytes`` is the receiver's whole memory allowance; the
    per-protocol configs convert it to units (8 KiB blocks for FMTCP,
    MSS chunks for MPTCP) so both stacks face the *same* byte budget
    rather than the same unit count. ``drain_rate_bps`` follows the
    config convention: ``None`` = instant application, ``0.0`` = an
    application that stopped reading.
    """

    name: str
    description: str
    recv_budget_bytes: int
    drain_rate_bps: Optional[float]
    # One dict of PathConfig kwargs per path.
    path_params: Tuple[Dict[str, float], ...]
    total_bytes: int
    duration_s: float
    expect_complete: bool = True

    def config_for(self, protocol: str):
        """The stack's config with flow control on under this budget."""
        units = soak.receive_units(protocol, self.recv_budget_bytes)
        if protocol == "fmtcp":
            return FmtcpConfig(
                flow_control=True,
                recv_window_blocks=units,
                recv_drain_rate_bps=self.drain_rate_bps,
            )
        return MptcpConfig(
            flow_control=True,
            recv_buffer_chunks=units,
            recv_drain_rate_bps=self.drain_rate_bps,
        )

    def route(self, harness: Optional[str] = None) -> str:
        """Exhaustion presets route by what they are, not by events (see
        :data:`repro.faults.scenario.ROUTES`)."""
        if harness not in (None, "exhaustion"):
            raise ValueError(
                f"scenario {self.name!r} is an exhaustion preset, which the "
                f"{harness} harness cannot check; it routes to the exhaustion "
                "harness"
            )
        return "exhaustion"


def tiny_receive_buffer() -> ExhaustionScenario:
    """A 32 KiB receiver: four FMTCP blocks of head-room, lossy paths."""
    return ExhaustionScenario(
        name="tiny_receive_buffer",
        description="32 KiB receive budget, 1% loss on both paths",
        recv_budget_bytes=32_768,
        drain_rate_bps=None,
        path_params=(
            {"bandwidth_bps": 1.5e6, "delay_s": 0.03, "loss_rate": 0.01},
            {"bandwidth_bps": 1.5e6, "delay_s": 0.03, "loss_rate": 0.01},
        ),
        total_bytes=600_000,
        duration_s=30.0,
        expect_complete=True,
    )


def slow_drain_receiver() -> ExhaustionScenario:
    """The application stops reading: unrecoverable, must fail cleanly."""
    return ExhaustionScenario(
        name="slow_drain_receiver",
        description="application stops reading (drain rate 0); clean fail",
        recv_budget_bytes=98_304,
        drain_rate_bps=0.0,
        path_params=(
            {"bandwidth_bps": 2e6, "delay_s": 0.02, "loss_rate": 0.0},
            {"bandwidth_bps": 2e6, "delay_s": 0.02, "loss_rate": 0.0},
        ),
        total_bytes=800_000,
        duration_s=25.0,
        expect_complete=False,
    )


def rtt_mismatch_blocking() -> ExhaustionScenario:
    """Fast/slow path pair: classic receive-buffer blocking pressure."""
    return ExhaustionScenario(
        name="rtt_mismatch_blocking",
        description="30x RTT mismatch + loss on the slow path, 32 KiB budget",
        recv_budget_bytes=32_768,
        drain_rate_bps=None,
        path_params=(
            {"bandwidth_bps": 4e6, "delay_s": 0.01, "loss_rate": 0.0},
            {"bandwidth_bps": 1e6, "delay_s": 0.3, "loss_rate": 0.03},
        ),
        total_bytes=800_000,
        duration_s=30.0,
        expect_complete=True,
    )


EXHAUSTION_SCENARIOS = {
    "tiny_receive_buffer": tiny_receive_buffer,
    "slow_drain_receiver": slow_drain_receiver,
    "rtt_mismatch_blocking": rtt_mismatch_blocking,
}


def _size(protocol: str, scenario: ExhaustionScenario) -> soak.Sizing:
    """Each preset is its own sizing: paths, bytes, run length, the
    budgeted flow-control config and whether it must complete."""
    return soak.Sizing(
        [PathConfig(**params) for params in scenario.path_params],
        total_bytes=scenario.total_bytes,
        duration_s=scenario.duration_s,
        config=scenario.config_for(protocol),
        expect_complete=scenario.expect_complete,
    )


EXHAUSTION = soak.Harness(
    "exhaustion",
    soak.bulk_source,
    steps=(soak.guard,),
    invariants=(
        soak.bounded_memory,
        soak.exactly_once_in_order,
        soak.completes_or_fails_cleanly,
        soak.outcome_as_promised,
        soak.no_wedged_timers,
    ),
    size=_size,
)


# ----------------------------------------------------------------------
# Buffer-blocking benchmark backend.
# ----------------------------------------------------------------------

# The bench topology: equal-bandwidth paths, one with 10x the RTT and
# more loss. Both paths must carry real traffic (equal bandwidth), so a
# slow-path loss stalls MPTCP's in-order frontier while the buffered
# fast-path data pins the tiny window — the "receive buffer blocking"
# of Iyengar et al. that the paper's Section II argues coding sidesteps.
BUFFERBLOCK_PATHS: Tuple[Tuple[float, float, float], ...] = (
    (1.5e6, 0.03, 0.04),
    (1.5e6, 0.3, 0.08),
)


def _bufferblock_config(protocol: str, budget_bytes: int):
    """Each stack configured for one shared receive-buffer byte budget.

    MPTCP's unit is fixed (one MSS chunk), so its budget is just a chunk
    count. FMTCP's block size k̂ is a *design parameter chosen against
    the buffer* (paper Section III-B), so the bench does what a deployer
    would: shrink the block so roughly eight fit in the budget, floored
    at 64 symbols (2 KiB) where the completeness margin starts to
    dominate, capped at the default 256 (8 KiB).
    """
    if protocol == "fmtcp":
        base = FmtcpConfig()
        symbols = min(256, max(64, budget_bytes // (8 * base.symbol_size)))
        block_bytes = symbols * base.symbol_size
        return FmtcpConfig(
            flow_control=True,
            symbols_per_block=symbols,
            recv_window_blocks=max(2, budget_bytes // block_bytes),
        )
    if protocol == "mptcp":
        return MptcpConfig(
            flow_control=True,
            recv_buffer_chunks=soak.receive_units("mptcp", budget_bytes),
        )
    raise ValueError(f"unknown protocol {protocol!r}")


def measure_bufferblock(
    protocol: str,
    budget_bytes: int,
    seed: int = 1,
    duration_s: float = 40.0,
) -> Dict[str, Any]:
    """Open-ended goodput under one receive-buffer byte budget.

    Flow control is on for both stacks; the budget is converted to each
    protocol's unit granularity by :func:`_bufferblock_config`, so FMTCP
    and MPTCP face the same byte allowance.
    """
    config = _bufferblock_config(protocol, budget_bytes)
    trace, network, paths = build_topology(
        [
            PathConfig(bandwidth_bps=bw, delay_s=delay, loss_rate=loss)
            for bw, delay, loss in BUFFERBLOCK_PATHS
        ],
        seed,
    )
    connection = build_connection(
        protocol, network.sim, paths, BulkSource(), seed, trace, config=config
    )
    connection.start()
    network.sim.run(until=duration_s)
    delivered = connection.delivered_bytes
    peak = connection.memory_stats()["recv_peak_occupancy"]
    connection.close()
    return {
        "protocol": protocol,
        "budget_bytes": budget_bytes,
        "budget_units": soak.window_units(protocol, config),
        "peak_occupancy": peak,
        "goodput_mbytes_per_s": round(delivered / duration_s / 1e6, 4),
    }
