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

The open-ended companion, goodput as a function of the receive-buffer
budget on an RTT-mismatched path pair, is the ``bufferblock_sweep``
catalog entry (:mod:`repro.experiments.catalog`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import soak
from repro.core.config import FmtcpConfig
from repro.mptcp.connection import MptcpConfig
from repro.net.topology import PathConfig


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
