"""Resource-exhaustion soak harness: bounded-memory operation under
hostile receivers.

The chaos harness (:mod:`repro.faults.chaos`) attacks the *network*;
this one attacks the *endpoint*: a tiny receive buffer, an application
that stops reading, a path mix engineered for receive-buffer blocking.
Each :class:`~repro.faults.scenario.ExhaustionScenario` preset (group
``"exhaustion"`` of :data:`repro.faults.scenario.PRESETS`) fixes a
receiver memory budget (bytes, converted to blocks or chunks per
protocol) and an application drain model, then the :data:`EXHAUSTION`
harness of the soak kernel
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

from repro import soak
from repro.core.config import FmtcpConfig
from repro.faults.scenario import ExhaustionScenario
from repro.mptcp.connection import MptcpConfig
from repro.net.topology import PathConfig


def _size(protocol: str, scenario: ExhaustionScenario) -> soak.Sizing:
    """Each preset is its own sizing: paths, bytes, run length, whether it
    must complete, and the stack's config with flow control on under the
    preset's byte budget, converted to the protocol's units (8 KiB blocks
    for FMTCP, MSS chunks for MPTCP)."""
    units = soak.receive_units(protocol, scenario.recv_budget_bytes)
    if protocol == "fmtcp":
        config = FmtcpConfig(
            flow_control=True,
            recv_window_blocks=units,
            recv_drain_rate_bps=scenario.drain_rate_bps,
        )
    else:
        config = MptcpConfig(
            flow_control=True,
            recv_buffer_chunks=units,
            recv_drain_rate_bps=scenario.drain_rate_bps,
        )
    return soak.Sizing(
        [PathConfig(**params) for params in scenario.path_params],
        total_bytes=scenario.total_bytes,
        duration_s=scenario.duration_s,
        config=config,
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
