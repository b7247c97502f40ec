"""TCP-friendliness on a shared bottleneck (paper Section III-A).

The paper argues FMTCP inherits whatever fairness its per-subflow
congestion control provides, because coding changes *what* is sent, not
*how fast*. This experiment puts one FMTCP subflow (or one MPTCP
single-subflow connection, i.e. plain TCP) in a drop-tail dumbbell
against N plain TCP flows and measures per-flow goodput shares and
Jain's fairness index.

Plain TCP is :func:`~repro.mptcp.connection.conventional_tcp` — the
MPTCP baseline over one path: a reliable, Reno-controlled stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.runner import build_connection
from repro.net.topology import build_shared_bottleneck_network
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.workloads.sources import BulkSource


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²); 1.0 = perfectly fair."""
    if not rates:
        raise ValueError("need at least one rate")
    total = sum(rates)
    squares = sum(rate * rate for rate in rates)
    if squares == 0.0:
        return 1.0
    return total * total / (len(rates) * squares)


@dataclass
class FairnessResult:
    """Outcome of one shared-bottleneck contention run."""

    protocol_under_test: str
    n_competitors: int
    duration_s: float
    rates_mbps: Dict[str, float] = field(default_factory=dict)

    @property
    def all_rates(self) -> List[float]:
        return list(self.rates_mbps.values())

    @property
    def jain(self) -> float:
        return jain_index(self.all_rates)

    @property
    def test_flow_share(self) -> float:
        """Flow-under-test's goodput relative to the fair share."""
        fair = sum(self.all_rates) / len(self.all_rates)
        if fair == 0.0:
            return 0.0
        return self.rates_mbps["under_test"] / fair


def run_fairness(
    protocol_under_test: str = "fmtcp",
    n_competitors: int = 3,
    duration_s: float = 30.0,
    seed: int = 1,
) -> FairnessResult:
    """One FMTCP (or plain-TCP) flow vs ``n_competitors`` plain TCP flows,
    every one built by :func:`~repro.experiments.runner.build_connection`."""
    if protocol_under_test not in ("fmtcp", "tcp"):
        raise ValueError("protocol_under_test must be 'fmtcp' or 'tcp'")
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s!r}")
    network, paths = build_shared_bottleneck_network(
        n_endpoints=n_competitors + 1,
        rng=RngStreams(seed),
        trace=TraceBus(),  # per-connection accounting below, not trace-based
    )
    # The FMTCP flow draws the streams of the run seed's "fmtcp" fork.
    fmtcp_seed = RngStreams(seed).fork("fmtcp").master_seed
    flows = [("under_test", protocol_under_test, fmtcp_seed)] + [
        (f"tcp{index}", "tcp", seed) for index in range(n_competitors)
    ]
    connections = {
        name: build_connection(protocol, network.sim, [path], BulkSource(), flow_seed, None)
        for (name, protocol, flow_seed), path in zip(flows, paths)
    }

    for connection in connections.values():
        connection.start()
    network.sim.run(until=duration_s)

    result = FairnessResult(
        protocol_under_test=protocol_under_test,
        n_competitors=n_competitors,
        duration_s=duration_s,
    )
    for name, connection in connections.items():
        result.rates_mbps[name] = connection.delivered_bytes * 8.0 / duration_s / 1e6
        connection.close()
    return result
