"""Run one protocol transfer over a configured topology and measure it.

This is the equivalent of one ns-2 run of the paper: assemble the
two-path network, attach a backlogged (or caller-supplied) source to
one of the :data:`PROTOCOLS`, simulate for a fixed duration, and return
the three paper metrics plus protocol-internal statistics.

:func:`build_topology` and :func:`build_connection` are the one way a
transfer's network and transport are built: :func:`run_transfer`, the
soak kernel, the fault-response and recovery probes and the benchmarks
all call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.fixedrate.connection import FixedRateConfig, FixedRateConnection
from repro.metrics.collectors import MetricsSuite
from repro.mptcp.connection import MptcpConfig, MptcpConnection, conventional_tcp
from repro.net.topology import PathConfig, build_two_path_network
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.telemetry.session import TelemetryConfig, TelemetryReport, TelemetrySession
from repro.workloads.sources import BulkSource

PROTOCOLS = ("fmtcp", "mptcp", "tcp", "fixedrate")


@dataclass
class ExperimentResult:
    """Everything measured in one run."""

    protocol: str
    duration_s: float
    seed: int
    path_configs: List[PathConfig]
    summary: Dict[str, float]
    goodput_series: List[Tuple[float, float]] = field(default_factory=list)
    block_delays: List[float] = field(default_factory=list)
    subflow_stats: List[Dict[str, float]] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)
    telemetry: Optional[TelemetryReport] = None

    @property
    def mean_block_delay_ms(self) -> float:
        return self.summary["mean_block_delay_ms"]

    @property
    def jitter_ms(self) -> float:
        return self.summary["jitter_ms"]


def default_mptcp_config(fmtcp: FmtcpConfig) -> MptcpConfig:
    """Baseline config matched to FMTCP's for a fair comparison.

    Section V: "we partition the data streams transmitted by IETF-MPTCP
    into blocks of the same length as that of FMTCP and measure the delay
    and jitter accordingly". The receive buffer is sized to the same byte
    budget FMTCP's pending-block limit implies.
    """
    buffer_bytes = fmtcp.block_bytes * fmtcp.max_pending_blocks
    return MptcpConfig(
        recv_buffer_chunks=max(16, buffer_bytes // fmtcp.mss),
    )


def default_fixedrate_config(fmtcp: FmtcpConfig) -> FixedRateConfig:
    """The fixed-rate transport on FMTCP's block geometry: the same
    symbols per block, symbol size, MSS and pending-block limit."""
    return FixedRateConfig(
        symbols_per_block=fmtcp.symbols_per_block,
        symbol_size=fmtcp.symbol_size,
        max_pending_blocks=fmtcp.max_pending_blocks,
    )


def transfer_configs(
    fmtcp_config: Optional[FmtcpConfig],
    mptcp_config: Optional[MptcpConfig],
    fixedrate_config: Optional[FixedRateConfig],
) -> Tuple[FmtcpConfig, MptcpConfig, FixedRateConfig]:
    """The three configs a transfer runs on: each one given, else FMTCP's
    default and the other two derived from FMTCP's
    (:func:`default_mptcp_config`, :func:`default_fixedrate_config`)."""
    fmtcp_config = fmtcp_config or FmtcpConfig()
    return (
        fmtcp_config,
        mptcp_config or default_mptcp_config(fmtcp_config),
        fixedrate_config or default_fixedrate_config(fmtcp_config),
    )


def build_topology(path_configs: Sequence[PathConfig], seed: int):
    """``(trace, network, paths)`` for one seeded run."""
    trace = TraceBus()
    network, paths = build_two_path_network(
        list(path_configs), rng=RngStreams(seed), trace=trace
    )
    return trace, network, paths


def build_connection(
    protocol,
    sim,
    paths,
    source,
    seed,
    trace,
    config=None,
    sink=None,
    epoch=0,
    resume=None,
):
    """The one place a transfer's connection is built, for any of
    :data:`PROTOCOLS`; ``config=None`` is the protocol's own default.

    ``"tcp"`` is conventional TCP over exactly one path. ``sink`` (the
    soaks' delivery check) reaches FMTCP and MPTCP only. ``epoch`` /
    ``resume`` are the recovery harness's: epoch 0 draws the seed's own
    RNG streams, later epochs disjoint ones.
    """
    if protocol == "fmtcp":
        return FmtcpConnection(
            sim, paths, source, config=config, trace=trace,
            rng=RngStreams(seed).for_epoch(epoch), sink=sink, resume=resume,
        )
    if protocol == "mptcp":
        return MptcpConnection(
            sim, paths, source, config=config, trace=trace, sink=sink, resume=resume
        )
    if protocol == "fixedrate":
        return FixedRateConnection(sim, paths, source, config=config, trace=trace)
    if protocol == "tcp":
        if len(paths) != 1:
            raise ValueError(f"tcp runs over exactly one path, got {len(paths)}")
        return conventional_tcp(sim, paths[0], source, config=config, trace=trace)
    raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")


def run_transfer(
    protocol: str,
    path_configs: Sequence[PathConfig],
    duration_s: float,
    seed: int = 1,
    fmtcp_config: Optional[FmtcpConfig] = None,
    mptcp_config: Optional[MptcpConfig] = None,
    source=None,
    bin_width_s: float = 1.0,
    collect_series: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
    fixedrate_config: Optional[FixedRateConfig] = None,
) -> ExperimentResult:
    """Simulate one transfer and return its measurements.

    Each protocol runs on its own config; one left ``None`` is derived
    from ``fmtcp_config`` (:func:`transfer_configs`).

    Passing a :class:`~repro.telemetry.session.TelemetryConfig` attaches
    the full telemetry stack (periodic samplers, optional JSONL trace
    file, sim profiler) for the duration of the run; the resulting
    :class:`~repro.telemetry.session.TelemetryReport` lands on
    ``result.telemetry``. Without it nothing is instrumented.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s!r}")
    trace, network, paths = build_topology(path_configs, seed)
    sim = network.sim
    metrics = MetricsSuite(trace, bin_width_s=bin_width_s)
    session = TelemetrySession(sim, trace, config=telemetry) if telemetry else None
    if source is None:
        source = BulkSource()
    fmtcp_config, mptcp_config, fixedrate_config = transfer_configs(
        fmtcp_config, mptcp_config, fixedrate_config
    )
    config = {"fmtcp": fmtcp_config, "fixedrate": fixedrate_config}.get(protocol, mptcp_config)
    if protocol == "tcp":
        # Conventional single-path TCP on the *best* path (lowest loss,
        # then lowest delay) — the paper's Section I comparator.
        best = min(
            range(len(paths)),
            key=lambda i: (path_configs[i].loss_rate, path_configs[i].delay_s),
        )
        paths = [paths[best]]
    connection = build_connection(protocol, sim, paths, source, seed, trace, config=config)

    if hasattr(source, "attach"):
        source.attach(connection)
    if session is not None:
        session.attach(connection)
    connection.start()
    sim.run(until=duration_s)

    result = ExperimentResult(
        protocol=protocol,
        duration_s=duration_s,
        seed=seed,
        path_configs=list(path_configs),
        summary=metrics.summary(duration_s),
        block_delays=metrics.block_delay.delays_in_sequence(),
        subflow_stats=[_subflow_stats(subflow) for subflow in connection.subflows],
    )
    if collect_series:
        result.goodput_series = metrics.goodput.series(duration_s)
    if protocol == "fixedrate":
        result.extras = {
            "symbols_sent": connection.symbols_sent,
            "symbols_retransmitted": connection.symbols_retransmitted,
            "blocks_decoded": connection.blocks_decoded,
            "redundancy_ratio": connection.redundancy_ratio(),
        }
    elif protocol == "fmtcp":
        result.extras = {
            "symbols_sent": connection.sender.symbols_sent,
            "symbols_lost": connection.sender.symbols_lost,
            "symbols_redundant": connection.receiver.symbols_redundant,
            "blocks_decoded": connection.receiver.blocks_decoded,
            "redundancy_ratio": connection.redundancy_ratio(),
            "recv_peak_occupancy": connection.memory_stats()["recv_peak_occupancy"],
        }
    else:
        result.extras = {
            "chunks_retransmitted": connection.chunks_retransmitted,
            "chunks_reinjected": connection.chunks_reinjected,
            "reorder_high_watermark": connection.reorder_buffer.high_watermark,
            "recv_peak_occupancy": connection.memory_stats()["recv_peak_occupancy"],
        }
    connection.close()
    if session is not None:
        result.telemetry = session.finish()
    return result


def _subflow_stats(subflow) -> Dict[str, float]:
    return {
        "packets_sent": float(subflow.packets_sent),
        "packets_acked": float(subflow.packets_acked),
        "lost_dupack": float(subflow.packets_lost_dupack),
        "lost_timeout": float(subflow.packets_lost_timeout),
        "loss_estimate": subflow.loss_rate_estimate,
        "srtt_ms": subflow.srtt * 1e3,
        "cwnd": subflow.cc.cwnd,
    }
