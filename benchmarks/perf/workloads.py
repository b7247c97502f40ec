"""The benchmark's five workloads: what each composes, runs and checks.

Every workload is one closed-loop transfer (a single backlogged sender,
ACK-clocked) composed from the package's public constructors the same way
``repro.experiments.runner.run_transfer`` and
``repro.traces.measure_trace_goodput`` compose theirs. The benchmark does
its own composition because it needs what those helpers do not return:
the simulator, the links and the connection, whose public counters are
the per-layer counts, and a ``sink`` whose deliveries are checked.

The seed feeds ``RngStreams``, the payload generator and the trace
generator; ``src/`` sees only the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.experiments.runner import default_mptcp_config
from repro.metrics.collectors import MetricsSuite
from repro.mptcp.connection import MptcpConnection
from repro.net.topology import PathConfig, build_two_path_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.telemetry.session import TelemetryConfig, TelemetrySession
from repro.traces.generators import gprs_trace
from repro.traces.player import TracePlayer
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs
from repro.workloads.sources import BulkSource, RandomPayloadSource

#: ``--quick`` (the self-test) shortens every transfer by this factor.
QUICK_SCALE = 0.1


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (see README.md)."""

    name: str
    why: str
    protocol: str  # "fmtcp" | "mptcp"
    duration_s: float  # simulated seconds per rep
    real_blocks: int = 0  # > 0: byte-level GF(2) codec, this many real blocks
    instrumented: bool = False  # TelemetryConfig(profile_sim=True, spans=True)
    gprs: bool = False  # slow clean paths, GPRS-like trace on path 1
    tax_base: Optional[str] = None  # workload whose wall_s is the tax base


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fmtcp_bulk",
            "Paper's headline path (Table I case 2, rank model): core's EAT "
            "allocation, next_payload and receiver absorb do most of the work.",
            protocol="fmtcp",
            duration_s=14.0,
        ),
        Workload(
            "mptcp_bulk",
            "Bypasses core and fountain: net, sim, tcp, mptcp carry it, so a "
            "core/fountain change must show no movement here.",
            protocol="mptcp",
            duration_s=60.0,
        ),
        Workload(
            "fmtcp_realcodec",
            "Same core path, but fountain runs the byte-level GF(2) encoder and "
            "eliminator instead of the O(1) rank model, on a fixed number of "
            "blocks; delivered bytes are verified.",
            protocol="fmtcp",
            duration_s=6.0,
            real_blocks=72,
        ),
        Workload(
            "fmtcp_instrumented",
            "fmtcp_bulk with TraceBus subscribers attached, so every "
            "has_subscribers guard goes the other way; isolates telemetry and "
            "metrics.",
            protocol="fmtcp",
            duration_s=14.0,
            instrumented=True,
            tax_base="fmtcp_bulk",
        ),
        Workload(
            "mptcp_gprs",
            "GPRS-like bursty trace replayed on path 1: the only workload that runs "
            "traces, runtime Link.set_* mutation and the RTO/back-off half of tcp "
            "and mptcp.",
            protocol="mptcp",
            duration_s=800.0,
            gprs=True,
        ),
    )
}


class RepFailed(Exception):
    """A rep whose output checks failed; the message is the reason."""


def check(condition: bool, reason: str) -> None:
    if not condition:
        raise RepFailed(reason)


def run_rep(
    workload: Workload, seed: int, quick: bool = False, corrupt_sink: bool = False
) -> Dict[str, Any]:
    """Compose, run and check one transfer; returns its measurements.

    The returned ``digest`` covers every simulated result and count, so
    two reps of one (workload, seed) — traced or not — must agree on it.
    Raises :class:`RepFailed` when an output check fails; ``corrupt_sink``
    (the self-test's fault) makes the sink see its last delivery twice.
    """
    scale = QUICK_SCALE if quick else 1.0
    # A fixed-size transfer ends by itself: its duration is only a deadline.
    duration_s = workload.duration_s * (1.0 if workload.real_blocks else scale)
    sim = Simulator()
    rng = RngStreams(seed)
    bus = TraceBus()
    if workload.gprs:
        # Path 0 is slow enough that the traced path 1 carries close to half
        # of the packets; at measure_trace_goodput's 0.6 Mbit/s it carried 3 %
        # and a run saw a handful of timeouts.
        path_configs = [
            PathConfig(bandwidth_bps=1e5, delay_s=0.03, loss_rate=0.0),
            PathConfig(bandwidth_bps=6e5, delay_s=0.03, loss_rate=0.0),
        ]
    else:
        case2 = next(case for case in TABLE1_CASES if case.case_id == 2)
        path_configs = table1_path_configs(case2)
    network, paths = build_two_path_network(path_configs, sim=sim, rng=rng, trace=bus)
    metrics = MetricsSuite(bus)
    session = (
        TelemetrySession(
            sim, bus, config=TelemetryConfig(profile_sim=True, spans=True)
        )
        if workload.instrumented
        else None
    )

    delivered_ids: List[int] = []
    delivered_data = bytearray()
    delivered_at: List[float] = []  # simulated time of each data delivery
    fmtcp_config = FmtcpConfig(coding="real") if workload.real_blocks else FmtcpConfig()
    if workload.real_blocks:
        # A fixed amount of data that every seed finishes well within the
        # run: the codec's work per rep is then the same whatever the losses,
        # where a fixed duration this short is mostly slow start and its
        # volume swings by a tenth from seed to seed.
        n_blocks = max(2, round(workload.real_blocks * scale))
        source = RandomPayloadSource(
            n_blocks * fmtcp_config.block_bytes, rng=rng.get("bench:payload")
        )
    else:
        source = BulkSource()

    if workload.protocol == "fmtcp":

        def block_sink(block_id: int, data: Optional[bytes]) -> None:
            delivered_ids.append(block_id)
            if data is not None:
                delivered_data.extend(data)
                delivered_at.append(sim.now)

        connection = FmtcpConnection(
            sim, paths, source, config=fmtcp_config, trace=bus, rng=rng,
            sink=block_sink,
        )
    else:
        connection = MptcpConnection(
            sim, paths, source, config=default_mptcp_config(fmtcp_config),
            trace=bus, sink=lambda chunk: delivered_ids.append(chunk.dsn),
        )
    player = None
    if workload.gprs:
        # One trace as long as the run (not a looped 16 s one) so the share
        # of fade time, and with it the work per rep, is steady across seeds.
        player = TracePlayer(
            sim, paths[1].forward_links,
            gprs_trace(seed=seed, duration_s=duration_s), bus=bus,
        )
        player.start()
    if session is not None:
        session.attach(connection)
    connection.start()
    sim.run(until=duration_s)

    # Goodput is over the time the transfer took: the whole run for a
    # backlogged source, up to the last delivery for a fixed-size one.
    summary = metrics.summary(delivered_at[-1] if workload.real_blocks else duration_s)
    subflows = connection.subflows
    links = network.links
    counts: Dict[str, Any] = {
        "sim.events": sim.events_processed,
        "net.packets_delivered": sum(link.packets_delivered for link in links),
        "net.drops_loss": sum(link.packets_dropped_loss for link in links),
        "net.drops_queue": sum(link.packets_dropped_queue for link in links),
        "net.queue_high_watermark": max(link.queue.high_watermark for link in links),
        "tcp.packets_sent": sum(sf.packets_sent for sf in subflows),
        "tcp.acks_processed": sum(sf.packets_acked for sf in subflows),
        "tcp.lost_dupack": sum(sf.packets_lost_dupack for sf in subflows),
        "tcp.lost_timeout": sum(sf.packets_lost_timeout for sf in subflows),
        "traces.player_ticks": player.ticks_applied if player is not None else 0,
    }
    if workload.protocol == "fmtcp":
        counts.update(
            {
                "core.symbols_sent": connection.sender.symbols_sent,
                "core.symbols_redundant": connection.receiver.symbols_redundant,
                "core.redundancy_ratio": connection.redundancy_ratio(),
                "core.blocks_decoded": connection.receiver.blocks_decoded,
                "fountain.dependent_symbol_ratio": connection.receiver.symbols_redundant
                / max(1, connection.receiver.symbols_received),
            }
        )
    else:
        counts.update(
            {
                "mptcp.reorder_high_watermark": connection.reorder_buffer.high_watermark,
                "mptcp.chunks_retransmitted": connection.chunks_retransmitted,
                "mptcp.chunks_reinjected": connection.chunks_reinjected,
            }
        )
    if player is not None:
        player.stop()
    connection.close()
    if session is not None:
        spans = session.finish().spans
        counts["telemetry.spans_finished"] = spans["finished"]
        counts["telemetry.max_conservation_error_s"] = spans["max_conservation_error_s"]

    if corrupt_sink:
        delivered_ids.append(delivered_ids[-1])
    blocks = int(summary["blocks"])
    check(blocks > 0 and len(delivered_ids) > 0, "no block was delivered")
    check(
        delivered_ids == list(range(len(delivered_ids))),
        "sink ids were not delivered in order exactly once",
    )
    if workload.protocol == "fmtcp":
        check(
            counts["core.blocks_decoded"] >= max(len(delivered_ids), blocks),
            f"decoded {counts['core.blocks_decoded']} blocks but delivered "
            f"{len(delivered_ids)} and the sender confirmed {blocks}",
        )
    if workload.real_blocks:
        check(
            bytes(delivered_data) == bytes(source.transcript)
            and len(delivered_data) == source.total_bytes,
            f"delivered {len(delivered_data)} bytes of {source.total_bytes}, or "
            f"they differ from what the source produced",
        )
    if workload.instrumented:
        check(  # float rounding reaches 1e-16; tests/test_span_soak.py allows 1e-9
            counts["telemetry.max_conservation_error_s"] <= 1e-9,
            f"span conservation error {counts['telemetry.max_conservation_error_s']}",
        )
        check(
            counts["telemetry.spans_finished"] >= len(delivered_ids),
            f"{counts['telemetry.spans_finished']} spans for "
            f"{len(delivered_ids)} delivered blocks",
        )

    simulated = {
        "summary": summary,
        "counts": counts,
        "subflows": [
            {
                "packets_sent": sf.packets_sent,
                "packets_acked": sf.packets_acked,
                "loss_estimate": sf.loss_rate_estimate,
                "srtt": sf.srtt,
                "cwnd": sf.cc.cwnd,
            }
            for sf in subflows
        ],
        "delivered_ids": len(delivered_ids),
        "delivered_sha": hashlib.sha256(delivered_data).hexdigest(),
    }
    digest = hashlib.sha256(
        json.dumps(simulated, sort_keys=True).encode()
    ).hexdigest()
    return {"summary": summary, "counts": counts, "digest": digest}
