"""One fresh interpreter's share of a benchmark run (started by run.py).

Untraced mode: a discarded warm-up rep, then one timed rep per seed given.
Traced mode: a warm-up and a few untraced reps for the base, then one rep
under the :class:`~tracer.LayerTracer`, turned into the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, List, Tuple

import workloads
from tracer import LAYERS, LayerTracer
from workloads import RepFailed, Workload, check

#: Untraced reps behind the traced pass's base wall time (and tax base).
BASE_REPS = 3

EMIT = "repro.sim.trace:TraceBus.emit"
SCHEDULE = "repro.sim.engine:Simulator.schedule_at"
CANCEL = "repro.sim.engine:Event.cancel"
SEAL = "repro.net.integrity:seal"
VERIFY = "repro.net.integrity:verify"
LINK_SEND = "repro.net.link:Link.send"
LINK_SETTERS = (
    "repro.net.link:Link.set_bandwidth",
    "repro.net.link:Link.set_delay",
    "repro.net.link:Link.set_loss_model",
)
PUMP = "repro.tcp.subflow:Subflow.pump"
NEXT_PAYLOAD = "repro.core.sender:FmtcpSender.next_payload"
ALLOCATE = "repro.core.allocation:allocate_packet"
LOSS_RATE_OF = "repro.core.sender:FmtcpSender.loss_rate_of"
K_TILDE = "repro.core.blocks:PendingBlock.k_tilde"
PATH_ESTIMATES = "repro.core.sender:FmtcpSender.path_estimates"
CORE_ON_ACK = "repro.core.sender:FmtcpSender.on_ack_feedback"
ON_SEGMENT = "repro.core.receiver:FmtcpReceiver.on_segment"
RANK_ADD = "repro.fountain.rank_model:RankEvolutionModel.add_symbol"
ENCODE = "repro.fountain.codec:BlockEncoder.next_symbol"
DECODER_ADD = "repro.fountain.codec:BlockDecoder.add_symbol"
DECODE = "repro.fountain.codec:BlockDecoder.decode"
MPTCP_NEXT_PAYLOAD = "repro.mptcp.connection:MptcpConnection.next_payload"
MPTCP_ON_ACK = "repro.mptcp.connection:MptcpConnection.on_ack_feedback"
REORDER_INSERT = "repro.mptcp.recv_buffer:ReorderBuffer.insert"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tr: LayerTracer,
    counts: Dict[str, Any],
    traced_wall_s: float,
    untraced_wall_s: float,
    tax_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, from one traced rep."""
    self_s = tr.layer_self_s()
    calls, incl = tr.calls, tr.inclusive_s
    events = counts["sim.events"]
    allocations = calls(ALLOCATE)
    symbols_absorbed = calls(RANK_ADD) + calls(DECODER_ADD)
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update(
        {
            "sim.events": events,
            "sim.schedule_calls": calls(SCHEDULE),
            "sim.events_per_s": events / untraced_wall_s,
            "sim.us_per_event": 1e6 * self_s["sim"] / events,
            "sim.cancelled_ratio": _ratio(calls(CANCEL), calls(SCHEDULE)),
            "sim.heap_depth_max": tr.gauges["sim.heap_depth_max"],
            "sim.trace_emit_calls": calls(EMIT),
            "sim.trace_emit_self_s": tr.self_s(EMIT),
            "net.link_send_calls": calls(LINK_SEND),
            "net.packets_delivered": counts["net.packets_delivered"],
            "net.us_per_packet": 1e6
            * _ratio(self_s["net"], counts["net.packets_delivered"]),
            "net.checksum_calls": calls(SEAL) + calls(VERIFY),
            "net.checksum_incl_s": incl(SEAL) + incl(VERIFY),
            "net.drops_loss": counts["net.drops_loss"],
            "net.drops_queue": counts["net.drops_queue"],
            "net.queue_high_watermark": counts["net.queue_high_watermark"],
            "net.link_mutations": sum(calls(name) for name in LINK_SETTERS),
            "tcp.pump_calls": calls(PUMP),
            "tcp.packets_sent": counts["tcp.packets_sent"],
            "tcp.acks_processed": counts["tcp.acks_processed"],
            "tcp.us_per_packet": 1e6
            * _ratio(self_s["tcp"], counts["tcp.packets_sent"]),
            "tcp.lost_dupack": counts["tcp.lost_dupack"],
            "tcp.lost_timeout": counts["tcp.lost_timeout"],
            "core.next_payload_calls": calls(NEXT_PAYLOAD),
            "core.next_payload_incl_s": incl(NEXT_PAYLOAD),
            "core.allocate_calls": allocations,
            "core.allocate_incl_s": incl(ALLOCATE),
            "core.loss_rate_of_calls": calls(LOSS_RATE_OF),
            "core.k_tilde_calls": calls(K_TILDE),
            "core.loss_rate_of_per_round": _ratio(calls(LOSS_RATE_OF), allocations),
            "core.k_tilde_per_round": _ratio(calls(K_TILDE), allocations),
            "core.path_estimates_calls": calls(PATH_ESTIMATES),
            "core.on_ack_feedback_incl_s": incl(CORE_ON_ACK),
            "core.on_segment_calls": calls(ON_SEGMENT),
            "core.on_segment_incl_s": incl(ON_SEGMENT),
            "core.symbols_sent": counts.get("core.symbols_sent", 0),
            "core.symbols_redundant": counts.get("core.symbols_redundant", 0),
            "core.redundancy_ratio": counts.get("core.redundancy_ratio", 0.0),
            "core.blocks_decoded": counts.get("core.blocks_decoded", 0),
            "fountain.rank_add_symbol_calls": calls(RANK_ADD),
            "fountain.encode_symbols": calls(ENCODE),
            "fountain.encode_incl_s": incl(ENCODE),
            "fountain.decoder_add_symbol_calls": calls(DECODER_ADD),
            "fountain.decoder_add_symbol_incl_s": incl(DECODER_ADD),
            "fountain.decode_calls": calls(DECODE),
            "fountain.decode_incl_s": incl(DECODE),
            "fountain.us_per_symbol": 1e6
            * _ratio(self_s["fountain"], symbols_absorbed),
            "fountain.dependent_symbol_ratio": counts.get(
                "fountain.dependent_symbol_ratio", 0.0
            ),
            "mptcp.next_payload_calls": calls(MPTCP_NEXT_PAYLOAD),
            "mptcp.on_ack_feedback_incl_s": incl(MPTCP_ON_ACK),
            "mptcp.reorder_insert_calls": calls(REORDER_INSERT),
            "mptcp.reorder_high_watermark": counts.get(
                "mptcp.reorder_high_watermark", 0
            ),
            "mptcp.chunks_retransmitted": counts.get("mptcp.chunks_retransmitted", 0),
            "mptcp.chunks_reinjected": counts.get("mptcp.chunks_reinjected", 0),
            "telemetry.calls": tr.layer_calls()["telemetry"],
            "telemetry.spans_finished": counts.get("telemetry.spans_finished", 0),
            "telemetry.max_conservation_error_s": counts.get(
                "telemetry.max_conservation_error_s", 0.0
            ),
            "telemetry.tax_ratio": tax_ratio,
            "traces.player_ticks": counts["traces.player_ticks"],
            "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
            "trace.unattributed_share": 1.0 - sum(self_s.values()) / traced_wall_s,
        }
    )
    return metrics


def timed_rep(workload: Workload, seed: int, quick: bool, corrupt: bool = False):
    """One rep as an op record: timings and results, or the failure reason."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result = workloads.run_rep(workload, seed, quick, corrupt_sink=corrupt)
    except RepFailed as failure:
        return {"seed": seed, "failed": str(failure)}
    result.update(
        seed=seed,
        wall_s=time.perf_counter() - wall,
        cpu_s=time.process_time() - cpu,
    )
    return result


def untraced(
    workload: Workload, seeds: List[int], quick: bool, spawned_at: float,
    corrupt_rep: int,
) -> Dict[str, Any]:
    warmup = timed_rep(workload, seeds[0], quick)
    setup_s = time.time() - spawned_at
    reps = [
        timed_rep(workload, seed, quick, corrupt=(index == corrupt_rep))
        for index, seed in enumerate(seeds)
    ]
    if "failed" not in reps[0] and reps[0]["digest"] != warmup.get("digest"):
        reps[0] = {
            "seed": seeds[0],
            "failed": "not deterministic: the warm-up rep of the same seed "
            "ended with another digest",
        }
    return {"setup_s": setup_s, "reps": reps}


def base_reps(workload: Workload, seed: int, quick: bool) -> Tuple[float, str]:
    """Fastest wall of BASE_REPS untraced reps after a warm-up; their digest."""
    result = workloads.run_rep(workload, seed, quick)
    walls = []
    for __ in range(BASE_REPS):
        start = time.perf_counter()
        result = workloads.run_rep(workload, seed, quick)
        walls.append(time.perf_counter() - start)
    return min(walls), result["digest"]


def traced(workload: Workload, seed: int, quick: bool) -> Dict[str, Any]:
    try:
        untraced_wall_s, untraced_digest = base_reps(workload, seed, quick)
        tax_ratio = 1.0  # no telemetry attached: the ratio to itself
        if workload.tax_base is not None:
            base = workloads.WORKLOADS[workload.tax_base]
            tax_ratio = untraced_wall_s / base_reps(base, seed, quick)[0]
        tr = LayerTracer()
        with tr:
            start = time.perf_counter()
            result = workloads.run_rep(workload, seed, quick)
            traced_wall_s = time.perf_counter() - start
        metrics = layer_metrics(
            tr, result["counts"], traced_wall_s, untraced_wall_s, tax_ratio
        )
        check(
            result["digest"] == untraced_digest,
            "the traced rep's digest differs from the untraced reps': the "
            "tracer perturbed the run",
        )
        check(
            metrics["trace.unattributed_share"] < 0.05,
            f"{metrics['trace.unattributed_share']:.1%} of traced wall is in no "
            f"layer's self time",
        )
        layer_calls = tr.layer_calls()
        if workload.protocol == "mptcp":
            check(
                layer_calls["core"] == layer_calls["fountain"] == 0,
                "core/fountain were called on an MPTCP workload",
            )
        if not workload.instrumented:
            check(layer_calls["telemetry"] == 0, "telemetry ran while switched off")
    except RepFailed as failure:
        return {"seed": seed, "failed": str(failure)}
    return {
        "seed": seed,
        "metrics": metrics,
        "traced_wall_s": traced_wall_s,
        "untraced_wall_s": untraced_wall_s,
        "spans": {
            name: {"layer": layer, "calls": n, "incl_s": incl_s, "self_s": self_s}
            for name, (layer, n, incl_s, self_s) in sorted(tr.stats.items())
            if n
        },
        "span_log": tr.span_log,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="comma-separated rep seeds")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--corrupt-rep", type=int, default=-1)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    seeds = [int(seed) for seed in args.seeds.split(",")]
    if args.traced:
        out = traced(workload, seeds[0], args.quick)
    else:
        out = untraced(workload, seeds, args.quick, args.spawned_at, args.corrupt_rep)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
