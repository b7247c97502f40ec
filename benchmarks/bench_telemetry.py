"""Micro-benchmarks for the telemetry layer's hot paths.

The acceptance bar for observability is that it costs nothing when off
and little when on: an emit with no subscribers must stay a cheap guard,
and the flight recorder's ring append is O(1). These benchmarks pin those costs so a
regression shows up as a number, not a vibe.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.sim.trace import TraceBus
from repro.telemetry.flight import FlightRecorder


def test_emit_with_no_subscribers(benchmark):
    """The off path: every hot-path call site checks this guard."""
    trace = TraceBus()

    def emit_batch():
        for index in range(1000):
            if trace.has_subscribers("subflow.send"):
                trace.emit(0.0, "subflow.send", subflow=0, seq=index)
        return trace.has_subscribers("subflow.send")

    assert benchmark(emit_batch) is False


def test_emit_into_flight_recorder(benchmark):
    """The on path: full emit fan-out into the bounded ring."""
    trace = TraceBus()
    flight = FlightRecorder(trace, capacity=512)

    def emit_batch():
        for index in range(1000):
            trace.emit(0.0, "subflow.send", subflow=0, seq=index)
        return len(flight)

    assert benchmark(emit_batch) == 512


def _make_packet_builder(trace):
    """A thunk that builds FMTCP packets (real GF(2) encoding) against
    the given trace bus — the bench_micro encode/allocation hot path."""
    from repro.core.allocation import AllocationResult
    from repro.core.blocks import BlockManager
    from repro.core.config import FmtcpConfig
    from repro.core.sender import FmtcpSender
    from repro.sim.engine import Simulator
    from repro.workloads.sources import BulkSource

    class _FakeSubflow:
        subflow_id = 0

    config = FmtcpConfig(coding="real")
    blocks = BlockManager(config, BulkSource(), rng=random.Random(1))
    blocks.replenish()
    sender = FmtcpSender(Simulator(), config, blocks, trace=trace)
    subflow = _FakeSubflow()
    block_id = blocks.pending_blocks[0].block_id
    result = AllocationResult(vector=[(block_id, 40)])

    def build(calls: int = 100) -> None:
        for __ in range(calls):
            sender._build_packet(subflow, result)

    return build


def test_span_guard_overhead_disabled_tracing():
    """Satellite guarantee: with tracing fully disabled, the span guards
    on the encode/allocation hot path cost <= 2% versus no trace bus at
    all. The guard is two attribute loads + a dict lookup per packet;
    GF(2) symbol encoding dwarfs it. Each of 41 rounds times one build of
    each side back to back, the side that goes first alternating, and the
    gate reads the median of the rounds' guarded / baseline ratios: on a
    shared host a ratio of minima swings by tens of percent and a ratio
    of the two sides' medians by several, while adjacent timings share
    the host's load."""
    baseline_build = _make_packet_builder(trace=None)
    guarded_build = _make_packet_builder(trace=TraceBus())  # no subscribers
    baseline_build()  # warm both code paths before timing
    guarded_build()
    ratios = []
    for index in range(41):
        elapsed = {}
        for build in (
            (baseline_build, guarded_build) if index % 2 else (guarded_build, baseline_build)
        ):
            start = time.perf_counter()
            build()
            elapsed[build] = time.perf_counter() - start
        ratios.append(elapsed[guarded_build] / elapsed[baseline_build])
    ratio = statistics.median(ratios)
    assert ratio <= 1.02, (
        f"span guards cost {ratio - 1:.2%} on the packet-build path "
        f"with tracing disabled (budget 2%)"
    )
