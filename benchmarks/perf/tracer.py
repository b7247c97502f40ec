"""Per-layer span tracer, recorded entirely from the benchmark's side.

A layer is a package of ``repro`` (``sim``, ``net``, ``tcp``, ...). The
tracer wraps a declared table of public callables per layer
(:data:`BOUNDARIES`) and, where a callback crosses a public boundary
(:data:`CALLBACK_BOUNDARIES`: an event handed to ``Simulator.schedule_at``,
a subscriber handed to ``TraceBus.subscribe``, ...), wraps the callback too,
so a private ``Link._finish_transmission`` is charged to ``net`` and not to
the ``sim`` run loop that dispatched it.

Every wrapped call is a span (name, start, end, parent). A span's self time
is its duration minus the time its child spans cover; a layer's ``self_s``
is the sum over its spans. Spans are aggregated in memory per name; the
first :data:`SPAN_LOG_LIMIT` are also kept raw for ``--trace-out``.

The wrappers cost host time, and each one's own prologue/epilogue lands in
the self time of the caller and callee it sits between, so per-layer times
are only as good as ``trace.overhead_ratio`` says. End-to-end numbers never
come from a traced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

LAYERS = (
    "sim", "net", "tcp", "core", "fountain", "mptcp",
    "telemetry", "metrics", "traces", "workloads",
)

#: ``"module:Qualified.name" -> layer``: the public callables whose calls are
#: spans. Curated, not exhaustive: trivial getters stay unwrapped (their time
#: is their caller's). A name that no longer resolves is a hard error, so a
#: refactor cannot silently drop a layer's metrics.
BOUNDARIES: Dict[str, str] = {
    # sim — the event engine, timers and the trace bus.
    "repro.sim.engine:Simulator.run": "sim",
    "repro.sim.engine:Simulator.schedule_at": "sim",
    "repro.sim.engine:Event.cancel": "sim",
    "repro.sim.timers:Timer.start": "sim",
    "repro.sim.timers:Timer.stop": "sim",
    "repro.sim.timers:PeriodicTimer.start": "sim",
    "repro.sim.timers:PeriodicTimer.stop": "sim",
    "repro.sim.trace:TraceBus.emit": "sim",
    # net — links, nodes, paths, packets and the integrity (CRC) helpers.
    "repro.net.topology:build_two_path_network": "net",
    "repro.net.topology:Path.send_forward": "net",
    "repro.net.topology:Path.send_reverse": "net",
    "repro.net.link:Link.send": "net",
    "repro.net.link:Link.set_bandwidth": "net",
    "repro.net.link:Link.set_delay": "net",
    "repro.net.link:Link.set_loss_model": "net",
    "repro.net.node:Node.receive": "net",
    "repro.net.packet:Packet.__init__": "net",
    "repro.net.integrity:seal": "net",
    "repro.net.integrity:verify": "net",
    "repro.net.integrity:packet_checksum": "net",
    "repro.net.integrity:payload_digest": "net",
    # tcp — subflow sender; its ACK/data/RTO handlers arrive as callbacks.
    "repro.tcp.subflow:Subflow.pump": "tcp",
    "repro.tcp.subflow:Subflow.aged_loss_estimate": "tcp",
    "repro.tcp.subflow:Subflow.close": "tcp",
    "repro.tcp.subflow:SubflowSink.close": "tcp",
    # core — FMTCP sender (EAT allocation), block manager, receiver.
    "repro.core.connection:FmtcpConnection.__init__": "core",
    "repro.core.connection:FmtcpConnection.start": "core",
    "repro.core.connection:FmtcpConnection.close": "core",
    "repro.core.sender:FmtcpSender.next_payload": "core",
    "repro.core.sender:FmtcpSender.on_ack_feedback": "core",
    "repro.core.sender:FmtcpSender.on_payload_delivered": "core",
    "repro.core.sender:FmtcpSender.on_payload_lost": "core",
    "repro.core.sender:FmtcpSender.loss_rate_of": "core",
    "repro.core.sender:FmtcpSender.path_estimates": "core",
    "repro.core.allocation:allocate_packet": "core",
    "repro.core.blocks:PendingBlock.k_tilde": "core",
    "repro.core.receiver:FmtcpReceiver.on_segment": "core",
    "repro.core.receiver:FmtcpReceiver.feedback": "core",
    # fountain — the O(1) rank model and the byte-level GF(2) codec.
    "repro.fountain.rank_model:RankEvolutionModel.add_symbol": "fountain",
    "repro.fountain.codec:BlockEncoder.__init__": "fountain",
    "repro.fountain.codec:BlockEncoder.next_symbol": "fountain",
    "repro.fountain.codec:SystematicBlockEncoder.next_symbol": "fountain",
    "repro.fountain.codec:BlockDecoder.add_symbol": "fountain",
    "repro.fountain.codec:BlockDecoder.decode": "fountain",
    # mptcp — the IETF-MPTCP baseline connection and its reorder buffer.
    "repro.mptcp.connection:MptcpConnection.__init__": "mptcp",
    "repro.mptcp.connection:MptcpConnection.start": "mptcp",
    "repro.mptcp.connection:MptcpConnection.close": "mptcp",
    "repro.mptcp.connection:MptcpConnection.next_payload": "mptcp",
    "repro.mptcp.connection:MptcpConnection.on_ack_feedback": "mptcp",
    "repro.mptcp.connection:MptcpConnection.on_payload_lost": "mptcp",
    "repro.mptcp.connection:MptcpConnection.on_subflow_suspect": "mptcp",
    "repro.mptcp.recv_buffer:ReorderBuffer.insert": "mptcp",
    # telemetry — everything else arrives as subscriber/timer callbacks.
    "repro.telemetry.session:TelemetrySession.__init__": "telemetry",
    "repro.telemetry.session:TelemetrySession.attach": "telemetry",
    "repro.telemetry.session:TelemetrySession.finish": "telemetry",
    "repro.telemetry.profiler:SimProfiler.on_event": "telemetry",
    "repro.telemetry.profiler:SimProfiler.on_run_complete": "telemetry",
    # metrics — collectors are subscriber callbacks.
    "repro.metrics.collectors:MetricsSuite.__init__": "metrics",
    "repro.metrics.collectors:MetricsSuite.summary": "metrics",
    # traces — generator and player (its tick is a timer callback).
    "repro.traces.generators:gprs_trace": "traces",
    "repro.traces.player:TracePlayer.__init__": "traces",
    "repro.traces.player:TracePlayer.start": "traces",
    "repro.traces.player:TracePlayer.stop": "traces",
    # workloads — application sources pulled by the block manager.
    "repro.workloads.sources:BulkSource.pull": "workloads",
    "repro.workloads.sources:RandomPayloadSource.pull": "workloads",
}

#: Public callables that take callbacks. Every argument that is a function
#: or method defined in a layer's package is replaced by a span wrapper
#: charged to that layer. ``unsubscribe`` is listed so the callable it is
#: given maps to the same wrapper ``subscribe`` registered.
CALLBACK_BOUNDARIES: Tuple[str, ...] = (
    "repro.sim.engine:Simulator.schedule_at",
    "repro.sim.timers:Timer.__init__",
    "repro.sim.timers:PeriodicTimer.__init__",
    "repro.sim.trace:TraceBus.subscribe",
    "repro.sim.trace:TraceBus.unsubscribe",
    "repro.net.node:Node.bind",
    "repro.tcp.subflow:SubflowSink.__init__",
)

#: ``metric -> (boundary, reading)``: after each call of ``boundary`` the
#: reading of its first argument is taken and the maximum kept.
GAUGES: Dict[str, Tuple[str, Callable[[Any], float]]] = {
    "sim.heap_depth_max": (
        "repro.sim.engine:Simulator.schedule_at",
        lambda sim: sim.pending_events,
    ),
}

SPAN_LOG_LIMIT = 10_000


class BoundaryError(LookupError):
    """A boundary-table entry that no longer resolves to a callable."""


def _resolve(entry: str) -> Tuple[Any, Any]:
    """``entry`` -> (owning module or class, the function it holds)."""
    module_name, __, qualname = entry.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as error:
        raise BoundaryError(
            f"boundary {entry!r} no longer resolves ({error!r}); fix the table "
            f"in benchmarks/perf/tracer.py so its layer keeps its metrics"
        ) from None
    if not isinstance(raw, types.FunctionType):
        raise BoundaryError(f"boundary {entry!r} is not a plain function: {raw!r}")
    return owner, raw


def _layer_of(fn: Any) -> str:
    """The layer whose package defines ``fn``, or '' for anything else."""
    module = getattr(fn, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return ""


class LayerTracer:
    """Installs the span wrappers, aggregates spans, restores the originals."""

    def __init__(self) -> None:
        # name -> [layer, calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[Any]] = {}
        self.gauges: Dict[str, float] = {metric: 0 for metric in GAUGES}
        self.span_log: List[Tuple[int, str, float, float, int]] = []
        self._child_time: List[float] = [0.0]  # one accumulator per open span
        self._open_ids: List[int] = [0]  # 0 = no parent
        self._span_count = 0
        self._callbacks: Dict[Any, Callable] = {}
        self._patched: List[Tuple[Any, str, Any, Any]] = []  # owner, attr, old, new

    # ------------------------------------------------------------------
    # Wrapping.
    # ------------------------------------------------------------------
    def _span(self, fn: Callable, name: str, layer: str) -> Callable:
        stat = self.stats.setdefault(name, [layer, 0, 0.0, 0.0])
        child_time = self._child_time
        open_ids = self._open_ids
        span_log = self.span_log

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._span_count = span_id = self._span_count + 1
            parent = open_ids[-1]
            open_ids.append(span_id)
            child_time.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stat[1] += 1
                stat[2] += duration
                stat[3] += duration - child_time.pop()
                child_time[-1] += duration
                open_ids.pop()
                if span_id <= SPAN_LOG_LIMIT:
                    span_log.append((span_id, name, start, end, parent))

        return wrapper

    def _charged(self, fn: Any) -> Any:
        """The span wrapper for callback ``fn`` (cached, so equal callables
        map to one wrapper); ``fn`` itself when no layer defines it."""
        if not isinstance(fn, (types.FunctionType, types.MethodType)):
            return fn
        layer = _layer_of(fn)
        if not layer:
            return fn
        wrapper = self._callbacks.get(fn)
        if wrapper is None:
            name = f"{fn.__module__}:{fn.__qualname__}"
            wrapper = self._callbacks[fn] = self._span(fn, name, layer)
        return wrapper

    def _with_charged_callbacks(self, fn: Callable) -> Callable:
        charged = self._charged

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(
                *[charged(arg) for arg in args],
                **{key: charged(value) for key, value in kwargs.items()},
            )

        return wrapper

    def _with_gauge(self, fn: Callable, metric: str, reading: Callable) -> Callable:
        gauges = self.gauges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            value = reading(args[0])
            if value > gauges[metric]:
                gauges[metric] = value
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Install / uninstall.
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("LayerTracer is already installed")
        gauge_of = {boundary: (m, read) for m, (boundary, read) in GAUGES.items()}
        unknown = set(gauge_of) - set(BOUNDARIES) - set(CALLBACK_BOUNDARIES)
        if unknown:
            raise BoundaryError(f"gauge on undeclared boundary: {sorted(unknown)}")
        try:
            for entry in dict.fromkeys((*BOUNDARIES, *CALLBACK_BOUNDARIES)):
                owner, original = _resolve(entry)
                replacement = original
                if entry in BOUNDARIES:
                    replacement = self._span(replacement, entry, BOUNDARIES[entry])
                if entry in gauge_of:
                    replacement = self._with_gauge(replacement, *gauge_of[entry])
                if entry in CALLBACK_BOUNDARIES:
                    replacement = self._with_charged_callbacks(replacement)
                self._patch(owner, original, replacement)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner: Any, original: Any, replacement: Any) -> None:
        """Replace ``original`` under every name that holds it: the owner's
        own aliases (``Timer.restart = start``) and, for a module-level
        function, the copies ``from module import fn`` left elsewhere."""
        holders = [owner]
        if isinstance(owner, types.ModuleType):
            holders += [
                module
                for module in list(sys.modules.values())
                if isinstance(module, types.ModuleType) and module is not owner
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)
                    self._patched.append((holder, key, original, replacement))

    def uninstall(self) -> None:
        """Put every patched attribute back; the identical original object."""
        for owner, attr, original, replacement in reversed(self._patched):
            if vars(owner)[attr] is not replacement:
                raise RuntimeError(f"{owner!r}.{attr} was re-patched while traced")
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")
        self._patched.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for layer, __, __, self_s in self.stats.values():
            totals[layer] += self_s
        return totals

    def layer_calls(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for layer, calls, __, __ in self.stats.values():
            totals[layer] += calls
        return totals

    def calls(self, name: str) -> int:
        return self.stats[name][1]

    def inclusive_s(self, name: str) -> float:
        return self.stats[name][2]

    def self_s(self, name: str) -> float:
        return self.stats[name][3]
