"""Unified telemetry: samplers, block spans, flight recorder, sim profiler.

Everything here is opt-in and zero-cost when unused — instrumentation
call sites in the transports stay behind ``TraceBus.live``
guards, samplers only exist once attached, and the engine profiler costs
a single ``is None`` test per event when disabled. See
``docs/observability.md`` for the architecture and the trace-kind
vocabulary.
"""

from repro.telemetry.flight import FlightRecorder
from repro.telemetry.profiler import SimProfiler, callback_label
from repro.telemetry.samplers import (
    ConnectionSampler,
    DecoderSampler,
    PeriodicSampler,
    SubflowSampler,
    attach_samplers,
    fmtcp_eat_provider,
)
from repro.telemetry.session import TelemetryConfig, TelemetryReport, TelemetrySession
from repro.telemetry.spans import (
    FMTCP_STAGES,
    MPTCP_STAGES,
    SPAN_KINDS,
    BlockSpan,
    SpanCollector,
    collect_spans,
    critical_path_report,
    spans_report,
)
from repro.telemetry.traceview import (
    export_csv,
    kind_counts,
    subflow_report,
    summarize,
    time_span,
    timeline,
)

__all__ = [
    "FlightRecorder",
    "SimProfiler",
    "callback_label",
    "PeriodicSampler",
    "SubflowSampler",
    "DecoderSampler",
    "ConnectionSampler",
    "attach_samplers",
    "fmtcp_eat_provider",
    "TelemetryConfig",
    "TelemetryReport",
    "TelemetrySession",
    "BlockSpan",
    "SpanCollector",
    "SPAN_KINDS",
    "FMTCP_STAGES",
    "MPTCP_STAGES",
    "collect_spans",
    "spans_report",
    "critical_path_report",
    "summarize",
    "subflow_report",
    "timeline",
    "export_csv",
    "kind_counts",
    "time_span",
]
