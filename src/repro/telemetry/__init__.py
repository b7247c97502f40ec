"""Unified telemetry: samplers, block spans, flight recorder, sim profiler.

Everything here is opt-in and zero-cost when unused — instrumentation
call sites in the transports stay behind ``TraceBus.live``
guards, samplers only exist once attached, and the engine profiler costs
a single ``is None`` test per event when disabled. See
``docs/observability.md`` for the architecture and the trace-kind
vocabulary.
"""

from repro.telemetry.flight import FlightRecorder
from repro.telemetry.profiler import SimProfiler
from repro.telemetry.samplers import (
    PeriodicSampler,
    attach_samplers,
)
from repro.telemetry.session import TelemetryConfig, TelemetryReport, TelemetrySession
from repro.telemetry.spans import (
    SpanCollector,
    critical_path_report,
    spans_report,
)
from repro.telemetry.traceview import (
    export_csv,
    subflow_report,
    summarize,
    timeline,
)

__all__ = [
    "FlightRecorder",
    "SimProfiler",
    "PeriodicSampler",
    "attach_samplers",
    "TelemetryConfig",
    "TelemetryReport",
    "TelemetrySession",
    "SpanCollector",
    "spans_report",
    "critical_path_report",
    "summarize",
    "subflow_report",
    "timeline",
    "export_csv",
]
