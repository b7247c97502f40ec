"""Trace-driven link dynamics: replayed real-world channel time series.

Everything the synthetic loss models cannot express — deep cellular
fades, LEO handover sawtooths, GPRS burst structure, incast collapse —
enters the simulation through this package: a validated CSV time-series
model (:class:`LinkTrace`), deterministic seeded generators for the
pathological channel families, bundled drive/walk-test style assets,
and the :class:`TracePlayer` that replays a trace onto live links via
the same runtime-mutation APIs the fault injector uses. The ``trace``
fault kind (:mod:`repro.faults.scenario`) and the byte-verified
:func:`run_traces` soak harness build on these pieces.
"""

from repro.traces.generators import (
    BUNDLED_TRACES,
    TRACE_GENERATORS,
    cellular_trace,
    gprs_trace,
    incast_trace,
    leo_trace,
    load_bundled_trace,
    regenerate_bundled_assets,
    resolve_trace,
    wifi_trace,
)
from repro.traces.harness import measure_trace_goodput, run_traces
from repro.traces.model import (
    CSV_HEADER,
    END_POLICIES,
    LinkTrace,
    TraceFormatError,
    TraceSample,
    load_trace_csv,
    parse_trace_csv,
)
from repro.traces.player import TracePlayer

__all__ = [
    "BUNDLED_TRACES",
    "CSV_HEADER",
    "END_POLICIES",
    "TRACE_GENERATORS",
    "LinkTrace",
    "TraceFormatError",
    "TracePlayer",
    "TraceSample",
    "cellular_trace",
    "gprs_trace",
    "incast_trace",
    "leo_trace",
    "load_bundled_trace",
    "load_trace_csv",
    "measure_trace_goodput",
    "parse_trace_csv",
    "regenerate_bundled_assets",
    "resolve_trace",
    "run_traces",
    "wifi_trace",
]
