"""Trace-driven link dynamics: replayed real-world channel time series.

Everything the synthetic loss models cannot express — deep cellular
fades, LEO handover sawtooths, GPRS burst structure, incast collapse —
enters the simulation through this package: a validated CSV time-series
model (:class:`LinkTrace`), deterministic seeded generators for the
pathological channel families, bundled drive/walk-test style assets,
and the :class:`TracePlayer` that replays a trace onto live links via
the same runtime-mutation APIs the fault injector uses. The ``trace``
fault kind (:mod:`repro.faults.scenario`) and the byte-verified
:data:`~repro.traces.harness.TRACES` soak harness build on these pieces.
"""

from repro.traces.generators import (
    gprs_trace,
    resolve_trace,
)
from repro.traces.model import (
    LinkTrace,
    TraceSample,
    load_trace_csv,
    parse_trace_csv,
)
from repro.traces.player import TracePlayer

__all__ = [
    "LinkTrace",
    "TracePlayer",
    "TraceSample",
    "gprs_trace",
    "load_trace_csv",
    "parse_trace_csv",
    "resolve_trace",
]
