"""One-call wiring of the full telemetry stack onto a simulation run.

:class:`TelemetryConfig` is the single knob surface (sampling period,
JSONL trace output, sim profiling, block spans); a
:class:`TelemetrySession` applies it to a ``(sim, trace)`` pair, attaches
samplers to any transport connection, and gathers everything into one
:class:`TelemetryReport` at the end. Used by
``repro.experiments.runner.run_transfer(..., telemetry=...)`` and the
``repro trace record`` CLI.

With no session attached nothing changes anywhere: every instrumentation
call site is behind ``TraceBus.live`` or a periodic sampler
that simply does not exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.sim.tracefile import TraceFileWriter
from repro.telemetry.profiler import SimProfiler
from repro.telemetry.samplers import PeriodicSampler, attach_samplers
from repro.telemetry.spans import SpanCollector


@dataclass
class TelemetryConfig:
    """What to observe during a run.

    ``trace_path`` streams every record to JSONL via
    :class:`~repro.sim.tracefile.TraceFileWriter`. ``profile_sim`` attaches
    the engine profiler. ``spans`` attaches a live
    :class:`~repro.telemetry.spans.SpanCollector` whose per-stage delay
    decomposition lands in ``TelemetryReport.spans``.
    """

    sample_period_s: float = 0.1
    trace_path: Optional[str] = None
    profile_sim: bool = False
    spans: bool = False

    def __post_init__(self) -> None:
        if not self.sample_period_s > 0:  # NaN fails this too
            raise ValueError(
                f"sample_period_s must be positive, got {self.sample_period_s}"
            )


@dataclass
class TelemetryReport:
    """Everything a finished session measured."""

    profile: Optional[Dict[str, object]] = None
    trace_path: Optional[str] = None
    trace_records_written: int = 0
    spans: Optional[Dict[str, object]] = None


class TelemetrySession:
    """Applies a :class:`TelemetryConfig` to one simulation run."""

    def __init__(
        self,
        sim: Simulator,
        trace: TraceBus,
        config: Optional[TelemetryConfig] = None,
    ):
        self.sim = sim
        self.trace = trace
        self.config = config or TelemetryConfig()
        self.samplers: List[PeriodicSampler] = []
        self.writer: Optional[TraceFileWriter] = None
        self.profiler: Optional[SimProfiler] = None
        self.spans: Optional[SpanCollector] = None
        self._finished = False

        if self.config.trace_path is not None:
            self.writer = TraceFileWriter(trace, self.config.trace_path)
        if self.config.profile_sim:
            self.profiler = SimProfiler()
            sim.set_profiler(self.profiler)
        if self.config.spans:
            self.spans = SpanCollector()
            self.spans.attach(trace)

    def attach(self, connection) -> None:
        """Start samplers for one transport connection (callable per flow)."""
        self.samplers.extend(
            attach_samplers(
                self.sim,
                connection,
                self.trace,
                period_s=self.config.sample_period_s,
            )
        )

    def stop(self) -> None:
        """Tear down instrumentation without building a report.

        This is the crash-path half of :meth:`finish`: recovery teardown
        calls it when an endpoint dies mid-run and nobody wants a report
        yet. Idempotent — double-stop (or ``stop()`` then ``finish()``)
        never raises and never double-cancels a sampler's pending event
        or double-closes the writer.
        """
        if self._finished:
            return
        self._finished = True
        for sampler in self.samplers:
            sampler.stop()
        if self.writer is not None:
            self.writer.close()
        if self.profiler is not None and self.sim.profiler is self.profiler:
            self.sim.set_profiler(None)
        if self.spans is not None:
            self.spans.detach()

    def finish(self) -> TelemetryReport:
        """Stop samplers, close the writer, detach the profiler; report.

        Idempotent — a second call returns a fresh report over the same
        (now frozen) state without double-detaching anything.
        """
        self.stop()
        return TelemetryReport(
            profile=self.profiler.report() if self.profiler is not None else None,
            trace_path=self.config.trace_path,
            trace_records_written=(
                self.writer.records_written if self.writer is not None else 0
            ),
            spans=self.spans.summary() if self.spans is not None else None,
        )
