"""Application-level time-in-system latency.

Block delivery delay (the paper's metric) clocks from *first
transmission*; a streaming application also cares about the time data
spends queued at the sender before the transport picks it up. This
module measures the full path: byte creation at the source → in-order
delivery at the receiver.

Attach an :class:`AppLatencyCollector` to the trace bus with a source
that knows when each byte offset was created (the CBR/VBR sources
compute it analytically); the collector correlates cumulative byte
offsets between the two.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.metrics.stats import percentile
from repro.sim.trace import TraceBus, TraceRecord


class AppLatencyCollector:
    """Correlates ``conn.delivered`` events with source timestamps.

    ``source`` is anything exposing ``creation_time_of(offset)`` — the
    CBR/VBR sources compute it analytically.
    """

    def __init__(self, trace: TraceBus, source):
        self._source = source
        self._delivered_bytes = 0
        self.samples: List[Tuple[float, float]] = []  # (time, latency)
        trace.subscribe("conn.delivered", self._on_delivered)

    def _on_delivered(self, record: TraceRecord) -> None:
        self._delivered_bytes += record["bytes"]
        created = self._source.creation_time_of(self._delivered_bytes - 1)
        if created is None:
            return
        self.samples.append((record.time, record.time - created))

    def latencies(self) -> List[float]:
        return [latency for __, latency in self.samples]

    def percentile_latency_s(self, q: float) -> float:
        return percentile(self.latencies(), q)

    def stall_fraction(self, deadline_s: float) -> float:
        """Fraction of deliveries later than ``deadline_s`` end to end."""
        values = self.latencies()
        if not values:
            return 1.0
        return sum(1 for latency in values if latency > deadline_s) / len(values)
