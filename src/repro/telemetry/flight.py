"""Flight recorder: a bounded ring of the most recent trace records.

Chaos soaks run thousands of seeded scenarios; when one violates an
invariant, a bare seed number forces a full re-run under a debugger. The
flight recorder keeps the last N :class:`~repro.sim.trace.TraceRecord`s
in memory (old ones fall off the front, like an aircraft FDR) and dumps
them as JSONL on demand — the failing run carries its own evidence.

The dump format is one JSON object per line, identical to
:class:`~repro.sim.tracefile.TraceFileWriter` output except for a
leading ``flight.meta`` record holding capacity/drop accounting, so
``read_trace_file`` and the ``repro trace`` CLI consume both formats.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Optional

from repro.sim.trace import TraceBus, TraceRecord
from repro.sim.tracefile import _jsonable


class FlightRecorder:
    """Subscribes to every kind on a trace bus and retains the newest
    ``capacity`` records."""

    def __init__(self, trace: TraceBus, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.records_seen = 0
        self._trace = trace
        self._ring: Deque[TraceRecord] = deque(maxlen=capacity)
        self._attached = True
        trace.subscribe("*", self._on_record)

    def _on_record(self, record: TraceRecord) -> None:
        self.records_seen += 1
        self._ring.append(record)

    @property
    def dropped(self) -> int:
        """Records that fell off the front of the ring."""
        return self.records_seen - len(self._ring)

    def close(self) -> None:
        """Detach from the bus (the retained records stay readable)."""
        if not self._attached:
            return
        self._attached = False
        self._trace.unsubscribe("*", self._on_record)

    def dump(self, path: str, meta: Optional[Dict[str, object]] = None) -> str:
        """Write the ring to ``path`` as JSONL; returns ``path``.

        The first line is a ``flight.meta`` record describing the ring
        (capacity, records seen/retained/dropped) plus any caller
        ``meta`` fields — scenario name, seed, the violated invariant.
        """
        header = {
            "t": 0.0,
            "kind": "flight.meta",
            "capacity": self.capacity,
            "records_seen": self.records_seen,
            "records_retained": len(self._ring),
            "dropped": self.dropped,
        }
        if meta:
            for key, value in meta.items():
                header[str(key)] = _jsonable(value)
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for record in self._ring:
                entry = {"t": record.time, "kind": record.kind}
                for key, value in record.fields.items():
                    entry[key] = _jsonable(value)
                handle.write(json.dumps(entry) + "\n")
        return path

    def __len__(self) -> int:
        return len(self._ring)
