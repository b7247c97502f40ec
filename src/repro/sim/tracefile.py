"""JSONL trace export.

Attach a :class:`TraceFileWriter` to a :class:`~repro.sim.trace.TraceBus`
to persist selected (or all) trace records as JSON Lines — the simulation
equivalent of an ns-2 trace file, consumable by external tooling.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, List, Optional, Union

from repro.sim.trace import TraceBus, TraceRecord


def _jsonable(value):
    """Best-effort conversion of trace field values to JSON scalars."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


class TraceFileWriter:
    """Streams trace records to a JSONL file (or any text stream).

    Context-manager friendly: ``with TraceFileWriter(trace, path):``
    guarantees detach-and-close even if the run raises. Each record is
    written as one complete line in a single ``write`` call and every
    ``FLUSH_EVERY`` records force an OS-level flush, so a crashed run
    leaves behind only whole, parseable JSONL lines up to the last flush;
    :func:`read_trace_file` skips a torn trailing line.
    """

    FLUSH_EVERY = 256

    def __init__(
        self,
        trace: TraceBus,
        target: Union[str, IO[str]],
        kinds: Optional[Iterable[str]] = None,
    ):
        self._owns_handle = isinstance(target, str)
        self._handle: IO[str] = (
            open(target, "w") if isinstance(target, str) else target
        )
        self._trace = trace
        self._kinds: List[str] = list(kinds) if kinds is not None else ["*"]
        self.records_written = 0
        self.closed = False
        self._last_time = 0.0
        for kind in self._kinds:
            trace.subscribe(kind, self._on_record)

    def _on_record(self, record: TraceRecord) -> None:
        self._last_time = record.time
        entry = {"t": record.time, "kind": record.kind}
        for key, value in record.fields.items():
            entry[key] = _jsonable(value)
        self._handle.write(json.dumps(entry) + "\n")
        self.records_written += 1
        if self.records_written % self.FLUSH_EVERY == 0:
            self._handle.flush()

    def close(self) -> None:
        """Detach from the bus and close the file (if we opened it).

        Idempotent: a second ``close`` (e.g. explicit call inside a
        ``with`` block) is a no-op.
        """
        if self.closed:
            return
        self.closed = True
        if self._trace.records_dropped > 0:
            entry = {
                "t": self._last_time,
                "kind": "trace.dropped",
                "dropped": self._trace.records_dropped,
                "max_pending": self._trace.MAX_PENDING,
            }
            self._handle.write(json.dumps(entry) + "\n")
            self.records_written += 1
        for kind in self._kinds:
            self._trace.unsubscribe(kind, self._on_record)
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "TraceFileWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace_file(path: str, strict: bool = False) -> List[dict]:
    """Load a JSONL trace back into a list of dicts.

    A process that crashed mid-write can leave a torn final line (the OS
    flushed a partial buffer). By default that trailing fragment is
    dropped and everything before it is returned; corruption anywhere
    *except* the last non-empty line still raises, as does any corruption
    when ``strict=True``.
    """
    with open(path) as handle:
        lines = [line.strip() for line in handle]
    while lines and not lines[-1]:
        lines.pop()
    records = []
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if strict or index != len(lines) - 1:
                raise
            # Torn trailing line from an interrupted writer; drop it.
    return records
