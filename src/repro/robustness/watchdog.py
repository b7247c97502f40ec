"""No-progress watchdog with graceful degradation.

Watches one connection's goodput (``delivered_bytes``). When nothing is
delivered for a stall window (``_STALL_RTTS`` × the slowest subflow's
SRTT, floored at ``min_stall_s``), it escalates one rung per further
stall window instead of letting the transfer hang:

1. **shed telemetry** — stop the periodic samplers riding the run, so a
   resource-starved simulation sheds its own observation cost first;
2. **raise redundancy** — bump an FMTCP sender's completeness margin by
   ``_MARGIN_BOOST`` (more in-flight head-room per block) and pump; a
   stack with no margin passes through this rung as a no-op;
3. **fail cleanly** — declare the transfer failed with a structured
   diagnosis (subflow, window and memory state), emit ``watchdog.failed``
   and optionally dump the flight recorder for post-mortem analysis.

Renewed progress at any rung resets the escalation to zero. The
watchdog is entirely outside the protocol hot path: one periodic timer,
cancelled by :meth:`Watchdog.stop`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence


# How often delivered_bytes is compared with its last reading.
_CHECK_PERIOD_S = 0.25
# Stall threshold: max(min_stall_s, _STALL_RTTS * max subflow SRTT).
_STALL_RTTS = 8.0
# Rung 2: added to an FMTCP sender's completeness margin.
_MARGIN_BOOST = 8.0


@dataclass
class WatchdogConfig:
    """The stall-window floor (the rest of the ladder is fixed)."""

    min_stall_s: float = 1.0

    def __post_init__(self) -> None:
        if self.min_stall_s <= 0:
            raise ValueError("min_stall_s must be positive")


class Watchdog:
    """Drives the shed → boost → fail ladder for one connection."""

    def __init__(
        self,
        sim: Any,
        connection: Any,
        config: Optional[WatchdogConfig] = None,
        trace: Optional[Any] = None,
        samplers: Sequence[Any] = (),
        flight: Optional[Any] = None,
        dump_dir: Optional[str] = None,
        label: str = "transfer",
    ):
        self.sim = sim
        self.connection = connection
        self.config = config or WatchdogConfig()
        self.trace = trace
        self.samplers = list(samplers)
        self.flight = flight
        self.dump_dir = dump_dir
        self.label = label

        self.escalation = 0  # 0 healthy, 1 shed, 2 boosted, 3 failed
        self.failed = False
        self.fail_reason: Optional[str] = None
        self.diagnosis: Optional[Dict[str, Any]] = None
        self.stalls_detected = 0
        self.samplers_shed = 0
        self.margin_boosts = 0
        self.dump_path: Optional[str] = None
        self._event: Optional[Any] = None
        self._last_progress_bytes = -1
        self._last_progress_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._event is not None:
            return
        self._last_progress_bytes = int(self.connection.delivered_bytes)
        self._last_progress_at = self.sim.now
        self._event = self.sim.schedule(_CHECK_PERIOD_S, self._tick)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # ------------------------------------------------------------------
    # Stall detection.
    # ------------------------------------------------------------------
    def stall_threshold_s(self) -> float:
        srtts = [
            subflow.srtt
            for subflow in getattr(self.connection, "subflows", [])
            if subflow.srtt > 0
        ]
        rtt_based = _STALL_RTTS * max(srtts, default=0.0)
        return max(self.config.min_stall_s, rtt_based)

    def _tick(self) -> None:
        self._event = None
        delivered = int(self.connection.delivered_bytes)
        if delivered != self._last_progress_bytes:
            self._last_progress_bytes = delivered
            self._last_progress_at = self.sim.now
            self.escalation = 0  # progress heals the ladder
        elif self.sim.now - self._last_progress_at >= self.stall_threshold_s():
            self._escalate()
            # Each rung gets a full stall window before the next one.
            self._last_progress_at = self.sim.now
        if not self.failed:
            self._event = self.sim.schedule(_CHECK_PERIOD_S, self._tick)

    # ------------------------------------------------------------------
    # Escalation ladder.
    # ------------------------------------------------------------------
    def _escalate(self) -> None:
        self.stalls_detected += 1
        self.escalation += 1
        if self.escalation == 1:
            self._shed_telemetry()
        elif self.escalation == 2:
            self._boost_margin()
        else:
            self._fail()

    def _shed_telemetry(self) -> None:
        shed = 0
        for sampler in self.samplers:
            if getattr(sampler, "_running", False):
                sampler.stop()
                shed += 1
        self.samplers_shed += shed
        self._emit("watchdog.shed", samplers=shed)

    def _boost_margin(self) -> None:
        sender = getattr(self.connection, "sender", None)
        margin = getattr(sender, "margin", None)
        if margin is not None:
            sender.margin = margin + _MARGIN_BOOST
            self.margin_boosts += 1
            self._emit("watchdog.margin_boost", margin=sender.margin)
            sender.pump_all()
        else:
            # No redundancy knob on this stack (MPTCP): rung is a no-op.
            self._emit("watchdog.margin_boost", margin=None)
        getattr(self.connection, "pump", lambda: None)()

    def fail(self, reason: str) -> None:
        """Escalate straight to a clean failure from outside the ladder.

        Entry point for subsystems that *know* the transfer is dead
        without waiting out stall windows — e.g. the recovery manager
        after exhausting its reconnection budget. Idempotent; the reason
        lands in :attr:`fail_reason`, the diagnosis, and the
        ``watchdog.failed`` trace record.
        """
        if self.failed:
            return
        self.escalation = 3
        self.fail_reason = reason
        self._fail()
        self.stop()

    def _fail(self) -> None:
        self.failed = True
        self.diagnosis = self.diagnose()
        if self.fail_reason is not None:
            self.diagnosis["fail_reason"] = self.fail_reason
        self._emit(
            "watchdog.failed",
            label=self.label,
            stalled_s=round(self.sim.now - self._last_progress_at, 3),
            delivered_bytes=self._last_progress_bytes,
            reason=self.fail_reason or "stall",
        )
        if self.flight is not None and self.dump_dir is not None:
            os.makedirs(self.dump_dir, exist_ok=True)
            slug = "".join(
                ch if ch.isalnum() or ch in "-_." else "-" for ch in self.label
            )
            self.dump_path = os.path.join(self.dump_dir, f"watchdog_{slug}.jsonl")
            self.flight.dump(self.dump_path, meta=self._dump_meta())

    # ------------------------------------------------------------------
    # Diagnosis.
    # ------------------------------------------------------------------
    def diagnose(self) -> Dict[str, Any]:
        """A structured snapshot of why the transfer is stuck."""
        connection = self.connection
        subflows: List[Dict[str, Any]] = []
        for subflow in getattr(connection, "subflows", []):
            subflows.append(
                {
                    "id": subflow.subflow_id,
                    "state": getattr(subflow, "state", "?"),
                    "in_flight": subflow.in_flight,
                    "srtt_ms": round(subflow.srtt * 1e3, 2),
                    "suspect": bool(getattr(subflow, "potentially_failed", False)),
                }
            )
        diagnosis: Dict[str, Any] = {
            "label": self.label,
            "time_s": round(self.sim.now, 3),
            "delivered_bytes": int(connection.delivered_bytes),
            "stall_threshold_s": round(self.stall_threshold_s(), 3),
            "escalation": self.escalation,
            "subflows": subflows,
        }
        memory = getattr(connection, "memory_stats", None)
        if memory is not None:
            diagnosis["memory"] = memory()
        flow = getattr(connection, "flow_stats", None)
        if flow is not None:
            diagnosis["flow"] = flow()
        return diagnosis

    def _dump_meta(self) -> Dict[str, Any]:
        meta = {"label": self.label, "reason": "watchdog_failed"}
        if self.diagnosis is not None:
            meta["delivered_bytes"] = self.diagnosis["delivered_bytes"]
            meta["escalation"] = self.diagnosis["escalation"]
        return meta

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.emit(self.sim.now, kind, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "failed" if self.failed else f"escalation={self.escalation}"
        return f"<Watchdog {self.label} {state}>"
