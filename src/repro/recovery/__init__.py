"""Endpoint crash-recovery and session resumption (ISSUE 8).

Checkpointable endpoint state (:mod:`repro.recovery.checkpoint`), the
crash/reconnect/resume state machine (:mod:`repro.recovery.manager`)
and the soak + benchmark harness (:mod:`repro.recovery.harness`).
Crash timelines live with the other fault presets in
:data:`repro.faults.RECOVERY_SCENARIOS`.
"""

from repro.recovery.checkpoint import (
    CHECKPOINT_VERSION,
    ReceiverCheckpoint,
    ResumeState,
    SenderCheckpoint,
    resume_state,
    snapshot_receiver,
    snapshot_sender,
)
from repro.recovery.harness import measure_recovery, run_recovery
from repro.recovery.manager import ReconnectPolicy, RecoveryManager

__all__ = [
    "CHECKPOINT_VERSION",
    "ReceiverCheckpoint",
    "ReconnectPolicy",
    "RecoveryManager",
    "ResumeState",
    "SenderCheckpoint",
    "measure_recovery",
    "resume_state",
    "run_recovery",
    "snapshot_receiver",
    "snapshot_sender",
]
