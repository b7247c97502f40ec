"""Versioned, serializable endpoint checkpoints for crash recovery.

A crash loses every volatile structure an endpoint holds — pending
blocks, in-flight symbols, the reorder buffer, partially decoded
matrices. What survives is whatever the endpoint last made durable:

* the **sender** checkpoints periodically (its decoded frontier, the
  matching stream byte offset and, for FMTCP, the completeness margin —
  a watchdog boost survives the restart; for MPTCP, the chunk map of
  unacked chunk sizes);
* the **receiver** is implicitly checkpointed by delivery itself —
  handing a unit to the application *is* the durable commit, so its
  delivered frontier at crash time is exact, while anything still in
  the app queue or reorder buffer is lost and must be re-sent.

The protocols diverge exactly where the paper says they should
(Section III: ratelessness): an FMTCP receiver deliberately **discards
partial decode matrices** — the restarted endpoint needs only the
delivered-block frontier, because any fresh fountain symbols rebuild
the lost blocks; its checkpoint is O(1). MPTCP must reconstruct exact
chunk-level sequencing, so its sender checkpoint carries the chunk map
— O(window) state the fountain code makes unnecessary.

Checkpoints are frozen dataclasses with a schema ``version`` and strict
``to_dict``/``from_dict`` round-trips, so a future layout change fails
loudly instead of resuming from misread state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Schema version stamped into every checkpoint; ``from_dict`` refuses
#: to restore any other version.
CHECKPOINT_VERSION = 1


def _require_version(data: dict, what: str) -> None:
    version = data.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"cannot restore {what} checkpoint version {version!r} "
            f"(supported: {CHECKPOINT_VERSION})"
        )


@dataclass(frozen=True)
class SenderCheckpoint:
    """Durable sender progress at one checkpoint instant.

    ``frontier`` is in protocol units (FMTCP blocks / MPTCP chunks) and
    ``byte_offset`` the matching application-stream offset — the point
    the replayable source must rewind to at restore. ``margin`` is
    FMTCP's current completeness margin (None for MPTCP); ``chunk_map``
    is MPTCP's unacked (dsn, size) map (empty for FMTCP).
    """

    protocol: str
    frontier: int
    byte_offset: int
    margin: Optional[float] = None
    chunk_map: Tuple[Tuple[int, int], ...] = ()
    version: int = CHECKPOINT_VERSION

    def __post_init__(self) -> None:
        if self.protocol not in ("fmtcp", "mptcp"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.frontier < 0 or self.byte_offset < 0:
            raise ValueError("checkpoint frontier/byte_offset must be >= 0")

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "protocol": self.protocol,
            "frontier": self.frontier,
            "byte_offset": self.byte_offset,
            "margin": self.margin,
            "chunk_map": [list(pair) for pair in self.chunk_map],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SenderCheckpoint":
        _require_version(data, "sender")
        return cls(
            protocol=data["protocol"],
            frontier=int(data["frontier"]),
            byte_offset=int(data["byte_offset"]),
            margin=data.get("margin"),
            chunk_map=tuple(
                (int(dsn), int(size)) for dsn, size in data.get("chunk_map", ())
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @property
    def size_bytes(self) -> int:
        """Serialized footprint — the bench's checkpoint-size metric.

        Makes the paper's asymmetry measurable: FMTCP's stays O(1) while
        MPTCP's grows with the unacked chunk map.
        """
        return len(self.to_json().encode())


@dataclass(frozen=True)
class ReceiverCheckpoint:
    """Durable receiver progress: the delivered in-order frontier.

    Deliberately tiny for both protocols — delivery to the application
    is the durable commit. FMTCP's partial decode matrices are *not*
    checkpointed (ratelessness makes them reconstructible from any fresh
    symbols); MPTCP's reorder buffer is likewise dropped, its contents
    re-sent by the sender from its own checkpoint.
    """

    protocol: str
    frontier: int
    delivered_bytes: int
    version: int = CHECKPOINT_VERSION

    def __post_init__(self) -> None:
        if self.protocol not in ("fmtcp", "mptcp"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.frontier < 0 or self.delivered_bytes < 0:
            raise ValueError("checkpoint frontier/delivered_bytes must be >= 0")

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "protocol": self.protocol,
            "frontier": self.frontier,
            "delivered_bytes": self.delivered_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReceiverCheckpoint":
        _require_version(data, "receiver")
        return cls(
            protocol=data["protocol"],
            frontier=int(data["frontier"]),
            delivered_bytes=int(data["delivered_bytes"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @property
    def size_bytes(self) -> int:
        return len(self.to_json().encode())


def _protocol_of(connection) -> str:
    return "fmtcp" if hasattr(connection, "block_manager") else "mptcp"


def snapshot_sender(connection) -> SenderCheckpoint:
    """Capture the sender's durable progress from a live connection.

    The frontier is the contiguously *confirmed* prefix — never ahead of
    what the receiver acknowledged — so restoring from it can only
    re-send data the receiver deduplicates, never skip data.
    """
    if _protocol_of(connection) == "fmtcp":
        frontier = int(connection.sender._decoded_frontier_seen)
        return SenderCheckpoint(
            protocol="fmtcp",
            frontier=frontier,
            byte_offset=frontier * connection.config.block_bytes,
            margin=float(connection.sender.margin),
        )
    return SenderCheckpoint(
        protocol="mptcp",
        frontier=int(connection.data_acked),
        byte_offset=int(connection._acked_bytes),
        chunk_map=tuple(sorted(connection._chunk_sizes.items())),
    )


def snapshot_receiver(connection) -> ReceiverCheckpoint:
    """Capture the receiver's delivered frontier from a live connection.

    Units still sitting in the app-drain queue have *not* been handed to
    the application, so they do not count: a crash loses them and the
    recovered sender re-delivers. ``delivered_bytes`` already excludes
    them — bytes are only counted at the moment of app delivery.
    """
    if _protocol_of(connection) == "fmtcp":
        receiver = connection.receiver
        frontier = int(receiver.delivered_blocks) - receiver.app_queue_blocks
        delivered_bytes = int(receiver.delivered_bytes)
        return ReceiverCheckpoint(
            protocol="fmtcp", frontier=frontier, delivered_bytes=delivered_bytes
        )
    frontier = (
        int(connection.reorder_buffer.next_expected) - connection.app_queue_chunks
    )
    return ReceiverCheckpoint(
        protocol="mptcp",
        frontier=frontier,
        delivered_bytes=int(connection.delivered_bytes),
    )


@dataclass(frozen=True)
class ResumeState:
    """What a rebuilt connection needs to continue a checkpointed session.

    Combines the sender's (possibly stale) checkpoint with the
    receiver's frontier. The sender restarts at *its own* frontier —
    re-sending the ``[sender_frontier, receiver_frontier)`` gap, which
    the receiver deduplicates — because skipping ahead to the receiver's
    frontier would assume knowledge a crashed sender does not have until
    the first feedback fast-forwards it.
    """

    sender_frontier: int
    sender_byte_offset: int
    sender_margin: Optional[float] = None
    receiver_frontier: int = 0
    receiver_bytes: int = 0
    chunk_map: Tuple[Tuple[int, int], ...] = field(default=())


def resume_state(
    sender_ckpt: SenderCheckpoint, receiver_ckpt: ReceiverCheckpoint
) -> ResumeState:
    """Validate a checkpoint pair and fold it into a :class:`ResumeState`."""
    if sender_ckpt.protocol != receiver_ckpt.protocol:
        raise ValueError(
            f"checkpoint protocol mismatch: sender {sender_ckpt.protocol!r} "
            f"vs receiver {receiver_ckpt.protocol!r}"
        )
    if receiver_ckpt.frontier < sender_ckpt.frontier:
        # The receiver's frontier is the durable commit; the sender's is
        # a periodic snapshot of the *confirmed* prefix, so it can lag
        # but never lead.
        raise ValueError(
            f"inconsistent checkpoints: receiver frontier "
            f"{receiver_ckpt.frontier} behind sender frontier "
            f"{sender_ckpt.frontier}"
        )
    return ResumeState(
        sender_frontier=sender_ckpt.frontier,
        sender_byte_offset=sender_ckpt.byte_offset,
        sender_margin=sender_ckpt.margin,
        receiver_frontier=receiver_ckpt.frontier,
        receiver_bytes=receiver_ckpt.delivered_bytes,
        chunk_map=sender_ckpt.chunk_map,
    )
