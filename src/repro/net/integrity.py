"""Packet integrity: a cheap simulated CRC over header + payload.

Real TCP protects every segment with a checksum; this module is the
simulated equivalent. Because payloads in the simulator are Python
objects rather than wire bytes, the CRC is computed over a *structural
digest*: the packet's addressing/size header packed into bytes, plus a
canonical byte rendering of the payload obtained through the duck-typed
``integrity_digest()`` protocol (every transport payload class provides
one covering exactly its immutable wire-relevant fields).

``seal`` stamps :attr:`Packet.checksum`; ``verify`` recomputes and
compares. The transports use ``seal_deferred``, which promises the same
checksum but computes it only if a corruption model is about to damage
the packet (``stamp``), so a clean link hashes nothing. The corruption
models in :mod:`repro.net.corruption` attack the invariant from the
other side: *detectable* corruption changes the payload (so the digest
changes and the stale checksum no longer matches), while *CRC-evading*
corruption mutates the payload and then re-seals — modelling a checksum
collision — so that only end-to-end defenses (MPTCP's DSS checksum,
FMTCP's block CRC and GF(2) inconsistency detection) can catch it.

An unsealed packet (``checksum is None``) always verifies: integrity is
opt-in per transport, and raw packets built by unit tests keep working.
Sealing and verifying draw no randomness and change no behaviour on a
clean network, so enabling the layer is invisible to golden anchors.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from repro.net.packet import Packet

_HEADER = struct.Struct(">I")

#: ``Packet.checksum`` of a packet sealed by :func:`seal_deferred`. A CRC32
#: is never negative, so the marker cannot collide with a stamped value.
DEFERRED = -1


def payload_digest(payload: Any) -> bytes:
    """Canonical byte rendering of a transport payload for checksumming.

    Order of preference: the payload's own ``integrity_digest()`` (the
    wire-relevant fields, chosen by each payload class), raw ``bytes``,
    ``None``/ints/floats/strs packed directly, and finally ``repr`` —
    which for plain objects includes the id, i.e. is stable for one
    object but differs for any replacement object, so wrapping a payload
    always changes the digest.
    """
    digest = getattr(payload, "integrity_digest", None)
    if digest is not None:
        return digest()
    if payload is None:
        return b"\x00none"
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return b"\x01" + bytes(payload)
    if isinstance(payload, bool):
        return b"\x02" + (b"\x01" if payload else b"\x00")
    if isinstance(payload, int):
        return b"\x03" + payload.to_bytes(
            max(1, (payload.bit_length() + 8) // 8), "big", signed=True
        )
    if isinstance(payload, float):
        return b"\x04" + struct.pack(">d", payload)
    if isinstance(payload, str):
        return b"\x05" + payload.encode("utf-8", "surrogatepass")
    if isinstance(payload, (tuple, list)):
        parts = [b"\x06", str(len(payload)).encode()]
        for item in payload:
            inner = payload_digest(item)
            parts.append(str(len(inner)).encode() + b":")
            parts.append(inner)
        return b"".join(parts)
    return b"\x07" + repr(payload).encode("utf-8", "backslashreplace")


def packet_checksum(packet: Packet) -> int:
    """CRC32 over the packet header fields and the payload digest.

    The simulator-internal ``uid`` is deliberately excluded: it is
    bookkeeping, not a wire field, and a duplicated packet (fresh uid,
    same wire contents) must carry a valid checksum.
    """
    header = _HEADER.pack(packet.size & 0xFFFFFFFF)
    crc = zlib.crc32(header)
    crc = zlib.crc32(
        f"{packet.src}>{packet.dst}:{packet.src_port}>{packet.dst_port}"
        f":{packet.flow_label or ''}".encode(),
        crc,
    )
    return zlib.crc32(payload_digest(packet.payload), crc)


def seal(packet: Packet) -> Packet:
    """Stamp the packet's checksum; returns the packet for chaining."""
    packet.checksum = packet_checksum(packet)
    return packet


def seal_deferred(packet: Packet) -> Packet:
    """Mark the packet sealed without hashing it; returns the packet.

    The transports seal with this. A packet's wire fields never change
    after it is sent except in :mod:`repro.net.corruption`, which calls
    :func:`stamp` on the still-pristine packet before it clones or damages
    it — so the CRC a deferred seal stands for is computed exactly when
    some copy could fail it, and a clean link computes none.
    """
    packet.checksum = DEFERRED
    return packet


def stamp(packet: Packet) -> None:
    """Replace a deferred seal by the real CRC of the packet as it is now."""
    if packet.checksum == DEFERRED:
        packet.checksum = packet_checksum(packet)


def verify(packet: Packet) -> bool:
    """True iff the packet is unsealed or its checksum still matches.

    A deferred seal that was never stamped means nothing has damaged the
    packet, so it matches by construction. ``getattr`` rather than
    attribute access: handlers are fed duck-typed packet stand-ins in unit
    tests, and anything without a ``checksum`` field is by definition
    unsealed.
    """
    checksum = getattr(packet, "checksum", None)
    if checksum is None or checksum == DEFERRED:
        return True
    return checksum == packet_checksum(packet)
