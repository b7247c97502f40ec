"""Per-link packet corruption models.

Loss models decide whether a packet *disappears*; corruption models
decide whether its *content* is damaged in flight. Each model answers
once per packet leaving the wire, from the link's own named RNG stream,
so corruption realisations are reproducible and independent across
links — exactly the contract of :mod:`repro.net.loss`.

Three damage effects (the ``effect`` knob):

* ``bitflip`` — the payload is mutated in place on the wire (one
  flipped bit somewhere in the packet);
* ``truncate`` — the tail of the packet is cut off;
* ``duplicate`` — the packet arrives twice, the second copy mutated
  (a duplication-with-mutation fault, as produced by buggy middleboxes).

Two gating variants: :class:`BernoulliCorruption` (i.i.d. per packet)
and :class:`GilbertElliottCorruption` (two-state bursty).

Detectability: by default a corrupted packet keeps its stale link CRC
(:mod:`repro.net.integrity`), so the receiving subflow's verify-and-
discard turns corruption into loss. With probability ``evade_crc`` a
``bitflip``/``duplicate`` mutation instead *re-seals* the packet —
modelling a CRC collision — which requires a deep, content-level
mutation of the payload (the duck-typed ``integrity_mutate(rng)``
protocol). Payloads that carry no real content (statistical-mode
symbol groups, synthetic byte-count chunks) cannot be deeply mutated;
evasion then degrades to detectable corruption. Truncation is always
detectable: no checksum collision preserves a length change.

Mutation never touches sender-owned objects: ``integrity_mutate``
returns a mutated *copy*, and detectable corruption wraps the payload
in :class:`CorruptedPayload` without modifying it — the sender's
retransmission buffers stay clean, as on a real network.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Tuple

from repro.net.integrity import payload_digest, seal, stamp
from repro.net.packet import Packet

#: Damage effects a corruption model can apply.
CORRUPTION_EFFECTS = ("bitflip", "truncate", "duplicate")


class CorruptedPayload:
    """Wrapper marking a payload damaged in flight (detectable variant).

    The wrapped payload object itself is untouched (the sender may still
    own it); the wrapper's digest differs from the inner payload's, so
    the packet's stale checksum no longer verifies. ``salt`` makes two
    corruptions of the same payload distinguishable.
    """

    __slots__ = ("inner", "effect", "salt")

    def __init__(self, inner: Any, effect: str, salt: int):
        self.inner = inner
        self.effect = effect
        self.salt = salt

    def integrity_digest(self) -> bytes:
        return (
            b"!corrupt:"
            + self.effect.encode()
            + b":"
            + self.salt.to_bytes(4, "big")
            + payload_digest(self.inner)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CorruptedPayload {self.effect} of {self.inner!r}>"


def _mutate_packet(packet: Packet, effect: str, rng: random.Random, evade_crc: float):
    """One damaged copy/wrap of ``packet`` (never the original object)."""
    # A deferred seal becomes the pristine packet's real CRC here, before
    # any copy is made, so the damaged copy carries a checksum it can fail.
    stamp(packet)
    if effect == "bitflip" and evade_crc > 0.0 and rng.random() < evade_crc:
        mutate = getattr(packet.payload, "integrity_mutate", None)
        mutated = mutate(rng) if mutate is not None else None
        if mutated is not None:
            # CRC collision: the damaged packet re-seals and sails past
            # the link-level check — only end-to-end integrity catches it.
            return seal(packet.clone(payload=mutated))
    damaged = packet.clone(
        payload=CorruptedPayload(packet.payload, effect, rng.getrandbits(32))
    )
    if effect == "truncate":
        damaged.size = max(1, packet.size - 1 - rng.randrange(packet.size))
    return damaged


def corrupt_packet(
    packet: Packet, effect: str, rng: random.Random, evade_crc: float = 0.0
) -> Tuple[Packet, ...]:
    """Apply one damage effect; returns the packets to deliver instead."""
    if effect not in CORRUPTION_EFFECTS:
        raise ValueError(f"unknown corruption effect {effect!r}")
    if effect == "duplicate":
        return (packet, _mutate_packet(packet, "bitflip", rng, evade_crc))
    return (_mutate_packet(packet, effect, rng, evade_crc),)


class CorruptionModel:
    """Interface: possibly damage a packet observed leaving the wire.

    ``apply`` returns ``None`` for a clean pass-through (the common case,
    and the only case that must draw no extra randomness when the rate is
    zero), or the tuple of packets to deliver in the original's place.
    """

    def apply(
        self, packet: Packet, now: float, rng: random.Random
    ) -> Optional[Tuple[Packet, ...]]:
        raise NotImplementedError

    def rate_at(self, now: float) -> float:
        """The (marginal) corruption probability at ``now``."""
        raise NotImplementedError


def _validated(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


class BernoulliCorruption(CorruptionModel):
    """Independent corruption with fixed probability ``rate``."""

    def __init__(self, rate: float, effect: str = "bitflip", evade_crc: float = 0.0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must be in [0, 1], got {rate}")
        if effect not in CORRUPTION_EFFECTS:
            raise ValueError(f"unknown corruption effect {effect!r}")
        self.rate = float(rate)
        self.effect = effect
        self.evade_crc = _validated("evade_crc", evade_crc)

    def apply(self, packet, now, rng):
        if self.rate <= 0.0 or rng.random() >= self.rate:
            return None
        return corrupt_packet(packet, self.effect, rng, self.evade_crc)

    def rate_at(self, now: float) -> float:
        return self.rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BernoulliCorruption({self.rate}, effect={self.effect!r}, "
            f"evade_crc={self.evade_crc})"
        )


class GilbertElliottCorruption(CorruptionModel):
    """Two-state Markov (Gilbert–Elliott) bursty corruption.

    The chain steps once per observed packet: GOOD→BAD with probability
    ``p_gb``, BAD→GOOD with ``p_bg``; a packet in the BAD state is then
    corrupted with probability ``corrupt_bad``, one in the GOOD state
    never.
    """

    GOOD = 0
    BAD = 1

    def __init__(
        self,
        p_gb: float,
        p_bg: float,
        corrupt_bad: float = 0.3,
        effect: str = "bitflip",
        evade_crc: float = 0.0,
    ):
        for name, value in (("p_gb", p_gb), ("p_bg", p_bg), ("corrupt_bad", corrupt_bad)):
            _validated(name, value)
        if effect not in CORRUPTION_EFFECTS:
            raise ValueError(f"unknown corruption effect {effect!r}")
        self.p_gb = float(p_gb)
        self.p_bg = float(p_bg)
        self.corrupt_bad = float(corrupt_bad)
        self.effect = effect
        self.evade_crc = _validated("evade_crc", evade_crc)
        self.state = self.GOOD

    def stationary_bad_fraction(self) -> float:
        denominator = self.p_gb + self.p_bg
        if denominator == 0.0:
            return 0.0 if self.state == self.GOOD else 1.0
        return self.p_gb / denominator

    def rate_at(self, now: float) -> float:
        return self.stationary_bad_fraction() * self.corrupt_bad

    def apply(self, packet, now, rng):
        if self.state == self.GOOD:
            if rng.random() < self.p_gb:
                self.state = self.BAD
        else:
            if rng.random() < self.p_bg:
                self.state = self.GOOD
        rate = self.corrupt_bad
        if self.state == self.GOOD or rate <= 0.0 or rng.random() >= rate:
            return None
        return corrupt_packet(packet, self.effect, rng, self.evade_crc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GilbertElliottCorruption(p_gb={self.p_gb}, p_bg={self.p_bg}, "
            f"corrupt_bad={self.corrupt_bad}, "
            f"effect={self.effect!r})"
        )
