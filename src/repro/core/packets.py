"""FMTCP wire formats.

A data packet carries groups of encoded symbols, one group per block (the
packet description vector V of Section IV-A: v_j symbols of block b_j).
The ACK feedback object carries the receiver's per-block independent
symbol counts k̄_b plus the decoded frontier, which is all the sender
needs for Eq. (8) and for the block-delivery-delay metric.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.fountain.codec import Symbol


class SymbolGroup:
    """``count`` symbols of one block inside a data packet.

    ``block_k``/``block_bytes`` ride along so the receiver can instantiate
    a decoder for a block it has never heard of (symbols may arrive on any
    subflow in any order). In ``real`` coding mode ``symbols`` holds the
    actual coefficient/data pairs; in statistical mode it is ``None``.
    """

    __slots__ = ("block_id", "count", "block_k", "block_bytes", "symbols", "block_crc")

    def __init__(
        self,
        block_id: int,
        count: int,
        block_k: int,
        block_bytes: int,
        symbols: Optional[List[Symbol]] = None,
        block_crc: Optional[int] = None,
    ):
        if count < 1:
            raise ValueError("a symbol group must carry at least one symbol")
        if symbols is not None and len(symbols) != count:
            raise ValueError("symbol list does not match declared count")
        self.block_id = block_id
        self.count = count
        self.block_k = block_k
        self.block_bytes = block_bytes
        self.symbols = symbols
        # CRC32 of the whole source block (real coding mode only): the
        # receiver verifies it after decoding, the backstop against
        # corruption that kept the GF(2) system consistent.
        self.block_crc = block_crc

    def integrity_digest(self) -> bytes:
        parts = [
            f"grp:{self.block_id}:{self.count}:{self.block_k}:"
            f"{self.block_bytes}:{self.block_crc}".encode()
        ]
        if self.symbols is not None:
            parts.extend(symbol.integrity_digest() for symbol in self.symbols)
        return b"|".join(parts)


class FmtcpSegmentPayload:
    """The transport payload of one FMTCP data packet."""

    __slots__ = ("groups",)

    def __init__(self, groups: Sequence[SymbolGroup]):
        if not groups:
            raise ValueError("an FMTCP packet must carry at least one symbol group")
        self.groups: Tuple[SymbolGroup, ...] = tuple(groups)

    def total_symbols(self) -> int:
        return sum(group.count for group in self.groups)

    def integrity_digest(self) -> bytes:
        return b"fseg[" + b";".join(g.integrity_digest() for g in self.groups) + b"]"

    def integrity_mutate(self, rng) -> Optional["FmtcpSegmentPayload"]:
        """A copy with one symbol's data bit-flipped, or ``None`` when no
        group carries real symbols (statistical mode has nothing to flip).

        Groups and symbol lists are rebuilt, never mutated: the sender
        still holds this payload object in its in-flight bookkeeping.
        """
        candidates = [
            index for index, group in enumerate(self.groups) if group.symbols
        ]
        if not candidates:
            return None
        target = rng.choice(candidates)
        group = self.groups[target]
        symbols = list(group.symbols)
        victim = rng.randrange(len(symbols))
        symbols[victim] = symbols[victim].integrity_mutate(rng)
        mutated_group = SymbolGroup(
            block_id=group.block_id,
            count=group.count,
            block_k=group.block_k,
            block_bytes=group.block_bytes,
            symbols=symbols,
            block_crc=group.block_crc,
        )
        groups = list(self.groups)
        groups[target] = mutated_group
        return FmtcpSegmentPayload(groups)


class FmtcpFeedback:
    """Receiver state piggybacked on every subflow ACK.

    * ``k_bar`` — independent symbols held per still-undecoded block
      (the paper's k̄_b, "carried in an ACK and transmitted to the sender").
    * ``decoded_in_order`` — number of blocks decoded *and* deliverable in
      sequence (the decode frontier).
    * ``decoded_out_of_order`` — ids of decoded blocks beyond the frontier.
    * ``quarantine`` — per-block quarantine epochs (block_id → how many
      times the receiver evicted that block's poisoned basis). Empty on a
      clean connection; lets the sender reset its monotone-max k̄ view
      when the receiver threw symbols away.
    * ``advertised_window`` — block-granular receive window (flow-control
      extension); ``None`` when flow control is disabled, so the wire
      format (and its integrity digest) is unchanged by default.
    """

    __slots__ = (
        "k_bar",
        "decoded_in_order",
        "decoded_out_of_order",
        "quarantine",
        "advertised_window",
    )

    def __init__(
        self,
        k_bar: Dict[int, int],
        decoded_in_order: int,
        decoded_out_of_order: Tuple[int, ...] = (),
        quarantine: Optional[Dict[int, int]] = None,
        advertised_window: Optional[int] = None,
    ):
        self.k_bar = k_bar
        self.decoded_in_order = decoded_in_order
        self.decoded_out_of_order = decoded_out_of_order
        self.quarantine = quarantine if quarantine is not None else {}
        self.advertised_window = advertised_window

    def integrity_digest(self) -> bytes:
        k_bar = ",".join(f"{b}={v}" for b, v in sorted(self.k_bar.items()))
        quarantine = ",".join(f"{b}={e}" for b, e in sorted(self.quarantine.items()))
        digest = (
            f"ffb:{self.decoded_in_order}:{sorted(self.decoded_out_of_order)}"
            f":{k_bar}:{quarantine}"
        )
        if self.advertised_window is not None:
            digest += f":aw{self.advertised_window}"
        return digest.encode()
