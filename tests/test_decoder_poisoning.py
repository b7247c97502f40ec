"""Decoder poisoning: a corrupted symbol that evades the link CRC must
never surface as corrupted application bytes.

Two detection layers are exercised:

* **GF(2) inconsistency** — a dependent coefficient row whose payload
  does not reduce to zero proves the basis holds a corrupted symbol;
* **block CRC** — the backstop for a poisoned basis that stayed
  consistent long enough to decode.

Either way the receiver quarantines the block (evicts the whole symbol
basis, bumps the quarantine epoch) and decodes correctly from
replacement symbols.
"""

import random
import zlib

import pytest

from repro.core.config import FmtcpConfig
from repro.core.packets import SymbolGroup
from repro.core.receiver import FmtcpReceiver
from repro.fountain.codec import BlockDecoder, BlockEncoder
from repro.fountain.gf2 import Gf2Eliminator
from repro.sim.engine import Simulator
from tests.conftest import soak_seeds

SEEDS = soak_seeds()


# ----------------------------------------------------------------------
# GF(2) inconsistency accounting.
# ----------------------------------------------------------------------
def test_gf2_consistent_dependent_row_is_not_flagged():
    eliminator = Gf2Eliminator(2, payload_bits=8)
    eliminator.add_row(0b01, 1)
    eliminator.add_row(0b10, 2)
    eliminator.add_row(0b11, 3)  # = row1 XOR row2: residual 0
    assert eliminator.dependent_rows == 1
    assert eliminator.inconsistent_rows == 0
    assert not eliminator.inconsistent


def test_gf2_contradictory_row_proves_corruption():
    eliminator = Gf2Eliminator(2, payload_bits=8)
    eliminator.add_row(0b01, 1)
    eliminator.add_row(0b10, 2)
    eliminator.add_row(0b11, 4)  # should be 3: residual != 0
    assert eliminator.inconsistent_rows == 1
    assert eliminator.inconsistent


def test_block_decoder_reports_poisoned():
    data = bytes(range(64))
    encoder = BlockEncoder(data, k=8, part_size=8, rng=random.Random(3))
    decoder = BlockDecoder(k=8, part_size=8, data_length=64)
    corrupted = encoder.next_symbol().integrity_mutate(random.Random(3))
    decoder.add_symbol(corrupted)
    while not decoder.poisoned and not decoder.is_complete:
        decoder.add_symbol(encoder.next_symbol())
    # Either the system contradicted itself (poisoned) or it completed
    # with the corrupted row still in the basis — in which case the
    # decoded bytes are wrong, which is exactly what the receiver's
    # block-CRC backstop exists to catch.
    if not decoder.poisoned:
        assert decoder.is_complete and decoder.decode() != data


# ----------------------------------------------------------------------
# Receiver-level quarantine: 30 seeds, one mutated symbol each.
# ----------------------------------------------------------------------
def _group_for(symbol, block_id, k, block_bytes, crc):
    return SymbolGroup(
        block_id=block_id,
        count=1,
        block_k=k,
        block_bytes=block_bytes,
        symbols=[symbol],
        block_crc=crc,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_receiver_quarantines_and_recovers_from_one_mutated_symbol(seed):
    rng = random.Random(seed)
    config = FmtcpConfig(coding="real")
    k = 16
    block_bytes = k * config.symbol_size
    data = bytes(rng.randrange(256) for __ in range(block_bytes))
    crc = zlib.crc32(data)
    encoder = BlockEncoder(data, k=k, part_size=config.symbol_size, rng=rng)

    delivered = {}
    receiver = FmtcpReceiver(
        Simulator(),
        config,
        sink=lambda block_id, payload: delivered.__setitem__(block_id, payload),
    )

    poison_at = rng.randrange(k)  # anywhere in the first basis
    fed = 0
    while not delivered and fed < 20 * k:
        symbol = encoder.next_symbol()
        if fed == poison_at:
            symbol = symbol.integrity_mutate(rng)
        receiver._absorb_group(_group_for(symbol, 0, k, block_bytes, crc))
        fed += 1

    assert receiver.blocks_quarantined >= 1, f"seed {seed}: never quarantined"
    assert receiver.symbols_evicted >= 1
    # The transfer still completed, exactly once, with the true bytes.
    assert delivered == {0: data}, f"seed {seed}: wrong or missing delivery"
    # Quarantine state is cleared once the block decodes cleanly, so the
    # feedback no longer advertises an epoch for it.
    assert receiver.feedback().quarantine == {}


def test_quarantine_epoch_rides_in_feedback_until_recovery():
    rng = random.Random(5)
    config = FmtcpConfig(coding="real")
    k = 8
    block_bytes = k * config.symbol_size
    data = bytes(rng.randrange(256) for __ in range(block_bytes))
    crc = zlib.crc32(data)
    encoder = BlockEncoder(data, k=k, part_size=config.symbol_size, rng=rng)

    receiver = FmtcpReceiver(Simulator(), config)
    # Feed a full corrupted basis: k mutated symbols, then clean ones
    # until the inconsistency trips.
    while receiver.blocks_quarantined == 0:
        symbol = encoder.next_symbol().integrity_mutate(rng)
        receiver._absorb_group(_group_for(symbol, 0, k, block_bytes, crc))
    assert receiver.feedback().quarantine == {0: 1}
    # A second poisoning bumps the epoch — the sender's k̄ gate needs
    # strictly increasing epochs to accept a reset.
    while receiver.blocks_quarantined == 1:
        symbol = encoder.next_symbol().integrity_mutate(rng)
        receiver._absorb_group(_group_for(symbol, 0, k, block_bytes, crc))
    assert receiver.feedback().quarantine == {0: 2}


def test_sender_k_bar_gate_respects_quarantine_epochs():
    from repro.core.blocks import BlockManager
    from repro.workloads.sources import BulkSource

    config = FmtcpConfig()
    manager = BlockManager(config, BulkSource(total_bytes=config.block_bytes))
    manager.replenish()
    (block,) = manager.pending_blocks

    manager.update_k_bar(block.block_id, 10)
    assert block.k_bar == 10
    # Same epoch: monotone max (stale smaller reports ignored).
    manager.update_k_bar(block.block_id, 4)
    assert block.k_bar == 10
    # Newer epoch (quarantine happened): overwrite downward.
    manager.update_k_bar(block.block_id, 0, epoch=1)
    assert block.k_bar == 0
    assert block.quarantine_epoch == 1
    manager.update_k_bar(block.block_id, 3, epoch=1)
    assert block.k_bar == 3
    # Older epoch: ignored entirely.
    manager.update_k_bar(block.block_id, 12, epoch=0)
    assert block.k_bar == 3
