"""Unit tests for FMTCP configuration and sender-side block state."""

import math

import pytest

from repro.core.blocks import BlockManager, PendingBlock
from repro.core.config import FmtcpConfig
from repro.workloads.sources import BulkSource


# ----------------------------------------------------------------------
# Config.
# ----------------------------------------------------------------------
def test_default_config_derived_values():
    config = FmtcpConfig()
    assert config.block_bytes == 256 * 32
    assert config.symbol_wire_size == 34
    assert config.symbols_per_packet == 1400 // 34
    assert config.completeness_margin == pytest.approx(math.log2(1000))


def test_config_validation():
    with pytest.raises(ValueError):
        FmtcpConfig(symbols_per_block=0)
    with pytest.raises(ValueError):
        FmtcpConfig(symbol_size=0)
    with pytest.raises(ValueError):
        FmtcpConfig(delta_hat=0.0)
    with pytest.raises(ValueError):
        FmtcpConfig(delta_hat=1.0)
    with pytest.raises(ValueError):
        FmtcpConfig(coding="quantum")
    with pytest.raises(ValueError):
        FmtcpConfig(allocation="magic")
    with pytest.raises(ValueError):
        FmtcpConfig(symbol_size=2000, mss=1400)


@pytest.mark.parametrize(
    "field, bad_values",
    [
        # Was a ZeroDivisionError inside Subflow.aged_loss_estimate mid-transfer.
        ("loss_estimate_half_life_s", [0.0, -1.0, math.nan]),
        ("probe_interval_s", [0.0, -0.5, math.nan]),
        # Was a transfer that silently sent nothing.
        ("max_pending_blocks", [0, -3]),
        ("loss_estimate_floor", [-0.01, 1.0, 1.5, math.nan]),
        ("symbol_header_bytes", [-1]),
    ],
)
def test_config_rejects_the_inputs_an_allocation_round_keys_on(field, bad_values):
    for value in bad_values:
        with pytest.raises(ValueError, match=field):
            FmtcpConfig(**{field: value})


def test_config_accepts_the_boundary_values_of_those_inputs():
    config = FmtcpConfig(
        loss_estimate_half_life_s=1e-3,
        probe_interval_s=1e-3,
        max_pending_blocks=1,
        loss_estimate_floor=0.0,
        symbol_header_bytes=0,
    )
    assert config.symbol_wire_size == config.symbol_size
    assert FmtcpConfig(loss_estimate_half_life_s=None, probe_interval_s=None)
    assert FmtcpConfig(loss_estimate_floor=0.99).loss_estimate_floor == 0.99


# ----------------------------------------------------------------------
# PendingBlock: Eq. (8) and Definitions 2-4.
# ----------------------------------------------------------------------
def loss_zero(subflow_id):
    return 0.0


def test_k_tilde_counts_acked_and_inflight():
    block = PendingBlock(block_id=0, k=10, data_bytes=100)
    block.k_bar = 3
    block.record_sent(subflow_id=0, count=4, now=1.0)
    block.record_sent(subflow_id=1, count=2, now=1.1)
    # Eq. 8 with p0 = 0.5, p1 = 0: 3 + 4*0.5 + 2*1.0 = 7
    loss = {0: 0.5, 1: 0.0}
    assert block.k_tilde(lambda sf: loss[sf]) == pytest.approx(7.0)


def test_expected_failure_uses_eq2():
    block = PendingBlock(block_id=0, k=4, data_bytes=16)
    block.k_bar = 4
    assert block.expected_failure(loss_zero) == 1.0  # exactly k
    block.k_bar = 6
    assert block.expected_failure(loss_zero) == pytest.approx(0.25)


def test_delta_completeness_margin_form():
    block = PendingBlock(block_id=0, k=10, data_bytes=100)
    margin = math.log2(100)  # delta_hat = 0.01
    block.k_bar = 10 + 7
    assert block.is_delta_complete(loss_zero, margin)
    block.k_bar = 10 + 6
    assert not block.is_delta_complete(loss_zero, margin)


def test_record_resolved_never_goes_negative():
    block = PendingBlock(block_id=0, k=4, data_bytes=16)
    block.record_sent(0, 3, now=0.0)
    block.record_resolved(0, 5)
    assert block.in_flight_total() == 0


def test_first_tx_timestamp_set_once():
    block = PendingBlock(block_id=0, k=4, data_bytes=16)
    block.record_sent(0, 1, now=2.0)
    block.record_sent(0, 1, now=5.0)
    assert block.first_tx_at == 2.0


# ----------------------------------------------------------------------
# BlockManager.
# ----------------------------------------------------------------------
def make_manager(total_bytes=None, **config_kwargs):
    config = FmtcpConfig(**config_kwargs)
    return BlockManager(config, BulkSource(total_bytes)), config


def test_replenish_fills_to_limit():
    manager, config = make_manager()
    manager.replenish()
    assert len(manager.pending_blocks) == config.max_pending_blocks
    assert [block.block_id for block in manager.pending_blocks] == list(
        range(config.max_pending_blocks)
    )


def test_blocks_are_full_sized_from_bulk_source():
    manager, config = make_manager()
    manager.replenish()
    block = manager.pending_blocks[0]
    assert block.k == config.symbols_per_block
    assert block.data_bytes == config.block_bytes


def test_partial_final_block_gets_smaller_k():
    # One full block plus 100 trailing bytes of data.
    config = FmtcpConfig()
    manager = BlockManager(config, BulkSource(config.block_bytes + 100))
    manager.replenish()
    assert len(manager.pending_blocks) == 2
    tail = manager.pending_blocks[1]
    assert tail.data_bytes == 100
    assert tail.k == -(-100 // config.symbol_size)


def test_exhausted_source_stops_replenishing():
    config = FmtcpConfig()
    manager = BlockManager(config, BulkSource(config.block_bytes * 2))
    manager.replenish()
    assert len(manager.pending_blocks) == 2
    assert manager.source_exhausted


def test_mark_decoded_retires_block():
    manager, config = make_manager()
    manager.replenish()
    retired = manager.mark_decoded(0)
    assert retired is not None and retired.decoded
    assert manager.block_by_id(0) is None
    assert manager.blocks_completed == 1
    # Replenish pulls a fresh block to fill the hole.
    manager.replenish()
    assert len(manager.pending_blocks) == config.max_pending_blocks


def test_mark_decoded_unknown_id_is_noop():
    manager, __ = make_manager()
    manager.replenish()
    assert manager.mark_decoded(999) is None


def test_update_k_bar_is_monotone_max():
    manager, __ = make_manager()
    manager.replenish()
    manager.update_k_bar(0, 5)
    manager.update_k_bar(0, 3)  # stale report must not regress
    assert manager.block_by_id(0).k_bar == 5


def test_real_coding_mode_attaches_encoders():
    config = FmtcpConfig(coding="real", max_pending_blocks=2)
    manager = BlockManager(config, BulkSource())
    manager.replenish()
    assert all(block.encoder is not None for block in manager.pending_blocks)
    symbol = manager.pending_blocks[0].encoder.next_symbol()
    assert symbol.coeff > 0
