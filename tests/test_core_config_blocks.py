"""Unit tests for FMTCP configuration and sender-side block state."""

import dataclasses
import math

import pytest

from repro.core.blocks import BlockManager, PendingBlock
from repro.core.config import SYMBOL_HEADER_BYTES, FmtcpConfig
from repro.fixedrate import FixedRateConfig
from repro.mptcp.connection import MptcpConfig
from repro.net.topology import PathConfig
from repro.robustness.watchdog import WatchdogConfig
from repro.tcp.multipath import MultipathConfig
from repro.telemetry.session import TelemetryConfig
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


def test_statistical_coding_rejects_blocks_past_the_rank_model_limit():
    """``symbols_per_block=1024`` was accepted and the transfer then died
    with OverflowError at the first received symbol (the rank model's
    float(2**k - 1)); the real codec has no such limit."""
    assert FmtcpConfig(symbols_per_block=1023).symbols_per_block == 1023
    assert FmtcpConfig(symbols_per_block=1024, coding="real").coding == "real"
    with pytest.raises(ValueError, match="symbols_per_block"):
        FmtcpConfig(symbols_per_block=1024)


@pytest.mark.parametrize(
    "field, bad_values",
    [
        # Was a ZeroDivisionError inside Subflow.aged_loss_estimate mid-transfer.
        ("loss_estimate_half_life_s", [0.0, -1.0, math.nan]),
        # Was a transfer that silently sent nothing.
        ("max_pending_blocks", [0, -3]),
    ],
)
def test_config_rejects_the_inputs_an_allocation_round_keys_on(field, bad_values):
    for value in bad_values:
        with pytest.raises(ValueError, match=field):
            FmtcpConfig(**{field: value})


def test_config_accepts_the_boundary_values_of_those_inputs():
    config = FmtcpConfig(loss_estimate_half_life_s=1e-3, max_pending_blocks=1)
    assert config.symbol_wire_size == config.symbol_size + SYMBOL_HEADER_BYTES
    assert FmtcpConfig(loss_estimate_half_life_s=None)


# ----------------------------------------------------------------------
# The block geometry both coded transports take from one base
# (repro.core.config.CodedConfig).
# ----------------------------------------------------------------------
CODED_CONFIGS = pytest.mark.parametrize("config_class", [FmtcpConfig, FixedRateConfig])


@CODED_CONFIGS
@pytest.mark.parametrize(
    "field, bad_values",
    [
        ("symbols_per_block", [0, -1]),
        ("symbol_size", [0, -32]),
        ("max_pending_blocks", [0, -3]),
        # One 34-byte symbol does not fit: FixedRateConfig(mss=10) used to
        # die at start() inside Subflow._transmit.
        ("mss", [10, 33]),
    ],
)
def test_block_geometry_is_rejected_with_field_and_value(config_class, field, bad_values):
    for value in bad_values:
        with pytest.raises(ValueError, match=field) as raised:
            config_class(**{field: value})
        assert str(value) in str(raised.value)


@CODED_CONFIGS
def test_block_geometry_accepts_its_boundary_values(config_class):
    config = config_class(
        mss=SYMBOL_HEADER_BYTES + 1, symbols_per_block=1, symbol_size=1,
        max_pending_blocks=1,
    )
    assert config.symbols_per_packet == 1 and config.block_bytes == 1


# ----------------------------------------------------------------------
# The fields every transport's config takes from one base
# (repro.tcp.multipath.MultipathConfig): validated once, for all.
# ----------------------------------------------------------------------
BOTH_CONFIGS = pytest.mark.parametrize("config_class", [FmtcpConfig, MptcpConfig])
ALL_CONFIGS = pytest.mark.parametrize(
    "config_class", [FmtcpConfig, MptcpConfig, FixedRateConfig]
)
#: The multipath policy FixedRateConfig fixes with ``init=False``: plain
#: Reno, no failover, no flow control (the strawman serves none of it).
FIXEDRATE_PINNED = {
    "congestion": "reno", "failover_rto_threshold": None,
    "flow_control": False, "recv_drain_rate_bps": None,
}


def pinned_fields(config_class) -> dict:
    return {
        f.name: f.default for f in dataclasses.fields(config_class) if not f.init
    }


@ALL_CONFIGS
@pytest.mark.parametrize(
    "field, bad_values",
    [
        # MptcpConfig(mss=0) ran a 3 s transfer that delivered 0 bytes.
        ("mss", [0, -1400]),
        # Was rejected only once a connection was built.
        ("congestion", ["cubic", "", None]),
        ("failover_rto_threshold", [0, -1]),
    ],
)
def test_shared_fields_are_rejected_with_field_and_value(config_class, field, bad_values):
    if field in pinned_fields(config_class):
        # Not a keyword at all (test_fixedrate_config_pins_the_multipath_policy).
        with pytest.raises(TypeError, match=field):
            config_class(**{field: bad_values[0]})
        return
    for value in bad_values:
        with pytest.raises(ValueError, match=field) as raised:
            config_class(**{field: value})
        assert repr(value) in str(raised.value) or str(value) in str(raised.value)


@BOTH_CONFIGS
@pytest.mark.parametrize("overrides", [{"recv_drain_rate_bps": -1.0}])
def test_shared_flow_control_fields_are_rejected(config_class, overrides):
    with pytest.raises(ValueError):
        config_class(**overrides)


@BOTH_CONFIGS
def test_shared_fields_accept_their_boundary_values(config_class):
    config = config_class(
        mss=34, congestion="lia", failover_rto_threshold=None, recv_drain_rate_bps=0.0,
    )
    assert config.congestion == "lia" and config.mss == 34


def test_fixedrate_config_pins_the_multipath_policy():
    """The strawman runs plain Reno with no failover and no flow control;
    the config states that instead of accepting values it ignores."""
    assert pinned_fields(FixedRateConfig) == FIXEDRATE_PINNED
    assert all(not pinned_fields(c) for c in (FmtcpConfig, MptcpConfig))
    for field, value in [
        ("congestion", "lia"), ("failover_rto_threshold", 3),
        ("flow_control", True), ("recv_drain_rate_bps", 0.0),
    ]:
        with pytest.raises(TypeError, match=field):
            FixedRateConfig(**{field: value})


def test_mptcp_block_bytes_is_rejected_at_the_boundary():
    # Was a ZeroDivisionError inside next_payload, mid-run.
    for value in (0, -8192):
        with pytest.raises(ValueError, match="block_bytes"):
            MptcpConfig(block_bytes=value)
    assert MptcpConfig(block_bytes=1).block_bytes == 1


def test_mptcp_scheduler_is_rejected_at_the_boundary():
    # Was accepted, and failed only once a connection was built.
    for value in ("blest", "", None):
        with pytest.raises(ValueError, match="scheduler") as raised:
            MptcpConfig(scheduler=value)
        assert repr(value) in str(raised.value)
    assert MptcpConfig(scheduler="roundrobin").scheduler == "roundrobin"


SHARED_DEFAULTS = {
    "mss": 1400, "congestion": "reno", "failover_rto_threshold": 3,
    "flow_control": False, "recv_drain_rate_bps": None,
}
#: Shared fields the traffic census found nothing set; the constants
#: their readers use (``congestion.INITIAL_CWND``, ``rto.MIN_RTO``,
#: ``subflow.DUP_ACK_THRESHOLD``) hold the values they had.
DELETED_SHARED_FIELDS = ("initial_cwnd", "min_rto", "dup_ack_threshold")


@pytest.mark.parametrize(
    "config_class, own_defaults",
    [
        (
            FmtcpConfig,
            {
                "symbols_per_block": 256, "symbol_size": 32, "delta_hat": 1e-3,
                "max_pending_blocks": 16, "coding": "statistical",
                "systematic": False, "allocation": "eat",
                "loss_estimate_half_life_s": None, "recv_window_blocks": 32,
            },
        ),
        (
            MptcpConfig,
            {
                "recv_buffer_chunks": 64, "block_bytes": 8192,
                "scheduler": "minrtt", "reinject_after_timeouts": None,
                "opportunistic_retransmission": False,
            },
        ),
        (
            PathConfig,
            {
                "bandwidth_bps": 4e6, "delay_s": 0.100, "loss_rate": 0.0,
                "loss_model": None, "queue_capacity": 100,
            },
        ),
        (WatchdogConfig, {"min_stall_s": 1.0}),
        (
            TelemetryConfig,
            {
                "sample_period_s": 0.1, "trace_path": None, "profile_sim": False,
                "spans": False,
            },
        ),
        (
            FixedRateConfig,
            {
                "symbols_per_block": 256, "symbol_size": 32,
                "max_pending_blocks": 16, "estimated_loss": 0.05,
                **FIXEDRATE_PINNED,
            },
        ),
    ],
)
def test_config_surface_is_the_pre_skeleton_one(config_class, own_defaults):
    """Every field, by name and default: the pre-skeleton surface minus
    the twenty-two fields the traffic census found nothing set (ROADMAP
    ``census``) and ``symbol_header_bytes``, now a constant. A knob
    added back — or a new one — fails here and in
    ``test_repo_consistency.py::test_every_config_field_has_traffic``.
    FixedRateConfig's pinned fields are fields but not keywords."""
    shared = SHARED_DEFAULTS if issubclass(config_class, MultipathConfig) else {}
    fields = {f.name: f.default for f in dataclasses.fields(config_class)}
    assert fields == {**shared, **own_defaults}
    assert len(fields) == {
        FmtcpConfig: 14, MptcpConfig: 10, FixedRateConfig: 9, PathConfig: 5,
        WatchdogConfig: 1, TelemetryConfig: 4,
    }[config_class]
    for name in DELETED_SHARED_FIELDS if shared else ():
        with pytest.raises(TypeError, match=name):
            config_class(**{name: 1})


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
