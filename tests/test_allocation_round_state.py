"""Shadow oracle for the FMTCP sender's allocation ledger (ROADMAP aim 3).

``FmtcpSender`` carries one allocation ledger (``_RoundState``) across
rounds, instants and ACKs: each callback marks the blocks whose k̃ it
moved, a decode deletes its row, and the next round re-derives only the
marked rows. A missed mark would not crash anything — it would quietly
allocate from stale k̃ — so these tests put a sender subclass under real
transfers that recomputes every production round from scratch (fresh
``loss_snapshot``, fresh ``path_estimates``, the literal
``allocate_packet_reference``) and raises :class:`ShadowMismatch` the
moment the carried ledger decides otherwise, or holds a table that a
fresh ``expected_symbols`` would not produce, after any round or packet.
The ledger's path table is held to the same standard: whenever a round
has refreshed it, and after every packet Algorithm 1 chose, its rows
must equal a fresh ``path_estimates`` (and the public ``Subflow``
properties behind it), its EDTs ``edt_for_flows`` and its EATs
``eat_table``. The last tests take one update away at a time and require
the shadow to fire: the invariant can fail.
"""

import hashlib
import json
import sys
from collections import Counter

import pytest

from repro.core import sender as sender_module
from repro.core.allocation import allocate_packet_reference, expected_symbols
from repro.core.blocks import PendingBlock
from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.core.estimators import PathEstimate, PathTable, eat_table, edt_for_flows
from repro.core.sender import _MAX_LOSS, FmtcpSender, _RoundState
from repro.experiments.runner import run_transfer
from repro.faults import (
    CORRUPTION_SCENARIOS,
    EXHAUSTION_SCENARIOS,
    MOBILITY_SCENARIOS,
    RECOVERY_SCENARIOS,
    SCENARIOS,
    TRACE_SCENARIOS,
)
from repro.faults.chaos import CHAOS
from repro.faults.churn import CHURN
from repro.faults.corruption import CORRUPTION
from repro.recovery.harness import RECOVERY
from repro.robustness.exhaustion import EXHAUSTION
from repro.soak import run_soak
from repro.traces.harness import TRACES
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs
from repro.workloads.sources import CbrSource
from tests.conftest import make_two_path


class ShadowMismatch(AssertionError):
    """The carried round state and a from-scratch recomputation disagree."""


class ShadowSender(FmtcpSender):
    """``FmtcpSender`` that checks every production round against scratch."""

    #: What the shadow saw, across every sender of the current test.
    seen: Counter = Counter()

    @property
    def margin(self):
        return FmtcpSender.margin.fget(self)

    @margin.setter
    def margin(self, value):
        self.seen["margin_writes"] += 1
        FmtcpSender.margin.fset(self, value)

    def _scratch(self):
        losses = self.loss_snapshot()
        return losses, lambda subflow_id: losses.get(subflow_id, _MAX_LOSS)

    def _check_carried_tables(self, where):
        state = self._round
        if state is None:
            return
        losses, loss_rate_of = self._scratch()
        fresh = expected_symbols(state.blocks, loss_rate_of, self.margin)
        carried = (state.losses, state.k_tildes, state.demand, state.first_short)
        if carried != (losses, *fresh):
            raise ShadowMismatch(
                f"t={self.sim.now!r} {where}: carried {carried} != fresh "
                f"{(losses, *fresh)}"
            )

    def _check_path_table(self, where):
        """The carried path table against the rows, EDTs, EATs and gains
        a from-scratch read of every allocatable subflow gives."""
        state = self._round
        if state is None or state.paths is None:
            return
        paths = state.paths
        losses, loss_rate_of = self._scratch()
        fresh = self.path_estimates()
        public = [
            PathEstimate(
                subflow.subflow_id, subflow.srtt, subflow.rto_value,
                losses[subflow.subflow_id], subflow.window_space, subflow.tau,
            )
            for subflow in self.subflows
            if not subflow.is_joining and not subflow.potentially_failed
        ]
        carried = (
            paths.estimates(),
            dict(zip(paths.ids, paths.edts)),
            dict(zip(paths.ids, paths.eats)),
            paths.gains,
        )
        want = (
            fresh,
            edt_for_flows(fresh),
            eat_table(fresh),
            [max(1.0 - loss_rate_of(row.subflow_id), 1e-3) for row in fresh],
        )
        if carried != want or fresh != public:
            raise ShadowMismatch(
                f"t={self.sim.now!r} {where}: carried path table {carried} != "
                f"fresh {want} (public properties: {public})"
            )

    def _paths(self, state):
        before = state.paths
        paths = super()._paths(state)
        self._check_path_table("after a path refresh")
        self.seen["path_refreshes"] += 1
        if paths is before:
            self.seen["paths_carried"] += 1
        return paths

    def _eat_round(self, subflow, pending):
        losses, loss_rate_of = self._scratch()
        want = allocate_packet_reference(
            pending_subflow_id=subflow.subflow_id,
            estimates=self.path_estimates(),
            blocks=pending,
            loss_rate_of=loss_rate_of,
            mss=self.config.mss,
            symbol_wire_size=self.config.symbol_wire_size,
            margin=self.margin,
        ).vector or None
        before = self._round
        settled_at = None if before is None else before.now
        result = super()._eat_round(subflow, pending)
        got = None if result is None else result.vector
        if got != want:
            raise ShadowMismatch(
                f"t={self.sim.now!r} subflow {subflow.subflow_id}: the round "
                f"state gives {got}, from scratch {want}"
            )
        self._check_carried_tables("after a round")
        self.seen["rounds"] += 1
        if before is not None and self._round is before:
            self.seen["carried"] += 1
            self.seen["carried_none" if got is None else "carried_packet"] += 1
            if settled_at != self.sim.now:
                self.seen["carried_across_instants"] += 1
        return result

    def _build_packet(self, subflow, result):
        built = super()._build_packet(subflow, result)
        self._check_carried_tables("after a packet")
        self._check_path_table("after a packet")
        return built


@pytest.fixture
def shadow(monkeypatch):
    """Every FmtcpConnection built during the test drives a ShadowSender."""
    monkeypatch.setattr("repro.core.connection.FmtcpSender", ShadowSender)
    ShadowSender.seen = Counter()
    return ShadowSender.seen


def _assert_exercised(seen):
    """The run reached the carried ledger, both verdicts of it, and the
    ledger outlived an instant."""
    assert seen["rounds"] > 0
    assert seen["carried_none"] > 0 and seen["carried_packet"] > 0, seen
    assert seen["carried_across_instants"] > 0, seen
    assert seen["paths_carried"] > 0, seen


def _paced_stream(config, duration_s=6.0):
    """An application-paced CBR stream over two lossy paths. The source
    wakes the connection on its own timer, so rounds run at instants no
    ACK or loss reached: with aging on, only the time check keeps the
    ledger's loss snapshot fresh there."""
    network, paths, trace = make_two_path(
        loss1=0.02, loss2=0.05, delay1=0.02, delay2=0.05
    )
    source = CbrSource(network.sim, rate_bps=1e6)
    connection = FmtcpConnection(
        network.sim, paths, source, config=config, trace=trace
    )
    source.attach(connection)
    connection.start()
    network.sim.run(until=duration_s)
    return connection


def _table1(case_id, duration_s=6.0, seed=7, config=None):
    case = next(case for case in TABLE1_CASES if case.case_id == case_id)
    return run_transfer(
        "fmtcp", table1_path_configs(case), duration_s, seed=seed,
        fmtcp_config=config,
    )


# ----------------------------------------------------------------------
# The shadow agrees wherever the sender runs.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", [2, 4])
def test_shadow_agrees_on_table1(shadow, case_id):
    result = _table1(case_id)
    assert result.summary["blocks"] > 0
    _assert_exercised(shadow)


def test_shadow_agrees_with_aging_on(shadow):
    """The time-dependent loss estimate is a round-state input (a moved
    margin is the ``slow_drain_receiver`` case below: the watchdog boost)."""
    config = FmtcpConfig(loss_estimate_half_life_s=0.5)
    result = _table1(4, duration_s=10.0, config=config)
    assert result.summary["blocks"] > 0
    _assert_exercised(shadow)


def test_shadow_agrees_on_a_paced_stream_with_aging_on(shadow):
    connection = _paced_stream(FmtcpConfig(loss_estimate_half_life_s=0.5))
    assert connection.receiver.delivered_bytes > 0
    _assert_exercised(shadow)


SOAKS = {
    # fault group: (harness, preset registry, preset)
    "chaos outage": (CHAOS, SCENARIOS, "path_death"),
    "churn handover (add_subflow / remove_subflow)": (
        CHURN, MOBILITY_SCENARIOS, "wifi_to_lte_handover",
    ),
    "corruption (quarantine-epoch k̄ reset)": (
        CORRUPTION, CORRUPTION_SCENARIOS, "bit_rot",
    ),
    "exhaustion (flow_control)": (
        EXHAUSTION, EXHAUSTION_SCENARIOS, "tiny_receive_buffer",
    ),
    "exhaustion (watchdog margin boost)": (
        EXHAUSTION, EXHAUSTION_SCENARIOS, "slow_drain_receiver",
    ),
    "receiver crash": (RECOVERY, RECOVERY_SCENARIOS, "receiver_crash"),
    "gprs_bursty trace": (TRACES, TRACE_SCENARIOS, "gprs_bursty"),
}


@pytest.mark.parametrize("group", sorted(SOAKS))
def test_shadow_agrees_under_each_fault_group(shadow, group):
    harness, registry, preset = SOAKS[group]
    report = run_soak(harness, "fmtcp", registry[preset](), seed=1)
    assert report.violations == []
    assert shadow["rounds"] > 0 and shadow["carried"] > 0, shadow
    if preset == "wifi_to_lte_handover":
        assert report.handovers == 1
    if preset == "bit_rot":
        assert report.corruption_stats["blocks_quarantined"] >= 1
    if preset == "tiny_receive_buffer":
        # The gate's licence moved all transfer long (the admissible list
        # with it); slow_drain_receiver below adds pauses and window probes.
        assert report.flow["enabled"]
        assert report.flow["flow_limit"] > report.budget_units
    if preset == "slow_drain_receiver":
        assert report.flow["flow_pauses"] > 0 and report.flow["window_probes"] > 0
        assert report.watchdog_escalation == 3  # past the margin-boost rung
        assert shadow["margin_writes"] == 1
    if preset == "receiver_crash":
        assert report.crashes == 1 and report.resumes == 1
    if preset == "gprs_bursty":
        assert report.trace_ticks > 0


# ----------------------------------------------------------------------
# The invariant can fail: take one ledger update away at a time.
# ----------------------------------------------------------------------
def _forget_marks_in(monkeypatch, function_name):
    """Make every ledger's ``marked.append`` a no-op when called from
    ``function_name`` only: the seeded defect is exactly one forgotten
    mark."""

    class Forgetful(list):
        def append(self, block):
            if sys._getframe(1).f_code.co_name != function_name:
                super().append(block)

    build = _RoundState.__init__

    def build_forgetful(state, *args):
        build(state, *args)
        state.marked = Forgetful()

    monkeypatch.setattr(_RoundState, "__init__", build_forgetful)


def _compare_losses_only_on_acks(monkeypatch):
    """The ledger's loss-snapshot comparison skipped unless an ACK or a
    loss arrived: ``loss_snapshot`` asked by ``_ledger`` answers with the
    ledger's own snapshot while nothing was sampled."""
    snapshot = FmtcpSender.loss_snapshot

    def loss_snapshot(sender):
        state = sender._round
        if (
            sys._getframe(1).f_code.co_name == "_ledger"
            and state is not None
            and not state.sampled
        ):
            return dict(state.losses)
        return snapshot(sender)

    monkeypatch.setattr(FmtcpSender, "loss_snapshot", loss_snapshot)


@pytest.mark.parametrize(
    "forgotten",
    [
        "_resolve_groups",  # An ACK or loss resolved a packet's symbols.
        "_fold_k_bar",  # on_ack_feedback folded in a k̄ that moved.
    ],
)
def test_shadow_fires_when_a_mark_is_forgotten(shadow, monkeypatch, forgotten):
    _forget_marks_in(monkeypatch, forgotten)
    with pytest.raises(ShadowMismatch):
        _table1(4, duration_s=20.0)


def test_shadow_fires_when_a_decoded_block_keeps_its_row(shadow, monkeypatch):
    monkeypatch.setattr(_RoundState, "drop", lambda self, block: None)
    with pytest.raises(ShadowMismatch):
        _table1(2)


def test_shadow_fires_when_aged_losses_are_compared_only_on_acks(
    shadow, monkeypatch
):
    _compare_losses_only_on_acks(monkeypatch)
    with pytest.raises(ShadowMismatch, match="after a round"):
        _paced_stream(FmtcpConfig(loss_estimate_half_life_s=0.5))


def test_shadow_fires_when_a_built_packet_does_not_update_the_state(
    shadow, monkeypatch
):
    monkeypatch.setattr(_RoundState, "note_sent", lambda self, block: None)
    with pytest.raises(ShadowMismatch, match="after a packet"):
        _table1(2)


def test_the_seeded_defects_are_the_only_thing_that_fires(shadow, monkeypatch):
    """The mark-forgetting patch itself, aimed at a function that marks
    nothing, leaves a clean run clean; so does comparing losses only on
    ACKs while no aging makes them move with time alone."""
    _forget_marks_in(monkeypatch, "pump_all")
    _compare_losses_only_on_acks(monkeypatch)
    assert _table1(2).summary["blocks"] > 0
    assert _paced_stream(FmtcpConfig()).receiver.delivered_bytes > 0
    _assert_exercised(shadow)


def _stale_edts_after_moves(monkeypatch):
    """A ledger's path table is derived once, when built: a row whose srtt
    or rto moved later keeps its SEDT, RT and EDT."""
    derive = PathTable.derive

    def derive_once(paths, moved):
        if any(paths.edts):  # Derived before.
            return
        derive(paths, moved)

    monkeypatch.setattr(PathTable, "derive", derive_once)


def _stale_space_after_sends(monkeypatch):
    """The ledger's refresh keeps a row's window space from before its
    subflow's last send; a fresh table (``path_estimates``) reads it."""
    read_rows = sender_module._read_rows
    sent_at_read = {}

    def read_rows_stale(paths, subflows, now):
        new_rows = [rtt is None for rtt in paths.rtts]
        spaces_before = list(paths.spaces)
        read_rows(paths, subflows, now)
        if sys._getframe(1).f_code.co_name != "_paths":
            return
        for row, subflow in enumerate(subflows):
            sent = subflow.packets_sent
            if not new_rows[row] and sent_at_read.get(subflow) != sent:
                paths.spaces[row] = spaces_before[row]
            sent_at_read[subflow] = sent
        paths.settle()

    monkeypatch.setattr(sender_module, "_read_rows", read_rows_stale)


@pytest.mark.parametrize(
    "defect", [_stale_edts_after_moves, _stale_space_after_sends]
)
def test_shadow_fires_when_a_path_row_goes_stale(shadow, monkeypatch, defect):
    defect(monkeypatch)
    with pytest.raises(ShadowMismatch, match="path table"):
        _table1(2)


# ----------------------------------------------------------------------
# No round finds a row through a miss: a block is never formatted.
# ----------------------------------------------------------------------
def _digest(result):
    record = [result.summary, result.block_delays, result.extras, result.subflow_stats]
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "config, digest",
    [
        (None, "e890e8244b6f43ad"),
        (FmtcpConfig(flow_control=True, recv_window_blocks=4), "67ba0a8aa1129c04"),
    ],
    ids=["table1_case2", "flow_control"],
)
def test_no_round_formats_a_block(monkeypatch, config, digest):
    """``list.index``'s miss path formats the missing item (``"%R is not
    in list"``); a ledger that looked a decoded block up that way built a
    ``PendingBlock`` repr per miss. With the repr raising, both transfers
    still complete with the digest recorded before the ledger found its
    rows by block id."""

    def no_repr(block):
        raise AssertionError(f"PendingBlock {block.block_id} was formatted")

    monkeypatch.setattr(PendingBlock, "__repr__", no_repr)
    assert _digest(_table1(2, config=config)) == digest
