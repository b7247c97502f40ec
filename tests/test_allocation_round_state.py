"""Shadow oracle for the FMTCP sender's round state (ROADMAP aim 3).

``FmtcpSender`` carries one allocation-round state per simulator instant
and drops it whenever an allocation input changes. A missed drop would
not crash anything — it would quietly allocate from stale k̃ — so these
tests put a sender subclass under real transfers that recomputes every
production round from scratch (fresh ``loss_snapshot``, fresh
``path_estimates``, the literal ``allocate_packet_reference``) and
raises :class:`ShadowMismatch` the moment the carried state decides
otherwise, or holds a table that a fresh ``expected_symbols`` would not
produce. The last tests take one invalidation away at a time and
require the shadow to fire: the invariant can fail.
"""

import sys
from collections import Counter

import pytest

from repro.core.allocation import allocate_packet_reference, expected_symbols
from repro.core.config import FmtcpConfig
from repro.core.sender import _MAX_LOSS, FmtcpSender, _RoundState
from repro.experiments.runner import run_transfer
from repro.faults import (
    CORRUPTION_SCENARIOS,
    EXHAUSTION_SCENARIOS,
    MOBILITY_SCENARIOS,
    RECOVERY_SCENARIOS,
    SCENARIOS,
    TRACE_SCENARIOS,
    run_chaos,
    run_churn,
    run_corruption,
    run_exhaustion,
    run_traces,
)
from repro.recovery import run_recovery
from repro.workloads.scenarios import TABLE1_CASES, table1_path_configs


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
        if state is None or state.now != self.sim.now:
            return
        losses, loss_rate_of = self._scratch()
        fresh = expected_symbols(state.blocks, loss_rate_of, self.margin)
        carried = (state.losses, state.k_tildes, state.demand, state.first_short)
        if carried != (losses, *fresh):
            raise ShadowMismatch(
                f"t={self.sim.now!r} {where}: carried {carried} != fresh "
                f"{(losses, *fresh)}"
            )

    def _eat_round(self, subflow, pending):
        losses, loss_rate_of = self._scratch()
        want = allocate_packet_reference(
            pending_subflow_id=subflow.subflow_id,
            estimates=self.path_estimates(losses=losses),
            blocks=pending,
            loss_rate_of=loss_rate_of,
            mss=self.config.mss,
            symbol_wire_size=self.config.symbol_wire_size,
            margin=self.margin,
        ).vector or None
        before = self._round
        carried = before is not None and before.now == self.sim.now
        result = super()._eat_round(subflow, pending)
        got = None if result is None else result.vector
        if got != want:
            raise ShadowMismatch(
                f"t={self.sim.now!r} subflow {subflow.subflow_id}: the round "
                f"state gives {got}, from scratch {want}"
            )
        self._check_carried_tables("after a round")
        self.seen["rounds"] += 1
        if carried and self._round is before:
            self.seen["carried"] += 1
            self.seen["carried_none" if got is None else "carried_packet"] += 1
        return result

    def _build_packet(self, subflow, result):
        built = super()._build_packet(subflow, result)
        self._check_carried_tables("after a packet")
        return built


@pytest.fixture
def shadow(monkeypatch):
    """Every FmtcpConnection built during the test drives a ShadowSender."""
    monkeypatch.setattr("repro.core.connection.FmtcpSender", ShadowSender)
    ShadowSender.seen = Counter()
    return ShadowSender.seen


def _assert_exercised(seen):
    """The run reached the carried state, both verdicts of it."""
    assert seen["rounds"] > 0
    assert seen["carried_none"] > 0 and seen["carried_packet"] > 0, seen


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


SOAKS = {
    # fault group: (runner, preset registry, preset)
    "chaos outage": (run_chaos, SCENARIOS, "path_death"),
    "churn handover (add_subflow / remove_subflow)": (
        run_churn, MOBILITY_SCENARIOS, "wifi_to_lte_handover",
    ),
    "corruption (quarantine-epoch k̄ reset)": (
        run_corruption, CORRUPTION_SCENARIOS, "bit_rot",
    ),
    "exhaustion (flow_control)": (
        run_exhaustion, EXHAUSTION_SCENARIOS, "tiny_receive_buffer",
    ),
    "exhaustion (watchdog margin boost)": (
        run_exhaustion, EXHAUSTION_SCENARIOS, "slow_drain_receiver",
    ),
    "receiver crash": (run_recovery, RECOVERY_SCENARIOS, "receiver_crash"),
    "gprs_bursty trace": (run_traces, TRACE_SCENARIOS, "gprs_bursty"),
}


@pytest.mark.parametrize("group", sorted(SOAKS))
def test_shadow_agrees_under_each_fault_group(shadow, group):
    runner, registry, preset = SOAKS[group]
    report = runner("fmtcp", registry[preset](), seed=1)
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
# The invariant can fail: take one invalidation away at a time.
# ----------------------------------------------------------------------
def _forget_drop_in(monkeypatch, function_name):
    """Make ``self._round = None`` a no-op inside ``function_name`` only:
    the seeded defect is exactly one forgotten invalidation."""

    def get(sender):
        return sender.__dict__.get("_round")

    def set_(sender, value):
        if value is None and sys._getframe(1).f_code.co_name == function_name:
            return
        sender.__dict__["_round"] = value

    monkeypatch.setattr(ShadowSender, "_round", property(get, set_), raising=False)


@pytest.mark.parametrize("forgotten", ["_resolve_groups", "on_ack_feedback"])
def test_shadow_fires_when_a_callback_forgets_to_drop_the_state(
    shadow, monkeypatch, forgotten
):
    _forget_drop_in(monkeypatch, forgotten)
    with pytest.raises(ShadowMismatch):
        _table1(4, duration_s=20.0)


def test_shadow_fires_when_a_built_packet_does_not_update_the_state(
    shadow, monkeypatch
):
    monkeypatch.setattr(_RoundState, "note_sent", lambda self, block: None)
    with pytest.raises(ShadowMismatch, match="after a packet"):
        _table1(2)


def test_the_seeded_defects_are_the_only_thing_that_fires(shadow, monkeypatch):
    """The drop-forgetting patch itself, aimed at a function that drops
    nothing, leaves a clean run clean."""
    _forget_drop_in(monkeypatch, "pump_all")
    assert _table1(2).summary["blocks"] > 0
    _assert_exercised(shadow)
