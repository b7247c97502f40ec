"""Comparative integration tests: the paper's qualitative claims.

These are the reproduction's acceptance tests. Each asserts a *shape*
from Section V — who wins, in which direction metrics move — at reduced
scale (short runs, fixed seeds) so the full suite stays fast. The
benchmark harness runs the same experiments at paper scale.
"""

import pytest

from repro.core.config import FmtcpConfig
from repro.experiments.runner import run_transfer
from repro.metrics.stats import mean
from repro.workloads.scenarios import TABLE1_CASES, surge_path_configs, table1_path_configs

DURATION = 20.0
SEED = 1


def run_pair(case, duration=DURATION, seed=SEED):
    results = {}
    for protocol in ("fmtcp", "mptcp"):
        results[protocol] = run_transfer(
            protocol, table1_path_configs(case), duration_s=duration, seed=seed
        )
    return results


@pytest.fixture(scope="module")
def case1_pair():
    return run_pair(TABLE1_CASES[0])


@pytest.fixture(scope="module")
def case4_pair():
    return run_pair(TABLE1_CASES[3])


# ----------------------------------------------------------------------
# Fig. 3 shapes.
# ----------------------------------------------------------------------
def test_fmtcp_beats_mptcp_on_highly_lossy_pair(case4_pair):
    assert (
        case4_pair["fmtcp"].summary["total_mbytes"]
        > 1.3 * case4_pair["mptcp"].summary["total_mbytes"]
    )


def test_fmtcp_beats_mptcp_on_case4_on_every_seed():
    """One seed is weak evidence: paired runs (same topology, same loss
    realisation per seed), FMTCP ahead on 6 of 6 — sign-test p = 2⁻⁶."""
    for seed in range(1, 7):
        pair = run_pair(TABLE1_CASES[3], duration=8.0, seed=seed)
        assert (
            pair["fmtcp"].summary["goodput_mbytes_per_s"]
            > pair["mptcp"].summary["goodput_mbytes_per_s"]
        ), seed


def test_mptcp_degrades_sharply_with_subflow2_loss(case1_pair, case4_pair):
    """Paper: up to ~60 % goodput drop from case 1 to case 4."""
    drop = 1 - (
        case4_pair["mptcp"].summary["total_mbytes"]
        / case1_pair["mptcp"].summary["total_mbytes"]
    )
    assert drop > 0.30


def test_fmtcp_degrades_only_slightly(case1_pair, case4_pair):
    drop = 1 - (
        case4_pair["fmtcp"].summary["total_mbytes"]
        / case1_pair["fmtcp"].summary["total_mbytes"]
    )
    assert drop < 0.25


def test_goodput_gap_widens_with_loss(case1_pair, case4_pair):
    ratio1 = (
        case1_pair["fmtcp"].summary["total_mbytes"]
        / case1_pair["mptcp"].summary["total_mbytes"]
    )
    ratio4 = (
        case4_pair["fmtcp"].summary["total_mbytes"]
        / case4_pair["mptcp"].summary["total_mbytes"]
    )
    assert ratio4 > ratio1


# ----------------------------------------------------------------------
# Fig. 5/6 shapes.
# ----------------------------------------------------------------------
def test_fmtcp_block_delay_lower_under_loss(case4_pair):
    assert (
        case4_pair["fmtcp"].mean_block_delay_ms
        < case4_pair["mptcp"].mean_block_delay_ms
    )


def test_fmtcp_jitter_lower_under_loss(case4_pair):
    assert case4_pair["fmtcp"].jitter_ms < case4_pair["mptcp"].jitter_ms


def test_mptcp_delay_grows_with_loss(case1_pair, case4_pair):
    assert (
        case4_pair["mptcp"].mean_block_delay_ms
        > case1_pair["mptcp"].mean_block_delay_ms
    )


# ----------------------------------------------------------------------
# Fig. 7 shape: delay spikes.
# ----------------------------------------------------------------------
def test_mptcp_delay_spikes_exceed_fmtcp_spikes(case4_pair):
    """Paper: MPTCP's block delays fluctuate wildly; FMTCP's stay flat.

    Measured as the p95/median ratio, which captures the routine spikes
    of Fig. 7 without being dominated by one-off extreme outliers.
    """
    from repro.metrics.stats import percentile

    fmtcp_delays = case4_pair["fmtcp"].block_delays
    mptcp_delays = case4_pair["mptcp"].block_delays
    fmtcp_spread = percentile(fmtcp_delays, 95) / percentile(fmtcp_delays, 50)
    mptcp_spread = percentile(mptcp_delays, 95) / percentile(mptcp_delays, 50)
    assert mptcp_spread > 1.5 * fmtcp_spread
    assert fmtcp_spread < 1.5


# ----------------------------------------------------------------------
# Fig. 4 shape: loss surge stability.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def surge_results():
    """Fig. 4's setting: a 35 % surge on subflow 2 and a scarce receive
    buffer (6 blocks), goodput binned every 5 s."""
    return {
        protocol: run_transfer(
            protocol,
            surge_path_configs(0.35, surge_start_s=15.0, surge_end_s=45.0),
            duration_s=60.0,
            seed=SEED,
            bin_width_s=5.0,
            collect_series=True,
            fmtcp_config=FmtcpConfig(max_pending_blocks=6),
        )
        for protocol in ("fmtcp", "mptcp")
    }


def _phase_rates(result, start, end):
    return [value for t, value in result.goodput_series if start <= t < end]


def test_fmtcp_retains_more_goodput_during_surge(surge_results):
    fmtcp_during = mean(_phase_rates(surge_results["fmtcp"], 15.0, 45.0))
    mptcp_during = mean(_phase_rates(surge_results["mptcp"], 15.0, 45.0))
    assert fmtcp_during > mptcp_during


def test_fmtcp_keeps_half_its_goodput_during_surge(surge_results):
    before = mean(_phase_rates(surge_results["fmtcp"], 0.0, 15.0))
    during = mean(_phase_rates(surge_results["fmtcp"], 15.0, 45.0))
    assert during > 0.30 * before


def test_both_protocols_recover_after_surge(surge_results):
    for protocol in ("fmtcp", "mptcp"):
        before = mean(_phase_rates(surge_results[protocol], 0.0, 15.0))
        after = mean(_phase_rates(surge_results[protocol], 50.0, 60.0))
        assert after > 0.5 * before
