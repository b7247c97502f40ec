"""Cross-protocol invariant matrix.

Runs every transport across a grid of path conditions and asserts the
invariants that must hold for *any* of them: liveness (data flows unless
both paths are dead), sane accounting (goodput equals receiver-delivered
bytes; block delays positive and bounded), determinism per seed, and
graceful close. These are the tests that catch a regression in shared
machinery no matter which protocol's logic it enters through.
"""

import dataclasses

import pytest

from repro.experiments.runner import PROTOCOLS, run_transfer
from repro.net.topology import PathConfig
from tests.conftest import bursty_loss

DURATION = 8.0

SCENARIOS = {
    "clean": [
        PathConfig(bandwidth_bps=6e6, delay_s=0.020, loss_rate=0.0),
        PathConfig(bandwidth_bps=6e6, delay_s=0.030, loss_rate=0.0),
    ],
    "asymmetric-loss": [
        PathConfig(bandwidth_bps=6e6, delay_s=0.020, loss_rate=0.0),
        PathConfig(bandwidth_bps=6e6, delay_s=0.030, loss_rate=0.12),
    ],
    "asymmetric-delay": [
        PathConfig(bandwidth_bps=6e6, delay_s=0.010, loss_rate=0.02),
        PathConfig(bandwidth_bps=6e6, delay_s=0.150, loss_rate=0.02),
    ],
    "slow-fat": [
        PathConfig(bandwidth_bps=1e6, delay_s=0.050, loss_rate=0.05),
        PathConfig(bandwidth_bps=12e6, delay_s=0.005, loss_rate=0.0),
    ],
    "bursty": [
        PathConfig(bandwidth_bps=6e6, delay_s=0.020, loss_rate=0.0),
        PathConfig(
            bandwidth_bps=6e6,
            delay_s=0.030,
            # Bursts of ~10 packets every ~100 at 6 Mb/s, half of them lost.
            loss_model=bursty_loss(0.2, 0.02, 0.0, 0.5, DURATION),
        ),
    ],
}


def fresh(name):
    """A scenario's configs, copied for one run."""
    return [dataclasses.replace(config) for config in SCENARIOS[name]]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_liveness_and_accounting(protocol, scenario):
    result = run_transfer(protocol, fresh(scenario), duration_s=DURATION, seed=11)
    # Liveness: meaningful data moved.
    assert result.summary["total_mbytes"] > 0.2, (protocol, scenario)
    # Accounting: block delays positive and below a sane bound.
    assert all(0 < delay < DURATION for delay in result.block_delays)
    # Goodput consistency between meter and summary.
    assert result.summary["goodput_mbytes_per_s"] == pytest.approx(
        result.summary["total_mbytes"] / DURATION
    )
    # Subflow counters are self-consistent.
    for stats in result.subflow_stats:
        assert stats["packets_acked"] <= stats["packets_sent"]
        assert stats["lost_dupack"] + stats["lost_timeout"] <= stats["packets_sent"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_determinism_across_protocols(protocol):
    a = run_transfer(protocol, fresh("asymmetric-loss"), duration_s=5.0, seed=77)
    b = run_transfer(protocol, fresh("asymmetric-loss"), duration_s=5.0, seed=77)
    assert a.summary == b.summary
    assert a.block_delays == b.block_delays


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_multipath_protocols_use_both_paths_when_clean(protocol):
    result = run_transfer(protocol, fresh("clean"), duration_s=DURATION, seed=11)
    if protocol == "tcp":
        assert len(result.subflow_stats) == 1
    else:
        assert all(stats["packets_sent"] > 100 for stats in result.subflow_stats)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fmtcp_never_collapses(scenario):
    """FMTCP's defining robustness: across the whole matrix it delivers at
    least ~60 % of what the best protocol achieved on that scenario."""
    rates = {
        protocol: run_transfer(
            protocol, fresh(scenario), duration_s=DURATION, seed=11
        ).summary["total_mbytes"]
        for protocol in PROTOCOLS
    }
    best = max(rates.values())
    assert rates["fmtcp"] > 0.6 * best, rates
