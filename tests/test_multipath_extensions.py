"""Extension scenarios beyond the paper's two-path evaluation:

three and four subflows, bursty loss, a dead path
(near-total loss), and edge-router topologies — exercising the claim
that nothing in either protocol is hard-wired to two paths.
"""

import pytest

from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.metrics.collectors import MetricsSuite
from repro.mptcp.connection import MptcpConfig, MptcpConnection
from repro.net.topology import PathConfig, build_two_path_network
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.workloads.sources import BulkSource
from tests.conftest import bursty_loss


def build(configs, seed=11, with_edge_routers=False):
    trace = TraceBus()
    network, paths = build_two_path_network(
        configs, rng=RngStreams(seed), trace=trace, with_edge_routers=with_edge_routers
    )
    return network, paths, trace


def run(protocol, configs, duration=15.0, seed=11, with_edge_routers=False):
    network, paths, trace = build(configs, seed, with_edge_routers)
    metrics = MetricsSuite(trace)
    if protocol == "fmtcp":
        connection = FmtcpConnection(
            network.sim, paths, BulkSource(), config=FmtcpConfig(), trace=trace,
            rng=RngStreams(seed),
        )
    else:
        connection = MptcpConnection(
            network.sim, paths, BulkSource(), config=MptcpConfig(), trace=trace
        )
    connection.start()
    network.sim.run(until=duration)
    return connection, metrics


THREE_PATHS = [
    PathConfig(bandwidth_bps=4e6, delay_s=0.020, loss_rate=0.0),
    PathConfig(bandwidth_bps=4e6, delay_s=0.050, loss_rate=0.05),
    PathConfig(bandwidth_bps=4e6, delay_s=0.100, loss_rate=0.10),
]


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_three_paths_deliver(protocol):
    connection, metrics = run(protocol, list(THREE_PATHS))
    assert len(connection.subflows) == 3
    assert metrics.goodput.total_bytes > 500_000
    # All three subflows carried traffic.
    assert all(subflow.packets_sent > 0 for subflow in connection.subflows)


def test_four_paths_fmtcp():
    configs = list(THREE_PATHS) + [
        PathConfig(bandwidth_bps=2e6, delay_s=0.150, loss_rate=0.15)
    ]
    connection, metrics = run("fmtcp", configs)
    assert len(connection.subflows) == 4
    assert metrics.goodput.total_bytes > 500_000


def test_fmtcp_aggregate_exceeds_best_single_path():
    """With three mildly lossy paths, FMTCP aggregates well beyond any one
    path's capacity (loss-heavy paths contribute little under Reno, so
    this scenario keeps losses small)."""
    configs = [
        PathConfig(bandwidth_bps=4e6, delay_s=0.020, loss_rate=0.0),
        PathConfig(bandwidth_bps=4e6, delay_s=0.030, loss_rate=0.01),
        PathConfig(bandwidth_bps=4e6, delay_s=0.040, loss_rate=0.02),
    ]
    connection, metrics = run("fmtcp", configs, duration=20.0)
    single_path_capacity_bytes = 4e6 / 8 * 20.0
    assert metrics.goodput.total_bytes > 1.5 * single_path_capacity_bytes


def test_fmtcp_survives_dead_path():
    """One path at 90 % loss: FMTCP must still make progress on the other."""
    configs = [
        PathConfig(bandwidth_bps=4e6, delay_s=0.050, loss_rate=0.0),
        PathConfig(bandwidth_bps=4e6, delay_s=0.050, loss_rate=0.90),
    ]
    connection, metrics = run("fmtcp", configs, duration=20.0)
    clean_capacity = 4e6 / 8 * 20.0
    assert metrics.goodput.total_bytes > 0.4 * clean_capacity


def test_fmtcp_under_gilbert_elliott_bursts():
    """Bursty losses (the paper's 'bursty packet losses' scenario) decode
    correctly and still leave FMTCP ahead of MPTCP."""
    def configs():
        return [
            PathConfig(bandwidth_bps=4e6, delay_s=0.050, loss_rate=0.0),
            PathConfig(
                bandwidth_bps=4e6,
                delay_s=0.050,
                # Bursts of ~10 packets every ~100 at 4 Mb/s, half lost.
                loss_model=bursty_loss(0.28, 0.03, 0.01, 0.5, 30.0),
            ),
        ]

    fmtcp_conn, fmtcp_metrics = run("fmtcp", configs(), duration=30.0)
    mptcp_conn, mptcp_metrics = run("mptcp", configs(), duration=30.0)
    assert fmtcp_metrics.goodput.total_bytes > 0.9 * mptcp_metrics.goodput.total_bytes
    # Mean delay is dominated by standing-queue delay (both protocols fill
    # the drop-tail queue); the burst-loss story shows in the tail and the
    # jitter, where retransmission stalls hit MPTCP.
    assert fmtcp_metrics.block_delay.jitter_s() < mptcp_metrics.block_delay.jitter_s()
    assert (
        fmtcp_metrics.block_delay.delay_percentile_s(95)
        < mptcp_metrics.block_delay.delay_percentile_s(95)
    )


@pytest.mark.parametrize("protocol", ["fmtcp", "mptcp"])
def test_edge_router_topology(protocol):
    """Multi-hop paths (src -> router -> dst) work identically."""
    configs = [
        PathConfig(bandwidth_bps=4e6, delay_s=0.030, loss_rate=0.0),
        PathConfig(bandwidth_bps=4e6, delay_s=0.060, loss_rate=0.05),
    ]
    connection, metrics = run(protocol, configs, with_edge_routers=True)
    assert metrics.goodput.total_bytes > 200_000
