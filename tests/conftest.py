"""Shared test fixtures and helpers."""

from __future__ import annotations

import os

import pytest

from repro.experiments.catalog import Scale
from repro.net.topology import Network, PathConfig, build_two_path_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus


def soak_seeds() -> range:
    """Seeds every multi-seed soak iterates: 1..30, or seed 1 alone when
    ``REPRO_FAST`` is set (CI's quick chaos-soak job; the extended job
    and the default tier-1 run use all 30)."""
    return range(1, 2) if os.environ.get("REPRO_FAST") else range(1, 31)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def trace() -> TraceBus:
    return TraceBus()


@pytest.fixture
def rng() -> RngStreams:
    return RngStreams(1234)


def make_two_path(
    loss1: float = 0.0,
    loss2: float = 0.0,
    delay1: float = 0.010,
    delay2: float = 0.010,
    bandwidth: float = 8e6,
    seed: int = 7,
):
    """A small, fast two-path network for transport tests."""
    configs = [
        PathConfig(bandwidth_bps=bandwidth, delay_s=delay1, loss_rate=loss1),
        PathConfig(bandwidth_bps=bandwidth, delay_s=delay2, loss_rate=loss2),
    ]
    trace = TraceBus()
    network, paths = build_two_path_network(
        configs, rng=RngStreams(seed), trace=trace
    )
    return network, paths, trace


def make_single_path(
    loss: float = 0.0,
    delay: float = 0.010,
    bandwidth: float = 8e6,
    seed: int = 7,
):
    configs = [PathConfig(bandwidth_bps=bandwidth, delay_s=delay, loss_rate=loss)]
    trace = TraceBus()
    network, paths = build_two_path_network(
        configs, rng=RngStreams(seed), trace=trace
    )
    return network, paths[0], trace


#: The short run the catalog's tier-1 tests share.
SHORT_SCALE = Scale(2.0, seed=5)


@pytest.fixture(scope="session")
def catalog_result():
    """``catalog_result(experiment)``: a catalog entry's result at
    :data:`SHORT_SCALE`, run once per session however many tests read it."""
    results = {}

    def result(experiment):
        if experiment.ledger not in results:
            results[experiment.ledger] = experiment.run(SHORT_SCALE)
        return results[experiment.ledger]

    return result
