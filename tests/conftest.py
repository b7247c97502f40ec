"""Shared test fixtures and helpers."""

from __future__ import annotations

import os
import random

import pytest

from repro.experiments.catalog import Scale
from repro.net.loss import ScheduledLoss
from repro.net.topology import Network, PathConfig, build_two_path_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus
from repro.tcp.congestion import RenoController
from repro.tcp.rto import RtoEstimator
from repro.tcp.subflow import Subflow


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


def make_subflow(sim, path, owner, congestion=None, **options) -> Subflow:
    """A bare :class:`Subflow` on Reno (or ``congestion``) and a fresh
    RTO estimator, as ``MultipathConnection._attach`` builds one."""
    return Subflow(sim, path, owner, congestion or RenoController(), RtoEstimator(), **options)


def bursty_loss(
    good_s: float, bad_s: float, loss_good: float, loss_bad: float,
    duration_s: float, seed: int = 1,
) -> ScheduledLoss:
    """Bursty loss: GOOD and BAD periods alternate, each of exponential
    length (means ``good_s`` / ``bad_s``), losing ``loss_good`` /
    ``loss_bad`` of the packets. A schedule in time, so one model serves
    any number of runs."""
    draws = random.Random(seed)
    segments, now = [], 0.0
    while now < duration_s:
        segments.append((now, loss_good))
        now += draws.expovariate(1.0 / good_s)
        segments.append((now, loss_bad))
        now += draws.expovariate(1.0 / bad_s)
    return ScheduledLoss(segments)


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
