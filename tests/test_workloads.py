"""Tests for traffic sources and scenario catalogues."""

import random

import pytest

from repro.net.loss import ScheduledLoss
from repro.sim.engine import Simulator
from repro.workloads.scenarios import (
    TABLE1_CASES,
    surge_path_configs,
    table1_path_configs,
)
from repro.workloads.sources import (
    BulkSource,
    CbrSource,
    RandomPayloadSource,
    ReplayableSource,
)
from repro.workloads.video import VbrVideoSource


def _source_with_data_ready(kind):
    """A source of each kind at a moment when a pull would grant bytes."""
    sim = Simulator()
    if kind == "cbr":
        source = CbrSource(sim, rate_bps=8e5)
    elif kind == "vbr":
        source = VbrVideoSource(sim, seed=1)
        source.attach(None)
    else:
        return {
            "bulk": lambda: BulkSource(),
            "bulk_finite": lambda: BulkSource(100),
            "random_payload": lambda: RandomPayloadSource(100),
            "replayable": lambda: ReplayableSource(BulkSource()),
        }[kind]()
    sim.run(until=0.5)
    return source


@pytest.mark.parametrize(
    "kind",
    ["bulk", "bulk_finite", "random_payload", "replayable", "cbr", "vbr"],
)
def test_every_source_rejects_a_negative_request(kind):
    """Not absorbed: a negative grant ran ``pulled_bytes`` backwards."""
    source = _source_with_data_ready(kind)
    with pytest.raises(ValueError, match=r"max_bytes must be >= 0, got -5"):
        source.pull(-5)
    assert not source.pull(0)  # "nothing now" stays legal
    assert getattr(source, "pulled_bytes", 0) == 0
    granted = source.pull(10)
    assert (len(granted) if isinstance(granted, bytes) else granted) == 10


# ----------------------------------------------------------------------
# BulkSource.
# ----------------------------------------------------------------------
def test_bulk_infinite_always_grants():
    source = BulkSource()
    assert source.pull(1400) == 1400
    assert not source.exhausted


def test_bulk_finite_grants_until_total():
    source = BulkSource(total_bytes=3000)
    assert source.pull(1400) == 1400
    assert source.pull(1400) == 1400
    assert source.pull(1400) == 200
    assert source.pull(1400) == 0
    assert source.exhausted


def test_bulk_negative_total_rejected():
    with pytest.raises(ValueError):
        BulkSource(total_bytes=-1)


# ----------------------------------------------------------------------
# RandomPayloadSource.
# ----------------------------------------------------------------------
def test_random_payload_transcript_matches_grants():
    source = RandomPayloadSource(total_bytes=250)
    chunks = []
    while True:
        chunk = source.pull(100)
        if not chunk:
            break
        chunks.append(chunk)
    assert [len(chunk) for chunk in chunks] == [100, 100, 50]
    assert b"".join(chunks) == bytes(source.transcript)
    assert source.exhausted


def test_random_payload_returns_bytes():
    source = RandomPayloadSource(total_bytes=10)
    assert isinstance(source.pull(10), bytes)


@pytest.mark.parametrize("n", [1, 2, 7, 250, 8192])
def test_random_payload_is_the_per_byte_generator(n):
    """``pull`` draws a grant with one ``getrandbits(32 * n)`` and keeps
    the top byte of each word. That equals one ``getrandbits(8)`` per byte,
    and leaves the generator where that would, only because of how CPython
    packs Mersenne outputs; an interpreter that packs them differently
    must fail here, not silently change every seeded payload."""
    source = RandomPayloadSource(2 * n, rng=random.Random(n))
    reference = random.Random(n)
    for __ in range(2):
        assert source.pull(n) == bytes(reference.getrandbits(8) for __ in range(n))
    assert source._rng.random() == reference.random()


# ----------------------------------------------------------------------
# CbrSource.
# ----------------------------------------------------------------------
def test_cbr_credit_accrues_with_time():
    sim = Simulator()
    source = CbrSource(sim, rate_bps=8000.0)  # 1000 bytes/s
    assert source.pull(100) == 0
    sim.schedule(0.5, lambda: None)
    sim.run()
    assert source.pull(10_000) == 500
    assert source.pull(10_000) == 0  # credit consumed


def test_cbr_wakes_attached_connection():
    sim = Simulator()
    source = CbrSource(sim, rate_bps=8000.0)

    class FakeConnection:
        def __init__(self):
            self.pumps = 0

        def pump(self):
            self.pumps += 1

    connection = FakeConnection()
    source.attach(connection)
    sim.run(until=1.0)
    # One wake per WAKE_INTERVAL_S (10 ms), for as long as the run lasts.
    assert 99 <= connection.pumps <= 100


def test_cbr_rate_validation():
    with pytest.raises(ValueError):
        CbrSource(Simulator(), rate_bps=0.0)


# ----------------------------------------------------------------------
# Scenarios.
# ----------------------------------------------------------------------
def test_table1_catalogue_matches_paper():
    assert len(TABLE1_CASES) == 8
    delays = [case.delay_s for case in TABLE1_CASES]
    losses = [case.loss_rate for case in TABLE1_CASES]
    assert delays == [0.100, 0.100, 0.100, 0.100, 0.025, 0.050, 0.100, 0.150]
    assert losses == [0.02, 0.05, 0.10, 0.15, 0.10, 0.10, 0.10, 0.10]


def test_subflow1_fixed_parameters():
    """Subflow 1 is held at 100 ms and no loss in every Table I case."""
    for case in TABLE1_CASES:
        subflow1 = table1_path_configs(case)[0]
        assert subflow1.delay_s == 0.100 and subflow1.loss_rate == 0.0


def test_table1_path_configs_shape():
    configs = table1_path_configs(TABLE1_CASES[4])
    assert len(configs) == 2
    assert configs[0].delay_s == 0.100 and configs[0].loss_rate == 0.0
    assert configs[1].delay_s == 0.025 and configs[1].loss_rate == 0.10


def test_surge_path_configs_schedule():
    configs = surge_path_configs(0.35)
    assert isinstance(configs[1].loss_model, ScheduledLoss)
    model = configs[1].loss_model
    assert model.rate_at(0.0) == pytest.approx(0.01)
    assert model.rate_at(100.0) == pytest.approx(0.35)
    assert model.rate_at(250.0) == pytest.approx(0.01)
    # Subflow 1 keeps the constant base loss.
    assert configs[0].loss_rate == pytest.approx(0.01)


def test_surge_validation():
    with pytest.raises(ValueError):
        surge_path_configs(1.0)


def test_case_labels_human_readable():
    assert "100ms/15%" in TABLE1_CASES[3].label()
