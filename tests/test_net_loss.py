"""Unit tests for loss models."""

import random

import pytest

from repro.net.corruption import GilbertElliottCorruption
from repro.net.loss import BernoulliLoss, NoLoss, ScheduledLoss
from repro.net.packet import Packet


def test_no_loss_never_drops():
    model = NoLoss()
    rng = random.Random(0)
    assert not any(model.should_drop(float(t), rng) for t in range(1000))
    assert model.rate_at(0.0) == 0.0


def test_bernoulli_rate_validation():
    with pytest.raises(ValueError):
        BernoulliLoss(-0.1)
    with pytest.raises(ValueError):
        BernoulliLoss(1.0)


def test_bernoulli_empirical_rate_close_to_nominal():
    model = BernoulliLoss(0.2)
    rng = random.Random(42)
    drops = sum(model.should_drop(0.0, rng) for __ in range(20_000))
    assert abs(drops / 20_000 - 0.2) < 0.02


def test_bernoulli_zero_rate_consumes_no_randomness():
    model = BernoulliLoss(0.0)
    rng = random.Random(1)
    before = rng.getstate()
    assert not model.should_drop(0.0, rng)
    assert rng.getstate() == before


def test_scheduled_loss_picks_segment_by_time():
    model = ScheduledLoss([(0.0, 0.01), (50.0, 0.25), (200.0, 0.01)])
    assert model.rate_at(0.0) == 0.01
    assert model.rate_at(49.999) == 0.01
    assert model.rate_at(50.0) == 0.25
    assert model.rate_at(199.9) == 0.25
    assert model.rate_at(200.0) == 0.01
    assert model.rate_at(1e9) == 0.01


def test_scheduled_loss_unsorted_segments_are_sorted():
    model = ScheduledLoss([(200.0, 0.01), (0.0, 0.05), (50.0, 0.25)])
    assert model.rate_at(10.0) == 0.05
    assert model.rate_at(60.0) == 0.25


def test_scheduled_loss_implicit_lossless_prefix():
    model = ScheduledLoss([(10.0, 0.5)])
    assert model.rate_at(5.0) == 0.0
    assert model.rate_at(10.0) == 0.5


def test_scheduled_loss_empty_rejected():
    with pytest.raises(ValueError):
        ScheduledLoss([])


def test_scheduled_loss_bad_rate_rejected():
    with pytest.raises(ValueError):
        ScheduledLoss([(0.0, 1.5)])


def test_scheduled_loss_empirical_rate_switches():
    model = ScheduledLoss([(0.0, 0.0), (10.0, 0.5)])
    rng = random.Random(3)
    early = sum(model.should_drop(5.0, rng) for __ in range(2000))
    late = sum(model.should_drop(15.0, rng) for __ in range(2000))
    assert early == 0
    assert abs(late / 2000 - 0.5) < 0.05


# ----------------------------------------------------------------------
# The Gilbert–Elliott chain (the ``corrupt_ge`` fault kind): a damaged
# packet fails its checksum and is discarded, so on the wire its hits are
# losses. ``p_gb``/``p_bg`` are per-packet GOOD→BAD / BAD→GOOD steps.
# ----------------------------------------------------------------------
#: Damage goes to a copy, so one packet serves every step.
_PACKET = Packet(100, "a", "b", 1, 2, payload=b"data")


def _hit(model, rng):
    """One packet through the chain: True if it is damaged (lost)."""
    return model.apply(_PACKET, 0.0, rng) is not None


def test_gilbert_elliott_stationary_fraction():
    model = GilbertElliottCorruption(p_gb=0.1, p_bg=0.3)
    assert abs(model.stationary_bad_fraction() - 0.25) < 1e-12


def test_gilbert_elliott_marginal_rate():
    model = GilbertElliottCorruption(p_gb=0.1, p_bg=0.3, corrupt_bad=0.4)
    assert abs(model.rate_at(0.0) - 0.25 * 0.4) < 1e-12


def test_gilbert_elliott_empirical_rate():
    model = GilbertElliottCorruption(p_gb=0.05, p_bg=0.2, corrupt_bad=0.5)
    rng = random.Random(11)
    trials = 50_000
    hits = sum(_hit(model, rng) for __ in range(trials))
    assert abs(hits / trials - model.rate_at(0.0)) < 0.01


def test_gilbert_elliott_produces_bursts():
    """Hits should cluster more than under Bernoulli at equal rate."""
    model = GilbertElliottCorruption(p_gb=0.02, p_bg=0.1, corrupt_bad=0.8)
    rng = random.Random(5)
    outcomes = [_hit(model, rng) for __ in range(50_000)]
    rate = sum(outcomes) / len(outcomes)
    # P(hit | previous hit) should clearly exceed the marginal rate.
    follow_hit = [b for a, b in zip(outcomes, outcomes[1:]) if a]
    conditional = sum(follow_hit) / len(follow_hit)
    assert conditional > rate * 2


def _state_run_lengths(model, rng, steps):
    """Observe the chain for ``steps`` packets; return mean sojourn times
    (in packets) of the GOOD and BAD states."""
    runs = {model.GOOD: [], model.BAD: []}
    current_state = model.state
    current_length = 0
    for __ in range(steps):
        _hit(model, rng)
        if model.state == current_state:
            current_length += 1
        else:
            if current_length:
                runs[current_state].append(current_length)
            current_state = model.state
            current_length = 1
    means = {}
    for state, lengths in runs.items():
        means[state] = sum(lengths) / len(lengths) if lengths else float("nan")
    return means[model.GOOD], means[model.BAD]


def test_gilbert_elliott_mean_sojourn_times_match_closed_form():
    """Sojourn times are geometric: E[GOOD] = 1/p_gb, E[BAD] = 1/p_bg."""
    p_gb, p_bg = 0.05, 0.25
    model = GilbertElliottCorruption(p_gb=p_gb, p_bg=p_bg, corrupt_bad=0.5)
    good_mean, bad_mean = _state_run_lengths(model, random.Random(17), 200_000)
    assert abs(good_mean - 1.0 / p_gb) / (1.0 / p_gb) < 0.05
    assert abs(bad_mean - 1.0 / p_bg) / (1.0 / p_bg) < 0.05


def test_gilbert_elliott_stationary_rate_across_parameterisations():
    """Empirical hit rate tracks rate_at() over a parameter grid, not
    just one lucky configuration."""
    rng = random.Random(23)
    for p_gb, p_bg, corrupt_bad in (
        (0.01, 0.3, 0.8),
        (0.1, 0.1, 0.5),
        (0.2, 0.05, 0.3),
    ):
        model = GilbertElliottCorruption(p_gb=p_gb, p_bg=p_bg, corrupt_bad=corrupt_bad)
        trials = 100_000
        hits = sum(_hit(model, rng) for __ in range(trials))
        expected = model.rate_at(0.0)
        assert abs(hits / trials - expected) < 0.01, (
            f"p_gb={p_gb} p_bg={p_bg}: {hits / trials:.4f} vs {expected:.4f}"
        )


def test_gilbert_elliott_validation():
    with pytest.raises(ValueError):
        GilbertElliottCorruption(p_gb=1.5, p_bg=0.1)
    with pytest.raises(ValueError):
        GilbertElliottCorruption(p_gb=0.1, p_bg=0.1, corrupt_bad=-0.2)
