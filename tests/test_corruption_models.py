"""Corruption models: damage effects, gating chains, CRC evasion and the
copy-never-mutate discipline the retransmission buffers depend on.
"""

import random

import pytest

from repro.net.corruption import (
    CORRUPTION_EFFECTS,
    BernoulliCorruption,
    CorruptedPayload,
    GilbertElliottCorruption,
    corrupt_packet,
)
from repro.net.integrity import DEFERRED, seal, verify
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator


def _sealed(payload=b"payload-bytes", size=100):
    return seal(Packet(size, "a", "b", 1, 2, payload=payload))


def _sealed_deferred(payload):
    """Sealed the way the transports seal: the CRC promised, not computed."""
    packet = Packet(100, "a", "b", 1, 2, payload=payload)
    packet.checksum = DEFERRED
    return packet


# ----------------------------------------------------------------------
# Damage effects.
# ----------------------------------------------------------------------
def test_bitflip_is_detectable_by_default():
    packet = _sealed()
    (damaged,) = corrupt_packet(packet, "bitflip", random.Random(1))
    assert damaged is not packet
    assert isinstance(damaged.payload, CorruptedPayload)
    assert not verify(damaged)
    # The original (sender-owned) packet is untouched and still clean.
    assert packet.payload == b"payload-bytes"
    assert verify(packet)


def test_truncate_shrinks_size_and_fails_verify():
    packet = _sealed(size=100)
    (damaged,) = corrupt_packet(packet, "truncate", random.Random(1))
    assert damaged.size < 100
    assert not verify(damaged)
    assert packet.size == 100


def test_duplicate_delivers_clean_plus_mutated_twin():
    packet = _sealed()
    first, second = corrupt_packet(packet, "duplicate", random.Random(1))
    assert first is packet
    assert verify(first)
    assert not verify(second)


def test_unknown_effect_rejected():
    with pytest.raises(ValueError):
        corrupt_packet(_sealed(), "gamma_ray", random.Random(1))


# ----------------------------------------------------------------------
# CRC evasion: deep mutation + re-seal, with graceful downgrade.
# ----------------------------------------------------------------------
class _MutablePayload:
    def __init__(self, data):
        self.data = data

    def integrity_digest(self):
        return b"mp:" + self.data

    def integrity_mutate(self, rng):
        flipped = bytearray(self.data)
        flipped[rng.randrange(len(flipped))] ^= 0x01
        return _MutablePayload(bytes(flipped))


def test_evading_bitflip_reseals_a_mutated_copy():
    original = _MutablePayload(b"secret")
    packet = _sealed(payload=original)
    (damaged,) = corrupt_packet(packet, "bitflip", random.Random(1), evade_crc=1.0)
    # Passes the link CRC (re-sealed), but the content differs...
    assert verify(damaged)
    assert damaged.payload.data != b"secret"
    # ...and the sender's object was never touched.
    assert packet.payload is original
    assert original.data == b"secret"


def test_evasion_downgrades_when_payload_cannot_deep_mutate():
    packet = _sealed(payload=12345)  # synthetic int payload: no mutate hook
    (damaged,) = corrupt_packet(packet, "bitflip", random.Random(1), evade_crc=1.0)
    assert isinstance(damaged.payload, CorruptedPayload)
    assert not verify(damaged)


def test_truncation_never_evades():
    packet = _sealed(payload=_MutablePayload(b"secret"))
    (damaged,) = corrupt_packet(packet, "truncate", random.Random(1), evade_crc=1.0)
    assert not verify(damaged)


# ----------------------------------------------------------------------
# Gating models.
# ----------------------------------------------------------------------
def test_bernoulli_rate_zero_draws_no_randomness():
    rng = random.Random(1)
    state = rng.getstate()
    assert BernoulliCorruption(0.0).apply(_sealed(), 0.0, rng) is None
    assert rng.getstate() == state


def test_bernoulli_rate_one_corrupts_everything():
    model = BernoulliCorruption(1.0, effect="bitflip")
    assert model.rate == 1.0
    result = model.apply(_sealed(), 0.0, random.Random(1))
    assert result is not None and not verify(result[0])


def test_bernoulli_validates_arguments():
    with pytest.raises(ValueError):
        BernoulliCorruption(1.5)
    with pytest.raises(ValueError):
        BernoulliCorruption(0.1, effect="nope")
    with pytest.raises(ValueError):
        BernoulliCorruption(0.1, evade_crc=2.0)


def test_gilbert_elliott_state_machine_bursts():
    model = GilbertElliottCorruption(
        p_gb=1.0, p_bg=0.0, corrupt_bad=1.0
    )
    rng = random.Random(1)
    assert model.state == model.GOOD
    first = model.apply(_sealed(), 0.0, rng)
    assert model.state == model.BAD
    # Transitioned to BAD on the first packet and stays there: everything
    # from then on is corrupted.
    assert first is not None
    for __ in range(5):
        assert model.apply(_sealed(), 0.0, rng) is not None


def test_gilbert_elliott_stationary_rate():
    model = GilbertElliottCorruption(
        p_gb=0.1, p_bg=0.3, corrupt_bad=0.4
    )
    assert model.stationary_bad_fraction() == pytest.approx(0.25)
    assert model.rate_at(0.0) == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Link wiring.
# ----------------------------------------------------------------------
def test_link_counts_and_delivers_corrupted_packets():
    sim = Simulator()
    received = []
    node = Node("b")
    node.bind(2, received.append)
    link = Link(
        sim,
        "l",
        node,
        bandwidth_bps=8e6,
        delay_s=0.001,
        rng=random.Random(7),
    )
    link.set_corruption_model(BernoulliCorruption(1.0, effect="duplicate"))
    packet = _sealed()
    packet.route, packet.route_index = (link,), 1
    link.send(packet)
    sim.run(until=1.0)
    assert link.packets_corrupted == 1
    # duplicate: the clean original plus one damaged twin arrive.
    assert len(received) == 2
    assert sum(1 for p in received if not verify(p)) == 1


def test_link_without_model_leaves_packets_alone():
    sim = Simulator()
    received = []
    node = Node("b")
    node.bind(2, received.append)
    link = Link(
        sim, "l", node, bandwidth_bps=8e6, delay_s=0.001, rng=random.Random(7)
    )
    assert link.corruption_model is None
    packet = _sealed()
    packet.route, packet.route_index = (link,), 1
    link.send(packet)
    sim.run(until=1.0)
    assert link.packets_corrupted == 0
    assert received == [packet]


# ----------------------------------------------------------------------
# Deferred sealing: what the transports use must be indistinguishable
# from an eager CRC wherever a corruption model can look.
# ----------------------------------------------------------------------
def _bursty(effect, evade_crc):
    """A Gilbert–Elliott model whose bursts do ``effect`` (production
    bursts only flip bits: the class constant, set here per test)."""
    model = GilbertElliottCorruption(p_gb=0.3, p_bg=0.3, corrupt_bad=0.8, evade_crc=evade_crc)
    model.effect = effect
    return model


def _gated_models():
    yield lambda **kw: BernoulliCorruption(0.5, **kw)
    yield _bursty


@pytest.mark.parametrize("make_model", _gated_models(), ids=["bernoulli", "ge"])
@pytest.mark.parametrize("evade_crc", [0.0, 1.0])
@pytest.mark.parametrize("effect", CORRUPTION_EFFECTS)
def test_deferred_seal_matches_eager_seal(effect, evade_crc, make_model):
    eager_model = make_model(effect=effect, evade_crc=evade_crc)
    deferred_model = make_model(effect=effect, evade_crc=evade_crc)
    eager_rng, deferred_rng = random.Random(11), random.Random(11)
    damaged = 0
    for index in range(200):
        # Even packets carry an int, which cannot deep-mutate: evasion
        # downgrades to detectable corruption on them.
        payload = _MutablePayload(b"secret-%d" % index) if index % 2 else index
        eager = seal(Packet(100, "a", "b", 1, 2, payload=payload))
        deferred = _sealed_deferred(payload)
        assert verify(deferred)
        eager_out = eager_model.apply(eager, 0.0, eager_rng)
        deferred_out = deferred_model.apply(deferred, 0.0, deferred_rng)
        assert eager_rng.getstate() == deferred_rng.getstate()
        assert (eager_out is None) == (deferred_out is None)
        # Whatever happened, the sender's own packet is still clean.
        assert verify(deferred) and deferred.payload is payload
        if eager_out is None:
            continue
        damaged += 1
        assert len(eager_out) == len(deferred_out)
        for eager_packet, deferred_packet in zip(eager_out, deferred_out):
            assert verify(eager_packet) == verify(deferred_packet)
            assert eager_packet.size == deferred_packet.size
            assert type(eager_packet.payload) is type(deferred_packet.payload)
        if effect == "duplicate":
            assert deferred_out[0] is deferred  # the pristine copy
        elif effect == "truncate" or evade_crc == 0.0 or index % 2 == 0:
            assert not verify(deferred_out[0])
    assert damaged > 20


def test_deferred_seal_hashes_nothing_until_damage(monkeypatch):
    from repro.net import integrity

    calls = []
    real = integrity.packet_checksum
    monkeypatch.setattr(
        integrity, "packet_checksum", lambda packet: calls.append(packet) or real(packet)
    )
    packet = _sealed_deferred(b"data")
    assert verify(packet) and verify(packet.clone()) and calls == []
    (damaged,) = corrupt_packet(packet, "bitflip", random.Random(1))
    assert calls == [packet]  # stamped while still pristine, before cloning
    assert not verify(damaged) and verify(packet)
