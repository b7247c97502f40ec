"""Unit tests for the network container and topology builders."""

import pytest

from repro.net.packet import Packet
from repro.net.topology import Network, PathConfig, build_two_path_network


def test_add_node_and_duplicate_rejected():
    network = Network()
    network.add_node("a")
    with pytest.raises(ValueError):
        network.add_node("a")


def test_add_link_requires_existing_nodes():
    network = Network()
    network.add_node("a")
    with pytest.raises(KeyError):
        network.add_link("a", "missing", 1e6, 0.01)


def test_make_path_multi_hop_delivery():
    network = Network()
    for name in ("src", "r", "dst"):
        network.add_node(name)
    network.add_duplex_link("src", "r", 8e6, 0.005)
    network.add_duplex_link("r", "dst", 8e6, 0.005)
    path = network.make_path("p", ["src", "r", "dst"])
    assert path.one_way_delay_s == pytest.approx(0.010)

    seen = []
    network.node("dst").bind(9, lambda packet: seen.append(network.sim.now))
    packet = Packet(size=1000, src="src", dst="dst", src_port=1, dst_port=9)
    path.send_forward(packet)
    network.sim.run()
    assert len(seen) == 1
    # two serialisations (1ms each) + two propagations (5ms each)
    assert seen[0] == pytest.approx(0.012)


def test_make_path_reverse_direction():
    network = Network()
    for name in ("src", "dst"):
        network.add_node(name)
    network.add_duplex_link("src", "dst", 8e6, 0.005)
    path = network.make_path("p", ["src", "dst"])
    seen = []
    network.node("src").bind(4, lambda packet: seen.append(packet))
    packet = Packet(size=100, src="dst", dst="src", src_port=9, dst_port=4)
    path.send_reverse(packet)
    network.sim.run()
    assert len(seen) == 1


def test_make_path_too_short_rejected():
    network = Network()
    network.add_node("a")
    with pytest.raises(ValueError):
        network.make_path("p", ["a"])


def test_two_path_builder_shapes():
    configs = [
        PathConfig(bandwidth_bps=4e6, delay_s=0.1, loss_rate=0.0),
        PathConfig(bandwidth_bps=2e6, delay_s=0.05, loss_rate=0.1),
    ]
    network, paths = build_two_path_network(configs)
    assert len(paths) == 2
    assert paths[0].one_way_delay_s == pytest.approx(0.1)
    assert paths[1].one_way_delay_s == pytest.approx(0.05)
    assert paths[1].bottleneck_bandwidth_bps == pytest.approx(2e6)
    assert [len(path.forward_links) for path in paths] == [1, 1]
    assert paths[0].forward_links[0].loss_model.rate_at(0.0) == pytest.approx(0.0)
    assert paths[1].forward_links[0].loss_model.rate_at(0.0) == pytest.approx(0.1)


def test_two_path_builder_end_to_end_delivery():
    configs = [PathConfig(bandwidth_bps=8e6, delay_s=0.01)]
    network, paths = build_two_path_network(configs)
    seen = []
    network.node("dst").bind(3, lambda packet: seen.append(packet))
    packet = Packet(size=1000, src="src", dst="dst", src_port=2, dst_port=3)
    paths[0].send_forward(packet)
    network.sim.run()
    assert seen == [packet]


def test_two_path_builder_empty_rejected():
    with pytest.raises(ValueError):
        build_two_path_network([])


def test_path_config_reverse_lossless_by_default():
    config = PathConfig(loss_rate=0.3)
    network, paths = build_two_path_network([config])
    assert paths[0].forward_links[0].loss_model.rate_at(0.0) == pytest.approx(0.3)
    assert paths[0].reverse_links[0].loss_model.rate_at(0.0) == 0.0
