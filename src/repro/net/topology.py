"""Network container and topology builders.

:class:`Network` owns the nodes and links of a scenario and can assemble
:class:`Path` objects — the duplex, source-routed pipes that transport
subflows ride on. :func:`build_two_path_network` constructs the paper's
evaluation topology: a sender and receiver joined by two disjoint paths
with independently configurable bandwidth, one-way delay and loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.link import Link
from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus


@dataclass
class PathConfig:
    """Declarative description of one path of the evaluation topology.

    ``delay_s`` is the one-way propagation delay (Table I convention, see
    DESIGN.md §3.5); ``loss_model`` overrides ``loss_rate`` when given.
    """

    bandwidth_bps: float = 4e6
    delay_s: float = 0.100
    loss_rate: float = 0.0
    loss_model: Optional[LossModel] = None
    queue_capacity: int = 100

    def make_queue(self) -> DropTailQueue:
        return DropTailQueue(self.queue_capacity)

    def make_loss_model(self) -> LossModel:
        if self.loss_model is not None:
            return self.loss_model
        if self.loss_rate > 0.0:
            return BernoulliLoss(self.loss_rate)
        return NoLoss()


class Path:
    """A duplex, source-routed pipe between two endpoint nodes.

    Transports hand fully-addressed packets to :meth:`send_forward` /
    :meth:`send_reverse`; the path stamps the source route and injects the
    packet onto the first link.
    """

    def __init__(
        self,
        name: str,
        src_node: Node,
        dst_node: Node,
        forward_links: Sequence[Link],
        reverse_links: Sequence[Link],
    ):
        if not forward_links or not reverse_links:
            raise ValueError("a path needs at least one link in each direction")
        self.name = name
        self.src_node = src_node
        self.dst_node = dst_node
        self.forward_links: Tuple[Link, ...] = tuple(forward_links)
        self.reverse_links: Tuple[Link, ...] = tuple(reverse_links)

    @property
    def one_way_delay_s(self) -> float:
        """Sum of propagation delays along the forward direction."""
        return sum(link.delay_s for link in self.forward_links)

    @property
    def bottleneck_bandwidth_bps(self) -> float:
        return min(link.bandwidth_bps for link in self.forward_links)

    def forward_loss_rate(self, now: float = 0.0) -> float:
        """Combined (independent) loss probability of the forward direction."""
        survive = 1.0
        for link in self.forward_links:
            survive *= 1.0 - link.loss_model.rate_at(now)
        return 1.0 - survive

    def send_forward(self, packet: Packet) -> None:
        packet.route = links = self.forward_links
        packet.route_index = 1
        links[0].send(packet)

    def send_reverse(self, packet: Packet) -> None:
        packet.route = links = self.reverse_links
        packet.route_index = 1
        links[0].send(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Path {self.name} {self.src_node.name}->{self.dst_node.name} "
            f"{len(self.forward_links)} hop(s)>"
        )


class Network:
    """A simulation scenario's nodes and links, plus shared services."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        rng: Optional[RngStreams] = None,
        trace: Optional[TraceBus] = None,
    ):
        self.sim = sim or Simulator()
        self.rng = rng or RngStreams(0)
        self.trace = trace or TraceBus()
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self._adjacency: Dict[str, Dict[str, Link]] = {}

    def add_node(self, name: str) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(name, trace=self.trace)
        self.nodes[name] = node
        self._adjacency[name] = {}
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def add_link(
        self,
        src: str,
        dst: str,
        bandwidth_bps: float,
        delay_s: float,
        loss_model: Optional[LossModel] = None,
        queue_capacity: int = 100,
    ) -> Link:
        """Add one unidirectional link from ``src`` to ``dst``."""
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"both endpoints must exist: {src!r}, {dst!r}")
        name = f"{src}->{dst}"
        link = Link(
            sim=self.sim,
            name=name,
            dst_node=self.nodes[dst],
            bandwidth_bps=bandwidth_bps,
            delay_s=delay_s,
            loss_model=loss_model,
            queue=DropTailQueue(queue_capacity),
            rng=self.rng.get(f"loss:{name}"),
            trace=self.trace,
        )
        self.links.append(link)
        self._adjacency[src][dst] = link
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        delay_s: float,
        loss_forward: Optional[LossModel] = None,
        loss_reverse: Optional[LossModel] = None,
        queue_capacity: int = 100,
    ) -> Tuple[Link, Link]:
        forward = self.add_link(a, b, bandwidth_bps, delay_s, loss_forward, queue_capacity)
        reverse = self.add_link(b, a, bandwidth_bps, delay_s, loss_reverse, queue_capacity)
        return forward, reverse

    def link_between(self, src: str, dst: str) -> Link:
        return self._adjacency[src][dst]

    def attach_path(
        self, index: int, config: PathConfig, src: str = "src", dst: str = "dst"
    ) -> Path:
        """Attach one direct duplex path between two existing hosts.

        Works both at build time (``build_two_path_network`` routes its
        non-router branch through here) and at runtime — mobility
        scenarios attach a brand-new path mid-simulation, then hand it to
        ``Connection.add_subflow``. Link names (``src->dst#i``) and RNG
        stream names (``loss:path{i}:fwd``) are derived from ``index``
        only, so a path's loss realisation is identical whether it existed
        from t=0 or appeared later.
        """
        forward = Link(
            sim=self.sim,
            name=f"{src}->{dst}#{index}",
            dst_node=self.nodes[dst],
            bandwidth_bps=config.bandwidth_bps,
            delay_s=config.delay_s,
            loss_model=config.make_loss_model(),
            queue=config.make_queue(),
            rng=self.rng.get(f"loss:path{index}:fwd"),
            trace=self.trace,
        )
        reverse = Link(
            sim=self.sim,
            name=f"{dst}->{src}#{index}",
            dst_node=self.nodes[src],
            bandwidth_bps=config.bandwidth_bps,
            delay_s=config.delay_s,
            loss_model=NoLoss(),
            queue=config.make_queue(),
            rng=self.rng.get(f"loss:path{index}:rev"),
            trace=self.trace,
        )
        self.links.extend([forward, reverse])
        return Path(
            name=f"path{index}",
            src_node=self.nodes[src],
            dst_node=self.nodes[dst],
            forward_links=[forward],
            reverse_links=[reverse],
        )

    def detach_path(self, path: Path) -> None:
        """Administratively remove a path: down its links, drop them here.

        Packets already serialising or propagating are lost (cable-pull
        semantics, same as ``Link.set_down``); the Path object stays valid
        so a later :meth:`attach_path` with the same index — or simply
        re-raising the links — can bring the route back.
        """
        for link in (*path.forward_links, *path.reverse_links):
            if not link.is_down:
                link.set_down(True)
            if link in self.links:
                self.links.remove(link)

    def make_path(self, name: str, node_names: Sequence[str]) -> Path:
        """Build a duplex :class:`Path` along an explicit chain of nodes."""
        if len(node_names) < 2:
            raise ValueError("a path needs at least two nodes")
        forward = [
            self.link_between(a, b) for a, b in zip(node_names, node_names[1:])
        ]
        reversed_names = list(reversed(node_names))
        reverse = [
            self.link_between(a, b) for a, b in zip(reversed_names, reversed_names[1:])
        ]
        return Path(
            name=name,
            src_node=self.nodes[node_names[0]],
            dst_node=self.nodes[node_names[-1]],
            forward_links=forward,
            reverse_links=reverse,
        )


def build_shared_bottleneck_network(
    n_endpoints: int,
    bottleneck_bps: float = 10e6,
    bottleneck_delay_s: float = 0.020,
    bottleneck_queue: int = 100,
    edge_bps: float = 1e9,
    edge_delay_s: float = 0.001,
    loss_model: Optional[LossModel] = None,
    sim: Optional[Simulator] = None,
    rng: Optional[RngStreams] = None,
    trace: Optional[TraceBus] = None,
) -> Tuple[Network, List[Path]]:
    """A dumbbell: N senders share one bottleneck link to one receiver.

    Used by the TCP-friendliness experiments (paper Section III-A):
    competing connections each get a :class:`Path` src_i → gw → dst whose
    middle hop is the shared bottleneck, so their packets contend in the
    same drop-tail queue.
    """
    if n_endpoints < 1:
        raise ValueError("need at least one endpoint")
    network = Network(sim=sim, rng=rng, trace=trace)
    network.add_node("gw")
    network.add_node("dst")
    network.add_duplex_link(
        "gw",
        "dst",
        bandwidth_bps=bottleneck_bps,
        delay_s=bottleneck_delay_s,
        loss_forward=loss_model,
        queue_capacity=bottleneck_queue,
    )
    paths: List[Path] = []
    for index in range(n_endpoints):
        name = f"src{index}"
        network.add_node(name)
        network.add_duplex_link(
            name, "gw", bandwidth_bps=edge_bps, delay_s=edge_delay_s,
            queue_capacity=1000,
        )
        paths.append(network.make_path(f"flow{index}", [name, "gw", "dst"]))
    return network, paths


def build_two_path_network(
    path_configs: Sequence[PathConfig],
    sim: Optional[Simulator] = None,
    rng: Optional[RngStreams] = None,
    trace: Optional[TraceBus] = None,
    with_edge_routers: bool = False,
) -> Tuple[Network, List[Path]]:
    """The paper's evaluation topology: N disjoint paths between two hosts.

    With ``with_edge_routers`` each path runs src → router_i → dst with a
    fast lossless edge hop and the configured bottleneck hop; without (the
    default, cheaper in events) each path is a single duplex link carrying
    the configured bandwidth/delay/loss.
    """
    if not path_configs:
        raise ValueError("need at least one PathConfig")
    network = Network(sim=sim, rng=rng, trace=trace)
    network.add_node("src")
    network.add_node("dst")
    paths: List[Path] = []
    for index, config in enumerate(path_configs):
        if with_edge_routers:
            router = f"r{index}"
            network.add_node(router)
            network.add_duplex_link(
                "src", router, bandwidth_bps=1e9, delay_s=0.0001, queue_capacity=1000
            )
            network.add_duplex_link(
                router,
                "dst",
                bandwidth_bps=config.bandwidth_bps,
                delay_s=config.delay_s,
                loss_forward=config.make_loss_model(),
                loss_reverse=NoLoss(),
                queue_capacity=config.queue_capacity,
            )
            paths.append(network.make_path(f"path{index}", ["src", router, "dst"]))
        else:
            paths.append(network.attach_path(index, config))
    return network, paths
