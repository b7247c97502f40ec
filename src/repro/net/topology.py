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
        queue_capacity: int = 100,
    ) -> Link:
        """Add one lossless unidirectional link from ``src`` to ``dst``
        (``Link.set_loss_model`` gives it a loss model)."""
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"both endpoints must exist: {src!r}, {dst!r}")
        name = f"{src}->{dst}"
        link = Link(
            sim=self.sim,
            name=name,
            dst_node=self.nodes[dst],
            bandwidth_bps=bandwidth_bps,
            delay_s=delay_s,
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
        queue_capacity: int = 100,
    ) -> Tuple[Link, Link]:
        forward = self.add_link(a, b, bandwidth_bps, delay_s, queue_capacity)
        reverse = self.add_link(b, a, bandwidth_bps, delay_s, queue_capacity)
        return forward, reverse

    def link_between(self, src: str, dst: str) -> Link:
        return self._adjacency[src][dst]

    def attach_path(self, index: int, config: PathConfig) -> Path:
        """Attach one direct duplex path between the hosts ``src`` and
        ``dst``.

        Works both at build time (``build_two_path_network`` builds every
        path here) and at runtime — mobility scenarios attach a brand-new
        path mid-simulation, then hand it to ``Connection.add_subflow``.
        Link names (``src->dst#i``) and RNG stream names
        (``loss:path{i}:fwd``) are derived from ``index`` only, so a path's
        loss realisation is identical whether it existed from t=0 or
        appeared later.
        """
        forward = Link(
            sim=self.sim,
            name=f"src->dst#{index}",
            dst_node=self.nodes["dst"],
            bandwidth_bps=config.bandwidth_bps,
            delay_s=config.delay_s,
            loss_model=config.make_loss_model(),
            queue=config.make_queue(),
            rng=self.rng.get(f"loss:path{index}:fwd"),
            trace=self.trace,
        )
        reverse = Link(
            sim=self.sim,
            name=f"dst->src#{index}",
            dst_node=self.nodes["src"],
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
            src_node=self.nodes["src"],
            dst_node=self.nodes["dst"],
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


#: The dumbbell of :func:`build_shared_bottleneck_network`: a lossless
#: 10 Mbit/s, 20 ms drop-tail bottleneck of 100 packets, behind 1 Gbit/s,
#: 1 ms edge links.
BOTTLENECK_BPS = 10e6
BOTTLENECK_DELAY_S = 0.020
BOTTLENECK_QUEUE = 100
EDGE_BPS = 1e9
EDGE_DELAY_S = 0.001


def build_shared_bottleneck_network(
    n_endpoints: int,
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
    network = Network(rng=rng, trace=trace)
    network.add_node("gw")
    network.add_node("dst")
    network.add_duplex_link(
        "gw",
        "dst",
        bandwidth_bps=BOTTLENECK_BPS,
        delay_s=BOTTLENECK_DELAY_S,
        queue_capacity=BOTTLENECK_QUEUE,
    )
    paths: List[Path] = []
    for index in range(n_endpoints):
        name = f"src{index}"
        network.add_node(name)
        network.add_duplex_link(
            name, "gw", bandwidth_bps=EDGE_BPS, delay_s=EDGE_DELAY_S,
            queue_capacity=1000,
        )
        paths.append(network.make_path(f"flow{index}", [name, "gw", "dst"]))
    return network, paths


def build_two_path_network(
    path_configs: Sequence[PathConfig],
    sim: Optional[Simulator] = None,
    rng: Optional[RngStreams] = None,
    trace: Optional[TraceBus] = None,
) -> Tuple[Network, List[Path]]:
    """The paper's evaluation topology: N disjoint paths between two hosts,
    each a single duplex link carrying the configured bandwidth/delay/loss."""
    if not path_configs:
        raise ValueError("need at least one PathConfig")
    network = Network(sim=sim, rng=rng, trace=trace)
    network.add_node("src")
    network.add_node("dst")
    return network, [
        network.attach_path(index, config) for index, config in enumerate(path_configs)
    ]
