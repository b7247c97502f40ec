"""What does not differ between the multipath transports.

FMTCP, the IETF-MPTCP baseline and the fixed-rate FEC strawman run over
the same TCP subflows and differ in exactly one thing — what a
transmission opportunity carries and how a loss is repaired. Everything
else lives here, once:

* :class:`MultipathConfig` — the subflow, failover and flow-control fields
  every transport's config exposes, with their validation.
* :class:`MultipathConnection` — subflow lifecycle (build, join, remove,
  close), the LIA group and the link-level / flow-control stats surface.
  Its ``_attach`` is the only place a :class:`Subflow` and its
  :class:`SubflowSink` are constructed.

The skeleton builds subflows; it does not sit between them and the
protocol. A subflow's ``owner`` and a sink's callbacks are the protocol's
own objects (``FmtcpSender`` / the ``MptcpConnection`` or
``FixedRateConnection`` itself, and the receiver's bound methods), so no
packet takes a hop through this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.topology import Path
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.tcp.congestion import LiaGroup, make_controller
from repro.tcp.rto import RtoEstimator
from repro.tcp.subflow import Subflow, SubflowOwner, SubflowPacketInfo, SubflowSink


@dataclass
class MultipathConfig:
    """Tunables every transport shares (each adds its own beside them)."""

    # Subflow machinery.
    mss: int = 1400
    congestion: str = "reno"

    # Dead-path failover: after this many consecutive RTO firings with no
    # intervening ACK, a subflow is declared potentially failed — it stops
    # carrying fresh data and drops to one probe per backed-off RTO until
    # a probe is acknowledged (what the protocol does with the data it
    # owed is the protocol's: FMTCP routes fresh symbols around it, MPTCP
    # reinjects its chunks). None disables detection.
    failover_rto_threshold: Optional[int] = 3

    # End-to-end flow control (repro.robustness extension, off by
    # default): the receiver advertises a unit-granular window (blocks for
    # FMTCP, chunks for MPTCP — the protocol's own ``recv_window_blocks`` /
    # ``recv_buffer_chunks``) on every ACK and the sender introduces new
    # units only below the licensed limit.
    flow_control: bool = False
    # Application drain model: None = the app consumes instantly (the
    # pre-flow-control behaviour); a rate in bytes/s models a slow
    # reader; 0.0 models an app that stopped reading entirely.
    recv_drain_rate_bps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mss < 1:
            raise ValueError(f"mss must be >= 1, got {self.mss}")
        if self.congestion not in ("reno", "lia"):
            raise ValueError(
                f"congestion must be 'reno' or 'lia', got {self.congestion!r}"
            )
        if self.failover_rto_threshold is not None and self.failover_rto_threshold < 1:
            raise ValueError(
                f"failover_rto_threshold must be >= 1 or None, "
                f"got {self.failover_rto_threshold}"
            )
        if self.recv_drain_rate_bps is not None and self.recv_drain_rate_bps < 0:
            raise ValueError("recv_drain_rate_bps must be >= 0 or None")


class MultipathConnection:
    """Subflow lifecycle and stats surface of one multipath transfer.

    A protocol inherits this and keeps what differs: ``next_payload``,
    loss / suspect handling, its receiver, ``resume`` and
    ``memory_stats``. It passes the objects its subflows talk to —
    ``owner`` (the :class:`SubflowOwner`), ``on_segment`` and
    ``feedback_provider`` (the receiver's callbacks) — and implements
    three hooks: :meth:`_subflow_attached`, :meth:`_settle_removed` and
    :meth:`_flow_counters`.
    """

    #: Field of the ``conn.subflow_removed`` record that carries what
    #: :meth:`_settle_removed` returned ("abandoned" / "reinjected").
    _removed_field: str

    def __init__(
        self,
        sim: Simulator,
        paths: Sequence[Path],
        config: MultipathConfig,
        trace: Optional[TraceBus],
        owner: SubflowOwner,
        on_segment: Callable,
        feedback_provider: Callable,
    ):
        if not paths:
            raise ValueError("need at least one path")
        self.sim = sim
        self.config = config
        self.trace = trace
        self._owner = owner
        self._on_segment = on_segment
        self._feedback_provider = feedback_provider
        self.subflows: List[Subflow] = []
        self._subflow_by_id: Dict[int, Subflow] = {}
        self._sinks: Dict[int, SubflowSink] = {}
        self._next_subflow_id = 0
        self._lia_group = LiaGroup() if config.congestion == "lia" else None
        for path in paths:
            self._attach(path, join_delay_s=None)

    def _attach(self, path: Path, join_delay_s: Optional[float]) -> Subflow:
        """Build one subflow + its receiver sink and register both."""
        config = self.config
        subflow_id = self._next_subflow_id
        self._next_subflow_id += 1
        controller = make_controller(
            config.congestion,
            lia_group=self._lia_group,
            rtt_provider=lambda: subflow.srtt,  # late-bound: assigned below
        )
        subflow = Subflow(
            sim=self.sim,
            path=path,
            owner=self._owner,
            subflow_id=subflow_id,
            congestion=controller,
            rto=RtoEstimator(),
            mss=config.mss,
            trace=self.trace,
            failed_rto_threshold=config.failover_rto_threshold,
            join_delay_s=join_delay_s,
        )
        sink = SubflowSink(
            sim=self.sim,
            path=path,
            subflow=subflow,
            on_segment=self._on_segment,
            feedback_provider=self._feedback_provider,
            trace=self.trace,
        )
        self.subflows.append(subflow)
        self._subflow_by_id[subflow_id] = subflow
        self._sinks[subflow_id] = sink
        self._subflow_attached(subflow)
        return subflow

    # ------------------------------------------------------------------
    # Protocol hooks.
    # ------------------------------------------------------------------
    def _subflow_attached(self, subflow: Subflow) -> None:
        """``subflow`` was built and registered (at construction or by
        :meth:`add_subflow`): create whatever per-subflow state the
        protocol keeps."""

    def _settle_removed(self, subflow: Subflow, infos: List[SubflowPacketInfo]) -> int:
        """Settle the packets a removed subflow had in flight (it is
        already shut down and unregistered); return how many units the
        protocol wrote off or moved."""
        raise NotImplementedError

    def _flow_counters(self) -> Tuple[Any, Any, int, int, int]:
        """``(gate, receive window, window probes sent, units discarded
        outside the window, units drained by the application)`` — the
        first two ``None`` when flow control is off."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Runtime subflow lifecycle.
    # ------------------------------------------------------------------
    def add_subflow(self, path: Path) -> Subflow:
        """Attach a new path mid-transfer (mobility: a path came up).

        The subflow spends one RTT of the path (the MP_JOIN handshake) in
        JOINING — it pulls no data and the protocol's allocator /
        scheduler does not count it — then goes ACTIVE. Returns the new
        subflow.
        """
        join_delay_s = 2.0 * path.one_way_delay_s
        subflow = self._attach(path, join_delay_s=join_delay_s)
        if self.trace is not None and "conn.subflow_added" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "conn.subflow_added",
                subflow=subflow.subflow_id,
                path=path.name,
                handshake_s=join_delay_s,
            )
        return subflow

    def remove_subflow(self, subflow_id: int) -> int:
        """Detach a subflow mid-transfer (mobility: its path went away).

        The subflow is shut down cleanly (timers cancelled, ports
        unbound) and unregistered, then the protocol settles what it had
        in flight (:meth:`_settle_removed`) and every survivor is pumped
        once. Returns the number of units settled.
        """
        subflow = self._subflow_by_id.pop(subflow_id, None)
        if subflow is None:
            raise ValueError(f"unknown subflow id {subflow_id}")
        infos = subflow.shutdown()  # also takes its controller out of the LIA group
        self._sinks.pop(subflow_id).close()
        self.subflows.remove(subflow)
        settled = self._settle_removed(subflow, infos)
        if self.trace is not None and "conn.subflow_removed" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "conn.subflow_removed",
                subflow=subflow_id,
                **{self._removed_field: settled},
            )
        self.pump()
        return settled

    # ------------------------------------------------------------------
    # Lifecycle (a protocol's close / sever_receiver stop its own timers
    # first, then call these).
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Offer transmission opportunities to every subflow."""
        for subflow in self.subflows:
            subflow.pump()

    def close(self) -> None:
        """Stop every subflow's timers and unbind both ends' ports.

        Each close gives back what it registered, and the skeleton drops
        the protocol's callbacks (MPTCP's ``owner`` is the connection
        itself): a closed transfer holds no reference cycle, so it is
        freed as soon as its last outside reference goes.
        """
        for subflow in self.subflows:
            subflow.close()
        for sink in self._sinks.values():
            sink.close()
        self._owner = self._on_segment = self._feedback_provider = None

    def sever_receiver(self) -> int:
        """Kill the receiver endpoint only, leaving the sender running.

        Models a receiver crash: the receiver's timers stop and its ports
        unbind, so data segments are silently dropped by the network node
        and no feedback flows back. The sender keeps transmitting into the
        void until its RTO ladder marks every subflow potentially-failed —
        the half-open window the recovery manager's detector watches for.
        Port unbinding is idempotent, so a later ``close()`` on the whole
        connection is safe. Returns the number of sinks closed.
        """
        for sink in self._sinks.values():
            sink.close()
        return len(self._sinks)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def corruption_stats(self) -> Dict[str, int]:
        """Link-level integrity counters; a protocol adds its own keys."""
        sinks = self._sinks.values()
        return {
            "packets_discarded_corrupt": sum(
                sink.packets_discarded_corrupt for sink in sinks
            ),
            "packets_rejected": sum(sink.packets_rejected for sink in sinks),
            "acks_discarded_corrupt": sum(
                sf.acks_discarded_corrupt for sf in self.subflows
            ),
        }

    def flow_stats(self) -> Dict[str, object]:
        """Flow-control counters (zeros when the knob is off)."""
        gate, window, probes, discards, drained = self._flow_counters()
        return {
            "enabled": gate is not None,
            "flow_pauses": gate.pauses if gate is not None else 0,
            "flow_limit": gate.limit if gate is not None else None,
            "flow_paused": gate.paused if gate is not None else False,
            "window_probes": probes,
            "zero_window_advertises": (
                window.zero_window_advertises if window is not None else 0
            ),
            "window_discards": discards,
            "drained_units": drained,
        }
