"""Periodic state samplers for transports and decoders.

The trace bus carries *events*; these samplers add the *state* series the
paper's figures are explained by — per-subflow congestion dynamics
(cwnd, SRTT, RTO, in-flight, EAT) and per-block decoder progress (rank
deficit, overhead). Each sampler publishes ``telemetry.*`` records
through the shared :class:`~repro.sim.trace.TraceBus`, so the protocol
hot paths stay untouched: all cost is borne by the sampler's own timer,
which exists only when telemetry is attached.

Samplers cancel their pending timer event on ``stop()``, so an
instrumented run still satisfies the chaos-soak ``pending_events == 0``
drain invariant after close.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.engine import Event, Simulator
from repro.sim.trace import TraceBus


class PeriodicSampler:
    """Base class: a restartable sampling loop with clean shutdown.

    Subclasses implement :meth:`sample`. The pending event is cancelled
    on ``stop()`` so no tombstone timers outlive the component being
    observed.
    """

    def __init__(self, sim: Simulator, period_s: float):
        if not period_s > 0:
            raise ValueError(f"period_s must be positive, got {period_s}")
        self.sim = sim
        self.period_s = period_s
        self.samples_taken = 0
        self._running = False
        self._pending: Optional[Event] = None

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._pending = self.sim.schedule(self.period_s, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _tick(self) -> None:
        self._pending = None
        if not self._running:
            return
        self.sample()
        self.samples_taken += 1
        self._pending = self.sim.schedule(self.period_s, self._tick)

    def sample(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


EatProvider = Callable[[], Dict[int, float]]


def fmtcp_eat_provider(sender) -> EatProvider:
    """EAT table (Eq. 11) snapshots from a live FMTCP sender.

    Includes suspect paths so the sampled series shows *why* the
    allocator quarantined them (their EAT keeps climbing while probes
    fail) instead of the path silently vanishing from the trace.
    """

    def provider() -> Dict[int, float]:
        paths = sender.path_table(include_suspect=True)
        return dict(zip(paths.ids, paths.eats))

    return provider


class SubflowSampler(PeriodicSampler):
    """Samples every subflow's transport state each period.

    Emits one ``telemetry.subflow`` record per subflow per period with
    cwnd, ssthresh, SRTT, RTO, in-flight, window space, the loss
    estimate, quarantine state and (when an EAT provider is given) the
    allocator's expected-arriving-time estimate.
    """

    def __init__(
        self,
        sim: Simulator,
        subflows,
        trace: TraceBus,
        period_s: float = 0.1,
        eat_provider: Optional[EatProvider] = None,
    ):
        super().__init__(sim, period_s)
        self.subflows = list(subflows)
        self.trace = trace
        self.eat_provider = eat_provider

    def sample(self) -> None:
        eats: Dict[int, float] = {}
        if self.eat_provider is not None:
            eats = self.eat_provider()
        for subflow in self.subflows:
            self.trace.emit(
                self.sim.now,
                "telemetry.subflow",
                subflow=subflow.subflow_id,
                cwnd=subflow.cc.cwnd,
                ssthresh=subflow.cc.ssthresh,
                srtt=subflow.srtt,
                rto=subflow.rto_value,
                in_flight=subflow.in_flight,
                window_space=subflow.window_space,
                loss_est=subflow.loss_rate_estimate,
                suspect=bool(subflow.potentially_failed),
                eat=eats.get(subflow.subflow_id),
            )


class DecoderSampler(PeriodicSampler):
    """Samples an FMTCP receiver's active decoders each period.

    One ``telemetry.decoder`` record per in-progress block: rank (k̄),
    rank deficit (k − k̄), symbols received so far, overhead beyond rank,
    and the block's age. Decode latency itself is an event, not state:
    it rides on the receiver's own ``fmtcp.block_decoded`` records.
    """

    def __init__(
        self,
        sim: Simulator,
        receiver,
        trace: TraceBus,
        period_s: float = 0.1,
    ):
        super().__init__(sim, period_s)
        self.receiver = receiver
        self.trace = trace

    def sample(self) -> None:
        for stats in self.receiver.decoder_stats():
            self.trace.emit(self.sim.now, "telemetry.decoder", **stats)


class ConnectionSampler(PeriodicSampler):
    """Connection-level series shared by both stacks.

    ``telemetry.conn`` records carry cumulative delivered bytes plus the
    stack-specific backlog measure: FMTCP's pending-block count or the
    MPTCP reorder-buffer occupancy (whichever the connection exposes).
    """

    def __init__(
        self,
        sim: Simulator,
        connection,
        trace: TraceBus,
        period_s: float = 0.1,
    ):
        super().__init__(sim, period_s)
        self.connection = connection
        self.trace = trace

    def sample(self) -> None:
        connection = self.connection
        fields = {"delivered_bytes": connection.delivered_bytes}
        manager = getattr(connection, "block_manager", None)
        if manager is not None:
            fields["pending_blocks"] = len(manager.pending_blocks)
        reorder = getattr(connection, "reorder_buffer", None)
        if reorder is not None:
            fields["reorder_occupancy"] = reorder.occupancy
        fields.update(connection.corruption_stats())
        memory = getattr(connection, "memory_stats", None)
        if memory is not None:
            fields.update(
                (f"mem_{name}", value) for name, value in memory().items()
            )
        self.trace.emit(self.sim.now, "telemetry.conn", **fields)


def attach_samplers(
    sim: Simulator,
    connection,
    trace: TraceBus,
    period_s: float = 0.1,
) -> List[PeriodicSampler]:
    """Instrument any transport connection; returns the started samplers.

    Duck-typed over the shared connection surface: anything with
    ``subflows`` gets a :class:`SubflowSampler`;
    an FMTCP-style ``sender``/``receiver`` pair additionally gets EAT
    sampling and a :class:`DecoderSampler`.
    """
    samplers: List[PeriodicSampler] = []
    subflows = getattr(connection, "subflows", None)
    eat_provider = None
    sender = getattr(connection, "sender", None)
    if sender is not None and hasattr(sender, "path_table"):
        eat_provider = fmtcp_eat_provider(sender)
    if subflows:
        samplers.append(
            SubflowSampler(
                sim, subflows, trace, period_s=period_s, eat_provider=eat_provider
            )
        )
    receiver = getattr(connection, "receiver", None)
    if receiver is not None and hasattr(receiver, "decoder_stats"):
        samplers.append(DecoderSampler(sim, receiver, trace, period_s=period_s))
    if hasattr(connection, "delivered_bytes"):
        samplers.append(ConnectionSampler(sim, connection, trace, period_s=period_s))
    for sampler in samplers:
        sampler.start()
    return samplers
