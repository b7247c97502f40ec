"""A congestion-controlled subflow over one network path.

This is the piece of TCP both protocols share: packet-sequenced
transmission under a congestion window, RTT/RTO estimation, per-packet
ACKs, and SACK-style loss detection (a packet is declared lost after
``DUP_ACK_THRESHOLD`` later packets are acknowledged, or on RTO).

What happens *after* a loss is the owning connection's decision, exposed
through the :class:`SubflowOwner` interface:

* the IETF-MPTCP baseline re-enqueues the lost connection-level chunk
  (classic retransmission);
* FMTCP merely releases the window space — the allocation algorithm will
  fill the next transmission opportunity with freshly generated fountain
  symbols for whichever block still needs them (Section III of the paper:
  "lost packets do not need to be retransmitted").

Subflow sequence numbers are therefore *transmission identifiers*: they
are never reused, which keeps RTT sampling Karn-safe and makes the ACK
machinery trivial to reason about.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.net.integrity import DEFERRED, payload_digest, verify
from repro.net.packet import Packet
from repro.net.topology import Path
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import TraceBus
from repro.tcp.congestion import CongestionController
from repro.tcp.rto import RtoEstimator

HEADER_BYTES = 40
ACK_BYTES = 40
#: Later packets acknowledged before an outstanding one is declared lost.
DUP_ACK_THRESHOLD = 3
#: The per-packet gain of the loss-rate EWMA.
LOSS_EWMA_GAIN = 0.05
#: Maximum segment size (bytes of payload per packet), every transport's.
MSS = 1400

class SubflowSegment:
    """Wire payload of a data packet."""

    __slots__ = ("seq", "payload")

    def __init__(self, seq: int, payload: Any):
        self.seq = seq
        self.payload = payload

    def integrity_digest(self) -> bytes:
        return b"seg:" + str(self.seq).encode() + b":" + payload_digest(self.payload)

    def integrity_mutate(self, rng):
        """A deep-mutated copy for CRC-evading corruption, or ``None``."""
        mutate = getattr(self.payload, "integrity_mutate", None)
        mutated = mutate(rng) if mutate is not None else None
        if mutated is None:
            return None
        return SubflowSegment(self.seq, mutated)


class SubflowAck:
    """Wire payload of an ACK packet: which seq, plus owner feedback."""

    __slots__ = ("echo_seq", "feedback")

    def __init__(self, echo_seq: int, feedback: Any = None):
        self.echo_seq = echo_seq
        self.feedback = feedback

    def integrity_digest(self) -> bytes:
        return (
            b"ack:" + str(self.echo_seq).encode() + b":"
            + payload_digest(self.feedback)
        )


class SubflowPacketInfo:
    """Sender-side bookkeeping for one in-flight packet."""

    __slots__ = ("seq", "payload", "size", "sent_at", "higher_acks")

    def __init__(self, seq: int, payload: Any, size: int, sent_at: float):
        self.seq = seq
        self.payload = payload
        self.size = size
        self.sent_at = sent_at
        self.higher_acks = 0


class SubflowOwner:
    """What a connection must provide to drive its subflows.

    The default implementations make the owner optional in unit tests.
    """

    #: Moves whenever an ask changed what a repeated ask could get: a
    #: subflow sent a packet, or a refusal moved owner state (a round-robin
    #: turn). A subflow compares it across an owner hook to see whether
    #: asking again could be answered differently.
    supply_epoch = 0

    def next_payload(self, subflow: "Subflow") -> Optional[Tuple[Any, int]]:
        """Return ``(payload, payload_bytes)`` to transmit, or ``None``."""
        return None

    def on_payload_delivered(self, subflow: "Subflow", info: SubflowPacketInfo) -> None:
        """The packet carrying ``info.payload`` was acknowledged.

        A subflow calls it only for an owner that overrides this no-op.
        """

    def on_payload_lost(
        self, subflow: "Subflow", info: SubflowPacketInfo, reason: str
    ) -> None:
        """The packet was declared lost (``reason`` in {"dupack", "timeout"})."""

    def on_ack_feedback(self, subflow: "Subflow", feedback: Any) -> None:
        """Receiver-side piggyback data arrived with an ACK.

        The subflow pumps itself once the ACK is processed, unless this
        hook (or ``on_subflow_recovered`` after it) just pumped it and
        :attr:`supply_epoch` has not moved since: so a hook that pumps must
        do so after its last change to what ``next_payload`` reads.
        """

    def on_subflow_suspect(self, subflow: "Subflow") -> None:
        """The subflow crossed its consecutive-RTO threshold and entered
        probe mode: treat its path as potentially failed and route around
        it (reinject its data, exclude it from allocation)."""

    def on_subflow_recovered(self, subflow: "Subflow") -> None:
        """A previously-suspect subflow saw an ACK again: the path is
        alive and may rejoin normal scheduling."""

    def on_subflow_ready(self, subflow: "Subflow") -> None:
        """A JOINING subflow finished its handshake and became ACTIVE:
        it may now be pumped and counted by the scheduler."""


class Subflow:
    """Sender endpoint of one subflow."""

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        owner: SubflowOwner,
        congestion: CongestionController,
        rto: RtoEstimator,
        subflow_id: int = 0,
        trace: Optional[TraceBus] = None,
        failed_rto_threshold: Optional[int] = None,
        join_delay_s: Optional[float] = None,
    ):
        self.sim = sim
        self.path = path
        self.owner = owner
        # Whether the owner wants a call per acknowledged packet: an owner
        # that keeps SubflowOwner's no-op costs the ACK path no frame.
        self._notify_delivered = (
            getattr(owner.on_payload_delivered, "__func__", None)
            is not SubflowOwner.on_payload_delivered
        )
        self.subflow_id = subflow_id
        self.cc = congestion
        self.rto = rto
        self.failed_rto_threshold = failed_rto_threshold
        self.trace = trace

        self.src_node = path.src_node
        self.dst_node = path.dst_node
        self.src_port = self.src_node.allocate_port()
        self.dst_port = self.dst_node.allocate_port()
        self.src_node.bind(self.src_port, self._on_ack_packet)
        self._flow_label = f"sf{subflow_id}"

        self._next_seq = 0
        self._outstanding: Dict[int, SubflowPacketInfo] = {}
        # ``owner.supply_epoch`` when the last pump ended with nothing more
        # to ask for; -1 once a repeated ask could get another answer.
        self._pumped_at = -1
        self._declared_lost: set = set()
        self._recovery_until = -1
        self._timer = Timer(sim, self._on_rto, name=f"rto[{subflow_id}]")

        # Lifecycle: JOINING (handshake pending) -> ACTIVE -> CLOSED, with
        # SUSPECT (potentially_failed) overlaying ACTIVE. join_delay_s=None
        # skips the handshake entirely: the subflow is born ACTIVE, which
        # is what static connection construction uses.
        self._closed = False
        self._join_event = None
        if join_delay_s is not None:
            self._join_event = sim.schedule(join_delay_s, self._complete_join)
            if trace is not None and "subflow.join" in trace.live:
                trace.emit(
                    sim.now,
                    "subflow.join",
                    subflow=subflow_id,
                    handshake_s=join_delay_s,
                )

        # Dead-path detection: consecutive RTO firings with no intervening
        # ACK. At failed_rto_threshold the subflow enters probe mode (the
        # setter keeps ``potentially_failed`` in step).
        self.consecutive_timeouts = 0

        # Statistics / estimator state.
        self.loss_rate_estimate = 0.0
        self.last_transmit_at = 0.0
        self.last_ack_at: Optional[float] = None
        self.last_loss_observed_at: Optional[float] = None
        self._loss_estimate_primed = False
        self.packets_sent = 0
        self.packets_acked = 0
        self.packets_lost_dupack = 0
        self.packets_lost_timeout = 0
        self.acks_discarded_corrupt = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Introspection used by schedulers (EAT/EDT need these).
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._outstanding)

    @property
    def window_space(self) -> int:
        """Packets the congestion window still allows (w_f in the paper)."""
        return max(0, self.cc.window - self.in_flight)

    @property
    def srtt(self) -> float:
        """Smoothed RTT; falls back to 2x propagation delay before samples."""
        if self.rto.srtt is not None:
            return self.rto.srtt
        return 2.0 * self.path.one_way_delay_s

    @property
    def rto_value(self) -> float:
        return self.rto.rto

    @property
    def tau(self) -> float:
        """Time since the oldest unacknowledged packet was sent (τ_f)."""
        # _outstanding keeps insertion order, which is send order, and ACKs
        # and losses only delete: its first entry is always the oldest.
        for info in self._outstanding.values():
            return self.sim.now - info.sent_at
        return 0.0

    @property
    def consecutive_timeouts(self) -> int:
        """RTO firings since the last ACK."""
        return self._consecutive_timeouts

    @consecutive_timeouts.setter
    def consecutive_timeouts(self, value: int) -> None:
        self._consecutive_timeouts = value
        # Whether the path is suspected dead (consecutive-RTO threshold).
        # A suspect subflow is restricted to one in-flight packet (a probe,
        # paced by the exponentially backed-off RTO) until an ACK arrives.
        # A plain attribute: every pump and allocation round reads it.
        self.potentially_failed = (
            self.failed_rto_threshold is not None
            and value >= self.failed_rto_threshold
        )

    @property
    def state(self) -> str:
        """Lifecycle state, derived so it can never disagree with behaviour.

        ``closed`` dominates, then ``joining`` (handshake pending), then
        ``suspect`` (consecutive-RTO threshold), else ``active``.
        """
        if self._closed:
            return "closed"
        if self._join_event is not None:
            return "joining"
        if self.potentially_failed:
            return "suspect"
        return "active"

    @property
    def is_joining(self) -> bool:
        return self._join_event is not None

    @property
    def usable(self) -> bool:
        """Whether schedulers should count on this subflow right now."""
        return not self._closed and self._join_event is None and not self.potentially_failed

    @property
    def timer_armed(self) -> bool:
        """Whether the retransmission timer is pending (invariant checks)."""
        return self._timer.armed

    def outstanding_payloads(self):
        """(seq, payload) of every in-flight packet, in sequence order.

        Lets Go-Back-N-style owners (the fixed-rate baseline) see what was
        sent after a lost packet.
        """
        return sorted(
            ((seq, info.payload) for seq, info in self._outstanding.items()),
            key=lambda item: item[0],
        )

    # ------------------------------------------------------------------
    # Transmission.
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Fill the congestion window from the owner's payload supply.

        A potentially-failed subflow is capped at one in-flight packet:
        each RTO expiry (exponentially backed off) releases exactly one
        new probe, so a dead path costs one packet per back-off period
        rather than a whole congestion window.
        """
        if self._closed or self._join_event is not None:
            return
        outstanding = self._outstanding
        cc = self.cc
        owner = self.owner
        while len(outstanding) < cc.window:
            if outstanding and self.potentially_failed:
                break
            epoch = owner.supply_epoch
            supplied = owner.next_payload(self)
            if supplied is None:
                # A refusal that moved the epoch itself is no answer to
                # repeat: the next ask goes ahead.
                self._pumped_at = epoch
                return
            payload, size = supplied
            self._transmit(payload, size)
        self._pumped_at = owner.supply_epoch

    def _complete_join(self) -> None:
        self._join_event = None
        if self.trace is not None and "subflow.active" in self.trace.live:
            self.trace.emit(self.sim.now, "subflow.active", subflow=self.subflow_id)
        self.owner.on_subflow_ready(self)
        self.pump()

    def _transmit(self, payload: Any, size: int) -> None:
        if size <= 0 or size > MSS:
            raise ValueError(f"payload size {size} outside (0, mss={MSS}]")
        self.owner.supply_epoch += 1
        now = self.sim.now
        seq = self._next_seq
        self._next_seq = seq + 1
        self._outstanding[seq] = SubflowPacketInfo(seq, payload, size, now)
        packet = Packet(
            size + HEADER_BYTES,
            self.src_node.name,
            self.dst_node.name,
            self.src_port,
            self.dst_port,
            SubflowSegment(seq, payload),
            self._flow_label,
        )
        packet.checksum = DEFERRED  # sealed; the CRC is computed only if damaged
        packet.sent_at = now
        self.last_transmit_at = now
        self.packets_sent += 1
        self.bytes_sent += packet.size
        if self._timer.expiry is None:
            self._timer.start(self.rto.rto)
        trace = self.trace
        if trace is not None and "subflow.send" in trace.live:
            trace.emit(now, "subflow.send", subflow=self.subflow_id, seq=seq, size=size)
        self.path.send_forward(packet)

    # ------------------------------------------------------------------
    # ACK processing and loss detection.
    # ------------------------------------------------------------------
    def _on_ack_packet(self, packet: Packet) -> None:
        # A deferred seal that was never stamped verifies by construction;
        # getattr because unit tests feed duck-typed stand-ins.
        checksum = getattr(packet, "checksum", None)
        if checksum is not None and checksum != DEFERRED and not verify(packet):
            # Corrupted ACK: discard silently. The data packet's timer is
            # still running, so this degrades to an ordinary loss.
            self.acks_discarded_corrupt += 1
            if self.trace is not None and "subflow.ack_corrupt" in self.trace.live:
                self.trace.emit(
                    self.sim.now, "subflow.ack_corrupt", subflow=self.subflow_id
                )
            return
        ack: SubflowAck = packet.payload
        seq = ack.echo_seq
        # Any ACK — even one for a packet we gave up on — proves the path
        # carries traffic in both directions, so it clears suspicion.
        was_suspect = self.potentially_failed
        if self._consecutive_timeouts:
            self.consecutive_timeouts = 0
        info = self._outstanding.pop(seq, None)
        if info is not None:
            now = self.sim.now
            self.packets_acked += 1
            self.last_ack_at = now
            self.rto.on_measurement(now - info.sent_at)
            # A delivery is a loss-free sample: the EWMA's ``gain * 0.0``
            # term adds nothing.
            if self._loss_estimate_primed:
                self.loss_rate_estimate *= 1 - LOSS_EWMA_GAIN
            else:
                self.loss_rate_estimate = 0.0
                self._loss_estimate_primed = True
            self.cc.on_ack()
            if self._notify_delivered:
                self.owner.on_payload_delivered(self, info)
            self._detect_dupack_losses(seq)
        elif seq in self._declared_lost:
            # Spurious loss declaration: the packet made it after all. The
            # conservative reaction (window already reduced) is kept; we
            # only tidy the tombstone.
            self._declared_lost.discard(seq)
        # Feedback rides on every ACK, even for packets we gave up on.
        self._pumped_at = -1
        if ack.feedback is not None:
            self.owner.on_ack_feedback(self, ack.feedback)
        if was_suspect:
            if self.trace is not None and "subflow.recovered" in self.trace.live:
                self.trace.emit(
                    self.sim.now, "subflow.recovered", subflow=self.subflow_id
                )
            self._pumped_at = -1
            self.owner.on_subflow_recovered(self)
        if self._outstanding:
            self._timer.restart(self.rto.rto)
        else:
            self._timer.stop()
        # No second ask: when the owner's hook just pumped this subflow and
        # the epoch has not moved since, the window and the owner are as
        # that pump left them.
        if self._pumped_at != self.owner.supply_epoch:
            self.pump()

    def _detect_dupack_losses(self, acked_seq: int) -> None:
        newly_lost = []
        # _outstanding is in send order, so in ascending seq: nothing past
        # the first later-sent packet can have been overtaken by this ACK.
        for seq, info in self._outstanding.items():
            if seq > acked_seq:
                break
            info.higher_acks += 1
            if info.higher_acks >= DUP_ACK_THRESHOLD:
                newly_lost.append(seq)
        for seq in newly_lost:
            self._declare_lost(seq, "dupack")

    def _declare_lost(self, seq: int, reason: str) -> None:
        info = self._outstanding.pop(seq, None)
        if info is None:
            return
        self._declared_lost.add(seq)
        if len(self._declared_lost) > 20_000:
            horizon = self._next_seq - 10_000
            self._declared_lost = {s for s in self._declared_lost if s >= horizon}
        self.last_loss_observed_at = self.sim.now
        if self._loss_estimate_primed:
            self.loss_rate_estimate = (
                (1 - LOSS_EWMA_GAIN) * self.loss_rate_estimate + LOSS_EWMA_GAIN
            )
        else:
            self.loss_rate_estimate = 1.0
            self._loss_estimate_primed = True
        if reason == "dupack":
            self.packets_lost_dupack += 1
            # Halve at most once per recovery episode (NewReno behaviour).
            if seq >= self._recovery_until:
                self.cc.on_fast_loss()
                self._recovery_until = self._next_seq
        else:
            self.packets_lost_timeout += 1
            self.cc.on_timeout()
            self._recovery_until = self._next_seq
        if self.trace is not None and "subflow.loss" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "subflow.loss",
                subflow=self.subflow_id,
                seq=seq,
                reason=reason,
            )
        self.owner.on_payload_lost(self, info, reason)

    def _on_rto(self) -> None:
        if not self._outstanding:
            return
        # Go-back-N semantics: a retransmission timeout gives up on the
        # whole outstanding window (classic TCP retransmits from snd_una;
        # recovering one packet per backed-off RTO would serialise multi-
        # loss recovery into multi-second stalls). The congestion window
        # collapses once (cc.on_timeout in the first _declare_lost; later
        # calls are idempotent at cwnd=1).
        self.rto.on_timeout()
        self.consecutive_timeouts += 1
        for seq in sorted(self._outstanding, key=lambda s: self._outstanding[s].sent_at):
            self._declare_lost(seq, "timeout")
        if (
            self.failed_rto_threshold is not None
            and self.consecutive_timeouts == self.failed_rto_threshold
        ):
            if self.trace is not None and "subflow.suspect" in self.trace.live:
                self.trace.emit(
                    self.sim.now, "subflow.suspect", subflow=self.subflow_id
                )
            self.owner.on_subflow_suspect(self)
        if self._outstanding:
            self._timer.restart(self.rto.rto)
        else:
            self._timer.stop()
        self.pump()

    def aged_loss_estimate(self, half_life_s: Optional[float]) -> float:
        """Loss estimate discounted by how long ago the last loss was seen.

        An estimate that can only improve through transmissions the
        scheduler refuses to make would pin a recovered path at "dead"
        forever; halving the estimate every ``half_life_s`` of loss-free
        time lets stale pessimism expire. ``None`` disables aging.
        """
        estimate = self.loss_rate_estimate
        if half_life_s is None or estimate <= 0.0:
            return estimate
        if self.last_loss_observed_at is None:
            return estimate
        quiet_time = self.sim.now - self.last_loss_observed_at
        return estimate * 2.0 ** (-quiet_time / half_life_s)

    def close(self) -> None:
        """Stop timers and release the port (ends a simulation cleanly).

        Also gives back every reference to the subflow it handed out — the
        port binding, the RTO timer's callback, the congestion controller's
        registrations — and drops the owner, so a closed subflow is freed
        by reference counting. Counters and estimates stay readable.
        """
        self._timer.release()
        if self._join_event is not None:
            self._join_event.cancel()
            self._join_event = None
        self._closed = True
        self.src_node.unbind(self.src_port)
        self.cc.release()
        self.owner = None

    def shutdown(self):
        """Tear down at runtime and return the drained in-flight packets.

        Unlike :meth:`close` (end-of-simulation cleanup), shutdown is the
        CLOSED transition of a live transfer: timers and the pending join
        handshake are cancelled, the ACK port is unbound (late ACKs become
        undeliverable drops, not callbacks), and every outstanding
        :class:`SubflowPacketInfo` is handed back — in sequence order — so
        the owning connection can reallocate the data. No owner loss hooks
        fire: the packets were not lost to congestion, the path was
        administratively removed, and the reaction policy belongs to the
        connection, not the congestion machinery.
        """
        infos = [self._outstanding[seq] for seq in sorted(self._outstanding)]
        self._outstanding.clear()
        self._declared_lost.clear()
        self.consecutive_timeouts = 0
        self.close()
        if self.trace is not None and "subflow.closed" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "subflow.closed",
                subflow=self.subflow_id,
                drained=len(infos),
            )
        return infos


class SubflowSink:
    """Receiver endpoint of one subflow: ACK every data packet.

    ``feedback_provider(subflow_id, segment)`` is called after the segment
    is handed to the connection receiver and returns the object to
    piggyback on the ACK (FMTCP's k̄ map, MPTCP's data-level ACK, ...).
    """

    def __init__(
        self,
        sim: Simulator,
        path: Path,
        subflow: Subflow,
        on_segment,
        feedback_provider=None,
        trace: Optional[TraceBus] = None,
    ):
        self.sim = sim
        self.path = path
        self.subflow_id = subflow.subflow_id
        self._on_segment = on_segment
        self._feedback_provider = feedback_provider
        self.trace = trace
        self._src_port = subflow.src_port
        self._dst_port = subflow.dst_port
        self.dst_node = path.dst_node
        self.src_node = path.src_node
        self.dst_node.bind(self._dst_port, self._on_data_packet)
        self._flow_label = f"ack{self.subflow_id}"
        self.packets_received = 0
        self.packets_discarded_corrupt = 0
        self.packets_rejected = 0

    def _on_data_packet(self, packet: Packet) -> None:
        checksum = packet.checksum
        if checksum is not None and checksum != DEFERRED and not verify(packet):
            # Link-CRC failure: drop without acknowledging, exactly like a
            # wire loss — the sender's dupack/RTO machinery takes it from
            # here, so corruption feeds the normal congestion response.
            self.packets_discarded_corrupt += 1
            if self.trace is not None and "subflow.discard_corrupt" in self.trace.live:
                self.trace.emit(
                    self.sim.now,
                    "subflow.discard_corrupt",
                    subflow=self.subflow_id,
                    packet=packet,
                )
            return
        segment: SubflowSegment = packet.payload
        self.packets_received += 1
        accepted = self._on_segment(self.subflow_id, segment)
        if accepted is False:
            # The connection-level receiver rejected the segment (e.g. a
            # DSS-checksum mismatch): withhold the ACK so the sender
            # retransmits through the usual loss path.
            self.packets_rejected += 1
            return
        feedback = None
        if self._feedback_provider is not None:
            feedback = self._feedback_provider(self.subflow_id, segment)
        ack_packet = Packet(
            ACK_BYTES,
            self.dst_node.name,
            self.src_node.name,
            self._dst_port,
            self._src_port,
            SubflowAck(segment.seq, feedback),
            self._flow_label,
        )
        ack_packet.checksum = DEFERRED
        self.path.send_reverse(ack_packet)

    def close(self) -> None:
        """Unbind the port and drop the connection's callbacks."""
        self.dst_node.unbind(self._dst_port)
        self._on_segment = self._feedback_provider = None
