"""Crash detection, reconnection and session resumption.

The :class:`RecoveryManager` is the endpoints handler a
:class:`~repro.faults.scenario.FaultInjector` delegates ``crash_sender``
/ ``crash_receiver`` / ``restart`` events to. It implements an **epoch
model**: a crash of either endpoint ends the transport epoch — the
connection object is torn down wholesale, never surgically mutated —
and a successful reconnect rebuilds a fresh connection from the last
durable checkpoints (see :mod:`repro.recovery.checkpoint`) as the next
epoch.

State machine (one manager per transfer)::

                        crash_sender
        ┌─── running ──────────────────────► down ◄─┐
        │       │                              │    │ restart(sender)
        │       │ crash_receiver               ▼    │
        │       ▼                          (waits)──┘
        │   half_open ── detector fires ─► reconnecting ──► resuming
        │       ▲                              │  ▲            │
        │       │ sender keeps sending         │  │ backoff     │ hello
        │       │ into the void                ▼  │ + jitter    │ RTT
        │       └───────────────────────── attempt fails        ▼
        └───────────────────────────────────────────────────── running
                                               │
                                   retry budget exhausted
                                               ▼
                                            failed  (Watchdog.fail)

A **sender crash** is self-announcing: the sender's host knows it went
down, so the epoch tears down immediately and reconnection starts when
the sender restarts. A **receiver crash** is *not*: the receiver's
ports simply unbind, data drops silently, and the sender keeps
transmitting into the void (a half-open connection). The manager's
detector polls for every subflow going ``potentially_failed`` — the
RTO ladder's verdict — with a wall-clock fallback, then tears down and
starts reconnecting.

Reconnection models a session-token handshake: each attempt presents
the session token minted at setup; the (simulated) peer accepts iff
both endpoints are up and the token matches. Failed attempts back off
exponentially with decorrelating jitter drawn from a **per-epoch RNG
stream** (`recovery:backoff` under the next epoch's key), capped, and
bounded by a retry budget; exhaustion escalates through the existing
:meth:`~repro.robustness.watchdog.Watchdog.fail` clean-fail rung.

Idempotent re-delivery needs no new machinery — it is a property the
transports already have: a restarted FMTCP sender re-offers blocks the
receiver already decoded and the first feedback's ``decoded_in_order``
fast-forwards it past them, while MPTCP's reorder buffer counts
below-frontier chunks as duplicates. The soak harness asserts the
end-to-end consequence (byte-identical, exactly-once delivery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.recovery.checkpoint import (
    ReceiverCheckpoint,
    SenderCheckpoint,
    ResumeState,
    resume_state,
    snapshot_receiver,
    snapshot_sender,
)
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class ReconnectPolicy:
    """Knobs of the reconnection protocol (all times in seconds)."""

    initial_backoff_s: float = 0.25
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 4.0
    # Jitter: uniform in [0, jitter_fraction * current backoff), drawn
    # from the per-epoch `recovery:backoff` stream.
    jitter_fraction: float = 0.5
    retry_budget: int = 8
    # Sender checkpoint cadence while the epoch is healthy.
    checkpoint_period_s: float = 1.0
    # Half-open detector: poll cadence and the wall-clock fallback after
    # which a silent receiver is declared dead even if some subflow has
    # not yet tripped its RTO ladder.
    halfopen_poll_s: float = 0.25
    max_detect_s: float = 10.0

    def __post_init__(self) -> None:
        if self.initial_backoff_s <= 0 or self.max_backoff_s < self.initial_backoff_s:
            raise ValueError("require 0 < initial_backoff_s <= max_backoff_s")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        if self.retry_budget < 1:
            raise ValueError("retry_budget must be >= 1")
        if self.checkpoint_period_s <= 0 or self.halfopen_poll_s <= 0:
            raise ValueError("periods must be positive")
        if self.max_detect_s <= 0:
            raise ValueError("max_detect_s must be positive")


class RecoveryManager:
    """Drives checkpoints, crash handling and reconnection for one transfer.

    ``rebuild(epoch, resume)`` is the harness-supplied closure that
    constructs the next epoch's connection: rewind the replayable source
    to ``resume.sender_byte_offset``, build a connection with
    ``resume=resume`` on the currently active path set, and return it
    un-started (the manager calls ``start()``).
    """

    #: One hello round trip before a reconnect resumes: 2 x the recovery
    #: harness's 30 ms one-way delay.
    hello_rtt_s = 0.06

    def __init__(
        self,
        sim: Any,
        connection: Any,
        rebuild: Callable[[int, ResumeState], Any],
        rng: RngStreams,
        policy: Optional[ReconnectPolicy] = None,
        trace: Optional[Any] = None,
        watchdog: Optional[Any] = None,
    ):
        self.sim = sim
        self.connection = connection
        self.rebuild = rebuild
        self.rng = rng
        self.policy = policy or ReconnectPolicy()
        self.trace = trace
        self.watchdog = watchdog

        # Session token minted at connection setup; every reconnect
        # attempt must present it. 64 bits from the seeded stream keeps
        # runs reproducible.
        self.token = f"{rng.get('recovery:token').getrandbits(64):016x}"
        self._peer_token = self.token  # tests tamper with this to model rejects

        self.state = "running"
        self.sender_up = True
        self.receiver_up = True
        self.epoch = 0
        self.crashes = 0
        self.resumes = 0
        self.attempts_total = 0
        self.outages: List[Dict[str, Any]] = []
        self.closed = False

        self._sender_ckpt: SenderCheckpoint = snapshot_sender(connection)
        self._receiver_ckpt: Optional[ReceiverCheckpoint] = None
        self._outage: Optional[Dict[str, Any]] = None
        self._crash_at = 0.0
        self._attempts_this_outage = 0
        self._backoff = self.policy.initial_backoff_s
        self._backoff_rng = None

        self._ckpt_event: Optional[Any] = None
        self._poll_event: Optional[Any] = None
        self._attempt_event: Optional[Any] = None
        self._resume_event: Optional[Any] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic sender checkpoint (call once, after setup)."""
        if self._ckpt_event is None and not self.closed:
            self._ckpt_event = self.sim.schedule(
                self.policy.checkpoint_period_s, self._ckpt_tick
            )

    def close(self) -> None:
        """Cancel every pending timer (event-queue drain hygiene) and drop
        the epoch builder, whose closure holds the soak run holding this."""
        self.closed = True
        self.rebuild = None
        for attr in ("_ckpt_event", "_poll_event", "_attempt_event", "_resume_event"):
            event = getattr(self, attr)
            if event is not None:
                event.cancel()
                setattr(self, attr, None)

    # ------------------------------------------------------------------
    # Periodic sender checkpoint.
    # ------------------------------------------------------------------
    def _ckpt_tick(self) -> None:
        self._ckpt_event = None
        if self.closed or self.state != "running":
            return
        self._sender_ckpt = snapshot_sender(self.connection)
        if self.trace is not None and "recovery.checkpoint" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "recovery.checkpoint",
                epoch=self.epoch,
                frontier=self._sender_ckpt.frontier,
                bytes=self._sender_ckpt.size_bytes,
            )
        self._ckpt_event = self.sim.schedule(
            self.policy.checkpoint_period_s, self._ckpt_tick
        )

    # ------------------------------------------------------------------
    # Endpoints-handler interface (FaultInjector delegates here).
    # ------------------------------------------------------------------
    def crash_sender(self) -> None:
        """The sender's host died: self-announcing, tear down the epoch now.

        Everything volatile on the sender — pending blocks, in-flight
        symbols, the chunk registry — is gone; only the periodic
        checkpoint survives. The receiver outlived the crash, so its
        frontier snapshot at teardown is exact live state.
        """
        if self.closed or self.state != "running":
            return
        self._open_outage("crash_sender")
        self._receiver_ckpt = snapshot_receiver(self.connection)
        self._cancel("_ckpt_event")
        self.connection.close()
        # Pause the stall ladder for the outage: a torn-down epoch makes
        # no progress by design, and a rung-2 pump on a closed connection
        # would be meaningless. The manager owns failure during an outage
        # (budget exhaustion -> Watchdog.fail); the ladder re-arms at
        # resume.
        if self.watchdog is not None:
            self.watchdog.stop()
        self.sender_up = False
        self.state = "down"
        self._emit("recovery.crash", endpoint="sender")

    def crash_receiver(self) -> None:
        """The receiver's host died: silent, the sender must detect it.

        The receiver's frontier is frozen *at the crash instant* —
        delivery to the application was the durable commit, while blocks
        still in the app queue and all partial decode state are lost.
        Its ports unbind (sinks close), so the still-running sender
        transmits into the void until the half-open detector fires.
        """
        if self.closed or self.state != "running":
            return
        self._open_outage("crash_receiver")
        self._receiver_ckpt = snapshot_receiver(self.connection)
        self._cancel("_ckpt_event")
        self.connection.sever_receiver()
        self.receiver_up = False
        self.state = "half_open"
        self._emit("recovery.crash", endpoint="receiver")
        self._poll_event = self.sim.schedule(
            self.policy.halfopen_poll_s, self._poll_halfopen
        )

    def restart(self) -> None:
        """Every crashed endpoint's host came back up. Restarting the
        sender from the *down* state begins reconnection; a receiver
        restart merely makes future attempts succeed (the sender drives
        the handshake).
        """
        if self.closed or self.state in ("failed",):
            return
        revived = []
        if not self.sender_up:
            self.sender_up = True
            revived.append("sender")
        if not self.receiver_up:
            self.receiver_up = True
            revived.append("receiver")
        if not revived:
            return
        if self._outage is not None and "restart_at" not in self._outage:
            self._outage["restart_at"] = self.sim.now
        self._emit("recovery.restart", endpoints=",".join(revived))
        if self.state == "down" and self.sender_up:
            self._begin_reconnect()

    # ------------------------------------------------------------------
    # Half-open detection.
    # ------------------------------------------------------------------
    def _poll_halfopen(self) -> None:
        self._poll_event = None
        if self.closed or self.state != "half_open":
            return
        connection = self.connection
        subflows = getattr(connection, "subflows", [])
        detected = bool(subflows) and all(
            getattr(subflow, "potentially_failed", False) for subflow in subflows
        )
        waited = self.sim.now - self._crash_at
        if detected or waited >= self.policy.max_detect_s:
            if self._outage is not None:
                self._outage["detect_s"] = round(waited, 6)
            self._emit(
                "recovery.detect",
                waited_s=round(waited, 3),
                via="rto_ladder" if detected else "timeout",
            )
            connection.close()
            if self.watchdog is not None:  # paused for the outage, see crash_sender
                self.watchdog.stop()
            self._begin_reconnect()
        else:
            self._poll_event = self.sim.schedule(
                self.policy.halfopen_poll_s, self._poll_halfopen
            )

    # ------------------------------------------------------------------
    # Reconnection.
    # ------------------------------------------------------------------
    def _begin_reconnect(self) -> None:
        self.state = "reconnecting"
        self._attempts_this_outage = 0
        self._backoff = self.policy.initial_backoff_s
        # Jitter decorrelates retry storms; its stream is keyed by the
        # epoch being *established*, so every recovery epoch replays
        # identically for a given master seed.
        self._backoff_rng = self.rng.for_epoch(self.epoch + 1).get("recovery:backoff")
        self._attempt_event = self.sim.schedule(0.0, self._attempt)

    def _accept_hello(self, token: str) -> bool:
        """The peer's accept rule: both hosts up, session token matches."""
        return self.sender_up and self.receiver_up and token == self._peer_token

    def _attempt(self) -> None:
        self._attempt_event = None
        if self.closed or self.state != "reconnecting":
            return
        self.attempts_total += 1
        self._attempts_this_outage += 1
        accepted = self._accept_hello(self.token)
        self._emit(
            "recovery.attempt",
            n=self._attempts_this_outage,
            accepted=accepted,
        )
        if accepted:
            self.state = "resuming"
            self._resume_event = self.sim.schedule(self.hello_rtt_s, self._resume)
            return
        if self._attempts_this_outage >= self.policy.retry_budget:
            self._give_up()
            return
        jitter = self._backoff_rng.uniform(
            0.0, self.policy.jitter_fraction * self._backoff
        )
        delay = self._backoff + jitter
        self._backoff = min(
            self._backoff * self.policy.backoff_multiplier, self.policy.max_backoff_s
        )
        self._attempt_event = self.sim.schedule(delay, self._attempt)

    def _give_up(self) -> None:
        self.state = "failed"
        if self._outage is not None:
            self._outage["gave_up_at"] = self.sim.now
            self.outages.append(self._outage)
            self._outage = None
        self._emit("recovery.giveup", attempts=self._attempts_this_outage)
        if self.watchdog is not None:
            self.watchdog.fail(
                f"reconnect budget exhausted after "
                f"{self._attempts_this_outage} attempts"
            )

    def _resume(self) -> None:
        self._resume_event = None
        if self.closed or self.state != "resuming":
            return
        assert self._receiver_ckpt is not None  # set at every crash
        resume = resume_state(self._sender_ckpt, self._receiver_ckpt)
        self.epoch += 1
        self.connection = self.rebuild(self.epoch, resume)
        if self.watchdog is not None:
            self.watchdog.connection = self.connection
            if not self.watchdog.failed:
                # Re-arm the stall ladder against the new epoch's
                # progress baseline.
                self.watchdog.start()
        self.state = "running"
        self.resumes += 1
        if self._outage is not None:
            self._outage["resume_at"] = self.sim.now
            self._outage["attempts"] = self._attempts_this_outage
            self._outage["outage_s"] = round(self.sim.now - self._crash_at, 6)
            self.outages.append(self._outage)
            self._outage = None
        self._emit(
            "recovery.resume",
            epoch=self.epoch,
            sender_frontier=resume.sender_frontier,
            receiver_frontier=resume.receiver_frontier,
        )
        self._ckpt_event = self.sim.schedule(
            self.policy.checkpoint_period_s, self._ckpt_tick
        )
        self.connection.start()

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------
    def _open_outage(self, kind: str) -> None:
        self.crashes += 1
        self._crash_at = self.sim.now
        self._outage = {"kind": kind, "crash_at": self.sim.now}

    def _cancel(self, attr: str) -> None:
        event = getattr(self, attr)
        if event is not None:
            event.cancel()
            setattr(self, attr, None)

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.trace is not None and kind in self.trace.live:
            self.trace.emit(self.sim.now, kind, state=self.state, **fields)

    def stats(self) -> Dict[str, Any]:
        """Structured recovery accounting for reports and post-mortems."""
        return {
            "state": self.state,
            "epoch": self.epoch,
            "crashes": self.crashes,
            "resumes": self.resumes,
            "attempts_total": self.attempts_total,
            "outages": list(self.outages),
            "checkpoint_bytes": self._sender_ckpt.size_bytes,
        }
