"""Congestion control for subflows.

Windows are counted in packets (the ns-2 convention the paper's evaluation
inherits). Two families are provided:

* :class:`RenoController` — uncoupled slow start + AIMD with NewReno-style
  reactions to fast-detected loss vs timeout. The paper runs its
  simulations on disjoint paths, where it argues the choice of coupling
  does not influence results; uncoupled Reno is therefore the default.
* :class:`LiaCoupledController` — RFC 6356 Linked-Increases (the "MPTCP"
  coupled algorithm of Raiciu et al. cited as [14]); subflows registered
  in a :class:`LiaGroup` share the aggressiveness factor alpha.
"""

from __future__ import annotations

from typing import Callable, List, Optional

#: A new subflow's window, in packets.
INITIAL_CWND = 2.0
#: The window's ceiling, in packets.
MAX_CWND = 10_000.0
#: Finite initial ssthresh (ns-2's TCP agents default to a small value
#: too); prevents slow start from overshooting the path BDP by orders of
#: magnitude before the first loss.
INITIAL_SSTHRESH = 64.0


class CongestionController:
    """Interface shared by all congestion-control algorithms."""

    def __init__(self):
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.fast_recoveries = 0
        self.timeouts = 0

    @property
    def cwnd(self) -> float:
        """Congestion window in packets (fractional under AIMD)."""
        return self._cwnd

    @cwnd.setter
    def cwnd(self, value: float) -> None:
        self._cwnd = value
        # Usable window in whole packets (never below 1): a plain
        # attribute, read on every pump and allocation round.
        self.window = max(1, int(value))

    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def on_ack(self) -> None:
        """One new packet acknowledged."""
        raise NotImplementedError

    def on_fast_loss(self) -> None:
        """Loss detected via duplicate/selective ACKs (multiplicative decrease)."""
        raise NotImplementedError

    def on_timeout(self) -> None:
        """Loss detected via RTO (collapse to one packet)."""
        raise NotImplementedError

    def release(self) -> None:
        """The subflow is closing: drop what the controller registered for
        it. The window and the counters stay readable."""


class RenoController(CongestionController):
    """Slow start + AIMD, NewReno-flavoured."""

    def on_ack(self) -> None:
        cwnd = self._cwnd
        if cwnd < self.ssthresh:
            cwnd += 1.0
        else:
            cwnd += 1.0 / cwnd
        # The cwnd setter's two assignments, without its frame (per ACK).
        self._cwnd = cwnd = min(cwnd, MAX_CWND)
        self.window = max(1, int(cwnd))

    def on_fast_loss(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self.fast_recoveries += 1

    def on_timeout(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.timeouts += 1


class LiaGroup:
    """Shared state for a set of LIA-coupled subflows.

    Recomputes RFC 6356's alpha lazily: callers invalidate the cache when
    any member's window or RTT changes materially; members query
    :meth:`alpha` on each ACK.
    """

    def __init__(self) -> None:
        self._members: List["LiaCoupledController"] = []

    def register(self, controller: "LiaCoupledController") -> None:
        self._members.append(controller)

    def unregister(self, controller: "LiaCoupledController") -> None:
        """Drop a member whose subflow closed (a no-op if absent, so a
        second close is harmless)."""
        try:
            self._members.remove(controller)
        except ValueError:
            pass

    def total_cwnd(self) -> float:
        return sum(member.cwnd for member in self._members)

    def alpha(self) -> float:
        """RFC 6356: alpha = total * max(w_i/rtt_i^2) / (sum w_i/rtt_i)^2."""
        best = 0.0
        denominator = 0.0
        for member in self._members:
            rtt = max(member.rtt_provider(), 1e-6)
            best = max(best, member.cwnd / (rtt * rtt))
            denominator += member.cwnd / rtt
        if denominator <= 0.0:
            return 1.0
        return self.total_cwnd() * best / (denominator * denominator)


class LiaCoupledController(CongestionController):
    """One subflow's half of RFC 6356 Linked Increases.

    ``rtt_provider`` returns the subflow's current smoothed RTT; the group
    needs it to weight windows by path delay.
    """

    def __init__(
        self,
        group: LiaGroup,
        rtt_provider: Callable[[], float],
    ):
        super().__init__()
        self.group = group
        self.rtt_provider = rtt_provider
        group.register(self)

    def on_ack(self) -> None:
        if self.in_slow_start():
            self.cwnd += 1.0
        else:
            total = max(self.group.total_cwnd(), 1e-9)
            increase = min(self.group.alpha() / total, 1.0 / self.cwnd)
            self.cwnd += increase
        self.cwnd = min(self.cwnd, MAX_CWND)

    def on_fast_loss(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self.fast_recoveries += 1

    def on_timeout(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.timeouts += 1

    def release(self) -> None:
        # The group and the RTT closure (it captures the subflow) both
        # point back at this controller's subflow: leave the group, drop
        # the closure.
        self.group.unregister(self)
        self.rtt_provider = None


def make_controller(
    kind: str,
    lia_group: Optional[LiaGroup] = None,
    rtt_provider: Optional[Callable[[], float]] = None,
) -> CongestionController:
    """Factory used by connection builders (``kind`` in {"reno", "lia"})."""
    if kind == "reno":
        return RenoController()
    if kind == "lia":
        if lia_group is None or rtt_provider is None:
            raise ValueError("LIA needs a group and an rtt_provider")
        return LiaCoupledController(lia_group, rtt_provider)
    raise ValueError(f"unknown congestion controller kind {kind!r}")
