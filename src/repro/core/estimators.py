"""Path-quality estimators: RT, EDT, SEDT and EAT (Definitions 5-8).

These are the quantities Algorithm 1 ranks subflows by:

* Eq. (10)  RT_f   = (1 − p_f)·RTT_f + p_f·RTO_f
* Eq. (13)  SEDT_f = p_f/(1 − p_f)·R_f + r_f/2
* EDT_f: the expected time to get a packet's content across when lost
  symbols are re-sent on the *best* flow (the recursion used in the proof
  of Lemma 1): the best flow's EDT equals its SEDT; for any other flow
  EDT_f = (1 − p_f)·r_f/2 + p_f·(R_f + EDT_best).
* Eq. (11)  EAT_f  = EDT_f if w_f > 0 else EDT_f + RT_f − τ_f,
  extended with a virtual queue for Algorithm 1's virtual allocations:
  the q-th packet beyond the window waits q response times.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence


class _PathEstimateFields(NamedTuple):
    subflow_id: int
    rtt: float
    rto: float
    loss: float
    window_space: int
    tau: float


class PathEstimate(_PathEstimateFields):
    """A snapshot of one subflow's quality parameters.

    An immutable record, built once per subflow per allocation round: a
    tuple with named fields whose every constructor (``_make`` and
    ``_replace`` included) range-checks ``rtt``, ``rto`` and ``loss``.
    """

    __slots__ = ()

    def __new__(
        cls,
        subflow_id: int,
        rtt: float,
        rto: float,
        loss: float,
        window_space: int,
        tau: float,
    ) -> "PathEstimate":
        if not (rtt >= 0 and rto >= 0):  # NaN fails this too
            raise ValueError(f"rtt and rto must be non-negative, got {rtt}, {rto}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        return tuple.__new__(cls, (subflow_id, rtt, rto, loss, window_space, tau))

    @classmethod
    def _make(cls, iterable) -> "PathEstimate":
        return cls(*iterable)


def expected_rt(rtt: float, loss: float, rto: float) -> float:
    """Eq. (10): expected response time of one packet transmission."""
    return (1.0 - loss) * rtt + loss * rto


def sedt(rtt: float, loss: float, rto: float) -> float:
    """Eq. (13): single-path expected delivery time."""
    return loss / (1.0 - loss) * rto + rtt / 2.0


def edt_for_flows(estimates: Sequence[PathEstimate]) -> Dict[int, float]:
    """Expected delivery time per subflow under best-flow repair.

    The best flow (minimum SEDT) repairs its own losses, so its EDT is its
    SEDT; every other flow's losses are repaired on the best flow
    (Theorem 1 guarantees lost symbols never migrate to a *worse* flow).
    """
    if not estimates:
        raise ValueError("need at least one path estimate")
    # Minimum SEDT, ties to the lower id.
    best_id, best_sedt = None, 0.0
    for subflow_id, rtt, rto, loss, __, __ in estimates:
        value = sedt(rtt, loss, rto)
        if (
            best_id is None
            or value < best_sedt
            or (value == best_sedt and subflow_id < best_id)
        ):
            best_id, best_sedt = subflow_id, value
    edts: Dict[int, float] = {}
    for subflow_id, rtt, rto, loss, __, __ in estimates:
        if subflow_id == best_id:
            edts[subflow_id] = best_sedt
        else:
            edts[subflow_id] = (1.0 - loss) * rtt / 2.0 + loss * (rto + best_sedt)
    return edts


def eat(
    estimate: PathEstimate,
    edt: float,
    virtual_queue: int = 0,
) -> float:
    """Eq. (11) with a virtual queue extension.

    ``virtual_queue`` counts packets Algorithm 1 has already virtually
    assigned to this flow during the current invocation. While window
    space remains, EAT = EDT; once the (virtual) window is full, each
    additional packet waits one more expected response time, minus the
    time τ_f the oldest outstanding packet has already been waiting.
    """
    free_space = estimate.window_space - virtual_queue
    if free_space > 0:
        return edt
    waiting_packets = 1 - free_space  # >= 1 once the window is (virtually) full
    rt = expected_rt(estimate.rtt, estimate.loss, estimate.rto)
    return max(edt + waiting_packets * rt - estimate.tau, 0.0)


def eat_table(estimates: Sequence[PathEstimate]) -> Dict[int, float]:
    """Initial EAT per subflow (no virtual assignments yet)."""
    edts = edt_for_flows(estimates)
    return {
        estimate.subflow_id: eat(estimate, edts[estimate.subflow_id])
        for estimate in estimates
    }


class PathTable:
    """Algorithm 1's path table: Definitions 5-8 for a set of paths, one
    row per path, in parallel lists.

    Ids, losses and the per-symbol gains max(1 − p_f, 10⁻³) are fixed at
    construction (an allocation ledger's loss snapshot). A caller writes
    each row's ``rtts`` / ``rtos`` / ``spaces`` / ``taus``, then calls
    :meth:`derive` with the rows whose rtt or rto moved, or :meth:`settle`
    when none did; the floats are those of :func:`edt_for_flows` and
    :func:`eat` on the same :class:`PathEstimate`\\ s, operand for operand.
    """

    __slots__ = (
        "ids", "losses", "gains", "rtts", "rtos", "spaces", "taus",
        "sedts", "rts", "edts", "eats",
    )

    def __init__(
        self, ids: List[int], losses: List[float], gains: List[float]
    ):
        for loss in losses:
            if not 0.0 <= loss < 1.0:
                raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.ids = ids
        self.losses = losses
        self.gains = gains
        rows = len(ids)
        # None until a row is first written, so its first derive runs.
        self.rtts: List[Optional[float]] = [None] * rows
        self.rtos: List[Optional[float]] = [None] * rows
        self.spaces = [0] * rows
        self.taus = [0.0] * rows
        self.sedts = [0.0] * rows
        self.rts = [0.0] * rows  # Eq. (10)
        self.edts = [0.0] * rows
        # Each row's EAT with no virtual assignments (Eq. 11).
        self.eats = [0.0] * rows

    @classmethod
    def from_estimates(
        cls,
        estimates: Sequence[PathEstimate],
        loss_rate_of: Callable[[int], float],
    ) -> "PathTable":
        """The table of ``estimates``, gains from ``loss_rate_of``."""
        ids = [estimate.subflow_id for estimate in estimates]
        table = cls(
            ids,
            [estimate.loss for estimate in estimates],
            [max(1.0 - loss_rate_of(subflow_id), 1e-3) for subflow_id in ids],
        )
        for row, (__, rtt, rto, __, space, tau) in enumerate(estimates):
            table.rtts[row] = rtt
            table.rtos[row] = rto
            table.spaces[row] = space
            table.taus[row] = tau
        table.derive(range(len(ids)))
        return table

    def derive(self, moved: Iterable[int]) -> None:
        """Range-check the ``moved`` rows and re-derive their SEDT (Eq. 13)
        and RT, then the best row, every EDT (a non-best EDT reads the
        best SEDT) and every EAT (:meth:`settle`)."""
        rtts, rtos, losses, sedts, rts = (
            self.rtts, self.rtos, self.losses, self.sedts, self.rts
        )
        for row in moved:
            rtt, rto, loss = rtts[row], rtos[row], losses[row]
            if not (rtt >= 0 and rto >= 0):  # NaN fails this too
                raise ValueError(
                    f"rtt and rto must be non-negative, got {rtt}, {rto}"
                )
            sedts[row] = loss / (1.0 - loss) * rto + rtt / 2.0
            rts[row] = (1.0 - loss) * rtt + loss * rto
        ids = self.ids
        # Minimum SEDT, ties to the lower id.
        best = 0
        for row in range(1, len(ids)):
            value = sedts[row]
            if value < sedts[best] or (
                value == sedts[best] and ids[row] < ids[best]
            ):
                best = row
        edts = self.edts
        for row, loss in enumerate(losses):
            if row == best:
                edts[row] = sedts[row]
            else:
                edts[row] = (1.0 - loss) * rtts[row] / 2.0 + loss * (
                    rtos[row] + sedts[best]
                )
        self.settle()

    def settle(self) -> None:
        """Every row's EAT with no virtual assignments, from its window
        space and τ."""
        edts, rts, taus, eats = self.edts, self.rts, self.taus, self.eats
        for row, space in enumerate(self.spaces):
            edt = edts[row]
            eats[row] = (
                edt if space > 0 else max(edt + (1 - space) * rts[row] - taus[row], 0.0)
            )

    def eat(self, row: int, virtual_queue: int) -> float:
        """:func:`eat` of ``row`` with ``virtual_queue`` packets virtually
        assigned to it."""
        free_space = self.spaces[row] - virtual_queue
        if free_space > 0:
            return self.edts[row]
        waiting_packets = 1 - free_space
        return max(
            self.edts[row] + waiting_packets * self.rts[row] - self.taus[row], 0.0
        )

    def estimates(self) -> List[PathEstimate]:
        """The rows as :class:`PathEstimate`\\ s."""
        return [
            PathEstimate(*row)
            for row in zip(
                self.ids, self.rtts, self.rtos, self.losses, self.spaces, self.taus
            )
        ]


def rank_paths_by_sedt(estimates: Sequence[PathEstimate]) -> List[int]:
    """Subflow ids ordered best-first by SEDT (Theorem 2's quality order)."""
    ranked = sorted((sedt(e.rtt, e.loss, e.rto), e.subflow_id) for e in estimates)
    return [subflow_id for __, subflow_id in ranked]
