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

from typing import Dict, List, NamedTuple, Sequence


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


def rank_paths_by_sedt(estimates: Sequence[PathEstimate]) -> List[int]:
    """Subflow ids ordered best-first by SEDT (Theorem 2's quality order)."""
    ranked = sorted((sedt(e.rtt, e.loss, e.rto), e.subflow_id) for e in estimates)
    return [subflow_id for __, subflow_id in ranked]
