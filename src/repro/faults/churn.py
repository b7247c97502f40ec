"""Subflow churn: runtime path lifecycle under mobility scenarios.

PR 1 gave both transports a dead-path *detector* (suspect state + probe
backoff); this module is the *recovery* path: subflows are actually torn
down when their path disappears and new ones are attached — with a join
handshake — when a path comes up, as on a WiFi→LTE handover.

* :class:`PathChurnController` — the lifecycle handler a
  :class:`~repro.faults.scenario.FaultInjector` delegates ``path_down`` /
  ``path_up`` / ``handover`` events to. It drives both layers in sync:
  the links (via :meth:`Network.detach_path` / re-raising them) and the
  transport (``Connection.remove_subflow`` / ``add_subflow``).
  :func:`wire_churn` attaches one to a fresh run.
* :data:`CHURN` — the soak kernel's (:mod:`repro.soak`) harness for
  mobility scenarios, with the churn-specific invariants
  :func:`survivors_complete` and :func:`bounded_readd`.

The open-ended benchmark probe for churn scenarios is
:func:`repro.faults.chaos.measure_fault_response`, which wires the
controller itself when the scenario has lifecycle events.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from repro import soak
from repro.faults.scenario import FaultScenario
from repro.metrics.collectors import MetricsSuite
from repro.metrics.stats import mean
from repro.net.topology import Network, Path
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

#: Goodput counts as recovered at this fraction of the pre-churn mean ...
RECOVERY_FRACTION = 0.8
#: ... and :func:`bounded_readd` wants it within this long of the last re-add.
_READD_WINDOW_S = 5.0


class PathChurnController:
    """Applies subflow-lifecycle events to a live connection + topology.

    Tracks which connection subflow currently rides which path index, so
    a ``path_down`` knows what to remove and a later ``path_up`` of the
    same index attaches a *new* subflow (new id, fresh congestion state —
    a re-associated path does not inherit the old path's estimators).
    """

    def __init__(
        self,
        sim: Simulator,
        paths: Sequence[Path],
        connection,
        network: Optional[Network] = None,
        active_paths: Optional[Sequence[int]] = None,
        trace: Optional[TraceBus] = None,
    ):
        self.sim = sim
        self.paths = list(paths)
        self.connection = connection
        self.network = network
        self.trace = trace
        active = (
            tuple(active_paths) if active_paths is not None else range(len(self.paths))
        )
        self._subflow_of_path: Dict[int, int] = {
            path_index: connection.subflows[position].subflow_id
            for position, path_index in enumerate(active)
        }
        self.path_downs = 0
        self.path_ups = 0
        self.handovers = 0

    def subflow_on(self, path_index: int) -> Optional[int]:
        """Id of the subflow currently riding ``path_index`` (or None)."""
        return self._subflow_of_path.get(path_index)

    def rebind(self, connection, active_paths: Sequence[int]) -> None:
        """Point the controller at a rebuilt connection (crash recovery).

        The recovery manager's epoch model replaces the whole connection
        object after a crash; the fault timeline, however, keeps driving
        *this* controller. Rebinding refreshes the connection reference
        and the path→subflow map so later churn events land on the new
        epoch's subflows (which enumerate the same active path set, in
        order).
        """
        self.connection = connection
        self._subflow_of_path = {
            path_index: connection.subflows[position].subflow_id
            for position, path_index in enumerate(active_paths)
        }

    def path_down(self, path_index: int) -> None:
        """The path disappeared: kill its links, remove its subflow."""
        path = self.paths[path_index]
        if self.network is not None:
            self.network.detach_path(path)
        else:
            for link in (*path.forward_links, *path.reverse_links):
                if not link.is_down:
                    link.set_down(True)
        subflow_id = self._subflow_of_path.pop(path_index, None)
        reallocated = 0
        if subflow_id is not None:
            reallocated = self.connection.remove_subflow(subflow_id)
        self.path_downs += 1
        if self.trace is not None and "churn.path_down" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "churn.path_down",
                path=path_index,
                subflow=subflow_id,
                reallocated=reallocated,
            )

    def path_up(self, path_index: int) -> None:
        """The path (re)appeared: raise its links, join a new subflow."""
        if path_index in self._subflow_of_path:
            return  # Already attached; a duplicate path_up is a no-op.
        path = self.paths[path_index]
        for link in (*path.forward_links, *path.reverse_links):
            if link.is_down:
                link.set_down(False)
            if self.network is not None and link not in self.network.links:
                self.network.links.append(link)
        subflow = self.connection.add_subflow(path)
        self._subflow_of_path[path_index] = subflow.subflow_id
        self.path_ups += 1
        if self.trace is not None and "churn.path_up" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "churn.path_up",
                path=path_index,
                subflow=subflow.subflow_id,
            )

    def handover(self, from_path: int, to_path: int, break_s: float) -> None:
        """Leave ``from_path`` now; ``to_path`` comes up ``break_s`` later.

        With ``break_s = 0`` this is make-before-break (the new subflow
        starts its join handshake the instant the old path dies); a
        positive gap models the connectivity blackout of a hard handover.
        """
        self.handovers += 1
        if self.trace is not None and "churn.handover" in self.trace.live:
            self.trace.emit(
                self.sim.now,
                "churn.handover",
                path=from_path,
                to_path=to_path,
                break_s=break_s,
            )
        self.path_down(from_path)
        if break_s <= 0:
            self.path_up(to_path)
        else:
            self.sim.schedule(break_s, self.path_up, to_path)


def wire_churn(sim, network, paths, connection, scenario, trace) -> PathChurnController:
    """Take the paths the transfer does not start on administratively
    down (until a ``path_up`` / ``handover`` brings them online) and
    return the controller the scenario's lifecycle events drive."""
    for index, path in enumerate(paths):
        if index not in scenario.active_paths:
            network.detach_path(path)
    return PathChurnController(
        sim, paths, connection, network=network,
        active_paths=scenario.active_paths, trace=trace,
    )


def churn_controller(run: soak.Run) -> None:
    """Step: the lifecycle handler, when the scenario has lifecycle
    events, and its ``downs / ups / handovers`` counters in the report."""
    if not run.scenario.has_churn:
        return
    controller = run.controller = wire_churn(
        run.sim, run.network, run.paths, run.connection, run.scenario, run.trace
    )

    def collect() -> None:
        run.report.path_downs = controller.path_downs
        run.report.path_ups = controller.path_ups
        run.report.handovers = controller.handovers

    run.collectors.append(collect)


def _readds(scenario) -> bool:
    """Whether any event brings a path (back) up."""
    return any(event.kind in ("path_up", "handover") for event in scenario.events)


def readd_meter(run: soak.Run) -> None:
    """Step: per-second goodput, from which the report records the pre-
    churn steady state and when goodput was back to
    :data:`RECOVERY_FRACTION` of it after the last re-add settled."""
    scenario, report = run.scenario, run.report
    metrics = MetricsSuite(run.trace, bin_width_s=1.0)

    def collect() -> None:
        if not _readds(scenario):
            return
        series = metrics.goodput.series(report.duration_s)
        report.pre_churn_mbps = mean(
            [rate for t, rate in series if 1.0 <= t < scenario.fault_start] or [0.0]
        )
        threshold = RECOVERY_FRACTION * report.pre_churn_mbps
        report.recovered_at_s = next(
            (
                t
                for t, rate in series
                if t >= scenario.settle_time and rate >= threshold
            ),
            None,
        )

    run.collectors.append(collect)


def survivors_complete(run: soak.Run) -> Iterator[str]:
    """Completion on the surviving paths: a permanent ``path_down``
    degrades capacity, never correctness."""
    report = run.report
    if not report.completed:
        yield (
            f"transfer incomplete on surviving paths: "
            f"{report.delivered_bytes}/{report.expected_bytes} bytes "
            f"after {report.duration_s:.0f}s"
        )


def bounded_readd(run: soak.Run) -> Iterator[str]:
    """Bounded re-add recovery: within ``_READD_WINDOW_S`` of the last
    ``path_up`` (or handover settle), goodput is back to
    :data:`RECOVERY_FRACTION` of the pre-churn steady state, unless the
    transfer already finished."""
    scenario, report = run.scenario, run.report
    if not _readds(scenario):
        return
    deadline = scenario.settle_time + _READD_WINDOW_S
    finished = (
        report.completion_time_s is not None and report.completion_time_s <= deadline
    )
    recovered = report.recovered_at_s is not None and report.recovered_at_s <= deadline
    if not (finished or recovered):
        pre = report.pre_churn_mbps
        yield (
            f"no goodput recovery within {_READD_WINDOW_S:.0f}s "
            f"of the last path_up (settle t={scenario.settle_time:.1f}s): pre-churn "
            f"{pre:.3f} MB/s, threshold "
            f"{RECOVERY_FRACTION * pre:.3f} MB/s"
        )


def _size(protocol: str, scenario: FaultScenario) -> soak.Sizing:
    """The chaos harness's sizing — the transfer is mid-flight through
    the whole churn window — started on ``scenario.active_paths`` only:
    a removed subflow must not corrupt or duplicate the decoded stream,
    nor leak timers."""
    return soak.Sizing(
        soak.uniform_paths(scenario.n_paths, 6e5, 0.03),
        total_bytes=2_000_000,
        duration_s=40.0,
        active_paths=scenario.active_paths,
    )


CHURN = soak.Harness(
    "churn",
    soak.bulk_source,
    steps=(readd_meter, churn_controller, soak.arm_timeline),
    invariants=(
        soak.exactly_once_in_order,
        soak.no_wedged_timers,
        survivors_complete,
        bounded_readd,
    ),
    size=_size,
)
