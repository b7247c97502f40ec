"""One declaration per paper artefact: what it runs, what it prints, what shape it must have.

Every table and figure of the paper's evaluation, and every extension and
robustness probe beside them in EXPERIMENTS.md, is one :class:`Experiment`
in :data:`CATALOG`; no ledger is published any other way. Three readers
use the same entry:

* the CLI verb (``python -m repro fig3``) runs it at the requested scale,
  prints :meth:`Experiment.render` and names any shape check that fails;
* ``benchmarks/bench_experiments.py`` runs it at full scale, asserts every
  shape check and writes the rendered lines to
  ``benchmarks/results/<ledger>.txt``;
* ``python -m repro report`` copies each ledger into the EXPERIMENTS.md
  block marked with its name (:mod:`repro.experiments.report`).

So at full scale the CLI prints the ledger byte for byte, and EXPERIMENTS.md
quotes it byte for byte: a number has one source.

An entry that measures protocols over a row axis is a :class:`Grid`: its
axis, its protocols, ``measure(protocol, point, scale, seed)`` and its seed
count; the grid runs axis × protocols × seeds and reduces over the seeds in
one place. Closed-form, Monte-Carlo and series entries keep their own
``run``. Every simulated transfer goes through :func:`_transfer`, where a
transfer with identical inputs runs once per process.
"""

from __future__ import annotations

import os
import random
from dataclasses import astuple, dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.allocation import (
    fmtcp_beats_mptcp_condition,
    mptcp_delivery_ratio,
    simulate_sedt,
    theorem3_ratio_bound,
)
from repro.analysis.coding import (
    chernoff_no_retransmission_bound,
    expected_packets_delivered,
    fountain_expected_symbols_bound,
    fountain_expected_symbols_exact,
    simulate_fixed_rate_delivery,
    simulate_fountain_delivery,
)
from repro.analysis.throughput import predicted_aggregate_goodput_bps
from repro.core.config import FmtcpConfig
from repro.core.estimators import sedt
from repro.experiments import paper_data
from repro.experiments.fairness import run_fairness
from repro.experiments.reporting import bar_chart, rows_to_csv, series_plot, series_to_csv
from repro.experiments.runner import (
    ExperimentResult,
    build_connection,
    build_topology,
    default_mptcp_config,
    run_transfer,
    transfer_configs,
)
from repro.faults import (
    MOBILITY_SCENARIOS,
    SCENARIOS,
    FaultScenario,
    measure_corruption_goodput,
    measure_fault_response,
)
from repro.fixedrate import FixedRateConfig
from repro.metrics.latency import AppLatencyCollector
from repro.metrics.stats import mean, percentile, stdev
from repro.mptcp.connection import MptcpConfig
from repro.net.loss import ScheduledLoss
from repro.net.packet import Packet
from repro.net.topology import PathConfig
from repro.recovery import measure_recovery
from repro.robustness.exhaustion import BUFFERBLOCK_PATHS, measure_bufferblock
from repro.traces import measure_trace_goodput
from repro.workloads.scenarios import (
    DEFAULT_BANDWIDTH_BPS,
    TABLE1_CASES,
    surge_path_configs,
    table1_path_configs,
)
from repro.workloads.video import VbrVideoSource


@dataclass(frozen=True)
class Scale:
    """Run length, per-path bandwidth and seed of one run of an experiment.

    ``duration_s`` is ``None`` for the closed-form / Monte-Carlo entries,
    which have no simulated run.
    """

    duration_s: Optional[float]
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    seed: int = 1


@dataclass(frozen=True)
class Column:
    """One column of a printed table: right-aligned to ``width`` unless
    ``align`` says otherwise, ``unit`` printed after the value inside it."""

    heading: str
    width: int
    value: Callable[[Any], Any]
    spec: str = ""
    unit: str = ""
    align: str = ">"

    def head(self) -> str:
        return f"{self.heading:{self.align}{self.width}}"

    def cell(self, row: Any) -> str:
        width = self.width - len(self.unit)
        return f"{self.value(row):{self.align}{width}{self.spec}}{self.unit}"


#: A shape check: what the paper's claim needs, and the predicate over
#: ``(result, scale)`` that says whether this run has it.
Check = Tuple[str, Callable[[Any, Scale], bool]]


def _identity(result: Any) -> Any:
    return result


def _no_lines(result: Any) -> List[str]:
    return []


@dataclass(frozen=True)
class Experiment:
    """One paper artefact.

    ``run(scale)`` — a :class:`Grid`, or the entry's own function —
    returns a result; ``rows(result)`` the rows the table
    prints, either through ``columns`` (then `` | `` and ``paper_columns``)
    or, for entries whose rows are sentences, through the ``line`` format
    string over each row's keys. ``caption`` heads the table, ``footer``
    follows it; ``chart`` and ``csv`` are extra views for the CLI.
    ``duration_s`` is the full-scale run length (the ledger's), and
    ``fast_duration_s`` the one ``REPRO_FAST=1`` runs.
    """

    ledger: str
    verb: str
    title: str
    run: Callable[[Scale], Any]
    caption: Optional[Callable[[Scale], str]] = None
    columns: Tuple[Column, ...] = ()
    paper_columns: Tuple[Column, ...] = ()
    line: str = ""
    rows: Callable[[Any], Sequence[Any]] = _identity
    footer: Callable[[Any], List[str]] = _no_lines
    shape_checks: Tuple[Check, ...] = ()
    duration_s: Optional[float] = None
    fast_duration_s: float = 15.0
    chart: Optional[Callable[[Any], List[str]]] = None
    csv: Optional[Callable[[Any], str]] = None

    def scale(
        self,
        duration_s: Optional[float] = None,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        seed: int = 1,
    ) -> Scale:
        """The scale to run at: an explicit run length, else the fast one
        under ``REPRO_FAST=1``, else full scale."""
        if self.duration_s is None:
            duration_s = None
        elif duration_s is None:
            fast = os.environ.get("REPRO_FAST")
            duration_s = self.fast_duration_s if fast else self.duration_s
        return Scale(duration_s, bandwidth_bps, seed)

    def render(self, result: Any, scale: Scale) -> List[str]:
        """The printed table — at full scale, the ledger's lines."""
        lines = self.caption(scale).splitlines() if self.caption else []
        rows = self.rows(result)
        if self.columns:
            lines.append(self._table_line(Column.head))
            lines += [self._table_line(lambda column: column.cell(row)) for row in rows]
        elif self.line:
            lines += [self.line.format(**row) for row in rows]
        return lines + self.footer(result)

    def _table_line(self, text: Callable[[Column], str]) -> str:
        measured = " ".join(text(column) for column in self.columns)
        paper = " ".join(text(column) for column in self.paper_columns)
        return f"{measured} | {paper}" if paper else measured

    def failed_checks(self, result: Any, scale: Scale) -> List[str]:
        """The shape checks this run does not pass, by description."""
        return [name for name, holds in self.shape_checks if not holds(result, scale)]

    def to_csv(self, result: Any) -> str:
        return self.csv(result) if self.csv else rows_to_csv(list(self.rows(result)))


def _fall(first: float, last: float) -> float:
    """Relative fall from ``first`` to ``last`` (0 when ``first`` is 0)."""
    return 1.0 - last / first if first else 0.0


# ----------------------------------------------------------------------
# How an entry runs a transfer, and the grid that runs an entry's transfers.
# ----------------------------------------------------------------------
PAIR = ("fmtcp", "mptcp")

#: One transfer's result per distinct input, for the life of the process.
_SHARED: Dict[Tuple[Any, ...], ExperimentResult] = {}


def _two_paths(bandwidth_bps: float, delay_s: float, loss_rate: float) -> List[PathConfig]:
    """Section V's topology: subflow 1 at 100 ms / 0 %, subflow 2 at
    ``delay_s`` / ``loss_rate``, both at ``bandwidth_bps``."""
    return [
        PathConfig(bandwidth_bps=bandwidth_bps, delay_s=0.100, loss_rate=0.0),
        PathConfig(bandwidth_bps=bandwidth_bps, delay_s=delay_s, loss_rate=loss_rate),
    ]


def _transfer(
    protocol: str, paths: List[PathConfig], scale: Scale, seed: int,
    fmtcp_config: Optional[FmtcpConfig] = None, mptcp_config: Optional[MptcpConfig] = None,
    fixedrate_config: Optional[FixedRateConfig] = None, **options: Any,
) -> ExperimentResult:
    """One transfer at this scale and seed; identical inputs run once.

    The sharing key is values only: every path's fields, the run length,
    the seed, the protocol and the three configs, ``None`` resolved by
    :func:`~repro.experiments.runner.transfer_configs`, as
    :func:`run_transfer` resolves it. A path with a loss model keeps state
    (a surge, a blackout), so such a transfer always runs afresh. Readers
    must not mutate the returned result: another entry may read it too.
    """
    fmtcp_config, mptcp_config, fixedrate_config = transfer_configs(
        fmtcp_config, mptcp_config, fixedrate_config
    )

    def run() -> ExperimentResult:
        return run_transfer(
            protocol, paths, duration_s=scale.duration_s, seed=seed,
            fmtcp_config=fmtcp_config, mptcp_config=mptcp_config,
            fixedrate_config=fixedrate_config, **options,
        )

    if any(path.loss_model is not None for path in paths):
        return run()
    key = (
        protocol, scale.duration_s, seed, astuple(fmtcp_config), astuple(mptcp_config),
        astuple(fixedrate_config), *sorted(options.items()), *map(astuple, paths),
    )
    if key not in _SHARED:
        _SHARED[key] = run()
    return _SHARED[key]


def _case(protocol: str, case_id: int, scale: Scale, seed: int, **options: Any) -> ExperimentResult:
    """One transfer over Table I case ``case_id`` at this scale."""
    case = TABLE1_CASES[case_id - 1]
    paths = _two_paths(scale.bandwidth_bps, case.delay_s, case.loss_rate)
    return _transfer(protocol, paths, scale, seed, **options)


def case_summary(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
    """A grid measure: the summary of one transfer over Table I case
    ``point["case"]``."""
    return _case(protocol, point["case"], scale, seed).summary


#: Folds one measured key's values, in seed order, into the row's value.
Reduction = Callable[[Sequence[Any]], Any]

#: ``measure(protocol, point, scale, seed)``: one run's measured keys.
Measure = Callable[[str, Dict[str, Any], Scale, int], Mapping[str, Any]]


@dataclass(frozen=True)
class Grid:
    """An entry's run as axis × protocols × seeds.

    ``measure`` runs at every axis point (a dict of row fields), protocol
    and seed ``scale.seed`` … ``scale.seed + seeds - 1``. Each measured key
    is reduced over the seeds, in seed order, by ``reduce[key]`` where the
    entry names one and by ``mean`` otherwise; with one seed the measured
    value passes through as it is. ``wide`` rows are one per point, each
    protocol's keys as ``<protocol>_<key>``; otherwise there is one row per
    point and protocol, with ``protocol`` and the measured keys. ``then``
    turns the rows into the entry's result: derived ratios, a keyed view.
    """

    axis: Tuple[Dict[str, Any], ...]
    protocols: Tuple[str, ...]
    measure: Measure
    seeds: int = 1
    reduce: Mapping[str, Reduction] = field(default_factory=dict)
    wide: bool = True
    then: Callable[[List[Dict[str, Any]]], Any] = _identity

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError(f"a grid needs at least one seed, got {self.seeds}")

    def seeds_at(self, scale: Scale) -> List[int]:
        return list(range(scale.seed, scale.seed + self.seeds))

    def __call__(self, scale: Scale, reduction: Optional[Reduction] = None) -> Any:
        """The entry's result at ``scale``. A ``reduction`` (``replicate``
        passes :func:`~repro.experiments.replication.summarise`) replaces
        ``mean``, also over a single seed."""
        rows = []
        for point in self.axis:
            row = dict(point)
            for protocol in self.protocols:
                runs = [self.measure(protocol, point, scale, seed) for seed in self.seeds_at(scale)]
                if reduction is None and len(runs) == 1:
                    measured = dict(runs[0])
                else:
                    measured = {
                        key: self.reduce.get(key, reduction or mean)([run[key] for run in runs])
                        for key in runs[0]
                    }
                if self.wide:
                    row.update((f"{protocol}_{key}", value) for key, value in measured.items())
                else:
                    rows.append({**point, "protocol": protocol, **measured})
            if self.wide:
                rows.append(row)
        return self.then(rows)


def _by(name: str) -> Callable[[List[Dict[str, Any]]], Dict[Any, Dict[str, Any]]]:
    """A grid's ``then`` that keys its rows by their ``name`` field."""
    return lambda rows: {row[name]: row for row in rows}


def _metric(key: str, metric: str) -> Measure:
    """A grid measure: ``summary[metric]`` over Table I case
    ``point["case"]``, as ``key``."""
    return lambda protocol, point, scale, seed: {
        key: case_summary(protocol, point, scale, seed)[metric]
    }


# ----------------------------------------------------------------------
# Table I and the Table I grid (Figs. 3, 5, 6 read one metric each).
# ----------------------------------------------------------------------
CASE = Column("case", 4, lambda row: row["case"])


def _paper(series: Dict[str, List[float]], protocol: str, heading: str) -> Column:
    return Column(heading, 8, lambda row: series[protocol][row["case"] - 1], ".0f")


def _fmtcp_wins(key: str, rows: Sequence[Dict[str, float]]) -> int:
    return sum(1 for row in rows if row[f"fmtcp_{key}"] < row[f"mptcp_{key}"])


def _probe_table1_paths(scale: Scale) -> List[Dict[str, float]]:
    """Drive 5000 100-byte packets, one per 2 ms, over each case's
    subflow-2 path and measure the loss and one-way delay it realises —
    the substrate check under every other experiment."""
    probes = 5000
    rows = []
    for case in TABLE1_CASES:
        paths = _two_paths(scale.bandwidth_bps, case.delay_s, case.loss_rate)
        _, network, built = build_topology(paths, scale.seed)
        path, sim = built[1], network.sim  # subflow 2 carries the case
        arrivals: List[float] = []
        network.nodes["dst"].bind(50, lambda packet: arrivals.append(sim.now - packet.sent_at))

        def send_probe(index: int) -> None:
            packet = Packet(size=100, src="src", dst="dst", src_port=49, dst_port=50)
            packet.sent_at = sim.now
            path.send_forward(packet)
            if index + 1 < probes:
                sim.schedule(0.002, send_probe, index + 1)

        send_probe(0)
        sim.run()
        rows.append({
            "case": case.case_id,
            "delay_ms": case.delay_s * 1e3,
            "loss_pct": case.loss_rate * 1e2,
            "measured_delay_ms": mean(arrivals) * 1e3,
            "measured_loss_pct": (1.0 - len(arrivals) / probes) * 1e2,
        })
    return rows


#: Table I as a grid axis: one point per case.
TABLE1_AXIS = tuple(
    {"case": case.case_id, "delay_ms": case.delay_s * 1e3, "loss_pct": case.loss_rate * 1e2}
    for case in TABLE1_CASES
)


def _ratio(name: str, key: str) -> Callable[[List[Dict[str, Any]]], List[Dict[str, Any]]]:
    """A grid's ``then`` that adds ``name``: FMTCP's ``key`` over MPTCP's."""

    def then(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        for row in rows:
            mptcp = row[f"mptcp_{key}"]
            row[name] = row[f"fmtcp_{key}"] / mptcp if mptcp > 0 else float("inf")
        return rows

    return then


TABLE1 = Experiment(
    ledger="table1_path_fidelity",
    verb="table1",
    title="Table I — configured vs measured subflow-2 paths (subflow 1: 100 ms, 0 %)",
    run=_probe_table1_paths,
    columns=(
        CASE,
        Column("cfg delay", 10, lambda row: row["delay_ms"], ".0f", "ms"),
        Column("meas delay", 11, lambda row: row["measured_delay_ms"], ".1f", "ms"),
        Column("cfg loss", 9, lambda row: row["loss_pct"], ".1f", "%"),
        Column("meas loss", 10, lambda row: row["measured_loss_pct"], ".1f", "%"),
    ),
    shape_checks=(
        # A 100-byte probe's serialisation adds ~0.2 ms on a 4 Mbit/s link.
        ("every measured delay within 2 ms of its configured delay", lambda rows, scale: all(
            abs(row["measured_delay_ms"] - row["delay_ms"]) < 2.0 for row in rows)),
        ("every measured loss within 2 points of its configured loss", lambda rows, scale: all(
            abs(row["measured_loss_pct"] - row["loss_pct"]) < 2.0 for row in rows)),
    ),
)

FIG3 = Experiment(
    ledger="fig3_goodput",
    verb="fig3",
    title="Figure 3 — total goodput, FMTCP vs MPTCP across Table I",
    run=Grid(
        TABLE1_AXIS, PAIR, _metric("goodput_mb", "total_mbytes"), then=_ratio("ratio", "goodput_mb")
    ),
    caption=lambda scale: (
        f"total goodput over {scale.duration_s:.0f}s (MB); "
        "paper columns are ~digitised from Fig. 3"
    ),
    columns=(
        CASE,
        Column("FMTCP", 8, lambda row: row["fmtcp_goodput_mb"], ".2f"),
        Column("MPTCP", 8, lambda row: row["mptcp_goodput_mb"], ".2f"),
        Column("ratio", 6, lambda row: row["ratio"], ".2f"),
    ),
    paper_columns=(
        _paper(paper_data.FIG3_GOODPUT_MB, "fmtcp", "paper F"),
        _paper(paper_data.FIG3_GOODPUT_MB, "mptcp", "paper M"),
        Column("ratio", 6, lambda row: (
            paper_data.FIG3_GOODPUT_MB["fmtcp"][row["case"] - 1]
            / paper_data.FIG3_GOODPUT_MB["mptcp"][row["case"] - 1]
        ), ".2f"),
    ),
    footer=lambda rows: [
        f"case1->4 degradation: MPTCP "
        f"{_fall(rows[0]['mptcp_goodput_mb'], rows[3]['mptcp_goodput_mb']):.0%} "
        f"(paper ~60%), FMTCP "
        f"{_fall(rows[0]['fmtcp_goodput_mb'], rows[3]['fmtcp_goodput_mb']):.0%} "
        f"(paper: slight)"
    ],
    shape_checks=(
        ("FMTCP above MPTCP on cases 2-4", lambda rows, scale: all(
            row["fmtcp_goodput_mb"] > row["mptcp_goodput_mb"] for row in rows[1:4])),
        ("the FMTCP/MPTCP ratio widens from case 1 to case 4",
         lambda rows, scale: rows[3]["ratio"] > rows[0]["ratio"]),
        # Our baseline recovers with go-back-N and a min-RTT waterfall, so
        # it degrades less than the paper's (~60 %); the direction and the
        # ordering are the reproduced shape.
        ("MPTCP loses > 25 % from case 1 to case 4", lambda rows, scale: _fall(
            rows[0]["mptcp_goodput_mb"], rows[3]["mptcp_goodput_mb"]) > 0.25),
        ("FMTCP loses < 20 % from case 1 to case 4", lambda rows, scale: _fall(
            rows[0]["fmtcp_goodput_mb"], rows[3]["fmtcp_goodput_mb"]) < 0.20),
        ("MPTCP's case 1->4 loss is more than twice FMTCP's", lambda rows, scale: _fall(
            rows[0]["mptcp_goodput_mb"], rows[3]["mptcp_goodput_mb"]) > 2 * _fall(
            rows[0]["fmtcp_goodput_mb"], rows[3]["fmtcp_goodput_mb"])),
    ),
    duration_s=60.0,
    chart=lambda rows: bar_chart(
        [
            (f"case{row['case']} {protocol.upper()}", row[f"{protocol}_goodput_mb"])
            for row in rows
            for protocol in ("fmtcp", "mptcp")
        ],
        unit=" MB",
    ),
)


def _table1_figure(
    figure: int, ledger: str, title: str, key: str, metric: str, what: str,
    series: Dict[str, List[float]], shape_checks: Tuple[Check, ...],
) -> Experiment:
    """Figs. 5 and 6: one per-case metric of both protocols, beside the paper's."""
    return Experiment(
        ledger=ledger,
        verb=f"fig{figure}",
        title=title,
        run=Grid(TABLE1_AXIS, PAIR, _metric(key, metric)),
        caption=lambda scale: f"{what} (ms); paper columns ~digitised from Fig. {figure}",
        columns=(
            CASE,
            Column("FMTCP", 8, lambda row: row[f"fmtcp_{key}"], ".1f"),
            Column("MPTCP", 8, lambda row: row[f"mptcp_{key}"], ".1f"),
        ),
        paper_columns=(
            _paper(series, "fmtcp", "paper F"), _paper(series, "mptcp", "paper M"),
        ),
        shape_checks=shape_checks,
        duration_s=60.0,
    )


FIG5 = _table1_figure(
    5, "fig5_block_delay", "Figure 5 — mean block delivery delay across Table I",
    "block_delay_ms", "mean_block_delay_ms", "mean block delivery delay",
    paper_data.FIG5_DELAY_MS,
    (
        ("FMTCP's delay below MPTCP's on cases 1-4",
         lambda rows, scale: _fmtcp_wins("block_delay_ms", rows[:4]) == 4),
        # Case 5 (subflow 2 faster than subflow 1) can tip to the baseline:
        # min-RTT scheduling exploits the fast path without coding overhead.
        ("FMTCP's delay below MPTCP's on at least 6 of 8 cases",
         lambda rows, scale: _fmtcp_wins("block_delay_ms", rows) >= 6),
        ("MPTCP's delay grows > 1.3x from case 1 to case 4", lambda rows, scale: (
            rows[3]["mptcp_block_delay_ms"] > 1.3 * rows[0]["mptcp_block_delay_ms"])),
        # Both share a standing-queue floor (Reno fills the drop-tail queue),
        # so the head-of-line cost is MPTCP's gap over FMTCP.
        ("MPTCP's gap over FMTCP more than doubles from case 1 to case 4",
         lambda rows, scale: (
             rows[3]["mptcp_block_delay_ms"] - rows[3]["fmtcp_block_delay_ms"]
             > 2.0 * (rows[0]["mptcp_block_delay_ms"] - rows[0]["fmtcp_block_delay_ms"]))),
        ("FMTCP's delay grows < 1.3x from case 1 to case 4", lambda rows, scale: (
            rows[3]["fmtcp_block_delay_ms"] < 1.3 * rows[0]["fmtcp_block_delay_ms"])),
    ),
)

FIG6 = _table1_figure(
    6, "fig6_jitter", "Figure 6 — mean block jitter across Table I",
    "jitter_ms", "jitter_ms", "mean block jitter", paper_data.FIG6_JITTER_MS,
    (
        ("FMTCP's jitter below MPTCP's on cases 1-4",
         lambda rows, scale: _fmtcp_wins("jitter_ms", rows[:4]) == 4),
        # On the delay-diverse cases 5/6/8 the min-RTT baseline quarantines
        # the slow path and can edge out FMTCP (EXPERIMENTS.md, D2).
        ("FMTCP's jitter below MPTCP's on at least 5 of 8 cases",
         lambda rows, scale: _fmtcp_wins("jitter_ms", rows) >= 5),
        ("MPTCP's jitter grows > 1.5x from case 1 to case 4", lambda rows, scale: (
            rows[3]["mptcp_jitter_ms"] > 1.5 * rows[0]["mptcp_jitter_ms"])),
        # The paper: the jitter gap at the worst case exceeds the delay gap.
        # The full factor needs runs long enough for FMTCP's jitter to
        # settle; runs under 40 s check the direction.
        ("at case 4 MPTCP's jitter > 2x FMTCP's (1.2x below 40 s)", lambda rows, scale: (
            rows[3]["mptcp_jitter_ms"]
            > (2.0 if scale.duration_s >= 40.0 else 1.2) * rows[3]["fmtcp_jitter_ms"])),
    ),
)


# ----------------------------------------------------------------------
# Figure 4: one entry per surge level.
# ----------------------------------------------------------------------
def surge_window(duration_s: float) -> Tuple[float, float]:
    """The paper's 50 s / 200 s of 300 s, scaled to the run length."""
    return duration_s / 6.0, 2.0 * duration_s / 3.0


def _surge_series(
    surge: float, window: Tuple[float, float], blocks: int,
    protocol: str, scale: Scale, seed: int,
) -> List[Tuple[float, float]]:
    """Goodput binned every 5 s while subflow 2's loss surges from 1 % to
    ``surge`` during the ``window``, FMTCP holding ``blocks`` pending blocks.

    The receive buffer is tighter than the Table I grid's (6 blocks ≈ half
    a path BDP at the defaults for Fig. 4; ``run_transfer`` matches the
    baseline's to it): receive-buffer head-of-line blocking is the collapse
    mechanism the paper's Fig. 4 displays, and it only binds when the
    buffer is scarce. The buffer-size ablation quantifies this
    sensitivity; the paper does not state its buffer sizes (DESIGN.md §3).
    """
    start, end = window
    paths = surge_path_configs(
        surge, surge_start_s=start, surge_end_s=end, bandwidth_bps=scale.bandwidth_bps
    )
    return _transfer(
        protocol, paths, scale, seed, fmtcp_config=FmtcpConfig(max_pending_blocks=blocks),
        bin_width_s=5.0, collect_series=True,
    ).goodput_series


def _run_surge(surge: float, scale: Scale) -> Dict[str, Any]:
    start, end = surge_window(scale.duration_s)
    (row,) = Grid(({},), PAIR, lambda protocol, point, scale, seed: {
        "series": _surge_series(surge, (start, end), 6, protocol, scale, seed)
    })(scale)
    series = {protocol: row[f"{protocol}_series"] for protocol in PAIR}

    def rates(protocol: str, lo: float, hi: float) -> List[float]:
        return [rate for t, rate in series[protocol] if lo <= t < hi]

    phases = [
        {
            "phase": label,
            **{protocol: mean(rates(protocol, lo, hi)) for protocol in series},
        }
        for label, lo, hi in (
            ("before", 0.0, start), ("during", start, end), ("after", end, scale.duration_s)
        )
    ]
    during = phases[1]
    cov = {
        protocol: stdev(rates(protocol, start, end)) / max(during[protocol], 1e-9)
        for protocol in series
    }
    return {"phases": phases, "cov": cov, "series": series}


def figure4(surge: float) -> Experiment:
    """Fig. 4: goodput before / during / after subflow 2's loss surges
    from 1 % to ``surge``."""
    paper = paper_data.FIG4_RATES_MBPS.get(f"{surge:.0%}")

    def phase(result: Dict[str, Any], name: str) -> Dict[str, float]:
        return next(row for row in result["phases"] if row["phase"] == name)

    def footer(result: Dict[str, Any]) -> List[str]:
        lines = []
        if paper:
            lines.append(
                f"paper (~digitised): before F {paper['fmtcp_before']:.2f} / M "
                f"{paper['mptcp_before']:.2f}; during F {paper['fmtcp_during']:.2f} / M "
                f"{paper['mptcp_during']:.2f}"
            )
        lines.append(
            "stability during surge (coeff. of variation): "
            f"FMTCP {result['cov']['fmtcp']:.2f}, MPTCP {result['cov']['mptcp']:.2f}"
        )
        return lines

    def caption(scale: Scale) -> str:
        start, end = surge_window(scale.duration_s)
        return f"loss surge to {surge:.0%} during [{start:.0f}, {end:.0f})s of {scale.duration_s:.0f}s"

    checks: Tuple[Check, ...] = (
        ("FMTCP retains > 1.2x MPTCP's goodput during the surge", lambda result, scale: (
            phase(result, "during")["fmtcp"] > 1.2 * phase(result, "during")["mptcp"])),
        ("FMTCP keeps > 30 % of its pre-surge rate", lambda result, scale: (
            phase(result, "during")["fmtcp"] > 0.3 * phase(result, "before")["fmtcp"])),
        ("FMTCP recovers to > 60 % of its pre-surge rate", lambda result, scale: (
            phase(result, "after")["fmtcp"] > 0.6 * phase(result, "before")["fmtcp"])),
        ("MPTCP recovers to > 60 % of its pre-surge rate", lambda result, scale: (
            phase(result, "after")["mptcp"] > 0.6 * phase(result, "before")["mptcp"])),
    )
    if surge >= 0.35:  # the deeper surge widens the gap (paper: MPTCP nearly stops)
        checks += (
            ("FMTCP retains > 1.4x MPTCP's goodput during the surge", lambda result, scale: (
                phase(result, "during")["fmtcp"] > 1.4 * phase(result, "during")["mptcp"])),
        )
    return Experiment(
        ledger=f"fig4_surge_{round(surge * 100)}",
        verb="fig4",
        title=f"Figure 4 — goodput rate under a {surge:.0%} loss surge on subflow 2",
        run=lambda scale: _run_surge(surge, scale),
        caption=caption,
        columns=(
            Column("phase", 8, lambda row: row["phase"], align="<"),
            Column("FMTCP MB/s", 12, lambda row: row["fmtcp"], ".3f"),
            Column("MPTCP MB/s", 12, lambda row: row["mptcp"], ".3f"),
        ),
        rows=lambda result: result["phases"],
        footer=footer,
        shape_checks=checks,
        duration_s=300.0,
        fast_duration_s=90.0,
        chart=lambda result: series_plot(result["series"]),
        csv=lambda result: series_to_csv(result["series"]),
    )


# ----------------------------------------------------------------------
# Figure 7.
# ----------------------------------------------------------------------
def _delay_stats(delays_s: Sequence[float]) -> Dict[str, Any]:
    delays_ms = [delay * 1e3 for delay in delays_s]
    median = percentile(delays_ms, 50)
    p95 = percentile(delays_ms, 95)
    spikes = sum(1 for delay in delays_ms if delay > 2 * median)
    return {
        "blocks": len(delays_ms),
        "mean": mean(delays_ms),
        "median": median,
        "p95": p95,
        "max": max(delays_ms, default=0.0),
        "spread": p95 / median if median else 0.0,
        "spikes": spikes / len(delays_ms) if delays_ms else 0.0,
    }


FIG7 = Experiment(
    ledger="fig7_block_delay_series",
    verb="fig7",
    title="Figure 7 — per-block delivery delay series, Table I case 4",
    run=Grid(
        ({"case": 4},), PAIR,
        lambda protocol, point, scale, seed: _delay_stats(
            _case(protocol, point["case"], scale, seed).block_delays[:1000]
        ),
        wide=False,
        then=_by("protocol"),
    ),
    caption=lambda scale: (
        f"per-block delivery delay, case 4 (100 ms / 15 %), {scale.duration_s:.0f}s run"
    ),
    line=(
        "{protocol:>6}: {blocks} blocks, mean {mean:.0f}ms, median {median:.0f}ms, "
        "p95 {p95:.0f}ms, max {max:.0f}ms, p95/median {spread:.2f}, "
        ">2x-median spikes {spikes:.1%}"
    ),
    rows=lambda stats: list(stats.values()),
    footer=lambda stats: [
        f"paper: MPTCP max ≈ {paper_data.FIG7_MPTCP_MAX_OVER_MEAN:.0f}x its mean; FMTCP flat "
        f"(ours: MPTCP max/mean {stats['mptcp']['max'] / (stats['mptcp']['mean'] or 1.0):.1f}x, "
        f"FMTCP p95/median {stats['fmtcp']['spread']:.2f})"
    ],
    shape_checks=(
        ("MPTCP's p95/median > 1.5x FMTCP's", lambda stats, scale: (
            stats["mptcp"]["spread"] > 1.5 * stats["fmtcp"]["spread"])),
        ("MPTCP spikes above twice its median more often than FMTCP", lambda stats, scale: (
            stats["mptcp"]["spikes"] > stats["fmtcp"]["spikes"])),
        ("FMTCP's p95/median below 2", lambda stats, scale: stats["fmtcp"]["spread"] < 2.0),
    ),
    duration_s=60.0,
)


# ----------------------------------------------------------------------
# Section III-B and IV-C analysis: closed form vs Monte-Carlo.
# ----------------------------------------------------------------------
FIXED_RATE_POINTS = ((50, 0.05, 0.10), (100, 0.05, 0.10), (100, 0.05, 0.15), (200, 0.10, 0.20))
FOUNTAIN_POINTS = ((256, 0.0), (256, 0.1), (256, 0.2), (64, 0.15))
SEDT_POINTS = ((0.2, 0.02, 0.2), (0.2, 0.15, 0.25), (0.3, 0.10, 0.4), (0.05, 0.10, 0.2))
THEOREM3_P1 = 0.01

ANALYSIS_FIXED_RATE = Experiment(
    ledger="analysis_fixed_rate",
    verb="analysis",
    title="Section III-B — fixed-rate coding vs its Chernoff bound (Eqs. 3-6)",
    run=lambda scale: [
        {
            "block": block, "p1": p1, "p2": p2,
            "expected": expected_packets_delivered(block, p1),
            "bound": chernoff_no_retransmission_bound(block, p1, p2),
            "empirical": simulate_fixed_rate_delivery(block, p1, p2, trials=4000),
        }
        for block, p1, p2 in FIXED_RATE_POINTS
    ],
    caption=lambda scale: "fixed-rate coding with underestimated loss (Eqs. 3-6)",
    columns=(
        Column("A", 5, lambda row: row["block"]),
        Column("p1", 5, lambda row: row["p1"], ".2f"),
        Column("p2", 5, lambda row: row["p2"], ".2f"),
        Column("E(X) eq3", 9, lambda row: row["expected"], ".1f"),
        Column("bound eq6", 10, lambda row: row["bound"], ".4f"),
        Column("empirical", 10, lambda row: row["empirical"], ".4f"),
    ),
    shape_checks=(
        ("the empirical no-retransmission probability never exceeds the Chernoff bound",
         lambda rows, scale: all(row["empirical"] <= row["bound"] + 0.02 for row in rows)),
        ("a larger block succeeds less often (A = 100 vs 50)",
         lambda rows, scale: rows[1]["empirical"] <= rows[0]["empirical"] + 0.02),
    ),
)

ANALYSIS_FOUNTAIN = Experiment(
    ledger="analysis_fountain_overhead",
    verb="analysis",
    title="Section III-B — fountain symbol cost per block (Eq. 7)",
    run=lambda scale: [
        {
            "k": k, "p": p,
            "bound": fountain_expected_symbols_bound(k, p),
            "exact": fountain_expected_symbols_exact(k, p),
            "empirical": simulate_fountain_delivery(k, p, trials=300),
        }
        for k, p in FOUNTAIN_POINTS
    ],
    caption=lambda scale: "fountain symbol cost per block (Eq. 7): E(Y) <= (k+4)/(1-p)",
    columns=(
        Column("k", 5, lambda row: row["k"]),
        Column("p", 5, lambda row: row["p"], ".2f"),
        Column("bound", 8, lambda row: row["bound"], ".1f"),
        Column("exact", 8, lambda row: row["exact"], ".1f"),
        Column("empirical", 10, lambda row: row["empirical"], ".1f"),
    ),
    shape_checks=(
        ("the exact cost never exceeds the Eq. (7) bound",
         lambda rows, scale: all(row["exact"] <= row["bound"] for row in rows)),
        ("Monte-Carlo within 5 % of the exact cost", lambda rows, scale: all(
            abs(row["empirical"] - row["exact"]) / row["exact"] < 0.05 for row in rows)),
    ),
)

ANALYSIS_SEDT = Experiment(
    ledger="analysis_sedt",
    verb="analysis",
    title="Section IV-C — SEDT (Eq. 13), closed form vs Monte-Carlo",
    run=lambda scale: [
        {
            "rtt": rtt, "loss": loss, "rto": rto,
            "closed": sedt(rtt, loss, rto),
            "empirical": simulate_sedt(rtt, loss, rto, rng=random.Random(3)),
        }
        for rtt, loss, rto in SEDT_POINTS
    ],
    caption=lambda scale: "SEDT (Eq. 13) closed form vs Monte-Carlo",
    columns=(
        Column("rtt", 6, lambda row: row["rtt"], ".2f"),
        Column("loss", 6, lambda row: row["loss"], ".2f"),
        Column("rto", 6, lambda row: row["rto"], ".2f"),
        Column("eq13", 8, lambda row: row["closed"], ".4f"),
        Column("empirical", 10, lambda row: row["empirical"], ".4f"),
    ),
    shape_checks=(
        ("Monte-Carlo within 3 % of Eq. (13)", lambda rows, scale: all(
            abs(row["empirical"] - row["closed"]) / row["closed"] < 0.03 for row in rows)),
    ),
)


def _theorem2_rows(scale: Scale) -> List[Dict[str, Any]]:
    rows = []
    for case in TABLE1_CASES:
        rtt = 2 * case.delay_s
        rows.append({
            "case": case.case_id,
            "label": case.label(),
            "sedt": sedt(rtt, case.loss_rate, max(2 * rtt, 0.2)),
        })
    return rows


def _increasing(values: Sequence[float]) -> bool:
    return all(low < high for low, high in zip(values, values[1:]))


ANALYSIS_THEOREM2 = Experiment(
    ledger="analysis_theorem2",
    verb="analysis",
    title="Section IV-C — Theorem 2: SEDT orders the Table I paths by quality",
    run=_theorem2_rows,
    caption=lambda scale: "SEDT of subflow-2 variants (s)",
    line="  case {case} ({label}): {sedt:.4f}",
    shape_checks=(
        ("more loss at equal delay, larger SEDT (cases 1-4)",
         lambda rows, scale: _increasing([row["sedt"] for row in rows[:4]])),
        ("more delay at equal loss, larger SEDT (cases 5-8)",
         lambda rows, scale: _increasing([row["sedt"] for row in rows[4:]])),
    ),
)


def _theorem3_rows(scale: Scale) -> List[Dict[str, Any]]:
    rows = []
    for p2 in (0.05, 0.10, 0.15, 0.25):
        threshold = fmtcp_beats_mptcp_condition(THEOREM3_P1, p2)
        for m in (2.0, threshold, 2 * threshold):
            bound = theorem3_ratio_bound(THEOREM3_P1, p2, m)
            mptcp = mptcp_delivery_ratio(m)
            rows.append({
                "p2": p2, "m": m, "threshold": threshold, "bound": bound, "mptcp": mptcp,
                "winner": "FMTCP" if bound < mptcp else "MPTCP",
            })
    return rows


ANALYSIS_THEOREM3 = Experiment(
    ledger="analysis_theorem3",
    verb="analysis",
    title="Section IV-C — Theorem 3 (Eq. 17): FMTCP's delivery-ratio bound vs MPTCP's m",
    run=_theorem3_rows,
    caption=lambda scale: f"Theorem 3 (Eq. 17) vs MPTCP's ratio m (p1={THEOREM3_P1})",
    columns=(
        Column("p2", 6, lambda row: row["p2"], ".2f"),
        Column("m", 8, lambda row: row["m"], ".2f"),
        Column("FMTCP bound", 12, lambda row: row["bound"], ".2f"),
        Column("MPTCP", 8, lambda row: row["mptcp"], ".2f"),
        Column("winner", 8, lambda row: row["winner"]),
    ),
    shape_checks=(
        ("beyond m* = 1 + 2(1-p1)/(p2(1+p1)) FMTCP's bound wins", lambda rows, scale: all(
            row["bound"] < row["mptcp"] for row in rows if row["m"] > row["threshold"] * 1.01)),
    ),
)


# ----------------------------------------------------------------------
# Extensions beside the paper's figures.
# ----------------------------------------------------------------------
MOTIVATION_CASES = (1, 3, 4)


MOTIVATION = Experiment(
    ledger="motivation_tcp_vs_multipath",
    verb="motivation",
    title="Section I — conventional TCP (best path) vs MPTCP vs FMTCP",
    run=Grid(
        tuple({"case": case_id} for case_id in MOTIVATION_CASES), ("tcp", "mptcp", "fmtcp"),
        _metric("goodput", "goodput_mbytes_per_s"),
    ),
    caption=lambda scale: "goodput (MB/s): conventional TCP (best path) vs MPTCP vs FMTCP",
    columns=(
        Column("case", 6, lambda row: row["case"]),
        Column("TCP", 8, lambda row: row["tcp_goodput"], ".3f"),
        Column("MPTCP", 8, lambda row: row["mptcp_goodput"], ".3f"),
        Column("FMTCP", 8, lambda row: row["fmtcp_goodput"], ".3f"),
    ),
    footer=lambda rows: [
        f"case 4: MPTCP at {rows[-1]['mptcp_goodput'] / (rows[-1]['tcp_goodput'] or 1.0):.0%} "
        "of single-path TCP — the paper's opening pathology"
    ],
    shape_checks=(
        # "the throughput of MPTCP can be even worse than an ordinary TCP"
        ("at case 4 MPTCP is below single-path TCP",
         lambda rows, scale: rows[-1]["mptcp_goodput"] < rows[-1]["tcp_goodput"]),
        ("FMTCP keeps > 85 % of single-path TCP on every case", lambda rows, scale: all(
            row["fmtcp_goodput"] > 0.85 * row["tcp_goodput"] for row in rows)),
        ("FMTCP aggregates above single-path TCP at case 1",
         lambda rows, scale: rows[0]["fmtcp_goodput"] > rows[0]["tcp_goodput"]),
    ),
    duration_s=30.0,
)


def fairness(competitors: int = 3) -> Experiment:
    """One flow under test (TCP, then FMTCP) vs ``competitors`` plain TCP
    flows on a 10 Mbit/s drop-tail bottleneck."""

    def measure(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
        result = run_fairness(
            protocol_under_test=protocol,
            n_competitors=competitors,
            duration_s=scale.duration_s,
            seed=seed,
        )
        return {
            "jain": result.jain,
            "share": result.test_flow_share,
            "rates": ", ".join(
                f"{name}={rate:.2f}" for name, rate in sorted(result.rates_mbps.items())
            ),
        }

    return Experiment(
        ledger="fairness_shared_bottleneck",
        verb="fairness",
        title="Section III-A — TCP-friendliness on a shared bottleneck",
        run=Grid(({},), ("tcp", "fmtcp"), measure, wide=False),
        caption=lambda scale: (
            f"1 flow under test vs {competitors} plain TCP flows, "
            f"10 Mbit/s bottleneck, {scale.duration_s:.0f}s"
        ),
        line="{protocol:>6}: Jain {jain:.3f}, share of fair {share:.2f} ({rates} Mbit/s)",
        shape_checks=(
            ("TCP vs TCP is fair (Jain > 0.95)", lambda rows, scale: rows[0]["jain"] > 0.95),
            ("FMTCP vs TCP is fair (Jain > 0.95)", lambda rows, scale: rows[1]["jain"] > 0.95),
            # Goodput excludes the coding redundancy, so FMTCP may sit
            # slightly below its fair share; it must not out-compete TCP.
            ("FMTCP takes 70-110 % of its fair share",
             lambda rows, scale: 0.70 < rows[1]["share"] <= 1.10),
        ),
        duration_s=30.0,
    )


HEATMAP_LOSSES = (0.02, 0.10, 0.20)
HEATMAP_BLOCKS = (6, 16, 32)

#: Ratio bucket glyphs, from "MPTCP clearly ahead" to "FMTCP ≥ 2x".
_GLYPHS = ((0.90, "--"), (1.00, "- "), (1.10, "≈ "), (1.40, "+ "), (2.00, "++"))


def glyph(ratio: float) -> str:
    """The heatmap cell glyph for an FMTCP/MPTCP goodput ratio."""
    return next((mark for bound, mark in _GLYPHS if ratio < bound), "##")


def render_heatmap(ratios: Dict[Tuple[float, int], float]) -> List[str]:
    """The ``(loss, blocks) -> ratio`` grid as ASCII: a legend, a buffer
    header, then one line per loss rate."""
    losses = list(dict.fromkeys(loss for loss, _ in ratios))
    budgets = list(dict.fromkeys(blocks for _, blocks in ratios))
    lines = [
        "FMTCP/MPTCP goodput ratio  (-- <0.9, - <1.0, ≈ <1.1, + <1.4, ++ <2.0, ## ≥2.0)",
        "          " + " ".join(f"{blocks * 8:>4}KB" for blocks in budgets),
    ]
    for loss in losses:
        cells = []
        for blocks in budgets:
            ratio = ratios[(loss, blocks)]
            cells.append(f"{ratio:4.2f}{glyph(ratio)}")
        lines.append(f"loss {loss:4.0%}  " + " ".join(cells))
    return lines


def _heatmap_goodput(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
    """Goodput at one subflow-2 loss and one (matched) receive-buffer budget:
    the two levers the single-axis sweeps found."""
    paths = _two_paths(scale.bandwidth_bps, 0.100, point["loss"])
    config = FmtcpConfig(max_pending_blocks=point["blocks"])
    result = _transfer(protocol, paths, scale, seed, fmtcp_config=config)
    return {"goodput": result.summary["goodput_mbytes_per_s"]}


def _heatmap_column(ratios: Dict[Tuple[float, int], float], blocks: int) -> List[float]:
    return [ratios[(loss, blocks)] for loss in HEATMAP_LOSSES]


HEATMAP = Experiment(
    ledger="heatmap_loss_buffer",
    verb="heatmap",
    title="FMTCP advantage map: subflow-2 loss x receive-buffer budget",
    run=Grid(
        tuple({"loss": loss, "blocks": b} for loss in HEATMAP_LOSSES for b in HEATMAP_BLOCKS),
        PAIR, _heatmap_goodput,
        then=lambda rows: {
            (row["loss"], row["blocks"]): row["fmtcp_goodput"] / (row["mptcp_goodput"] or 1e-9)
            for row in rows
        },
    ),
    rows=lambda ratios: [
        {"loss": loss, "buffer_kb": blocks * 8, "ratio": ratio}
        for (loss, blocks), ratio in ratios.items()
    ],
    footer=render_heatmap,
    shape_checks=(
        # At the HoL-binding buffer (16 blocks = 128 KB ≈ BDP).
        ("at 128 KB the advantage grows with loss", lambda ratios, scale: (
            _heatmap_column(ratios, 16)[-1] > _heatmap_column(ratios, 16)[0])),
        ("at 128 KB and the highest loss FMTCP leads by > 1.3x",
         lambda ratios, scale: _heatmap_column(ratios, 16)[-1] > 1.3),
        ("at 2 % loss no buffer shows a > 1.4x FMTCP lead (nothing to repair)",
         lambda ratios, scale: max(
             ratios[(HEATMAP_LOSSES[0], blocks)] for blocks in HEATMAP_BLOCKS
         ) < 1.4),
    ),
    duration_s=30.0,
)


def _sensitivity_point(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
    """One operating point's summary and its PFTK prediction (bit/s);
    ``point`` sets subflow 2's delay and loss, and the bandwidth when it
    names one."""
    paths = _two_paths(
        point.get("bandwidth_bps", scale.bandwidth_bps), point["delay_s"], point["loss_rate"]
    )
    return {
        **_transfer(protocol, paths, scale, seed).summary,
        "pftk": predicted_aggregate_goodput_bps(paths, protocol=protocol),
    }


def _sensitivity(
    ledger: str, caption: str, axis: Tuple[Dict[str, Any], ...], shape_checks: Tuple[Check, ...]
) -> Experiment:
    """One sweep around Table I: each ``axis`` point labels an operating
    point and sets its paths."""
    return Experiment(
        ledger=ledger,
        verb="sensitivity",
        title=f"Sensitivity — {caption}",
        run=Grid(axis, PAIR, _sensitivity_point, then=_ratio("advantage", "goodput_mbytes_per_s")),
        caption=lambda scale: caption,
        columns=(
            Column("point", 14, lambda row: row["label"]),
            Column("FMTCP MB/s", 11, lambda row: _goodput(row, "fmtcp"), ".3f"),
            Column("MPTCP MB/s", 11, lambda row: _goodput(row, "mptcp"), ".3f"),
            Column("ratio", 6, lambda row: row["advantage"], ".2f"),
            Column("PFTK F", 8, lambda row: row["fmtcp_pftk"] / 8e6, ".3f"),
            Column("PFTK M", 8, lambda row: row["mptcp_pftk"] / 8e6, ".3f"),
        ),
        shape_checks=shape_checks,
        duration_s=30.0,
    )


def _goodput(row: Dict[str, Any], protocol: str) -> float:
    return row[f"{protocol}_goodput_mbytes_per_s"]


SENSITIVITY_LOSS = _sensitivity(
    "sensitivity_loss", "subflow-2 loss sweep (both paths 100 ms)",
    tuple(
        {"label": f"loss={loss:.0%}", "delay_s": 0.100, "loss_rate": loss}
        for loss in (0.0, 0.02, 0.05, 0.10, 0.20, 0.30)
    ),
    (
        ("FMTCP's advantage grows with subflow-2 loss",
         lambda rows, scale: rows[-1]["advantage"] > rows[0]["advantage"]),
        ("FMTCP leads by > 1.2x at the highest loss",
         lambda rows, scale: rows[-1]["advantage"] > 1.2),
        # Closed-form models are ballpark tools, not oracles.
        ("PFTK within 0.4-2.5x of FMTCP's goodput from 5 % loss up", lambda rows, scale: all(
            0.4 < row["fmtcp_goodput_mbps"] * 1e6 / row["fmtcp_pftk"] < 2.5
            for row in rows[2:])),
    ),
)

SENSITIVITY_BANDWIDTH = _sensitivity(
    "sensitivity_bandwidth", "per-path bandwidth sweep (case 4 parameters)",
    # The sweep sets each point's bandwidth itself.
    tuple(
        {"label": f"bw={bandwidth / 1e6:.0f}Mbps", "bandwidth_bps": bandwidth,
         "delay_s": 0.100, "loss_rate": 0.15}
        for bandwidth in (1e6, 2e6, 4e6, 8e6)
    ),
    (
        ("FMTCP's goodput grows with bandwidth", lambda rows, scale: (
            [_goodput(row, "fmtcp") for row in rows]
            == sorted(_goodput(row, "fmtcp") for row in rows))),
        # The higher the BDP relative to the fixed receive buffer, the
        # harder head-of-line blocking bites the baseline; at the lowest
        # bandwidth MPTCP may edge ahead by FMTCP's coding tax.
        ("FMTCP's advantage grows with bandwidth",
         lambda rows, scale: rows[-1]["advantage"] > rows[0]["advantage"]),
        ("FMTCP leads by > 1.1x at the highest bandwidth",
         lambda rows, scale: rows[-1]["advantage"] > 1.1),
    ),
)

SENSITIVITY_DELAY = _sensitivity(
    "sensitivity_delay", "subflow-2 delay sweep (10 % loss on subflow 2)",
    tuple(
        {"label": f"delay2={delay * 1e3:.0f}ms", "delay_s": delay, "loss_rate": 0.10}
        for delay in (0.010, 0.025, 0.050, 0.100, 0.200, 0.400)
    ),
    (
        ("FMTCP keeps > 0.85x MPTCP's goodput at every subflow-2 delay",
         lambda rows, scale: all(row["advantage"] > 0.85 for row in rows)),
    ),
)


# ----------------------------------------------------------------------
# Ablations (ours): one FMTCP or baseline design decision at a time.
# ----------------------------------------------------------------------
SUMMARY_LINE = (
    "{name:>18}: goodput {goodput:.3f} MB/s, delay {delay:.0f} ms, jitter {jitter:.1f} ms"
)


def _row(rows: Sequence[Dict[str, Any]], name: str) -> Dict[str, Any]:
    return next(row for row in rows if row["name"] == name)


def _ablation(protocol: str, points: Sequence[Dict[str, Any]]) -> Grid:
    """One summary row per point: ``protocol`` on ``point["config"]`` over
    Table I case ``point["case"]``."""

    def measure(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
        options = {f"{protocol}_config": point["config"]}
        result = _case(protocol, point["case"], scale, seed, **options)
        return {
            "goodput": result.summary["goodput_mbytes_per_s"],
            "delay": result.summary["mean_block_delay_ms"],
            "jitter": result.summary["jitter_ms"],
            **result.extras,
        }

    return Grid(tuple(points), (protocol,), measure, wide=False)


def _case4(variants: Sequence[Tuple[str, Any]]) -> List[Dict[str, Any]]:
    """Ablation points on Table I case 4, one per labelled config."""
    return [{"name": name, "case": 4, "config": config} for name, config in variants]


def _mptcp_variants() -> List[Tuple[str, MptcpConfig]]:
    """Min-RTT vs round-robin vs rescue reinjection vs opportunistic
    retransmission, each on the matched baseline config."""
    matched = default_mptcp_config(FmtcpConfig())  # scheduler: "minrtt"
    return [
        ("minrtt", matched),
        ("roundrobin", replace(matched, scheduler="roundrobin")),
        ("minrtt+reinject", replace(matched, reinject_after_timeouts=1)),
        ("minrtt+orp", replace(matched, opportunistic_retransmission=True)),
    ]


ABLATION_ALLOCATION = Experiment(
    ledger="ablation_allocation",
    verb="ablations",
    title="Ablation — Algorithm 1 (EAT) vs greedy vs HMTP-like stop-and-wait",
    run=_ablation("fmtcp", [
        {"name": f"case{case_id}/{mode}", "case": case_id, "config": FmtcpConfig(allocation=mode)}
        for case_id in (4, 5)
        for mode in ("eat", "greedy", "stopwait")
    ]),
    caption=lambda scale: "Algorithm 1 (EAT) vs greedy vs HMTP-like stop-and-wait",
    line=SUMMARY_LINE + ", redundancy {redundancy_ratio:.2f}",
    shape_checks=(
        # The paper's Section II criticism of HMTP, quantified.
        ("stop-and-wait spends > 5x EAT's redundancy at case 4", lambda rows, scale: (
            _row(rows, "case4/stopwait")["redundancy_ratio"]
            > 5 * _row(rows, "case4/eat")["redundancy_ratio"])),
        ("EAT delivers > 3x stop-and-wait's goodput at case 4", lambda rows, scale: (
            _row(rows, "case4/eat")["goodput"] > 3 * _row(rows, "case4/stopwait")["goodput"])),
        # Where path delays diverge (case 5) urgent symbols ride the path
        # that arrives first; on delay-equal paths the allocators coincide.
        ("at case 5 EAT's goodput is at least greedy's", lambda rows, scale: (
            _row(rows, "case5/eat")["goodput"] >= _row(rows, "case5/greedy")["goodput"])),
        ("at case 5 EAT's block delay is at most greedy's", lambda rows, scale: (
            _row(rows, "case5/eat")["delay"] <= _row(rows, "case5/greedy")["delay"])),
        ("at case 4 EAT and greedy are within 15 % in goodput", lambda rows, scale: abs(
            _row(rows, "case4/eat")["goodput"] - _row(rows, "case4/greedy")["goodput"])
            <= 0.15 * _row(rows, "case4/greedy")["goodput"]),
    ),
    duration_s=40.0,
)

ABLATION_DELTA_HAT = Experiment(
    ledger="ablation_delta_hat",
    verb="ablations",
    title="Ablation — the decoding-failure margin δ̂",
    run=_ablation("fmtcp", _case4([
        (f"δ̂={delta:g}", FmtcpConfig(delta_hat=delta)) for delta in (1e-1, 1e-2, 1e-3, 1e-5)
    ])),
    caption=lambda scale: "δ̂ sweep (redundancy vs reliability), case 4",
    line=SUMMARY_LINE + ", redundancy {redundancy_ratio:.3f}",
    shape_checks=(
        ("a stricter δ̂ never costs less redundancy", lambda rows, scale: (
            [row["redundancy_ratio"] for row in rows]
            == sorted(row["redundancy_ratio"] for row in rows))),
    ),
    duration_s=30.0,
)

ABLATION_BLOCK_SIZE = Experiment(
    ledger="ablation_block_size",
    verb="ablations",
    title="Ablation — block geometry (symbols per 8 KiB block)",
    run=_ablation("fmtcp", _case4([
        (f"k={k}", FmtcpConfig(symbols_per_block=k, symbol_size=max(1, 8192 // k)))
        for k in (64, 128, 256, 512)
    ])),
    caption=lambda scale: "block geometry sweep (8 KiB block, varying k̂), case 4",
    line=SUMMARY_LINE + ", redundancy {redundancy_ratio:.3f}",
    shape_checks=(
        # A larger k̂ amortises the log2(1/δ̂) completeness margin.
        ("k̂ = 512 spends less redundancy than k̂ = 64", lambda rows, scale: (
            _row(rows, "k=512")["redundancy_ratio"] < _row(rows, "k=64")["redundancy_ratio"])),
    ),
    duration_s=30.0,
)

ABLATION_CONGESTION = Experiment(
    ledger="ablation_congestion",
    verb="ablations",
    title="Ablation — uncoupled Reno vs LIA coupling",
    run=_ablation("fmtcp", _case4([
        (kind, FmtcpConfig(congestion=kind)) for kind in ("reno", "lia")
    ])),
    caption=lambda scale: (
        "uncoupled Reno vs LIA coupling on disjoint paths, case 4\n"
        "(paper Section III-A: the choice should not influence results much)"
    ),
    line=SUMMARY_LINE,
    shape_checks=(
        ("LIA keeps more than half of Reno's goodput on disjoint paths", lambda rows, scale: (
            _row(rows, "lia")["goodput"] > 0.5 * _row(rows, "reno")["goodput"])),
    ),
    duration_s=30.0,
)


def _buffer_during(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
    """Mean goodput inside the 35 % surge over the run's middle half, at
    ``point["buffer_kb"]`` of receive buffer (8 KiB blocks)."""
    lo, hi = scale.duration_s / 4, 3 * scale.duration_s / 4
    series = _surge_series(0.35, (lo, hi), point["buffer_kb"] // 8, protocol, scale, seed)
    return {"during": mean([rate for t, rate in series if lo <= t < hi])}


def _gap(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    for row in rows:
        row["gap"] = row["fmtcp_during"] / max(row["mptcp_during"], 1e-9)
    return rows


ABLATION_BUFFER_SIZE = Experiment(
    ledger="ablation_buffer_size",
    verb="ablations",
    title="Ablation — receive buffer under the 35 % loss surge",
    run=Grid(
        tuple({"buffer_kb": blocks * 8} for blocks in (4, 6, 12, 24)), PAIR, _buffer_during,
        then=_gap,
    ),
    caption=lambda scale: (
        "receive-buffer sensitivity under the 35% loss surge\n"
        "(head-of-line blocking binds only when the buffer is scarce)"
    ),
    columns=(
        Column("buffer", 10, lambda row: row["buffer_kb"], unit="KB"),
        Column("FMTCP during", 14, lambda row: row["fmtcp_during"], ".3f"),
        Column("MPTCP during", 14, lambda row: row["mptcp_during"], ".3f"),
        Column("gap", 6, lambda row: row["gap"], ".2f"),
    ),
    shape_checks=(
        # Scarcer buffers hurt MPTCP (head-of-line blocking) more than FMTCP.
        ("FMTCP's lead is larger at the smallest buffer than at the largest",
         lambda rows, scale: rows[0]["gap"] > rows[-1]["gap"]),
    ),
    duration_s=120.0,
    fast_duration_s=80.0,
)

ABLATION_MPTCP_SCHEDULER = Experiment(
    ledger="ablation_mptcp_scheduler",
    verb="ablations",
    title="Ablation — MPTCP baseline scheduler variants",
    run=_ablation("mptcp", _case4(_mptcp_variants())),
    caption=lambda scale: "MPTCP baseline scheduler variants, case 4",
    line=SUMMARY_LINE + ", retx {chunks_retransmitted}, reinjected {chunks_reinjected}",
    shape_checks=(
        ("rescue reinjection reinjects", lambda rows, scale: (
            _row(rows, "minrtt+reinject")["chunks_reinjected"] > 0)),
        ("opportunistic retransmission does not raise block delay by > 5 %",
         lambda rows, scale: (
             _row(rows, "minrtt+orp")["delay"] <= 1.05 * _row(rows, "minrtt")["delay"])),
    ),
    duration_s=30.0,
)


# ----------------------------------------------------------------------
# Section III-B's fixed-rate argument as a running transport, and the
# paper's closing multimedia claim.
# ----------------------------------------------------------------------
def _run_p_hat_sweep(scale: Scale) -> Dict[str, Any]:
    rows = []
    for p_hat in (0.0, 0.05, 0.15, 0.30):
        fixed = _transfer(
            "fixedrate", table1_path_configs(TABLE1_CASES[3], scale.bandwidth_bps),
            scale, scale.seed, fixedrate_config=FixedRateConfig(estimated_loss=p_hat),
        )
        rows.append({
            "p_hat": p_hat,
            "goodput": fixed.summary["goodput_mbytes_per_s"],
            "redundancy": fixed.extras["redundancy_ratio"],
            "retransmitted": fixed.extras["symbols_retransmitted"],
        })
    return {"rows": rows, "fmtcp": _case("fmtcp", 4, scale, scale.seed)}


FIXEDRATE_P_HAT_SWEEP = Experiment(
    ledger="fixedrate_p_hat_sweep",
    verb="motivation",
    title="Section III-B — the fixed-rate code-rate knob p̂ vs FMTCP, as transports",
    run=_run_p_hat_sweep,
    caption=lambda scale: "fixed-rate code-rate knob p̂ on case 4 (true loss 15% on subflow 2)",
    columns=(
        Column("p̂", 6, lambda row: row["p_hat"], ".2f"),
        Column("goodput MB/s", 13, lambda row: row["goodput"], ".3f"),
        Column("redundancy", 11, lambda row: row["redundancy"], ".3f"),
        Column("retx symbols", 13, lambda row: row["retransmitted"]),
    ),
    rows=lambda result: result["rows"],
    footer=lambda result: [
        f" FMTCP {result['fmtcp'].summary['goodput_mbytes_per_s']:>13.3f} "
        f"{result['fmtcp'].extras['redundancy_ratio']:>11.3f}   (no p̂ to tune)"
    ],
    shape_checks=(
        ("redundancy rises with p̂ (Eq. 4's budget)", lambda result, scale: (
            [row["redundancy"] for row in result["rows"]]
            == sorted(row["redundancy"] for row in result["rows"]))),
        ("goodput falls from p̂ = 0 to the largest p̂", lambda result, scale: (
            result["rows"][0]["goodput"] > result["rows"][-1]["goodput"])),
        # A small tolerance for seed noise.
        ("FMTCP above 95 % of every p̂ > 0 operating point", lambda result, scale: all(
            result["fmtcp"].summary["goodput_mbytes_per_s"] > 0.95 * row["goodput"]
            for row in result["rows"][1:])),
    ),
    duration_s=30.0,
)


def _run_blackout(scale: Scale) -> Dict[str, Dict[str, Any]]:
    """Goodput inside [13, 20)s while path 2 drops 99 % during [10, 20)s."""

    def paths() -> List[PathConfig]:
        blackout = ScheduledLoss([(0.0, 0.0), (10.0, 0.99), (20.0, 0.0)])
        return [
            PathConfig(bandwidth_bps=scale.bandwidth_bps, delay_s=0.050, loss_rate=0.0),
            PathConfig(bandwidth_bps=scale.bandwidth_bps, delay_s=0.050, loss_model=blackout),
        ]

    seed = scale.seed + 2  # the ledger's seed 3 at the default seed 1
    fixed = _transfer(
        "fixedrate", paths(), scale, seed, fixedrate_config=FixedRateConfig(),
        collect_series=True,
    )
    fmtcp = _transfer("fmtcp", paths(), scale, seed, collect_series=True)
    result = {}
    for label, series, repairs in (
        ("fixed-rate:", fixed.goodput_series, "pinned to the dead path"),
        ("FMTCP:", fmtcp.goodput_series, "rerouted to the live path"),
    ):
        megabytes = sum(rate for t, rate in series if 13.0 <= t < 20.0)
        result[label] = {"label": label, "mb": megabytes, "rate": megabytes / 7, "repairs": repairs}
    return result


FIXEDRATE_BLACKOUT = Experiment(
    ledger="fixedrate_blackout",
    verb="motivation",
    title="Section III-B — fixed-rate repairs pinned to a dead path vs FMTCP's rerouted ones",
    run=_run_blackout,
    caption=lambda scale: "total blackout of path 2 during [10, 20)s — goodput inside [13, 20)s",
    line="  {label:<11} {rate:.3f} MB/s (repairs {repairs})",
    rows=lambda result: list(result.values()),
    shape_checks=(
        # "fixed-rate coding constrains the transmission for a block over
        # the same path": a dead path stalls delivery entirely.
        ("fixed-rate delivers < 0.05 MB inside [13, 20)s",
         lambda result, scale: result["fixed-rate:"]["mb"] < 0.05),
        ("FMTCP keeps > 0.2 MB/s inside [13, 20)s",
         lambda result, scale: result["FMTCP:"]["rate"] > 0.2),
    ),
    duration_s=45.0,
)

VIDEO_RATE_BPS = 2.0e6


def _stream(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
    """A GOP-structured VBR video over the case-4 pair: codec-to-delivery
    latency percentiles (ms) and stall fractions at two playout buffers."""
    seed += 8  # the ledger's seed 9 at the default seed 1
    paths = table1_path_configs(TABLE1_CASES[3], scale.bandwidth_bps)
    trace, network, built = build_topology(paths, seed)
    source = VbrVideoSource(network.sim, mean_rate_bps=VIDEO_RATE_BPS, fps=25.0, seed=seed)
    collector = AppLatencyCollector(trace, source)
    # Every transport on its own default config, except MPTCP matched to
    # FMTCP's blocks; TCP rides path 0.
    config = default_mptcp_config(FmtcpConfig()) if protocol == "mptcp" else None
    connection = build_connection(
        protocol, network.sim, built[:1] if protocol == "tcp" else built,
        source, seed, trace, config=config,
    )
    source.attach(connection)
    connection.start()
    network.sim.run(until=scale.duration_s)
    return {
        **{f"p{q}": collector.percentile_latency_s(q) * 1e3 for q in (50, 95, 99)},
        "stall_300": collector.stall_fraction(0.3),
        "stall_800": collector.stall_fraction(0.8),
    }


STREAMING_QOE = Experiment(
    ledger="streaming_qoe",
    verb="motivation",
    title="Conclusion — streaming QoE: VBR video latency and stalls per transport",
    run=Grid(({},), ("tcp", "mptcp", "fixedrate", "fmtcp"), _stream, wide=False,
             then=_by("protocol")),
    caption=lambda scale: (
        f"{VIDEO_RATE_BPS / 1e6:.1f} Mbit/s VBR video over case 4 paths, "
        f"{scale.duration_s:.0f}s (codec-to-delivery latency)\n"
        f"{'transport':>10} {'p50':>8} {'p95':>8} {'p99':>8} "
        f"{'stall@300ms':>12} {'stall@800ms':>12}"
    ),
    line=(
        "{protocol:>10} {p50:>6.0f}ms {p95:>6.0f}ms {p99:>6.0f}ms "
        "{stall_300:>11.1%} {stall_800:>11.1%}"
    ),
    rows=lambda result: list(result.values()),
    shape_checks=(
        # Against the other multipath transport only: single-path TCP on
        # the clean path keeps the shortest tail (EXPERIMENTS.md).
        ("FMTCP's p95 latency below MPTCP's",
         lambda result, scale: result["fmtcp"]["p95"] < result["mptcp"]["p95"]),
        ("FMTCP stalls at an 800 ms buffer no more often than MPTCP", lambda result, scale: (
            result["fmtcp"]["stall_800"] <= result["mptcp"]["stall_800"])),
        # Runs under 30 s weigh the slow-start transient more.
        ("FMTCP stalls < 5 % at an 800 ms buffer (10 % below 30 s)", lambda result, scale: (
            result["fmtcp"]["stall_800"] < (0.05 if scale.duration_s >= 30.0 else 0.10))),
    ),
    duration_s=40.0,
)


# ----------------------------------------------------------------------
# Robustness probes (ours): every point is the mean of three seeds from
# ``scale.seed`` on, measured by the probes the soak harnesses export.
# ----------------------------------------------------------------------
BASE_LOSS = 0.05
ROBUSTNESS_SEEDS = 3


def _robustness(caption: str, grid: Grid, tail: str = "", **fields: Any) -> Experiment:
    """A robustness entry: ``grid`` runs it, and its caption names the seeds."""
    return Experiment(
        verb="robustness",
        run=grid,
        caption=lambda scale: f"{caption}, seeds {grid.seeds_at(scale)} (mean):{tail}",
        **fields,
    )


def _fault_response(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
    """Through scenario ``point["scenario"]`` on 5 %-loss paths: goodput
    retention through the fault window, goodput after it settles and the
    time to recover. No run ends before :meth:`FaultScenario.run_length`."""
    scenario = FaultScenario.named(point["scenario"])
    run = measure_fault_response(
        protocol, scenario, seed=seed, base_loss=BASE_LOSS,
        duration_s=scenario.run_length(scale.duration_s),
    )
    return {
        "retention": run.retention,
        "post": run.post_mbps,
        # A run that never recovers scores the full post-heal window.
        "recovery": (
            run.duration_s - scenario.heal_time if run.recovery_s is None else run.recovery_s
        ),
    }


def _fault_grid(names: Sequence[str]) -> Grid:
    return Grid(
        tuple({"scenario": name} for name in sorted(names)), PAIR, _fault_response,
        seeds=ROBUSTNESS_SEEDS, then=_by("scenario"),
    )


def _retention_columns(name_width: int) -> Tuple[Column, ...]:
    return (
        Column("scenario", name_width, lambda row: row["scenario"]),
        Column("FMTCP ret", 10, lambda row: row["fmtcp_retention"], ".3f"),
        Column("MPTCP ret", 10, lambda row: row["mptcp_retention"], ".3f"),
    )


def _retains_more(name: str) -> Check:
    return (f"through {name} FMTCP retains more goodput than MPTCP", lambda rows, scale: (
        rows[name]["fmtcp_retention"] > rows[name]["mptcp_retention"]))


def _delivers_after(what: str) -> Check:
    return (f"both protocols deliver after {what}", lambda rows, scale: all(
        row[f"{protocol}_post"] > 0 for row in rows.values() for protocol in PAIR))


FAULT_RESPONSE = _robustness(
    f"Goodput through a 10 s fault window, {BASE_LOSS:.0%} base loss",
    _fault_grid(SCENARIOS),
    ledger="fault_response",
    title="Robustness — goodput retention and recovery through link faults",
    columns=_retention_columns(20) + (
        Column("FMTCP rec(s)", 13, lambda row: row["fmtcp_recovery"], ".1f"),
        Column("MPTCP rec(s)", 13, lambda row: row["mptcp_recovery"], ".1f"),
    ),
    rows=lambda rows: list(rows.values()),
    shape_checks=(
        _retains_more("link_flap"),
        _retains_more("path_death"),
        _delivers_after("every fault heals"),
    ),
    duration_s=40.0,
)

CHURN_RESPONSE = _robustness(
    f"Goodput through subflow churn, {BASE_LOSS:.0%} base loss",
    _fault_grid(MOBILITY_SCENARIOS),
    ledger="churn_response",
    title="Robustness — goodput through subflow churn (handover, flap, permanent loss)",
    columns=_retention_columns(24) + (
        Column("FMTCP post", 11, lambda row: row["fmtcp_post"], ".3f"),
        Column("MPTCP post", 11, lambda row: row["mptcp_post"], ".3f"),
    ),
    rows=lambda rows: list(rows.values()),
    # Graceful degradation: whatever was removed, the survivors deliver.
    shape_checks=(_delivers_after("every churn settles"),),
    duration_s=40.0,
)

CORRUPTION_GOODPUT = _robustness(
    "Goodput (Mb/s) vs per-link corruption rate",
    Grid(
        tuple({"rate": rate} for rate in (0.0, 0.01, 0.02, 0.05)), PAIR,
        lambda protocol, point, scale, seed: {"goodput": measure_corruption_goodput(
            protocol, point["rate"], seed=seed, duration_s=scale.duration_s
        )},
        seeds=ROBUSTNESS_SEEDS,
    ),
    ledger="corruption_goodput",
    title="Robustness — goodput vs per-link corruption rate",
    columns=(
        Column("rate", 6, lambda row: row["rate"], ".2f"),
        Column("fmtcp", 9, lambda row: row["fmtcp_goodput"], ".3f"),
        Column("mptcp", 9, lambda row: row["mptcp_goodput"], ".3f"),
    ),
    shape_checks=(
        ("both protocols still deliver at 5 % corruption", lambda rows, scale: all(
            rows[-1][f"{protocol}_goodput"] > 0 for protocol in PAIR)),
        # Not "the clean run is the best case": MPTCP's mean rises from
        # 0 % to 1 % corruption (EXPERIMENTS.md).
        ("clean goodput is at least the goodput at 5 % corruption", lambda rows, scale: all(
            rows[0][f"{protocol}_goodput"] >= rows[-1][f"{protocol}_goodput"]
            for protocol in PAIR)),
    ),
    duration_s=20.0,
)


def _bufferblock(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
    run = measure_bufferblock(protocol, point["budget"], seed=seed, duration_s=scale.duration_s)
    return {
        "goodput": run["goodput_mbytes_per_s"],
        "within_budget": run["peak_occupancy"] <= run["budget_units"],
    }


def _round(rows: List[Dict[str, Any]], digits: int, key: str) -> List[Dict[str, Any]]:
    """Round each protocol's ``key`` in every row, as the ledger prints it."""
    for row in rows:
        for protocol in PAIR:
            row[f"{protocol}_{key}"] = round(row[f"{protocol}_{key}"], digits)
    return rows


BUFFERBLOCK_SWEEP = _robustness(
    "Goodput (MB/s) vs receive-buffer budget, flow control on",
    Grid(
        tuple({"budget": budget} for budget in (16_384, 32_768, 65_536, 131_072)), PAIR,
        _bufferblock, seeds=ROBUSTNESS_SEEDS, reduce={"within_budget": all},
        then=lambda rows: _round(rows, 4, "goodput"),
    ),
    tail=f"\npaths {BUFFERBLOCK_PATHS}",
    ledger="bufferblock_sweep",
    title="Section II — goodput vs receive-buffer budget (buffer blocking)",
    columns=(
        Column("budget", 8, lambda row: row["budget"]),
        Column("fmtcp", 9, lambda row: row["fmtcp_goodput"], ".4f"),
        Column("mptcp", 9, lambda row: row["mptcp_goodput"], ".4f"),
    ),
    footer=lambda rows: [
        f"{protocol}: retains "
        f"{rows[0][f'{protocol}_goodput'] / max(rows[-1][f'{protocol}_goodput'], 1e-9):.1%} "
        f"of large-buffer goodput at {rows[0]['budget'] // 1024} KiB"
        for protocol in PAIR
    ],
    shape_checks=(
        # The paper's Section II claim at its sharpest point.
        ("at the 16 KiB budget FMTCP beats MPTCP",
         lambda rows, scale: rows[0]["fmtcp_goodput"] > rows[0]["mptcp_goodput"]),
        ("both stacks stay within their licensed receive units", lambda rows, scale: all(
            row[f"{protocol}_within_budget"] for row in rows for protocol in PAIR)),
    ),
    duration_s=60.0,
)


def _recovery(protocol: str, point: Dict[str, Any], scale: Scale, seed: int) -> Dict:
    """Through crash preset ``point["preset"]``: goodput retention (clean /
    crashed completion time), the longest outage and the sender checkpoint
    size."""
    run = measure_recovery(
        protocol, FaultScenario.named(point["preset"]), seed=seed, duration_s=scale.duration_s
    )
    return {
        "retention": run["goodput_retention"],
        "outage": run["max_outage_s"],
        "checkpoint": run["checkpoint_bytes"],
        "violations": run["violations"],
    }


def _recovery_rows(rows: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return _by("preset")(_round(_round(rows, 4, "retention"), 3, "outage"))


RECOVERY_RESPONSE = _robustness(
    "Goodput retention (clean/crashed completion time) per crash preset",
    Grid(
        tuple({"preset": preset} for preset in ("receiver_crash", "sender_crash", "crash_storm")),
        PAIR, _recovery, seeds=ROBUSTNESS_SEEDS,
        reduce={"outage": max, "checkpoint": max, "violations": sum},
        then=_recovery_rows,
    ),
    tail=(
        f"\n{'preset':>16}  {'fmtcp retain':>14}  {'mptcp retain':>14}  "
        f"{'outage(s)':>10}  {'ckpt fm/mp (B)':>14}"
    ),
    ledger="recovery_response",
    title="Robustness — goodput retention and checkpoint size through endpoint crashes",
    line=(
        "{preset:>16}  {fmtcp_retention:>14.4f}  {mptcp_retention:>14.4f}  "
        "{fmtcp_outage:>10.2f}  {fmtcp_checkpoint:>6}/{mptcp_checkpoint}"
    ),
    rows=lambda rows: list(rows.values()),
    shape_checks=(
        ("no crash or baseline run violates an invariant", lambda rows, scale: all(
            row[f"{protocol}_violations"] == 0 for row in rows.values() for protocol in PAIR)),
        # Ratelessness at its sharpest: losing the receiver (and every
        # partial decode matrix) costs FMTCP no more than chunk-map
        # replay costs MPTCP.
        ("under receiver_crash FMTCP retains at least MPTCP's goodput", lambda rows, scale: (
            rows["receiver_crash"]["fmtcp_retention"]
            >= rows["receiver_crash"]["mptcp_retention"])),
    ),
    duration_s=60.0,
)

#: Channel family -> the trace riding path 1 (``None``: the clean baseline).
TRACE_FAMILIES = {
    "baseline": None, "gprs": "gprs:1", "leo": "leo:1", "incast": "incast:1",
    "cellular": "cellular_drive", "wifi": "wifi_walk",
}


def _trace_rows(rows: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Round both goodputs, then take their ratio."""
    for row in _round(rows, 4, "goodput"):
        mptcp = row["mptcp_goodput"]
        row["ratio"] = round(row["fmtcp_goodput"] / mptcp, 4) if mptcp else float("inf")
    return _by("family")(rows)


TRACE_RESPONSE = _robustness(
    "Goodput (Mb/s) with the trace riding path 1",
    Grid(
        tuple({"family": family} for family in TRACE_FAMILIES), PAIR,
        lambda protocol, point, scale, seed: {"goodput": measure_trace_goodput(
            protocol, TRACE_FAMILIES[point["family"]], seed=seed, duration_s=scale.duration_s
        )},
        seeds=ROBUSTNESS_SEEDS, then=_trace_rows,
    ),
    ledger="trace_response",
    title="Robustness — FMTCP vs MPTCP goodput with a channel trace riding path 1",
    columns=(
        Column("family", 10, lambda row: row["family"]),
        Column("fmtcp", 9, lambda row: row["fmtcp_goodput"], ".4f"),
        Column("mptcp", 9, lambda row: row["mptcp_goodput"], ".4f"),
        Column("fm/mp", 7, lambda row: row["ratio"], ".3f"),
    ),
    rows=lambda rows: list(rows.values()),
    shape_checks=(
        # Where the related work expects fountain coding to gain most: a
        # slow bursty link whose fades MPTCP's retransmissions chase.
        ("on the GPRS-like trace FMTCP's goodput is at least MPTCP's",
         lambda rows, scale: rows["gprs"]["ratio"] >= 1.0),
    ),
    duration_s=20.0,
)


#: Every entry, in EXPERIMENTS.md order.
CATALOG: Tuple[Experiment, ...] = (
    TABLE1,
    FIG3,
    figure4(0.25),
    figure4(0.35),
    FIG5,
    FIG6,
    FIG7,
    ANALYSIS_FIXED_RATE,
    ANALYSIS_FOUNTAIN,
    ANALYSIS_SEDT,
    ANALYSIS_THEOREM2,
    ANALYSIS_THEOREM3,
    MOTIVATION,
    fairness(),
    HEATMAP,
    SENSITIVITY_LOSS,
    SENSITIVITY_BANDWIDTH,
    SENSITIVITY_DELAY,
    ABLATION_ALLOCATION,
    ABLATION_DELTA_HAT,
    ABLATION_BLOCK_SIZE,
    ABLATION_CONGESTION,
    ABLATION_BUFFER_SIZE,
    ABLATION_MPTCP_SCHEDULER,
    STREAMING_QOE,
    FIXEDRATE_P_HAT_SWEEP,
    FIXEDRATE_BLACKOUT,
    FAULT_RESPONSE,
    CHURN_RESPONSE,
    CORRUPTION_GOODPUT,
    BUFFERBLOCK_SWEEP,
    RECOVERY_RESPONSE,
    TRACE_RESPONSE,
)

#: CLI verb -> its help line; each entry's ``verb`` is one of these.
VERBS: Dict[str, str] = {
    "table1": "Table I: configured vs measured paths",
    "fig3": "goodput sweep",
    "fig4": "loss-surge time series",
    "fig5": "block delay sweep",
    "fig6": "block jitter sweep",
    "fig7": "per-block delay series",
    "analysis": "closed-form results vs Monte-Carlo",
    "motivation": "FMTCP vs conventional TCP, MPTCP, fixed-rate FEC; streaming",
    "fairness": "shared-bottleneck TCP-friendliness",
    "heatmap": "loss x buffer advantage map",
    "sensitivity": "loss/bandwidth/delay sweeps",
    "ablations": "one design decision at a time (ours)",
    "robustness": "faults, churn, corruption, buffers, crashes, traces (ours)",
}


def experiments_of(verb: str) -> List[Experiment]:
    """The catalog entries a CLI verb prints, in catalog order."""
    return [experiment for experiment in CATALOG if experiment.verb == verb]
