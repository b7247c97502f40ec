"""FMTCP — a Fountain Code-based Multipath TCP (ICDCS 2012), reproduced.

This package contains a complete, self-contained reproduction of the
paper's system and evaluation:

* :mod:`repro.core` — FMTCP itself: fountain-coded blocks, the
  δ-completeness predictor, and the Expected-Arriving-Time data
  allocator (Algorithm 1).
* :mod:`repro.mptcp` — the IETF-MPTCP baseline it is compared against.
* :mod:`repro.fountain` — random-linear and LT fountain codes over GF(2).
* :mod:`repro.tcp`, :mod:`repro.net`, :mod:`repro.sim` — the TCP subflow
  machinery, packet-level network substrate and discrete-event engine
  (the ns-2 stand-in).
* :mod:`repro.analysis` — the paper's closed-form results (Eqs. 3-7,
  10-13, 16-17).
* :mod:`repro.experiments` — :func:`run_transfer` and the catalog
  (:mod:`repro.experiments.catalog`) that regenerates every table and
  figure of Section V; also exposed via ``python -m repro``.

Quick start::

    from repro import run_transfer, table1_path_configs, TABLE1_CASES

    result = run_transfer(
        "fmtcp", table1_path_configs(TABLE1_CASES[3]), duration_s=30.0
    )
    print(result.summary)
"""

from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.experiments.runner import ExperimentResult, run_transfer
from repro.fixedrate.connection import FixedRateConfig, FixedRateConnection
from repro.fountain.codec import BlockDecoder, BlockEncoder, Symbol
from repro.mptcp.connection import MptcpConfig, MptcpConnection, conventional_tcp
from repro.net.topology import Network, Path, PathConfig, build_two_path_network
from repro.sim.engine import Simulator
from repro.workloads.scenarios import (
    TABLE1_CASES,
    TestCase,
    surge_path_configs,
    table1_path_configs,
)
from repro.workloads.sources import BulkSource, CbrSource

__version__ = "1.0.0"

__all__ = [
    "BlockDecoder",
    "BlockEncoder",
    "BulkSource",
    "CbrSource",
    "ExperimentResult",
    "FixedRateConfig",
    "FixedRateConnection",
    "FmtcpConfig",
    "FmtcpConnection",
    "MptcpConfig",
    "MptcpConnection",
    "Network",
    "Path",
    "PathConfig",
    "Simulator",
    "Symbol",
    "TABLE1_CASES",
    "TestCase",
    "__version__",
    "build_two_path_network",
    "conventional_tcp",
    "run_transfer",
    "surge_path_configs",
    "table1_path_configs",
]
