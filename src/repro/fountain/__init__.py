"""Fountain coding: the paper's Eq. (1)-(2) code, made concrete.

* :mod:`repro.fountain.gf2` — incremental Gaussian elimination over GF(2)
  with bitmask-integer rows.
* :mod:`repro.fountain.codec` — the random-linear fountain encoder and
  decoder operating on real bytes (used by examples, tests, and the
  ``coding="real"`` simulation mode).
* :mod:`repro.fountain.rank_model` — an exact O(1)-per-symbol statistical
  model of decoder rank evolution (the default, fast simulation mode; see
  DESIGN.md §3.2).
* :mod:`repro.fountain.soliton` / :mod:`repro.fountain.lt` — LT codes with
  ideal/robust Soliton degree distributions (extension beyond the paper's
  dense random-linear code).
"""

from repro.fountain.codec import (
    BlockDecoder,
    BlockEncoder,
    Symbol,
    SystematicBlockEncoder,
)
from repro.fountain.gf2 import Gf2Eliminator
from repro.fountain.lt import LtDecoder, LtEncoder
from repro.fountain.rank_model import (
    RankEvolutionModel,
    expected_overhead_symbols,
)
from repro.fountain.soliton import robust_soliton

__all__ = [
    "BlockDecoder",
    "BlockEncoder",
    "Gf2Eliminator",
    "LtDecoder",
    "LtEncoder",
    "RankEvolutionModel",
    "Symbol",
    "SystematicBlockEncoder",
    "expected_overhead_symbols",
    "robust_soliton",
]
