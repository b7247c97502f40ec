"""EXPERIMENTS.md's measured tables, copied from the benchmark ledgers.

Each catalogued experiment (:mod:`repro.experiments.catalog`) writes its
rendered table to ``benchmarks/results/<ledger>.txt``. EXPERIMENTS.md
quotes a ledger between two markers, and only there::

    <!-- ledger: fig3_goodput -->
    ```text
    ...the ledger, byte for byte...
    ```
    <!-- /ledger -->

:func:`write_report` rewrites every marked block from the ledgers and
leaves the prose around them alone; with ``check=True`` it writes nothing
and names the blocks that differ. Exposed as ``python -m repro report``
(``--check``), which a tier-1 test and CI run, so a typed number cannot
drift from the ledger it claims to quote.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional

#: One marked block; ``name`` is the ledger's file stem.
MARKED_BLOCK = re.compile(
    r"(?P<open><!-- ledger: (?P<name>[a-z0-9_]+) -->\n)(?P<body>.*?)(?P<close><!-- /ledger -->)",
    re.DOTALL,
)


def collect_results(results_dir: Path) -> Dict[str, str]:
    """Read every ``<name>.txt`` saved by the benchmark harness."""
    results = {}
    if not results_dir.is_dir():
        return results
    for path in sorted(results_dir.glob("*.txt")):
        results[path.stem] = path.read_text().rstrip()
    return results


def quote(ledger: str) -> str:
    """A marked block's body for one ledger's text."""
    return f"```text\n{ledger}\n```\n"


def quoted_ledgers(document: str) -> Dict[str, str]:
    """Ledger name -> the body of its marked block in ``document``."""
    return {match["name"]: match["body"] for match in MARKED_BLOCK.finditer(document)}


def fill_ledgers(document: str, results: Dict[str, str]) -> str:
    """``document`` with every marked block replaced by its ledger."""

    def fill(match: "re.Match[str]") -> str:
        name = match["name"]
        if name not in results:
            raise ValueError(f"a marked block quotes ledger {name!r}, which has no results file")
        return match["open"] + quote(results[name]) + match["close"]

    return MARKED_BLOCK.sub(fill, document)


def stale_ledgers(document: str, results: Dict[str, str]) -> List[str]:
    """Names of the marked blocks that do not quote their ledger verbatim."""
    return [
        name
        for name, body in quoted_ledgers(document).items()
        if name not in results or body != quote(results[name])
    ]


def write_report(
    results_dir: Optional[Path] = None,
    output_path: Optional[Path] = None,
    check: bool = False,
) -> List[str]:
    """Refresh the marked blocks of ``output_path`` (EXPERIMENTS.md) from
    ``results_dir``; return the names of the blocks that were stale. With
    ``check`` nothing is written."""
    results_dir = results_dir or Path("benchmarks/results")
    output_path = output_path or Path("EXPERIMENTS.md")
    results = collect_results(results_dir)
    if not results:
        raise FileNotFoundError(
            f"no saved results in {results_dir}; run "
            "`pytest benchmarks/bench_experiments.py` first"
        )
    document = output_path.read_text()
    stale = stale_ledgers(document, results)
    if not check:
        output_path.write_text(fill_ledgers(document, results))
    return stale
