"""Robustness layer: flow control, bounded memory, watchdogs, soaks.

Split in two halves with different import weight:

* The *primitives* (``flowcontrol``, ``budget``, ``watchdog``) are
  dependency-free and imported eagerly — the core FMTCP/MPTCP stacks
  import :class:`ReceiveWindow`/:class:`WindowGate` from here on their
  own hot path, so this module must not drag the connection classes in.
* The *exhaustion harness* builds whole connections and therefore
  imports ``repro.core``/``repro.mptcp``; loading it eagerly would make
  the import graph circular (core → robustness → exhaustion → core).
  Its symbols resolve lazily via module ``__getattr__`` instead, so
  ``from repro.robustness import EXHAUSTION_SCENARIOS`` still works.
"""

from repro.robustness.budget import MemoryBudget
from repro.robustness.flowcontrol import ReceiveWindow, WindowGate
from repro.robustness.watchdog import Watchdog, WatchdogConfig

_EXHAUSTION_SYMBOLS = (
    "EXHAUSTION_SCENARIOS",
    "ExhaustionScenario",
)

__all__ = [
    "MemoryBudget",
    "ReceiveWindow",
    "Watchdog",
    "WatchdogConfig",
    "WindowGate",
    *_EXHAUSTION_SYMBOLS,
]


def __getattr__(name: str):
    if name in _EXHAUSTION_SYMBOLS:
        from repro.robustness import exhaustion

        return getattr(exhaustion, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
