"""Robustness layer: flow control, bounded memory, watchdogs, soaks.

The primitives (``flowcontrol``, ``budget``, ``watchdog``) are
dependency-free — the core FMTCP/MPTCP stacks import
:class:`ReceiveWindow`/:class:`WindowGate` from here on their own hot
path, so this package must not drag the connection classes in. The
exhaustion soak harness, which builds whole connections, is the module
:mod:`repro.robustness.exhaustion`; its presets are group
``"exhaustion"`` of :data:`repro.faults.scenario.PRESETS`.
"""

from repro.robustness.budget import MemoryBudget
from repro.robustness.flowcontrol import ReceiveWindow, WindowGate
from repro.robustness.watchdog import Watchdog, WatchdogConfig

__all__ = [
    "MemoryBudget",
    "ReceiveWindow",
    "Watchdog",
    "WatchdogConfig",
    "WindowGate",
]
