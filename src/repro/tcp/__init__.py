"""TCP subflow machinery shared by the IETF-MPTCP baseline and FMTCP.

* :mod:`repro.tcp.rto` — RFC 6298 retransmission-timeout estimation.
* :mod:`repro.tcp.congestion` — Reno/NewReno-style and LIA-coupled
  congestion control (packet-counted windows, as in ns-2).
* :mod:`repro.tcp.subflow` — a congestion-controlled, SACK-style
  loss-detecting packet channel over one network path. Retransmission
  *policy* is delegated to the owning connection: MPTCP re-sends the lost
  chunk, FMTCP sends fresh fountain symbols instead.
* :mod:`repro.tcp.multipath` — the transport skeleton: the config base,
  the one subflow builder and the subflow lifecycle both multipath
  protocols inherit.
"""

from repro.tcp.congestion import CongestionController, LiaGroup
from repro.tcp.rto import RtoEstimator
from repro.tcp.subflow import (
    Subflow,
    SubflowOwner,
    SubflowPacketInfo,
)

__all__ = [
    "CongestionController",
    "LiaGroup",
    "RtoEstimator",
    "Subflow",
    "SubflowOwner",
    "SubflowPacketInfo",
]
