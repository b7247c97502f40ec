"""IETF-MPTCP baseline (the paper's comparison protocol).

A connection stripes connection-sequenced chunks over TCP subflows.
Reliability is retransmission-based and subflow-local (a chunk lost on a
subflow is retransmitted on that same subflow), and in-order delivery is
enforced by a bounded connection-level reorder buffer whose advertised
window throttles the sender — reproducing the receive-buffer head-of-line
blocking that makes a bad path the bottleneck of the whole connection
(the phenomenon FMTCP is designed to remove).
"""

from repro.mptcp.connection import MptcpConfig, MptcpConnection, conventional_tcp
from repro.mptcp.recv_buffer import ReorderBuffer
from repro.mptcp.scheduler import (
    make_scheduler,
)

__all__ = [
    "MptcpConfig",
    "MptcpConnection",
    "ReorderBuffer",
    "conventional_tcp",
    "make_scheduler",
]
