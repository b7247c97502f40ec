"""FMTCP: the paper's primary contribution.

The sender (:mod:`repro.core.sender`) encodes application blocks with a
rateless fountain code and fills every subflow transmission opportunity
via the Expected-Arriving-Time data-allocation algorithm
(:mod:`repro.core.allocation`, the paper's Algorithm 1), gated by the
δ-completeness predictor (:mod:`repro.core.blocks`, Definitions 2-4 and
Eq. (8)). The receiver (:mod:`repro.core.receiver`) aggregates symbols
across subflows, reports per-block independent-symbol counts k̄ on every
ACK, and delivers decoded blocks in order. No payload is ever
retransmitted: losses merely re-raise a block's expected decoding-failure
probability, and fresh symbols flow to whichever subflow is expected to
deliver them first.

:class:`repro.core.connection.FmtcpConnection` wires the two halves over
a set of network paths.
"""

from repro.core.allocation import AllocationResult, allocate_packet
from repro.core.blocks import BlockManager, PendingBlock
from repro.core.config import FmtcpConfig
from repro.core.connection import FmtcpConnection
from repro.core.estimators import PathEstimate, eat, edt_for_flows, sedt

__all__ = [
    "AllocationResult",
    "BlockManager",
    "FmtcpConfig",
    "FmtcpConnection",
    "PathEstimate",
    "PendingBlock",
    "allocate_packet",
    "eat",
    "edt_for_flows",
    "sedt",
]
