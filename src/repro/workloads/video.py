"""A variable-bit-rate video source.

The CBR source models the paper's "multimedia streaming" abstractly; real
codecs emit a group-of-pictures structure — large I-frames followed by
smaller P/B frames — whose burstiness stresses a transport's jitter
behaviour harder than CBR. This source synthesises that pattern
deterministically from a seed: frames arrive at the frame rate, sized by
frame type with mild pseudo-random variation, and accumulate into a pull
buffer exactly like :class:`~repro.workloads.sources.CbrSource`.
"""

from __future__ import annotations

import random
from typing import List, Union

from repro.sim.engine import Simulator

PullResult = Union[int, bytes, None]


class VbrVideoSource:
    """GOP-structured variable-bit-rate traffic, one frame every
    ``1 / fps`` seconds for as long as the run lasts.

    ``GOP_PATTERN`` is the string of frame types, one I-frame per 12;
    sizes derive from the target mean bit rate and the I/P/B weight
    ratios, each jittered uniformly by up to ``JITTER_FRACTION``.
    """

    FRAME_WEIGHTS = {"I": 5.0, "P": 1.0, "B": 0.6}
    GOP_PATTERN = "IPPBPPBPPBPP"
    JITTER_FRACTION = 0.2
    #: Frames per second.
    fps = 25.0

    def __init__(
        self,
        sim: Simulator,
        mean_rate_bps: float = 2.4e6,
        seed: int = 0,
    ):
        if mean_rate_bps <= 0:
            raise ValueError("mean_rate_bps must be positive")
        self.sim = sim
        self._rng = random.Random(seed)

        # Scale weights so the long-run average hits mean_rate_bps.
        pattern = self.GOP_PATTERN
        mean_weight = sum(self.FRAME_WEIGHTS[c] for c in pattern) / len(pattern)
        bytes_per_frame_mean = mean_rate_bps / 8.0 / self.fps
        self._unit_bytes = bytes_per_frame_mean / mean_weight

        self._frames_emitted = 0
        self._buffered_bytes = 0
        self.pulled_bytes = 0
        self.frame_sizes: List[int] = []  # emitted log (for tests/analysis)
        # (cumulative bytes, emit time) per frame, for creation_time_of.
        self._emit_log: List[tuple] = []
        self._cum_bytes = 0
        self._connection = None

    # ------------------------------------------------------------------
    # Frame generation at the frame clock.
    # ------------------------------------------------------------------
    def attach(self, connection) -> None:
        self._connection = connection
        self.sim.schedule(1.0 / self.fps, self._emit_frame)

    def _frame_type(self, index: int) -> str:
        return self.GOP_PATTERN[index % len(self.GOP_PATTERN)]

    def _frame_size(self, index: int) -> int:
        base = self._unit_bytes * self.FRAME_WEIGHTS[self._frame_type(index)]
        jitter = self.JITTER_FRACTION
        base *= 1.0 + self._rng.uniform(-jitter, jitter)
        return max(1, int(base))

    def _emit_frame(self) -> None:
        size = self._frame_size(self._frames_emitted)
        self._frames_emitted += 1
        self.frame_sizes.append(size)
        self._cum_bytes += size
        self._emit_log.append((self._cum_bytes, self.sim.now))
        self._buffered_bytes += size
        if self._connection is not None:
            self._connection.pump()
        self.sim.schedule(1.0 / self.fps, self._emit_frame)

    # ------------------------------------------------------------------
    # Transport pull interface.
    # ------------------------------------------------------------------
    def pull(self, max_bytes: int) -> PullResult:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if self._buffered_bytes <= 0:
            return 0
        granted = min(max_bytes, self._buffered_bytes)
        self._buffered_bytes -= granted
        self.pulled_bytes += granted
        return granted

    def creation_time_of(self, offset: int):
        """When the byte at stream ``offset`` was emitted by the codec."""
        import bisect

        index = bisect.bisect_right([cum for cum, __ in self._emit_log], offset)
        if index >= len(self._emit_log):
            return None
        return self._emit_log[index][1]
