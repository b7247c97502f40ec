"""Application traffic sources.

A source answers ``pull(max_bytes)`` with how much data it can hand the
transport right now: an ``int`` (synthetic bytes — the default, nothing is
materialised), a ``bytes`` object (real payload, for end-to-end
correctness tests), or ``0``/``None`` (app-limited / finished). Asking for
0 bytes is legal ("nothing now"); a negative request is a ``ValueError``.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from repro.sim.engine import Simulator

PullResult = Union[int, bytes, None]


class BulkSource:
    """A backlogged sender: always has data, up to an optional total."""

    def __init__(self, total_bytes: Optional[int] = None):
        if total_bytes is not None and total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        self.total_bytes = total_bytes
        self.pulled_bytes = 0

    def pull(self, max_bytes: int) -> PullResult:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if self.total_bytes is None:
            self.pulled_bytes += max_bytes
            return max_bytes
        remaining = self.total_bytes - self.pulled_bytes
        if remaining <= 0:
            return 0
        granted = min(max_bytes, remaining)
        self.pulled_bytes += granted
        return granted


class RandomPayloadSource:
    """Finite source producing real random bytes (for real-coding tests).

    Keeps a transcript of everything handed out so a test can compare the
    receiver's reassembled stream byte-for-byte.
    """

    def __init__(self, total_bytes: int, rng: Optional[random.Random] = None):
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        self._rng = rng or random.Random(0)
        self.total_bytes = total_bytes
        self.pulled_bytes = 0
        self.transcript = bytearray()

    def pull(self, max_bytes: int) -> PullResult:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        remaining = self.total_bytes - self.pulled_bytes
        if remaining <= 0:
            return None
        granted = min(max_bytes, remaining)
        # One draw per grant, byte for byte what getrandbits(8) per byte
        # gives: that is the top byte of one 32-bit Mersenne output, and
        # getrandbits(32 * n) lays n outputs down least significant first
        # (tests/test_workloads.py holds an interpreter to it).
        words = self._rng.getrandbits(32 * granted)
        payload = words.to_bytes(4 * granted, "little")[3::4]
        self.pulled_bytes += granted
        self.transcript.extend(payload)
        return payload


class ReplayableSource:
    """Wraps a source so a crash-restarted sender can re-pull committed data.

    The recovery layer's epoch model rebuilds a sender from its last
    durable checkpoint, which may sit *behind* the stream position the
    inner source has already granted. This wrapper records every grant;
    :meth:`rewind` moves the read position back to a stream offset so
    subsequent pulls re-serve the recorded region — byte-identically in
    bytes mode, count-identically in int mode — before delegating to the
    inner source for fresh data again.

    Replay offsets are only meaningful at grant boundaries; since both
    stacks pull fixed-size units mid-stream (``block_bytes`` blocks,
    ``mss`` chunks), checkpointed offsets always are. One reader at a
    time: the epoch model tears the old connection down before the new
    one pulls.
    """

    def __init__(self, inner):
        self.inner = inner
        self._record = bytearray()  # grant transcript (bytes mode only)
        self._bytes_mode: Optional[bool] = None
        self.granted_bytes = 0  # unique stream bytes granted by inner
        self._position = 0  # next stream offset served to the reader
        self.rewinds = 0
        self.replayed_bytes = 0

    @property
    def transcript(self):
        """The inner source's transcript, if it keeps one."""
        return getattr(self.inner, "transcript", None)

    def pull(self, max_bytes: int) -> PullResult:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if self._position < self.granted_bytes:
            take = min(max_bytes, self.granted_bytes - self._position)
            start = self._position
            self._position += take
            self.replayed_bytes += take
            if self._bytes_mode:
                return bytes(self._record[start : start + take])
            return take
        pulled = self.inner.pull(max_bytes)
        if not pulled:
            return pulled
        if isinstance(pulled, bytes):
            if self._bytes_mode is False:
                raise TypeError("inner source switched from int to bytes grants")
            self._bytes_mode = True
            self._record.extend(pulled)
            self.granted_bytes += len(pulled)
        else:
            if self._bytes_mode:
                raise TypeError("inner source switched from bytes to int grants")
            self._bytes_mode = False
            self.granted_bytes += int(pulled)
        self._position = self.granted_bytes
        return pulled

    def rewind(self, offset: int) -> None:
        """Move the read position back to stream ``offset``."""
        if not 0 <= offset <= self.granted_bytes:
            raise ValueError(
                f"rewind offset {offset} outside granted range "
                f"[0, {self.granted_bytes}]"
            )
        self._position = offset
        self.rewinds += 1


class CbrSource:
    """Constant-bit-rate source (the paper's multimedia-streaming workload).

    Credit accrues continuously at ``rate_bps`` from t = 0 and never runs
    out; ``pull`` grants at most the accrued credit. Because a CBR source
    can go from empty to ready while the transport is idle, it must be
    attached to the connection so it can re-offer transmission
    opportunities every ``WAKE_INTERVAL_S``.
    """

    WAKE_INTERVAL_S = 0.01

    def __init__(self, sim: Simulator, rate_bps: float):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.pulled_bytes = 0
        self._connection = None
        self._wakeup_scheduled = False

    def attach(self, connection) -> None:
        """Register the connection to wake as credit accrues."""
        self._connection = connection
        self._schedule_wakeup()

    def _schedule_wakeup(self) -> None:
        if self._wakeup_scheduled or self._connection is None:
            return
        self._wakeup_scheduled = True
        self.sim.schedule(self.WAKE_INTERVAL_S, self._wake)

    def _wake(self) -> None:
        self._wakeup_scheduled = False
        if self._connection is not None:
            self._connection.pump()
        self._schedule_wakeup()

    def pull(self, max_bytes: int) -> PullResult:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        available = int(self.sim.now * self.rate_bps / 8.0) - self.pulled_bytes
        if available <= 0:
            return 0
        granted = min(max_bytes, available)
        self.pulled_bytes += granted
        return granted
