"""Named, reproducible random-number streams.

Every stochastic component (per-link loss, per-block coding, workload
arrival jitter, ...) draws from its own named stream so that changing one
component's consumption pattern does not perturb any other component —
the standard trick for variance reduction and debuggability in
discrete-event simulation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngStreams:
    """A registry of independent :class:`random.Random` streams.

    Streams are derived from a master seed and a stream name via SHA-256,
    so ``RngStreams(7).get("loss:path0")`` is identical across runs and
    platforms and independent of creation order.

    ``epoch`` scopes the whole registry to a restart generation: epoch 0
    derives exactly the seed layout as before (byte-identical to the
    pre-epoch implementation), while epoch ``e > 0`` keys every stream as
    ``name#epoch{e}`` so an endpoint rebuilt after a crash neither
    replays nor collides with its pre-crash random stream. Components
    keep calling plain ``get(name)``; recovery hands them an epoch-scoped
    registry via :meth:`for_epoch`.
    """

    def __init__(self, master_seed: int = 0, epoch: int = 0) -> None:
        self.master_seed = int(master_seed)
        self.epoch = int(epoch)
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")
        self._streams: Dict[str, random.Random] = {}

    def _epoch_key(self, name: str) -> str:
        # Epoch 0 is the bare name: old seeds keep their exact streams.
        if self.epoch == 0:
            return name
        return f"{name}#epoch{self.epoch}"

    def _derive_seed(self, name: str) -> int:
        payload = f"{self.master_seed}:{self._epoch_key(name)}".encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big")

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(self._derive_seed(name))
            self._streams[name] = stream
        return stream

    def for_epoch(self, epoch: int) -> "RngStreams":
        """A registry view keyed to restart generation ``epoch``.

        ``for_epoch(0)`` reproduces this registry's own streams (fresh
        instances, same seeds); higher epochs get disjoint streams that
        are still fully determined by ``(master_seed, name, epoch)``.
        """
        if epoch == self.epoch:
            return self
        return RngStreams(self.master_seed, epoch=epoch)

    def fork(self, name: str) -> "RngStreams":
        """Derive a child registry (e.g. one per simulation replication)."""
        return RngStreams(self._derive_seed(f"fork:{name}"))
