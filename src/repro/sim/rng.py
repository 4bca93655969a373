"""Named, seeded random streams.

Every source of randomness in a simulation draws from a stream obtained by
name from a single :class:`RngRegistry`.  Stream seeds are derived from the
registry seed and a stable hash of the stream name, so adding a new stream
never perturbs existing ones -- a standard reproducibility discipline for
parallel-systems simulators.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stable_name_entropy(name: str) -> int:
    """A 64-bit integer derived only from the stream name (not PYTHONHASHSEED)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Factory for independent, reproducible ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(_stable_name_entropy(name),))
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams
