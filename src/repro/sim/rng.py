"""Named, seeded random-number streams.

Every source of randomness in the simulator (arrival process, length
sampler, rate sampler, ...) draws from its own named stream derived
from one root seed.  Adding a new consumer therefore never perturbs
the draws seen by existing consumers, which keeps experiment outputs
stable across code changes.
"""

from __future__ import annotations

import zlib

import numpy as np


class RngStreams:
    """Factory of independent ``numpy.random.Generator`` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        if root_seed < 0:
            raise ValueError(f"root_seed must be non-negative, got {root_seed}")
        self._root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream seed mixes the root seed with a stable hash of the
        name (crc32, not Python's randomised ``hash``), so the mapping
        is identical across processes.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        if name not in self._streams:
            name_hash = zlib.crc32(name.encode("utf-8"))
            seed_seq = np.random.SeedSequence([self._root_seed, name_hash])
            self._streams[name] = np.random.default_rng(seed_seq)
        return self._streams[name]
