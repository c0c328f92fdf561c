"""Deterministic counter-based random number generation.

All stochastic routines in this package take an explicit integer seed and
use the Philox counter-based bit generator, so identical seeds give
identical streams regardless of scheduling, and parallel callers can
partition the stream space via ``stream``.
"""
from __future__ import annotations

import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Philox-backed generator for (seed, stream).

    Distinct ``stream`` values yield statistically independent streams for
    the same seed, which is how sample batches are partitioned across
    workers without losing reproducibility.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

