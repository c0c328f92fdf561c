"""Deterministic random number generation.

All stochastic routines in this package take an explicit integer seed, so
identical seeds give identical streams regardless of scheduling.  Two
generators serve them:

* ``chunk_rng`` draws the Monte-Carlo chunks: chunk i of seed s comes from
  an SFC64 generator seeded with child i of ``SeedSequence(s)``.  The chunk
  draw is most of the Monte-Carlo time, and SFC64 draws a normal in about
  0.75-0.8 of Philox's time (numpy 2.4, x86-64).
* ``make_rng`` draws everything else (alignment restarts, random measures,
  Barthe trials): the Philox counter-based generator keyed by
  (seed, stream).

Both mask the seed and the stream to 64 bits, so a negative seed such as
-1 is the same as 2**64 - 1.
"""
from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Philox-backed generator for (seed, stream).

    Distinct ``stream`` values yield statistically independent streams for
    the same seed.  Monte-Carlo chunks do not come from here: ``chunk_rng``
    draws each chunk from its index alone, which is why the split of chunks
    across workers does not change the draws.
    """
    key = np.array([np.uint64(seed & _MASK64), np.uint64(stream & _MASK64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    """Return the SFC64 generator that draws Monte-Carlo chunk ``chunk``.

    It is seeded with ``SeedSequence(seed).spawn(chunk + 1)[chunk]``, i.e.
    the spawn key (chunk,).  Passing (seed, chunk) as entropy instead would
    collide: ``SeedSequence((5, 1))`` equals ``SeedSequence((5 + 2**32, 0))``,
    because the entropy words are concatenated and zero-padded.
    """
    seq = np.random.SeedSequence(seed & _MASK64, spawn_key=(chunk & _MASK64,))
    return np.random.Generator(np.random.SFC64(seq))
