"""Deterministic named random streams.

Every stochastic component draws from its own substream derived from a
base seed plus a label path, e.g. ``substream(seed, "apl-ens")``.
Streams depend only on (seed, path), never on execution order, so
components that draw from different streams can run in any order and
give identical results. A protocol's blocks run as one batch on one
stream, so a block's draws depend on its place in that batch.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _word(part):
    """Map a path element to a 64-bit integer, stable across platforms."""
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed, *path):
    """Independent generator for the stream named by (seed, *path)."""
    entropy = [int(seed) & _MASK64] + [_word(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def as_generator(seed_or_rng):
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if not isinstance(seed_or_rng, (int, np.integer)):
        raise TypeError(f"a seed is an integer or a Generator, not {seed_or_rng!r}")
    return substream(int(seed_or_rng))
