"""Deterministic seed derivation.

One master seed drives every random decision in an experiment. Sub-streams
are derived by hashing a purpose tag plus integer keys (round index, client
id, attempt number) into a SeedSequence, so results never depend on call
order, scheduling, or worker count.
"""
from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _seed_sequence(values: list[int]) -> np.random.SeedSequence:
    """SeedSequence(values) of ints in [0, 2**64), handed the little-endian
    uint32 words numpy would split them into: the same pool, built faster."""
    words = [w for v in values for w in ((v & 0xFFFFFFFF, v >> 32) if v >> 32 else (v,))]
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derive_seed(master_seed: int, *keys: int | str) -> int:
    """Derive a stable 63-bit sub-seed from a master seed and a key path."""
    entropy = [int(master_seed) & _MASK64] + [
        zlib.crc32(key.encode("utf-8")) if isinstance(key, str) else int(key) & _MASK64
        for key in keys
    ]
    high, low = _seed_sequence(entropy).generate_state(2, np.uint32).tolist()
    return (high << 31) | (low & 0x7FFFFFFF)


def rng_from(seed: int) -> np.random.Generator:
    """Generator of a (possibly negative) 64-bit seed: np.random.default_rng(seed % 2**64)."""
    return np.random.Generator(np.random.PCG64(_seed_sequence([int(seed) & _MASK64])))


def derive_rng(master_seed: int, *keys: int | str) -> np.random.Generator:
    """Generator for the sub-stream named by the key path."""
    return rng_from(derive_seed(master_seed, *keys))
