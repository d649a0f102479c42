"""Deterministic derivation of independent random streams.

A 64-bit seed and a replicate/task index are mixed through splitmix64
(two finalization rounds) and the result keys a PCG64 generator.  The
derivation is a pure function of (seed, index), so any parallel schedule
that assigns work by index reproduces the serial results exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_key(seed: int, index: int) -> int:
    """64-bit stream key for replicate `index` under `seed`; both must lie
    in [0, 2^64), so that no two inputs alias one stream."""
    seed, index = int(seed), int(index)
    if not (0 <= seed <= _MASK and 0 <= index <= _MASK):
        name, value = ("index", index) if 0 <= seed <= _MASK else ("seed", seed)
        raise ConfigurationError(f"stream {name} must lie in [0, 2^64), got {value}")
    return _splitmix64(_splitmix64(seed) ^ ((index * _GOLDEN) & _MASK))


def derive_stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for replicate `index`; identical inputs give
    an identical stream."""
    return np.random.Generator(np.random.PCG64(derive_key(seed, index)))
