"""Deterministic derivation of independent random streams.

A 64-bit seed and a replicate/task index are mixed through splitmix64 into
a stream key, so any schedule that assigns work by index reproduces the
serial results.  `uniforms`, the program's one source of randomness, is
output k of a key's splitmix64 stream, a pure function of the key and the
counter k (Salmon, Moraes, Dror and Shaw, SC 2011, on the mixer of Steele,
Lea and Flood, OOPSLA 2014): each task documents the counters it reads.
Every uint64 product runs on an array, where it wraps modulo 2^64
silently: on a numpy scalar it would warn.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_MASK = (1 << 64) - 1
# splitmix64's increment: output k of a key's stream mixes key + (k + 1) GAMMA
GAMMA = np.uint64(0x9E3779B97F4A7C15)
_PIECE = 1 << 14  # uniforms mixed per pass, so that a pass stays in cache
# the finalizer's shifts and multipliers, built once rather than per call
_S11, _S27, _S30, _S31, _M1, _M2 = map(np.uint64, (11, 27, 30, 31, 0xBF58476D1CE4E5B9,
                                                  0x94D049BB133111EB))


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 step of a uint64 array, in place: add gamma, then
    finalize."""
    z += GAMMA
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def check_seed(seed: int, *indices: int) -> None:
    """Refuse a seed or index outside [0, 2^64), naming it: masking would
    alias it with an in-range one."""
    for name, value in (("seed", seed), *(("index", i) for i in indices)):
        if not 0 <= value <= _MASK:
            raise ConfigurationError(f"stream {name} must lie in [0, 2^64), got {value}")


def derive_key(seed: int, index: int) -> int:
    """The stream key splitmix64(splitmix64(seed) ^ index gamma) of task
    `index` under `seed`."""
    return int(block_keys(seed, index, int(index) + 1)[0])


def block_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """uint64 keys of replicates start..stop-1 under `seed`, entry i - start
    being derive_key(seed, i); the seed and every index are checked before
    anything is allocated."""
    seed, start, stop = int(seed), int(start), int(stop)
    check_seed(seed, start, max(start, stop - 1))
    index = np.arange(max(0, stop - start), dtype=np.uint64) + np.uint64(start)
    index *= GAMMA
    index ^= _mix(np.array([seed], dtype=np.uint64))
    return _mix(index)


def skip(keys, counters) -> np.ndarray:
    """The uint64 keys + counters gamma, whose counter k is counter
    `counters` + k of `keys`; both broadcast to at least one dimension."""
    if isinstance(keys, int) and not 0 <= keys <= _MASK:  # a caller's key, named
        raise ConfigurationError(f"stream key must lie in [0, 2^64), got {keys}")
    counters = np.atleast_1d(np.asarray(counters, dtype=np.uint64))
    return counters * GAMMA + np.asarray(keys, dtype=np.uint64)


def uniforms(keys, k) -> np.ndarray:
    """Output k of the splitmix64 stream of each key, finalize(key + (k + 1)
    gamma) >> 11 times 2^-53, a uniform in [0, 1 - 2^-53]; keys and
    counters broadcast to at least one dimension.  Replicates that read at
    most K counters each share no state unless two keys lie within K
    gamma-steps of each other, which for R replicates has probability
    below R^2 K / 2^64."""
    z = skip(keys, k)
    out = np.empty(z.shape)
    z, flat = z.reshape(-1), out.reshape(-1)
    for i in range(0, z.size, _PIECE):
        part = _mix(z[i:i + _PIECE])
        part >>= _S11  # below 2^53: the signed view converts faster
        np.multiply(part.view(np.int64), 2.0 ** -53, out=flat[i:i + _PIECE])
    return out
