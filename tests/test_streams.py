"""Stream derivation: keys are a pure function of an in-range (seed, index)."""

import pytest

from meandense import ConfigurationError
from meandense.streams import derive_key, derive_stream

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    z = (z + GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


@pytest.mark.parametrize("seed, index", [
    (0, 0), (5, 3), (42, 10 ** 6), (MASK, 0), (0, MASK), (MASK, MASK),
])
def test_valid_keys_are_unchanged(seed, index):
    assert derive_key(seed, index) == _splitmix64(_splitmix64(seed) ^ ((index * GOLDEN) & MASK))


@pytest.mark.parametrize("seed, index, name", [
    (-1, 0, "seed"), (2 ** 64 + 5, 3, "seed"), (2 ** 64, 0, "seed"),
    (5, -1, "index"), (5, 2 ** 64, "index"), (-1, -1, "seed"),
])
def test_out_of_range_seed_or_index_is_rejected(seed, index, name):
    """Masking would alias these with in-range inputs (-1 with 2^64 - 1,
    2^64 + 5 with 5): they are refused instead, naming the input."""
    with pytest.raises(ConfigurationError, match=f"stream {name} must lie in"):
        derive_key(seed, index)
    with pytest.raises(ConfigurationError, match=name):
        derive_stream(seed, index)
