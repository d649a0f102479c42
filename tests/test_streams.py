"""Stream derivation: keys are a pure function of an in-range (seed, index)."""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meandense
from meandense import (ConfigurationError, Grain, IntensityField, LengthLaw, MarkDistribution,
                       OrientationLaw, exact_density, sausage_integral)
from meandense.streams import block_keys, derive_key, uniforms

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


ENDS = st.sampled_from([0, 1, MASK]) | st.integers(0, MASK)


@settings(max_examples=200, deadline=None)
@given(ENDS, ENDS, st.integers(0, 40))
@example(seed=MASK, start=MASK - 3, size=4)
@example(seed=0, start=0, size=0)
def test_block_keys_are_the_derived_keys(seed, start, size):
    start = min(start, MASK + 1 - size)
    keys = block_keys(seed, start, start + size)
    assert keys.dtype == np.uint64 and keys.shape == (size,)
    for i in range(start, start + size):
        key = _splitmix64(_splitmix64(seed) ^ ((i * GOLDEN) & MASK))
        assert int(keys[i - start]) == derive_key(seed, i) == key


@pytest.mark.parametrize("seed, start, stop", [(0, MASK, MASK + 2), (0, -1, 3), (-1, 0, 3)])
def test_block_keys_refuse_a_range_past_the_last_key(seed, start, stop):
    name = "seed" if seed < 0 else "index"
    with pytest.raises(ConfigurationError, match=f"stream {name} must lie in"):
        block_keys(seed, start, stop)


@pytest.mark.parametrize("key", [0, 1, 12345, MASK])
def test_uniforms_are_splitmix64_outputs(key):
    """Output k of the splitmix64 stream started at the key, top 53 bits;
    a scalar key or counter wraps without a RuntimeWarning."""
    want = []
    for k in range(6):
        z = _splitmix64((key + k * GOLDEN) & MASK)
        want.append((z >> 11) * 2.0 ** -53)
    assert uniforms(np.uint64(key), np.arange(6)).tolist() == want
    assert uniforms(key, 5).tolist() == want[5:]
    keys = np.full((2, 1), key, dtype=np.uint64)
    assert uniforms(keys, np.arange(6)).tolist() == [want, want]
    assert 0.0 <= min(want) and max(want) <= 1.0 - 2.0 ** -53


@pytest.mark.parametrize("key", [-1, 2 ** 64])
def test_out_of_range_key_is_rejected(key):
    """A caller's key outside [0, 2^64) is refused by name, by uniforms
    and by every route that reads it, not wrapped or overflowed."""
    with pytest.raises(ConfigurationError, match="stream key must lie in"):
        uniforms(key, 0)
    q = MarkDistribution("segment", length=LengthLaw("fixed", value=1.0),
                         orientation=OrientationLaw("uniform", dim=2))
    with pytest.raises(ConfigurationError, match="stream key must lie in"):
        exact_density(IntensityField("quadratic"), q, [0.0, 0.0], mark_draws=10, key=key)
    with pytest.raises(ConfigurationError, match="stream key must lie in"):
        sausage_integral(Grain.polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
                         IntensityField("constant", c=1.0), 0.1, 100, key)


def test_uniforms_are_the_only_random_source():
    """No module of the package refers to numpy's generators, and no
    function takes a generator: every random number is read from
    streams.uniforms on a key."""
    package = Path(meandense.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        text = path.read_text()
        assert "np.random" not in text and "numpy.random" not in text, path.name
    for path in modules:
        module = importlib.import_module(f"meandense.{path.stem}".removesuffix(".__init__"))
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            assert "rng" not in inspect.signature(fn).parameters, name
