"""Geometry primitives: closed semantics, distances and clipping."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandense import ConfigurationError
from meandense.geometry import (
    Box,
    as_point,
    ball_volume,
    clipped_lengths,
    segment_distances,
)

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def dist_point_segment(x, a, b):
    """Distance from x to the one closed segment (a, b)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(segment_distances(np.asarray(x, dtype=float), a[None, :], b[None, :])[0])


def clip_length(a, b, box):
    """Scalar Liang-Barsky reference: the length of segment (a, b) inside
    the box, with the arithmetic of clipped_lengths."""
    d = b - a
    t0, t1 = 0.0, 1.0
    for k in range(box.dim):
        if d[k] == 0.0:
            if a[k] < box.lo[k] or a[k] > box.hi[k]:
                return 0.0
            continue
        # a subnormal d[k] overflows to ±inf, which max/min handle
        with np.errstate(over="ignore"):
            ta = (box.lo[k] - a[k]) / d[k]
            tb = (box.hi[k] - a[k]) / d[k]
        t0 = max(t0, min(ta, tb))
        t1 = min(t1, max(ta, tb))
    if t1 < t0:
        return 0.0
    return (t1 - t0) * np.linalg.norm(d[None, :], axis=1)[0]


def test_ball_volume_values():
    assert ball_volume(1) == 2.0
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


@pytest.mark.parametrize("k", [0, 4, -1])
def test_ball_volume_rejects_unsupported(k):
    with pytest.raises(ConfigurationError):
        ball_volume(k)


def test_as_point_validation():
    assert as_point(1.5).shape == (1,)
    with pytest.raises(ConfigurationError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ConfigurationError):
        as_point([1.0, 2.0], dim=3)
    with pytest.raises(ConfigurationError):
        as_point([1.0, float("nan")])
    with pytest.raises(ConfigurationError):
        as_point([1.0, 2.0, 3.0, 4.0])


def test_box_basics():
    box = Box([0.0, 0.0], [2.0, 3.0])
    assert box.dim == 2
    assert box.volume == pytest.approx(6.0)
    assert box.dilate(1.0).volume == pytest.approx(4.0 * 5.0)
    with pytest.raises(ConfigurationError):
        Box([1.0], [0.0])
    with pytest.raises(ConfigurationError):
        box.dilate(-0.1)


def test_box_contains_is_closed():
    box = Box([0.0, 0.0], [1.0, 1.0])
    inside = box.contains(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [1.0001, 0.5]]))
    assert inside.tolist() == [True, True, True, False]
    assert box.contains_box(Box([0.2, 0.2], [1.0, 1.0]))
    assert not box.contains_box(Box([0.2, 0.2], [1.1, 1.0]))


def test_box_corners_and_sample():
    box = Box([0.0, -1.0], [1.0, 1.0])
    corners = box.corners()
    assert corners.shape == (4, 2)
    rng = np.random.default_rng(0)
    samples = box.sample(rng.random((100, 2)))
    assert samples.shape == (100, 2)
    assert box.contains(samples).all()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_sample_draws_exactly_what_uniform_draws(d):
    """Box.sample maps uniforms to the values of Generator.uniform on
    them, the arithmetic that germ locations are placed with."""
    box = Box([-1.7, -0.3, 2.2][:d], [2.9, 1.1, 7.5][:d])
    for seed in range(3):
        expected = np.random.default_rng(seed).uniform(box.lo, box.hi, size=(5000, d))
        rng = np.random.default_rng(seed)
        assert np.array_equal(box.sample(rng.random((5000, d))), expected)
        # the stream is left where uniform leaves it
        assert rng.random() == np.random.default_rng(seed).random(5000 * d + 1)[-1]


def test_dist_point_segment_hand_values():
    a, b = [0.0, 0.0], [1.0, 0.0]
    assert dist_point_segment([0.5, 0.5], a, b) == pytest.approx(0.5)
    assert dist_point_segment([-1.0, 0.0], a, b) == pytest.approx(1.0)
    assert dist_point_segment([2.0, 0.0], a, b) == pytest.approx(1.0)
    assert dist_point_segment([0.25, 0.0], a, b) == 0.0
    # a degenerate segment
    assert dist_point_segment([1.0, 2.0], [1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)


@settings(max_examples=100)
@given(st.tuples(
    st.lists(coord, min_size=2, max_size=2),
    st.lists(coord, min_size=2, max_size=2),
    st.lists(coord, min_size=2, max_size=2),
))
def test_dist_symmetry_and_bounds(args):
    x, a, b = (np.array(v) for v in args)
    d1 = dist_point_segment(x, a, b)
    d2 = dist_point_segment(x, b, a)
    assert d1 == pytest.approx(d2, abs=1e-9)
    # the endpoint distances bound the segment distance from above
    assert d1 <= np.linalg.norm(x - a) + 1e-12
    assert d1 <= np.linalg.norm(x - b) + 1e-12
    assert d1 >= 0.0


@settings(max_examples=100)
@given(
    st.lists(coord, min_size=2, max_size=2),
    st.lists(coord, min_size=2, max_size=2),
    st.floats(0, 1, allow_nan=False),
)
def test_dist_zero_on_segment(a, b, t):
    a, b = np.array(a), np.array(b)
    x = a + t * (b - a)
    assert dist_point_segment(x, a, b) == pytest.approx(0.0, abs=1e-7)


@settings(max_examples=50)
@given(
    st.lists(st.tuples(
        st.lists(coord, min_size=2, max_size=2),
        st.lists(coord, min_size=2, max_size=2),
    ), min_size=1, max_size=8),
    st.lists(coord, min_size=2, max_size=2),
)
def test_vectorized_distances_match_scalar(segs, x):
    a = np.array([s[0] for s in segs])
    b = np.array([s[1] for s in segs])
    x = np.array(x)
    batch = segment_distances(x, a, b)
    for i, (ai, bi) in enumerate(segs):
        assert batch[i] == pytest.approx(dist_point_segment(x, ai, bi), abs=1e-9)
    # transpose orientation: m points against one segment
    many = segment_distances(a, x, x + np.array([1.0, 0.0]))
    for i in range(a.shape[0]):
        assert many[i] == pytest.approx(
            dist_point_segment(a[i], x, x + np.array([1.0, 0.0])), abs=1e-9
        )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_segment_distances_batch_equals_single_calls(d):
    """A batch of point sets against segments mixing proper and zero-length
    ones gives each set exactly the distances of a call with that set and
    segment alone, and each point exactly those of a one-point call; a
    zero-length segment's distances are np.linalg.norm's."""
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(4, 50, d))
    a = rng.normal(size=(4, 1, d))
    b = rng.normal(size=(4, 1, d))
    b[1] = a[1]
    batch = segment_distances(pts, a, b)
    for k in range(4):
        assert np.array_equal(batch[k], segment_distances(pts[k], a[k, 0], b[k, 0]))
        for i in range(0, 50, 7):
            assert batch[k, i] == segment_distances(pts[k, i], a[k], b[k])[0]
    assert np.array_equal(batch[1], np.linalg.norm(pts[1] - a[1], axis=1))
    # one point against rows mixing both kinds, as the hit kernel calls it
    rows_a, rows_b = a[:, 0], b[:, 0]
    one = segment_distances(pts[0, 0], rows_a, rows_b)
    assert one[1] == np.linalg.norm(rows_a[1:2] - pts[0, 0], axis=1)[0]


def test_clip_segment_box_hand_values():
    box = Box([0.0, 0.0], [1.0, 1.0])
    a = np.array([[-1.0, 0.5], [2.0, 2.0], [0.5, 0.5]])
    b = np.array([[2.0, 0.5], [3.0, 3.0], [0.5, 0.5]])
    # crossing, missing, and degenerate but inside
    assert clipped_lengths(a, b, box) == pytest.approx([1.0, 0.0, 0.0])
    assert clip_length(a[0], b[0], box) == pytest.approx(1.0)


box_strategy = st.tuples(
    st.lists(st.floats(-5, 4, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(0.1, 5, allow_nan=False), min_size=2, max_size=2),
).map(lambda t: Box(np.array(t[0]), np.array(t[0]) + np.array(t[1])))


@settings(max_examples=100)
@given(
    st.lists(coord, min_size=2, max_size=2),
    st.lists(coord, min_size=2, max_size=2),
    box_strategy,
)
def test_clipped_lengths_matches_scalar_clip(a, b, box):
    a, b = np.array(a), np.array(b)
    assert clipped_lengths(a[None, :], b[None, :], box)[0] == clip_length(a, b, box)


@settings(max_examples=200)
@given(st.integers(1, 3), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_clipped_lengths_batch_matches_scalar_clip(d, m, seed):
    """A batch with axis-parallel and subnormal directions and a start on a
    box corner: every length equals the scalar reference exactly, and no
    RuntimeWarning is raised."""
    rng = np.random.default_rng(seed)
    box = Box(rng.uniform(-2.0, 1.0, d), rng.uniform(1.0, 3.0, d))
    a = rng.uniform(-3.0, 4.0, (m, d))
    b = a + rng.uniform(-2.0, 2.0, (m, d))
    parallel = rng.random((m, d)) < 0.3
    b[parallel] = a[parallel]
    tiny = rng.random((m, d)) < 0.1
    a[tiny], b[tiny] = 0.0, 5e-324
    a[0] = box.lo
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = clipped_lengths(a, b, box)
    assert batch.tolist() == [clip_length(a[i], b[i], box) for i in range(m)]


@pytest.mark.parametrize("lo, hi, length", [
    ([-1.0, -1.0], [1.0, 1.0], 1.0),  # crosses the box
    ([1.0, -1.0], [2.0, 1.0], 0.0),   # misses it
])
def test_clip_subnormal_direction_is_silent(lo, hi, length):
    # (lo - a) / d with a subnormal direction component overflows to ±inf;
    # the clip must stay correct and raise no RuntimeWarning
    a, b = np.array([0.0, 0.0]), np.array([5e-324, 1.0])
    box = Box(lo, hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = clipped_lengths(a[None, :], b[None, :], box)[0]
    assert batch == pytest.approx(length)
    assert batch == clip_length(a, b, box)


def test_clipped_lengths_additive_across_partition():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=(50, 2))
    b = a + rng.uniform(-1, 1, size=(50, 2))
    whole = Box([-1.0, -1.0], [1.0, 1.0])
    left = Box([-1.0, -1.0], [0.0, 1.0])
    right = Box([0.0, -1.0], [1.0, 1.0])
    total = clipped_lengths(a, b, whole)
    split = clipped_lengths(a, b, left) + clipped_lengths(a, b, right)
    assert np.allclose(total, split, atol=1e-9)
