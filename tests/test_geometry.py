"""Geometry primitives: closed semantics, distances and clipping."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandense import ConfigurationError
from meandense.geometry import (
    Ball,
    Box,
    SegmentShape,
    as_point,
    ball_volume,
    clip_segment_box,
    clipped_lengths,
    dist_point_segment,
    points_segment_distances,
    segment_distances,
)

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


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
    samples = box.sample(rng, 100)
    assert samples.shape == (100, 2)
    assert box.contains(samples).all()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_sample_draws_exactly_what_uniform_draws(d):
    """Box.sample keeps the stream and the values of Generator.uniform, so
    germ locations and every CSV built on them stay as they were."""
    box = Box([-1.7, -0.3, 2.2][:d], [2.9, 1.1, 7.5][:d])
    for seed in range(3):
        expected = np.random.default_rng(seed).uniform(box.lo, box.hi, size=(5000, d))
        rng = np.random.default_rng(seed)
        assert np.array_equal(box.sample(rng, 5000), expected)
        # the stream is left where uniform leaves it
        assert rng.random() == np.random.default_rng(seed).random(5000 * d + 1)[-1]


def test_ball_contains_is_closed():
    ball = Ball([0.0, 0.0], 1.0)
    assert ball.contains([[1.0, 0.0]])[0]
    assert not ball.contains([[1.0 + 1e-9, 0.0]])[0]
    bb = ball.bounding_box()
    assert np.allclose(bb.lo, [-1, -1]) and np.allclose(bb.hi, [1, 1])
    with pytest.raises(ConfigurationError):
        Ball([0.0], -1.0)


def test_dist_point_segment_hand_values():
    s = SegmentShape([0.0, 0.0], [1.0, 0.0])
    assert dist_point_segment([0.5, 0.5], s) == pytest.approx(0.5)
    assert dist_point_segment([-1.0, 0.0], s) == pytest.approx(1.0)
    assert dist_point_segment([2.0, 0.0], s) == pytest.approx(1.0)
    assert dist_point_segment([0.25, 0.0], s) == 0.0
    degenerate = SegmentShape([1.0, 1.0], [1.0, 1.0])
    assert dist_point_segment([1.0, 2.0], degenerate) == pytest.approx(1.0)


def test_dist_point_segment_dim_mismatch():
    with pytest.raises(ConfigurationError):
        dist_point_segment([0.0, 0.0, 0.0], SegmentShape([0.0, 0.0], [1.0, 0.0]))


@settings(max_examples=100)
@given(st.tuples(
    st.lists(coord, min_size=2, max_size=2),
    st.lists(coord, min_size=2, max_size=2),
    st.lists(coord, min_size=2, max_size=2),
))
def test_dist_symmetry_and_bounds(args):
    x, a, b = (np.array(v) for v in args)
    s1 = SegmentShape(a, b)
    s2 = SegmentShape(b, a)
    d1 = dist_point_segment(x, s1)
    d2 = dist_point_segment(x, s2)
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
    assert dist_point_segment(x, SegmentShape(a, b)) == pytest.approx(0.0, abs=1e-7)


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
        assert batch[i] == pytest.approx(
            dist_point_segment(x, SegmentShape(ai, bi)), abs=1e-9
        )
    # transpose orientation: m points against one segment
    many = points_segment_distances(a, x, x + np.array([1.0, 0.0]))
    seg = SegmentShape(x, x + np.array([1.0, 0.0]))
    for i in range(a.shape[0]):
        assert many[i] == pytest.approx(dist_point_segment(a[i], seg), abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_points_segment_distances_batch_equals_single_calls(d):
    """A batch mixing proper and zero-length segments gives each point set
    exactly the distances of a call with that set and segment alone."""
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(4, 50, d))
    a = rng.normal(size=(4, d))
    b = rng.normal(size=(4, d))
    b[1] = a[1]
    batch = points_segment_distances(pts, a, b)
    for k in range(4):
        assert np.array_equal(batch[k], points_segment_distances(pts[k], a[k], b[k]))
    assert np.array_equal(batch[1], np.linalg.norm(pts[1] - a[1], axis=1))


def test_clip_segment_box_hand_values():
    box = Box([0.0, 0.0], [1.0, 1.0])
    s = SegmentShape([-1.0, 0.5], [2.0, 0.5])
    clipped = clip_segment_box(s, box)
    assert clipped.length == pytest.approx(1.0)
    assert clip_segment_box(SegmentShape([2.0, 2.0], [3.0, 3.0]), box) is None
    # degenerate but inside
    inside = clip_segment_box(SegmentShape([0.5, 0.5], [0.5, 0.5]), box)
    assert inside is not None and inside.length == 0.0
    with pytest.raises(ConfigurationError):
        clip_segment_box(SegmentShape([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), box)


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
    batch = clipped_lengths(a[None, :], b[None, :], box)[0]
    clipped = clip_segment_box(SegmentShape(a, b), box)
    expected = 0.0 if clipped is None else clipped.length
    assert batch == pytest.approx(expected, abs=1e-9)


@settings(max_examples=50)
@given(
    st.lists(coord, min_size=2, max_size=2),
    st.lists(coord, min_size=2, max_size=2),
    box_strategy,
)
def test_clip_idempotent(a, b, box):
    first = clip_segment_box(SegmentShape(np.array(a), np.array(b)), box)
    if first is None:
        return
    # endpoint rounding may push a degenerate clip one ulp outside the box,
    # so a vanished second clip counts as length zero
    second = clip_segment_box(first, box)
    second_length = 0.0 if second is None else second.length
    assert second_length == pytest.approx(first.length, abs=1e-9)


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
        clipped = clip_segment_box(SegmentShape(a, b), box)
        batch = clipped_lengths(a[None, :], b[None, :], box)[0]
    assert (0.0 if clipped is None else clipped.length) == pytest.approx(length)
    assert batch == pytest.approx(length)


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
