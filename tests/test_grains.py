"""Grain shapes, mark laws and the regularity certificate."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from meandense import (
    ConfigurationError,
    Grain,
    LengthLaw,
    MarkDistribution,
    OrientationLaw,
)
from meandense import grains
from meandense.geometry import Box, as_point, clipped_lengths, segment_distances
from meandense.grains import (
    line_integrals,
    mark_segments,
    sausage_integrals,
    sausage_moment_rule,
)
from meandense.exact import _mark_mean, capacity_grid, hitting_grid
from meandense.minkowski import _enlarged
from meandense.poisson import IntensityField
from meandense.streams import derive_key, skip, uniforms


class Field:
    """A field given by a vectorized function of an (m, d) point array."""

    def __init__(self, fn):
        self.values = fn


class ShiftedField:
    """The field f(x - .), as the exact routes integrated it before they
    took translated rows: integrating it over a grain anchored at the
    origin integrates f over x - Z.  It forwards f's statements on the
    reflected box and rows, and makes none that f does not make."""

    def __init__(self, f, x):
        self.values = lambda pts: f.values(x - np.atleast_2d(pts))
        if hasattr(f, "polynomial_on"):
            self.polynomial_on = lambda lo, hi: f.polynomial_on(x - hi, x - lo)
        if hasattr(f, "splits"):
            self.splits = lambda a, b: f.splits(x - a, x - b)


def grain_distance(g, x) -> float:
    """Distance from x to the grain anchored at the origin."""
    x = as_point(x, dim=g.dim)
    a, b = g.rows()
    return float(segment_distances(x, a, b).min())


# ---------------------------------------------------------------------------
# shapes


def test_point_grain():
    g = Grain.point(2)
    assert g.n == 0 and g.diameter == 0.0 and g.measure == 1.0
    assert grain_distance(g, [3.0, 4.0]) == pytest.approx(5.0)
    with pytest.raises(ConfigurationError):
        Grain.point(4)


def test_segment_grain():
    g = Grain.segment(2.0 * OrientationLaw("fixed", angle=math.pi / 2).fixed_direction())
    assert g.n == 1 and g.diameter == pytest.approx(2.0)
    assert np.allclose(g.vertices[1], [0.0, 2.0], atol=1e-12)
    assert g.measure == pytest.approx(2.0)
    assert grain_distance(g, [1.0, 1.0]) == pytest.approx(1.0)
    d = Grain.segment(3.0 * np.array([0.0, 4.0]) / 4.0)
    assert np.allclose(d.vertices[1], [0.0, 3.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lengths_whose_squares_overflow_are_finite():
    # np.linalg.norm squares the coordinates: 1e200 read inf, with an
    # overflow RuntimeWarning, in the diameter and in the measure
    assert Grain.segment([1e200, 0.0]).diameter == 1e200
    poly = Grain.polyline([[0.0, 0.0], [1e200, 0.0], [1e200, 1e200]])
    assert poly.measure == 2e200
    assert poly.diameter == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert Grain.polyline([[0.0, 0.0], [1e200, 0.0]]).measure == 1e200
    assert Grain.segment([1e300, 0.0, 0.0]).diameter == 1e300
    # the anchoring check squared the first vertex too
    for first in ([1e200, 0.0], [1e-200, 0.0]):
        with pytest.raises(ConfigurationError, match="anchored at the origin"):
            Grain.polyline([first, [1.0, 0.0]])


def test_polyline_grain():
    g = Grain.polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    assert g.measure == pytest.approx(3.0)
    assert g.diameter == pytest.approx(math.hypot(1.0, 2.0))
    assert grain_distance(g, [2.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        Grain.polyline([[1.0, 0.0], [2.0, 0.0]])  # not anchored at origin
    with pytest.raises(ConfigurationError):
        Grain.polyline([[0.0, 0.0]])


@settings(max_examples=50)
@given(st.lists(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2),
    min_size=1, max_size=10,
))
def test_grain_distances_matches_scalar(points):
    g = Grain.polyline([[0.0, 0.0], [1.0, 0.5], [0.5, 2.0]])
    pts = np.array(points)
    # one batched call: the points against every segment, then the nearest
    a, b = g.rows()
    batch = segment_distances(pts[None], a[:, None], b[:, None]).min(axis=0)
    for i in range(pts.shape[0]):
        assert batch[i] == pytest.approx(grain_distance(g, pts[i]), abs=1e-9)


# ---------------------------------------------------------------------------
# line integration


def quad_field(coeffs):
    a, b, c = coeffs

    def fn(pts):
        pts = np.atleast_2d(pts)
        return a + b * pts[:, 0] + c * pts[:, 0] ** 2 + pts[:, 1] ** 2

    return Field(fn)


def test_line_integral_matches_quad_oracle():
    a, b = Grain.segment(np.array([1.0, 1.0])).rows()
    f = quad_field((0.5, -1.0, 2.0))
    # parameterize: y(t) = t * (1, 1), speed sqrt(2)
    oracle, err = integrate.quad(
        lambda t: (0.5 - t + 2.0 * t ** 2 + t ** 2) * math.sqrt(2.0), 0.0, 1.0
    )
    assert line_integrals(a[None], b[None], f, 1)[0] == pytest.approx(oracle, abs=1e-10)


def test_line_integral_polyline_additive():
    a, b = Grain.polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]).rows()
    f = quad_field((1.0, 0.0, 1.0))
    sa, sb = Grain.segment(np.array([1.0, 0.0])).rows()
    leg1 = line_integrals(sa[None], sb[None], f, 1)[0]
    # second leg from (1,0) to (1,1): f = 1 + x^2 + y^2 = 2 + t^2 along it
    leg2, _ = integrate.quad(lambda t: 2.0 + t ** 2, 0.0, 1.0)
    assert line_integrals(a[None], b[None], f, 1)[0] == pytest.approx(leg1 + leg2, abs=1e-10)


def test_line_integral_point_grain_and_errors():
    """The kernel returns what the field gives and leaves the judging to
    its caller: NaN where a value is NaN, inf where one is inf, also on
    the empty pieces and the zero-length rows whose weight is 0, with no
    RuntimeWarning (exact._means refuses both, naming the grid point)."""
    a, b = Grain.point(2).rows()
    f = quad_field((3.0, 0.0, 0.0))
    assert line_integrals(a[None], b[None], f, 0)[0] == pytest.approx(3.0)
    bad = Field(lambda pts: np.full(np.atleast_2d(pts).shape[0], np.nan))
    assert np.isnan(line_integrals(a[None], b[None], bad, 0)).all()
    a, b = Grain.segment(np.array([1.0, 0.0])).rows()
    assert np.isnan(line_integrals(a[None], b[None], bad, 1)).all()
    # an affine field past the float range on the whole segment, cut at a
    # zero outside [0, 1]: one of its two pieces is empty
    overflow = IntensityField("affine", a=1.0, b=np.array([1e307, 0.0]))
    x = np.array([40.0, 0.0])
    assert line_integrals((x + a)[None], (x + b)[None], overflow, 1).tolist() == [np.inf]
    a, b = Grain.polyline([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]).rows()
    assert line_integrals((x + a)[None], (x + b)[None], overflow, 1).tolist() == [np.inf]


# ---------------------------------------------------------------------------
# length laws


def test_length_law_fixed():
    law = LengthLaw("fixed", value=1.5)
    assert law.l_max == 1.5
    assert law.moment(3) == pytest.approx(1.5 ** 3)
    rng = np.random.default_rng(0)
    assert np.all(law.sample(rng.random((10, 0))) == 1.5)
    with pytest.raises(ConfigurationError):
        LengthLaw("fixed", value=-1.0)


def test_length_law_uniform_moments_vs_quad():
    law = LengthLaw("uniform", lo=0.5, hi=1.5)
    for k in (1, 2, 3):
        oracle, _ = integrate.quad(lambda x: x ** k, 0.5, 1.5)
        assert law.moment(k) == pytest.approx(oracle, rel=1e-12)
    degenerate = LengthLaw("uniform", lo=1.0, hi=1.0)
    assert degenerate.moment(2) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        LengthLaw("uniform", lo=2.0, hi=1.0)


def test_length_law_trunc_exp_moments_vs_quad():
    law = LengthLaw("trunc_exp", rate=2.0, cap=3.0)
    z = 1.0 - math.exp(-2.0 * 3.0)
    for k in (1, 2, 3):
        oracle, _ = integrate.quad(lambda x: x ** k * 2.0 * math.exp(-2.0 * x) / z, 0.0, 3.0)
        assert law.moment(k) == pytest.approx(oracle, rel=1e-9)
    # default cap is the 0.9999 quantile
    auto = LengthLaw("trunc_exp", rate=2.0)
    assert auto.cap == pytest.approx(-math.log(1e-4) / 2.0)
    with pytest.raises(ConfigurationError):
        LengthLaw("trunc_exp", rate=0.0)
    with pytest.raises(ConfigurationError):
        LengthLaw("trunc_exp", rate=1.0, cap=-1.0)
    with pytest.raises(ConfigurationError, match="rate"):
        LengthLaw("trunc_exp", rate=math.nan)
    with pytest.raises(ConfigurationError, match="cap"):
        LengthLaw("trunc_exp", rate=1.0, cap=math.nan)


@pytest.mark.parametrize("rate", [1e-300, 1e-17])
def test_length_law_trunc_exp_moments_at_a_vanishing_rate(rate):
    """As rate * cap -> 0 the law tends to the uniform one on [0, cap], so
    E[L^k] -> cap^k / (k + 1); k!/rate^k P(k+1, z) / P(1, z) underflows
    there to 0, or to 0 / 0."""
    for cap in (1.0, 3.0):
        law = LengthLaw("trunc_exp", rate=rate, cap=cap)
        for k in (1, 2, 3):
            assert law.moment(k) == pytest.approx(cap ** k / (k + 1), rel=1e-14)


def _scipy_trunc_exp_moment(rate, cap, k):
    """E[L^k] of the truncated exponential law as 0.6.1 computed it with
    scipy.special: Kummer's 1F1 below z = rate cap = 1, the regularized
    incomplete gamma ratio above."""
    z = rate * cap
    if z < 1.0:
        return cap ** k * special.hyp1f1(k + 1, k + 2, -z) / ((k + 1) * special.exprel(-z))
    return math.factorial(k) / rate ** k * special.gammainc(k + 1, z) / special.gammainc(1, z)


def test_length_law_trunc_exp_moments_match_the_former_scipy_formula():
    """The moments from math alone lie within 5e-15 relative of scipy's
    for k = 1, 2, 3 and z = rate cap from 1e-300 to 1e6, on both sides of
    the switch at z = 3 and of z = 40."""
    zs = np.concatenate([np.logspace(-300, 6, 1500), np.linspace(2.5, 3.5, 101),
                         np.linspace(35.0, 45.0, 101),
                         [np.nextafter(3.0, 0.0), 3.0, np.nextafter(3.0, 4.0)]])
    worst = 0.0
    for z in zs:
        for cap in (1.0, 1.5):
            law = LengthLaw("trunc_exp", rate=z / cap, cap=cap)
            for k in (1, 2, 3):
                ref = _scipy_trunc_exp_moment(law.rate, cap, k)
                worst = max(worst, abs(law.moment(k) - ref) / ref)
    assert worst <= 5e-15


def test_length_law_samples_match_first_moment():
    rng = np.random.default_rng(42)
    for law in (
        LengthLaw("uniform", lo=0.5, hi=1.5),
        LengthLaw("trunc_exp", rate=1.0, cap=4.0),
    ):
        draws = law.sample(rng.random((200_000, 1)))
        assert draws.max() <= law.l_max + 1e-12
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - law.moment(1)) < 4 * se


def test_unknown_length_law():
    with pytest.raises(ConfigurationError):
        LengthLaw("gamma")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mark_laws_refuse_non_finite_parameters_by_name(value):
    """A non-finite parameter is refused by name, whatever the law's kind:
    a NaN angle would otherwise make the estimators count no hit at all."""
    for name in ("value", "lo", "hi", "rate"):
        with pytest.raises(ConfigurationError, match=f"length law {name} must be finite"):
            LengthLaw("fixed", **{name: value})
    for name in ("angle", "polar", "azimuth"):
        with pytest.raises(ConfigurationError, match=f"orientation law {name} must be finite"):
            OrientationLaw("fixed", dim=3, **{name: value})


# ---------------------------------------------------------------------------
# orientation laws


def test_orientation_fixed_directions():
    assert np.allclose(OrientationLaw("fixed", dim=2, angle=0.0).fixed_direction(), [1, 0])
    assert np.allclose(
        OrientationLaw("fixed", dim=2, angle=math.pi / 2).fixed_direction(), [0, 1], atol=1e-12
    )
    assert OrientationLaw("fixed", dim=1, angle=math.pi).fixed_direction()[0] == -1.0
    d3 = OrientationLaw("fixed", dim=3, polar=math.pi / 2, azimuth=0.0).fixed_direction()
    assert np.allclose(d3, [1, 0, 0], atol=1e-12)
    with pytest.raises(ConfigurationError):
        OrientationLaw("vonmises", dim=2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_orientation_uniform_unit_norm(dim):
    law = OrientationLaw("uniform", dim=dim)
    dirs = law.sample(np.random.default_rng(1).random((500, max(1, dim - 1))))
    assert dirs.shape == (500, dim)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)


def test_orientation_uniform_is_balanced():
    dirs = OrientationLaw("uniform", dim=2).sample(np.random.default_rng(2).random((100_000, 1)))
    # each coordinate has mean 0 and variance 1/2
    assert abs(dirs.mean(axis=0)).max() < 0.02
    assert np.allclose((dirs ** 2).mean(axis=0), 0.5, atol=0.02)


# ---------------------------------------------------------------------------
# mark distributions


def test_mark_distribution_validation():
    with pytest.raises(ConfigurationError):
        MarkDistribution("deterministic")
    with pytest.raises(ConfigurationError):
        MarkDistribution("segment", length=LengthLaw("fixed", value=1.0))
    with pytest.raises(ConfigurationError):
        MarkDistribution("lognormal")


def test_mark_distribution_deterministic():
    q = MarkDistribution("deterministic", grain=Grain.segment(np.array([0.0, 2.0])))
    assert q.dim == 2 and q.n == 1 and q.is_deterministic
    assert q.l_max == pytest.approx(2.0)
    assert q.mean_hn() == pytest.approx(2.0)
    assert q.length_moment(3) == pytest.approx(8.0)
    a, b = mark_segments(q, np.empty((1, q.uniforms)))
    assert a.tolist() == [[[0.0, 0.0]]] and b.tolist() == [[q.grain.vertices[1].tolist()]]


@pytest.mark.parametrize("count", [0, 1, 7, 300])
def test_deterministic_rows_are_read_only_copies_of_the_grain(count):
    """A deterministic law's rows are its grain's rows, `count` times, with
    no draw, and read-only also when a second call reuses them."""
    grain = Grain.polyline([[0.0, 0.0, 0.0], [0.4, 0.2, 0.1], [0.5, 0.6, 0.0]])
    q = MarkDistribution("deterministic", grain=grain)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for _ in range(2):
        a, b = mark_segments(q, rng.random((q.uniforms, count)).T)
        assert rng.bit_generator.state == state
        assert a.shape == b.shape == (count, 2, 3)
        assert np.array_equal(a, np.broadcast_to(grain.vertices[:-1], a.shape))
        assert np.array_equal(b, np.broadcast_to(grain.vertices[1:], b.shape))
        for rows in (a, b):
            with pytest.raises(ValueError):
                rows[...] = 0.0
    assert grain.vertices.tolist() == [[0.0, 0.0, 0.0], [0.4, 0.2, 0.1], [0.5, 0.6, 0.0]]


def test_mark_distribution_segment_law():
    q = MarkDistribution(
        "segment",
        length=LengthLaw("uniform", lo=0.5, hi=1.5),
        orientation=OrientationLaw("uniform", dim=2),
    )
    assert q.n == 1 and q.dim == 2 and not q.is_deterministic
    assert q.l_max == pytest.approx(1.5)
    assert q.mean_hn() == pytest.approx(1.0)
    b = mark_segments(q, np.random.default_rng(5).random((1000, q.uniforms)))[1]
    lengths = np.linalg.norm(b[:, 0], axis=1)
    assert lengths.min() >= 0.5 and lengths.max() <= 1.5


def test_sample_marks_deterministic_per_stream():
    q = MarkDistribution(
        "segment",
        length=LengthLaw("uniform", lo=0.5, hi=1.5),
        orientation=OrientationLaw("uniform", dim=2),
    )
    counters = np.arange(10 * q.uniforms).reshape(10, q.uniforms)
    a = mark_segments(q, uniforms(derive_key(7, 3), counters))[1][:, 0]
    b = mark_segments(q, uniforms(derive_key(7, 3), counters))[1][:, 0]
    c = mark_segments(q, uniforms(derive_key(7, 4), counters))[1][:, 0]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


# ---------------------------------------------------------------------------
# regularity certificate


def _random_point_on(g: Grain, rng: np.random.Generator) -> np.ndarray:
    a, b = g.rows()
    lengths = np.linalg.norm(b - a, axis=1)
    total = lengths.sum()
    if total == 0.0:
        return a[0].copy()
    i = rng.choice(len(lengths), p=lengths / total)
    t = rng.random()
    return a[i] + t * (b[i] - a[i])


def _ball_intersection_length(g: Grain, x: np.ndarray, r: float) -> float:
    """Exact H^1 of (grain ∩ B_r(x)) for segment/polyline grains."""
    a, b = g.rows()
    total = 0.0
    for ai, bi in zip(a, b):
        d = bi - ai
        dd = float(d @ d)
        if dd == 0.0:
            continue
        # |ai + t d - x|^2 <= r^2, t in [0, 1]
        w = ai - x
        c2 = dd
        c1 = 2.0 * float(w @ d)
        c0 = float(w @ w) - r * r
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc <= 0.0:
            continue
        sq = math.sqrt(disc)
        t0 = max((-c1 - sq) / (2.0 * c2), 0.0)
        t1 = min((-c1 + sq) / (2.0 * c2), 1.0)
        if t1 > t0:
            total += (t1 - t0) * math.sqrt(dd)
    return total


def check_sampled(gamma: float, q: MarkDistribution, rng: np.random.Generator,
                  trials: int = 1000) -> bool:
    """Sampled verification of the lower density bound of the enlarged
    grain: for random (grain, x in grain, r in (0,1)), H^n(Z~_0 ∩ B_r(x))
    >= gamma r^n exactly (ball/segment intersection lengths are computed
    in closed form)."""
    for _ in range(trials):
        if q.kind == "deterministic":
            g = q.grain
        else:
            g = Grain.segment(mark_segments(q, rng.random((1, q.uniforms)))[1][0, 0])
        if g.n == 0:
            continue  # trivially satisfied
        x = _random_point_on(g, rng)
        r = rng.uniform(1e-6, 1.0 - 1e-6)
        inter = _ball_intersection_length(_enlarged(g), x, r)
        if inter < gamma * r - 1e-9:
            return False
    return True


def test_ball_intersection_length_hand_values():
    g = Grain.segment(np.array([2.0, 0.0]))
    # ball centered mid-segment, radius small: chord length 2r
    assert _ball_intersection_length(g, np.array([1.0, 0.0]), 0.25) == pytest.approx(0.5)
    # ball at the endpoint: half chord
    assert _ball_intersection_length(g, np.array([0.0, 0.0]), 0.25) == pytest.approx(0.25)
    # disjoint ball
    assert _ball_intersection_length(g, np.array([1.0, 1.0]), 0.5) == 0.0


def test_certificate_extend():
    short = Grain.segment(np.array([0.25, 0.0]))
    assert _enlarged(short).measure == pytest.approx(1.0)
    long = Grain.segment(np.array([3.0, 0.0]))
    assert _enlarged(long) is long
    poly = Grain.polyline([[0.0, 0.0], [0.2, 0.0], [0.2, 0.2]])
    assert _enlarged(poly).measure == pytest.approx(1.0)
    assert _enlarged(Grain.point(2)).n == 0
    with pytest.raises(ConfigurationError):
        _enlarged(Grain.segment(np.array([0.0, 0.0])))


def test_certificate_normalized_constant():
    """gamma = 1 / H^n(Z~_0) once the enlarged grain's measure is
    normalized to a probability."""
    assert 1.0 / _enlarged(Grain.segment(np.array([1.0, 0.0]))).measure == pytest.approx(1.0)
    assert 1.0 / _enlarged(Grain.segment(np.array([2.0, 0.0]))).measure == pytest.approx(0.5)
    assert 1.0 / _enlarged(Grain.point(2)).measure == pytest.approx(1.0)


def _v020_rows(kind, v):
    """Segment rows of a 0.2.0 grain object: none for a point, (0, vec)
    for a segment, consecutive vertices for a polyline."""
    if kind == "segment":
        return np.zeros((1, v.shape[1])), v[1][None, :]
    return v[:-1], v[1:]


def _v020_diameter(kind, v) -> float:
    """The guard-margin diameter as 0.2.0 computed it."""
    if kind == "point":
        return 0.0
    if kind == "segment":
        return float(np.linalg.norm(v[1]))
    diffs = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(-1)).max())


def _v020_extended_measure(kind, v, min_length=1.0) -> float:
    """_enlarged(g).measure as 0.2.0 computed it:
    a short segment scaled, a short polyline given one more vertex."""
    if kind == "point":
        return 1.0
    a, b = _v020_rows(kind, v)
    total = float(np.linalg.norm(b - a, axis=1).sum())
    if total >= min_length:
        return total
    if kind == "segment":
        v = np.vstack([np.zeros(v.shape[1]), v[1] * (min_length / total)])
    else:
        d = v[-1] - v[-2]
        v = np.vstack([v, v[-1] + (min_length - total) / np.linalg.norm(d) * d])
    a, b = _v020_rows(kind, v)
    return float(np.linalg.norm(b - a, axis=1).sum())


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["point", "segment", "polyline"])
def test_grain_diameter_and_extension_keep_020_arithmetic(kind, d):
    """The diameter (it sets the guard margin) and the extended grain's
    measure (it feeds ratio_bound) equal 0.2.0's to the bit.  For a segment
    that is its norm and a scaled vector, not the pairwise vertex distance
    and an appended vertex, which differ in the last bit on a share of
    short segments."""
    rng = np.random.default_rng(d)
    for _ in range(300):
        if kind == "point":
            g = Grain.point(d)
        elif kind == "segment":
            length, direction = rng.uniform(0.01, 1.5), rng.normal(size=d)
            g = Grain.segment(length * direction / np.linalg.norm(direction))
        else:
            steps = rng.uniform(-0.4, 0.4, size=(rng.integers(2, 4), d))
            g = Grain.polyline(np.vstack([np.zeros(d), np.cumsum(steps, axis=0)]))
        v = g.vertices
        assert g.diameter == _v020_diameter(kind, v)
        assert _enlarged(g).measure == _v020_extended_measure(kind, v)


def test_polyline_diameter_takes_one_vertex_at_a_time():
    """A polyline's diameter is 0.2.0's pairwise one to the bit at 200
    vertices, and a 1,000-vertex polyline in d = 3 gets it without the
    (k, k, d) differences (24 MB): its tracemalloc peak stays below 1 MB."""
    import tracemalloc

    rng = np.random.default_rng(9)

    def walk(k):
        return np.vstack([np.zeros(3), np.cumsum(rng.uniform(-0.4, 0.4, (k - 1, 3)), axis=0)])

    v = walk(200)
    assert Grain.polyline(v).diameter == _v020_diameter("polyline", v)
    g = Grain.polyline(walk(1000))
    tracemalloc.start()
    try:
        assert g.diameter > 0.0
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_certificate_check_sampled():
    q = MarkDistribution(
        "segment",
        length=LengthLaw("uniform", lo=0.5, hi=1.5),
        orientation=OrientationLaw("uniform", dim=2),
    )
    assert check_sampled(1.0, q, np.random.default_rng(derive_key(0, 0)), trials=500)
    # a gamma that is too large must be caught
    assert not check_sampled(3.0, q, np.random.default_rng(derive_key(0, 1)), trials=500)


# ---------------------------------------------------------------------------
# batched sausage kernel


class MonteCarloField:
    """A field's values and sup without its polynomial statement, so the
    grid calls integrate it by Monte Carlo."""

    def __init__(self, f):
        self.values = f.values
        self.sup = f.sup


def _reference_distances(pts, a, b):
    """Distances from points (m, d) to the one segment (a, b)."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(pts - a, axis=1)
    t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    diff = pts - a - t[:, None] * ab
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


MASK = (1 << 64) - 1


def _uniform(key: int, k: int) -> float:
    """Output k of the splitmix64 stream of `key`, in pure Python."""
    z = (key + (k + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


def _reference_sausage(rows, h, r, mc_points, key, first, chunk=10 ** 6):
    """The sausage integral of one grain on its own, given as its segment
    rows (a, b), on the documented counters: coordinate c of proposal j
    reads counter (first + j) d + c of `key` (first = k mc_points for
    grain k), one uniform at a time, the nearest of its segments per point,
    and its sums add the sums of pieces of chunk // s proposals."""
    a, b = rows
    corners = np.vstack([a, b])
    lo, hi = corners.min(axis=0) - r, corners.max(axis=0) + r
    d = len(lo)
    u = np.array([[_uniform(key, (first + j) * d + c) for c in range(d)]
                  for j in range(mc_points)])
    pts = u * (hi - lo) + lo
    dist = np.stack([_reference_distances(pts, ai, bi) for ai, bi in zip(a, b)]).min(axis=0)
    vals = h.values(pts) * (dist <= r)
    total = square = 0.0
    step = chunk // len(a)
    for done in range(0, mc_points, step):
        total += float(vals[done:done + step].sum())
        square += float((vals[done:done + step] * vals[done:done + step]).sum())
    mean = total / mc_points
    var = max(square / mc_points - mean * mean, 0.0)
    volume = float(np.prod(hi - lo))
    return volume * mean, volume * math.sqrt(var / mc_points)


@contextlib.contextmanager
def _recording_uniforms(module=grains):
    """The sizes of the uniforms arrays that `module` reads, call by call."""
    sizes = []

    def recording(keys, k):
        out = uniforms(keys, k)
        sizes.append(out.size)
        return out

    with mock.patch.object(module, "uniforms", recording):
        yield sizes


def _sampled_grains(q, count, rng):
    """`count` grain objects drawn from Q with the draws of mark_segments."""
    if q.kind == "deterministic":
        return [q.grain] * count
    return [Grain.segment(v) for v in mark_segments(q, rng.random((count, q.uniforms)))[1][:, 0]]


def _kernel_law(law, d, shape_rng):
    vertices = np.vstack([np.zeros(d), shape_rng.uniform(-1.5, 1.5, size=(3, d))])
    uniform = OrientationLaw("uniform", dim=d)
    return {
        "point": lambda: MarkDistribution("deterministic", grain=Grain.point(d)),
        "segment": lambda: MarkDistribution("deterministic", grain=Grain.segment(vertices[1])),
        "polyline": lambda: MarkDistribution("deterministic", grain=Grain.polyline(vertices)),
        "zero_length": lambda: MarkDistribution(
            "segment", length=LengthLaw("fixed", value=0.0), orientation=uniform),
        "random": lambda: MarkDistribution(
            "segment", length=LengthLaw("uniform", lo=0.2, hi=1.5), orientation=uniform),
    }[law]()


def _kernel_field(field, d, shape_rng):
    return {
        "constant": IntensityField("constant", c=1.3),
        "quadratic": IntensityField("quadratic"),
        "affine": IntensityField("affine", a=0.3, b=shape_rng.normal(size=d)),
    }[field]


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    law=st.sampled_from(["point", "segment", "polyline", "zero_length", "random"]),
    field=st.sampled_from(["constant", "quadratic", "affine"]),
    mc_points=st.integers(2, 250),
    count=st.integers(1, 6),
    r=st.floats(0.01, 1.9),
    seed=st.integers(0, 2 ** 64 - 1),
)
@example(d=2, law="random", field="quadratic", mc_points=30, count=5, r=0.3, seed=1)
@example(d=3, law="polyline", field="affine", mc_points=230, count=2, r=0.5, seed=2)
@example(d=1, law="zero_length", field="constant", mc_points=99, count=3, r=0.1, seed=3)
@example(d=3, law="segment", field="affine", mc_points=201, count=2, r=1.0, seed=2 ** 64 - 1)
def test_sausage_kernel_equals_per_grain_reference(d, law, field, mc_points, count, r, seed):
    """With a chunk of 100 point-row pairs, 100 // s points of a grain of s
    rows, grains share a chunk (mc_points <= 50 // s) or are split over
    several (mc_points > 100 // s), and no uniforms call reads more than one
    chunk; either way every estimate and SE equals, to the bit, the scalar
    reference of the grain on its own on the documented counters of the
    key `seed`, and a chunk that splits no grain changes no bit.  A split
    grain's tail may be one point (mc_points = 201): one grain in that
    chunk."""
    shape_rng = np.random.default_rng(seed % 2 ** 32)
    q = _kernel_law(law, d, shape_rng)
    f = _kernel_field(field, d, shape_rng)
    h = ShiftedField(MonteCarloField(f), shape_rng.uniform(-1.0, 1.0, size=d))
    chunk = 100
    marks = np.random.default_rng(seed % 2 ** 32)
    a, b = mark_segments(q, marks.random((count, q.uniforms)))
    with mock.patch.object(grains, "SAUSAGE_CHUNK", chunk), _recording_uniforms() as sizes:
        est, se = sausage_integrals(a, b, h, r, mc_points, seed)
    assert sum(sizes) == count * mc_points * d
    assert max(sizes) <= chunk // q.segments * d
    if mc_points <= chunk // q.segments:
        assert (est.tolist(), se.tolist()) == tuple(
            x.tolist() for x in sausage_integrals(a, b, h, r, mc_points, seed))
    marks = np.random.default_rng(seed % 2 ** 32)
    ref = [_reference_sausage(g.rows(), h, r, mc_points, seed, k * mc_points, chunk)
           for k, g in enumerate(_sampled_grains(q, count, marks))]
    assert est.tolist() == [e for e, _ in ref]
    assert se.tolist() == [s for _, s in ref]


def test_sausage_kernel_rejects_fewer_than_two_points():
    """One proposal per grain has no standard error: rejected by name,
    before any draw, whether the cubature would apply or not."""
    a, b = mark_segments(_kernel_law("segment", 3, np.random.default_rng(0)), np.empty((2, 0)))
    with _recording_uniforms() as sizes:
        for f in (IntensityField("affine", a=0.3, b=[1.0, 0.0, 0.0]),
                  MonteCarloField(IntensityField("quadratic"))):
            with pytest.raises(ConfigurationError, match="mc_points"):
                sausage_integrals(a, b, f, 1.0, 1, derive_key(0, 0))
    assert sizes == []
    a, b = Grain.segment([1.0, 0.0]).rows()
    with pytest.raises(ConfigurationError, match="mc_points"):
        sausage_integrals(a[None], b[None], MonteCarloField(IntensityField("constant", c=1.0)),
                          0.2, 1, derive_key(0, 0))


def test_mark_mean_reads_the_documented_counters():
    """The Monte Carlo mark mean of the line and the sausage integral
    under a random law equals, to the bit, the scalar reference on the
    documented counters of the key:
    column c of mark k at counter k U + c, then, for the Monte Carlo
    sausages, coordinate c of proposal j of mark k at counter
    K U + (k m + j) d + c, m = max(16, mc_points // K) per mark."""
    q = _kernel_law("random", 3, np.random.default_rng(0))
    f = IntensityField("affine", a=0.3, b=[1.0, -0.5, 0.25])
    x, key, draws, per_mark = np.array([0.2, -0.1, 0.4]), derive_key(31, 2), 5, 16
    u = np.array([[_uniform(key, k * q.uniforms + c) for c in range(q.uniforms)]
                  for k in range(draws)])
    a, b = mark_segments(q, u)
    vals = line_integrals(x - a, x - b, f, 1)
    assert _mark_mean((f, q, x, None, 0, draws, key)) == (
        float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws)))
    vals = np.array([_reference_sausage((x - ak, x - bk), MonteCarloField(f), 0.3, per_mark,
                                        int(skip(key, u.size)[0]), k * per_mark)[0]
                     for k, (ak, bk) in enumerate(zip(a, b))])
    assert _mark_mean((MonteCarloField(f), q, x, 0.3, draws * per_mark, draws, key)) == (
        float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws)))


# ---------------------------------------------------------------------------
# batched line kernel


def _reference_line_integrals(a, b, h, n, order=8):
    """The integrals of h over K grains' rows a, b of shape (K, s, d) by
    the one-grain arithmetic that line_integrals replaced: Gauss-Legendre
    on each piece of a row between 0, the split parameters that h states
    for the rows (clipped to [0, 1]) and 1, and the sum over the grain's
    rows, one grain at a time.  For n = 0, h at each grain's point; those
    K points go in one call, and so do the split parameters, because numpy
    computes a one-row matrix product (affine fields) as a dot product
    whose last bit can differ from the row's share of a larger one."""
    if n == 0:
        return h.values(a[:, 0]).tolist()
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = (nodes + 1.0) / 2.0
    cuts = h.splits(a, b) if hasattr(h, "splits") else None
    if cuts is None:
        cuts = np.zeros(a.shape[:2] + (0,))
    out = []
    for ak, bk, ck in zip(a, b, cuts):
        lengths = np.linalg.norm(bk - ak, axis=1)
        total = 0.0
        for ai, bi, ci, length in zip(ak, bk, ck, lengths):
            edges = np.sort(np.concatenate([[0.0], np.clip(ci, 0.0, 1.0), [1.0]]))
            width = np.diff(edges)[:, None]
            params = (edges[:-1, None] + width * t).ravel()
            vals = h.values(ai + params[:, None] * (bi - ai))
            total += (vals * (width * weights).ravel()).sum() * length / 2.0
        out.append(total)
    return out


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    law=st.sampled_from(["point", "segment", "polyline", "zero_length", "random"]),
    field=st.sampled_from(["constant", "quadratic", "affine"]),
    count=st.integers(1, 6),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(d=2, law="polyline", field="quadratic", count=3, seed=1)
@example(d=3, law="polyline", field="affine", count=1, seed=2)
@example(d=1, law="random", field="affine", count=5, seed=3)
@example(d=2, law="point", field="affine", count=2, seed=160697)
@example(d=3, law="random", field="affine", count=1, seed=49048201)
def test_line_kernel_equals_per_grain_reference(d, law, field, count, seed):
    """line_integrals over K grains' rows equals, to the bit, the former
    one-grain quadrature of each grain (its rows summed per grain)."""
    shape_rng = np.random.default_rng(seed)
    q = _kernel_law(law, d, shape_rng)
    f = _kernel_field(field, d, shape_rng)
    h = ShiftedField(f, shape_rng.uniform(-1.0, 1.0, size=d))
    a, b = mark_segments(q, np.random.default_rng(seed).random((q.uniforms, count)).T)
    assert line_integrals(a, b, h, q.n).tolist() == _reference_line_integrals(a, b, h, q.n)


@settings(max_examples=120, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    law=st.sampled_from(["point", "segment", "polyline", "zero_length", "random"]),
    field=st.sampled_from(["constant", "quadratic", "affine", "piecewise"]),
    count=st.integers(1, 6),
    r=st.floats(0.01, 1.9),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(d=2, law="random", field="quadratic", count=4, r=0.3, seed=0)
@example(d=3, law="segment", field="affine", count=2, r=1.0, seed=1)
@example(d=1, law="polyline", field="piecewise", count=3, r=0.1, seed=2)
def test_translated_rows_equal_the_shifted_field(d, law, field, count, r, seed):
    """The exact routes integrate f over the translated rows x - a, x - b;
    they integrated f(x - .) over the rows a, b.  The line kernel and,
    where the field states that it is exact, the moment rule give the same
    values within 1e-12 relative, under every field kind, and both sausage
    routes are exact or neither is."""
    rng = np.random.default_rng(seed)
    q = _kernel_law(law, d, rng)
    if field == "piecewise":
        cuts = np.sort(rng.uniform(-1.5, 1.5, size=3))
        f = IntensityField("piecewise", pieces=tuple(
            (Box(np.r_[lo, np.full(d - 1, -4.0)], np.r_[hi, np.full(d - 1, 4.0)]),
             float(rng.uniform(0.0, 3.0))) for lo, hi in zip(cuts[:-1], cuts[1:])))
    else:
        f = _kernel_field(field, d, rng)
    x = rng.uniform(-1.0, 1.0, size=d)
    a, b = mark_segments(q, rng.random((count, q.uniforms)))
    shifted = ShiftedField(f, x)
    np.testing.assert_allclose(line_integrals(x - a, x - b, f, q.n),
                               line_integrals(a, b, shifted, q.n), rtol=1e-12, atol=1e-15)

    def exact_sausages(a, b, h):  # the moment rule where h states it is exact, else None
        lo = np.minimum(a.min(axis=1), b.min(axis=1)) - r
        hi = np.maximum(a.max(axis=1), b.max(axis=1)) + r
        if a.shape[1] > 1 or not np.all(h.polynomial_on(lo, hi)):
            return None
        return sausage_moment_rule(a[:, 0], b[:, 0], h, r)

    est, ref = exact_sausages(x - a, x - b, f), exact_sausages(a, b, shifted)
    assert (est is None) == (ref is None)
    if ref is not None:
        np.testing.assert_allclose(est, ref, rtol=1e-12, atol=1e-15)


def _clipped_affine_integral(f, a, b):
    """The closed form of the integral of max(0, f.a + f.b·y) over the
    segment (a, b): g(t) = g0 + g1 t integrated over the t in [0, 1]
    where it is positive, times the length."""
    g0, g1 = f.a + a @ f.b, (b - a) @ f.b
    if g1 == 0.0:
        lo, hi = (0.0, 1.0) if g0 > 0.0 else (0.0, 0.0)
    elif g1 > 0.0:
        lo, hi = min(1.0, max(0.0, -g0 / g1)), 1.0
    else:
        lo, hi = 0.0, max(0.0, min(1.0, -g0 / g1))
    return (g0 * (hi - lo) + g1 * (hi * hi - lo * lo) / 2.0) * np.linalg.norm(b - a)


@settings(max_examples=120, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    law=st.sampled_from(["segment", "polyline", "random"]),
    field=st.sampled_from(["piecewise", "affine"]),
    count=st.integers(1, 6),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(d=2, law="polyline", field="piecewise", count=1, seed=0)
@example(d=3, law="polyline", field="affine", count=1, seed=2)
def test_line_kernel_is_exact_across_jumps_and_kinks(d, law, field, count, seed):
    """Under a piecewise field (slabs along the first axis with random
    values) line_integrals equals the values times the clipped lengths
    of the reflected rows, and under a clipped affine field the closed
    form of the clipped linear function, within 1e-12 relative: the rule
    runs on each piece between the field's split points."""
    rng = np.random.default_rng(seed)
    q = _kernel_law(law, d, rng)
    if field == "piecewise":
        cuts = np.sort(rng.uniform(-1.5, 1.5, size=4))
        pieces = tuple((Box(np.r_[lo, np.full(d - 1, -3.0)], np.r_[hi, np.full(d - 1, 3.0)]),
                        float(rng.uniform(0.0, 3.0))) for lo, hi in zip(cuts[:-1], cuts[1:]))
        f = IntensityField("piecewise", pieces=pieces)
    else:
        f = IntensityField("affine", a=float(rng.normal()), b=rng.normal(size=d))
    x = rng.uniform(-1.0, 1.0, size=d)
    a, b = mark_segments(q, rng.random((count, q.uniforms)))
    got = line_integrals(a, b, ShiftedField(f, x), 1)
    for k in range(count):
        if field == "piecewise":
            ref = sum(value * clipped_lengths(x - a[k], x - b[k], box).sum()
                      for box, value in pieces)
            scale = max(value for _, value in pieces) * np.linalg.norm(b[k] - a[k], axis=1).sum()
        else:
            ref = sum(_clipped_affine_integral(f, x - ak, x - bk) for ak, bk in zip(a[k], b[k]))
            scale = sum(_clipped_affine_integral(f, x - ak, x - bk) + _clipped_affine_integral(
                IntensityField("affine", a=-f.a, b=-f.b), x - ak, x - bk)
                for ak, bk in zip(a[k], b[k]))
        assert abs(got[k] - ref) <= 1e-12 * max(abs(ref), scale), (k, got[k], ref)


def test_piecewise_field_without_pieces_states_no_split():
    """A piecewise field with no piece is 0 everywhere and splits no row."""
    f = IntensityField("piecewise", pieces=())
    assert f.splits(np.zeros((1, 1, 2)), np.ones((1, 1, 2))) is None
    a, b = Grain.segment([1.0, 0.0]).rows()
    assert line_integrals(a[None], b[None], f, 1)[0] == 0.0


# ---------------------------------------------------------------------------
# exact sausage integrals: the moment rule

BALL_VOLUME = {0: 1.0, 1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def _grid_sausages(a, b, h, r):
    """Λ and its SE from hitting_grid for each one-row grain (a_k, b_k) of
    rows (K, 1, d) under h: the fixed segment 0 -> a_k - b_k at the point
    a_k, whose x - Z is the grain.  SE 0 where the grid call put the cell
    on the moment rule, which it decides on the grain's own box."""
    cells = [hitting_grid(h, MarkDistribution("deterministic", grain=Grain.segment(ak - bk)),
                          [ak], [r]) for ak, bk in zip(a[:, 0], b[:, 0])]
    return np.array([lam[0, 0] for lam, _ in cells]), np.array([se[0, 0] for _, se in cells])


def _quadratic_sausage(d, length, r):
    """Integral of |y|² over the r-sausage of a segment of the given length
    from the origin (any direction: |y|² is rotation invariant)."""
    L = length
    if d == 1:
        return ((L + r) ** 3 + r ** 3) / 3.0
    if d == 2:
        return (2 * r * L ** 3 / 3 + 2 * r ** 3 * L / 3 + math.pi * r ** 2 * L ** 2 / 2
                + 4 * r ** 3 * L / 3 + math.pi * r ** 4 / 2)
    return (math.pi * r ** 2 * L ** 3 / 3 + math.pi * r ** 4 * L / 2
            + 2 * math.pi * r ** 3 * L ** 2 / 3 + math.pi * r ** 4 * L / 2
            + 4 * math.pi * r ** 5 / 5)


@pytest.mark.parametrize("r", [0.02, 0.2, 1.5])
@pytest.mark.parametrize("length", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sausage_cubature_closed_forms(d, length, r):
    """Interval L + 2r, stadium 2rL + πr², capsule πr²L + 4πr³/3 and the
    ball b_d r^d (L = 0) for f ≡ 1; |S|·f(midpoint) for an unclipped affine
    f; the |y|² integral (2r·m(r) for the unit segment in d = 2): all to
    1e-12 relative, with SE 0 from the grid call."""
    direction = np.random.default_rng(d).normal(size=d)
    vec = length * direction / np.linalg.norm(direction)
    a, b = np.zeros((1, 1, d)), vec[None, None]
    volume = length * BALL_VOLUME[d - 1] * r ** (d - 1) + BALL_VOLUME[d] * r ** d
    affine = IntensityField("affine", a=3.0, b=np.linspace(-0.5, 0.5, d))
    for f, ref in (
        (IntensityField("constant", c=1.0), volume),
        (affine, volume * affine.values(vec / 2.0)[0]),
        (IntensityField("quadratic"), _quadratic_sausage(d, length, r)),
    ):
        est, se = _grid_sausages(a, b, f, r)
        assert se.tolist() == [0.0]
        assert abs(est[0] - ref) <= 1e-12 * ref
    if d == 2 and length == 1.0:
        m = 1.0 / 3.0 + math.pi * r / 4.0 + r ** 2 + math.pi * r ** 3 / 4.0
        est, _ = _grid_sausages(a, b, IntensityField("quadratic"), r)
        assert abs(est[0] - 2.0 * r * m) <= 1e-12 * 2.0 * r * m


@pytest.mark.parametrize("d", [1, 2, 3])
def test_point_grain_sausage_is_the_ball(d):
    a, b = Grain.point(d).rows()
    (est,), (se,) = _grid_sausages(a[None], b[None], IntensityField("constant", c=2.0), 0.3)
    assert se == 0.0
    assert abs(est - 2.0 * BALL_VOLUME[d] * 0.3 ** d) <= 1e-12 * est


# The product Gauss cubature that the moment rule replaced, kept as its
# reference: a Householder frame per segment, a cylinder of Gauss axial
# nodes times the cross-section ball, and two half-ball caps.

def _leggauss(n, lo, hi):
    x, w = np.polynomial.legendre.leggauss(n)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def _product_ball_rule(dim, half):
    """Nodes (m, dim) and weights on the unit ball of R^dim, or on its half
    with first coordinate >= 0, exact for polynomials of degree <= 2: Gauss
    in the radius (Jacobian rho^(dim-1)) times a rule on the sphere."""
    if dim == 0:
        return np.zeros((1, 0)), np.ones(1)
    turn = 2.0 * math.pi * np.arange(3) / 3.0
    if dim == 1:
        dirs = np.array([[1.0]] if half else [[1.0], [-1.0]])
        dir_w = np.ones(len(dirs))
    elif dim == 2:
        if half:
            theta, dir_w = _leggauss(12, -math.pi / 2.0, math.pi / 2.0)
        else:
            theta, dir_w = turn, np.full(3, 2.0 * math.pi / 3.0)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        c, c_w = _leggauss(2, 0.0, 1.0)
        s = np.sqrt(1.0 - c * c)[:, None]
        dirs = np.stack([np.repeat(c, 3), (s * np.cos(turn)).ravel(),
                         (s * np.sin(turn)).ravel()], axis=1)
        dir_w = np.repeat(c_w, 3) * (2.0 * math.pi / 3.0)
    rho, rho_w = _leggauss((dim + 3) // 2, 0.0, 1.0)
    nodes = (rho[:, None, None] * dirs[None]).reshape(-1, dim)
    return nodes, np.outer(rho_w * rho ** (dim - 1), dir_w).ravel()


def _product_sausage_rule(d):
    """The unit-radius sausage in its own frame (axis first): node n sits at
    coeffs[n] @ (a, b - a, frame rows); the first n_cyl weights are per
    unit length."""
    t_ax, w_ax = _leggauss(2, 0.0, 1.0)
    cross, w_cross = _product_ball_rule(d - 1, half=False)
    cap, w_cap = _product_ball_rule(d, half=True)
    cyl = np.hstack([np.zeros((len(cross), 1)), cross])
    n_cyl, n_cap = len(t_ax) * len(cross), len(cap)
    t = np.concatenate([np.repeat(t_ax, len(cross)), np.ones(n_cap), np.zeros(n_cap)])
    offset = np.vstack([np.tile(cyl, (len(t_ax), 1)), cap, cap * np.r_[-1.0, np.ones(d - 1)]])
    coeffs = np.column_stack([np.ones_like(t), t, offset])
    return coeffs, np.concatenate([np.outer(w_ax, w_cross).ravel(), w_cap, w_cap]), n_cyl


def _product_sausage_cubature(a, b, h, r):
    """Integrals of a polynomial h of degree <= 2 over the r-sausages of K
    segments (a, b), each of shape (K, d), by the product rule."""
    n_grains, d = a.shape
    coeffs, weights, n_cyl = _product_sausage_rule(d)
    w_cyl, w_caps = weights[:n_cyl] * r ** (d - 1), weights[n_cyl:] * r ** d
    ab = b - a
    length = np.linalg.norm(ab, axis=1)
    axis = np.divide(ab, length[:, None], out=np.eye(1, d).repeat(n_grains, 0),
                     where=length[:, None] > 0.0)
    # -sign·H for the Householder reflection H with H e_1 = -sign·axis is an
    # orthonormal frame whose first row is the axis
    sign = np.where(axis[:, 0] >= 0.0, 1.0, -1.0)
    w = axis.copy()
    w[:, 0] += sign
    frame = 2.0 * w[:, :, None] * w[:, None, :] / (w * w).sum(axis=1)[:, None, None]
    frame = (sign * r)[:, None, None] * (frame - np.eye(d))
    basis = np.concatenate([a[:, None], ab[:, None], frame], axis=1).transpose(1, 0, 2)
    pts = coeffs @ basis.reshape(d + 2, -1)
    vals = h.values(pts.reshape(-1, d)).reshape(len(coeffs), -1)
    return length * (w_cyl @ vals[:n_cyl]) + w_caps @ vals[n_cyl:]


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    lengths=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=1, max_size=4),
    r=st.floats(0.01, 1.9),
    field=st.sampled_from(["constant", "quadratic", "affine"]),
    shift=st.floats(0.0, 5.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(d=3, lengths=[0.0, 3.0], r=0.01, field="quadratic", shift=5.0, seed=0)
@example(d=2, lengths=[1.0], r=1.9, field="affine", shift=5.0, seed=1)
@example(d=1, lengths=[0.0, 2.0], r=0.01, field="affine", shift=0.0, seed=2)
def test_moment_rule_equals_product_cubature(d, lengths, r, field, shift, seed):
    """The moment rule's 2d + 3 field values per segment give what the
    product Gauss cubature gave, within 1e-12 relative, on the grid call's
    exact path (SE 0): segments of the given lengths in random directions
    from random starts in [-1, 1]^d, under f(x - .) with |x| = shift.  The
    affine field's intercept keeps it positive on every sausage's box."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(len(lengths), d))
    a = rng.uniform(-1.0, 1.0, size=(len(lengths), d))
    b = a + np.array(lengths)[:, None] * direction / np.linalg.norm(direction, axis=1)[:, None]
    x = rng.normal(size=d)
    x *= shift / np.linalg.norm(x)
    f = {
        "constant": IntensityField("constant", c=1.3),
        "quadratic": IntensityField("quadratic"),
        "affine": IntensityField("affine", a=40.0, b=rng.uniform(-1.0, 1.0, size=d)),
    }[field]
    h = ShiftedField(f, x)
    est, se = _grid_sausages(a[:, None], b[:, None], h, r)
    assert se.tolist() == [0.0] * len(lengths)
    ref = _product_sausage_cubature(a, b, h, r)
    assert np.all(np.abs(est - ref) <= 1e-12 * np.abs(ref)), (est, ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_moment_rule_nodes_stay_in_the_bounding_box(d):
    """An affine field that is positive on a segment's r-dilated bounding
    box, 1e-9 at its lowest corner, is clipped at 0 just beyond it.  The
    grid call, which decides on the grain's own box and not on the
    symmetric x ± (L + r), takes the exact path there and must give
    |S| f(midpoint), the integral of an unclipped affine field: a node
    outside the box would read the clip instead of the affine value."""
    rng = np.random.default_rng(d)
    slope = np.array([1.0, 0.7, 0.4])[:d]
    diagonal = np.ones(d) / math.sqrt(d)
    for direction in (np.eye(d)[0], -np.eye(d)[0], diagonal, -diagonal, rng.normal(size=d)):
        for length in (0.0, 0.3, 2.5):
            for r in (0.02, 0.5, 1.9):
                a = rng.uniform(-1.0, 1.0, size=(1, 1, d))
                b = a + length * direction / np.linalg.norm(direction)
                f = IntensityField("affine", a=1e-9 - slope @ (np.minimum(a, b)[0, 0] - r),
                                   b=slope)
                est, se = _grid_sausages(a, b, f, r)
                volume = length * BALL_VOLUME[d - 1] * r ** (d - 1) + BALL_VOLUME[d] * r ** d
                ref = volume * f.values((a[0] + b[0]) / 2.0)[0]
                assert se.tolist() == [0.0]
                assert abs(est[0] - ref) <= 1e-12 * ref, (direction, length, r, est[0], ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_moment_rule_takes_one_radius_per_row(d):
    """One call with a radius per row gives, under ==, what the one-radius
    calls give on each radius's rows: segments and zero-length (point)
    grains, three radii interleaved, under a quadratic and an affine
    field."""
    rng = np.random.default_rng(d)
    a = rng.uniform(-1.0, 1.0, size=(12, d))
    b = a + rng.uniform(-1.0, 1.0, size=(12, d))
    b[::3] = a[::3]
    radii = np.tile([0.2, 0.05, 1.3], 4)
    for f in (IntensityField("quadratic"), IntensityField("affine", a=5.0, b=rng.normal(size=d))):
        mixed = sausage_moment_rule(a, b, f, radii)
        for r in (0.2, 0.05, 1.3):
            rows = radii == r
            assert mixed[rows].tolist() == sausage_moment_rule(a[rows], b[rows], f, r).tolist()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_moment_rule_is_inf_where_the_field_overflows(d):
    """|x - y|² at |x| = 1e160 is past the float range at every node: the
    integral over a segment's and a point's sausage is inf, with no
    RuntimeWarning from the second differences (inf - inf), so the
    oracle's probability there is 1 with SE 0.  The product-rule reference
    is not compared: it gives nan for the point (0 · inf in its cylinder
    term)."""
    f = IntensityField("quadratic")
    x = np.eye(d)[0] * 1e160
    a, b = np.zeros((2, 1, d)), np.zeros((2, 1, d))
    b[0, 0, 0] = 1.0
    est, se = _grid_sausages(a, b, ShiftedField(f, x), 0.2)
    assert est.tolist() == [math.inf, math.inf] and se.tolist() == [0.0, 0.0]
    unit = MarkDistribution("deterministic", grain=Grain.segment(np.eye(d)[0]))
    assert tuple(v[0, 0] for v in capacity_grid(f, unit, [x], [0.2])) == (1.0, 0.0)


@pytest.mark.parametrize("field", ["constant", "quadratic", "affine"])
@pytest.mark.parametrize("law", ["point", "segment", "random"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sausage_cubature_agrees_with_monte_carlo(d, law, field):
    """The mean cubature integral over four grains lies within 4 SE of the
    Monte Carlo kernel's on the same grains (marks from seed 0, proposals
    on key 0, per case).  In
    d = 1 a sausage fills its bounding box, so a constant field has Monte
    Carlo SE 0 and the two must agree to 1e-12 relative."""
    shape_rng = np.random.default_rng(0)
    q = _kernel_law(law, d, shape_rng)
    f = {
        "constant": IntensityField("constant", c=1.3),
        "quadratic": IntensityField("quadratic"),
        "affine": IntensityField("affine", a=4.0, b=0.2 * shape_rng.normal(size=d)),
    }[field]
    x = shape_rng.uniform(-1.0, 1.0, size=d)
    a, b = mark_segments(q, np.random.default_rng(0).random((q.uniforms, 4)).T)
    exact, exact_se = _grid_sausages(a, b, ShiftedField(f, x), 0.3)
    mc, mc_se = sausage_integrals(a, b, ShiftedField(MonteCarloField(f), x), 0.3, 20_000, 0)
    assert exact_se.tolist() == [0.0] * 4
    se = np.sqrt((mc_se ** 2).sum()) / 4
    diff = mc.mean() - exact.mean()
    print(f"cubature vs Monte Carlo d={d} {law} {field}: "
          + (f"z = {diff / se:+.2f}" if se > 0.0 else f"diff = {diff:+.1e}"))
    assert abs(diff) <= 4.0 * se + 1e-12 * abs(exact.mean())


def test_sausage_cubature_makes_no_draw():
    """A deterministic law under the cubature is one term: no draw, any
    mark_draws (0 included), and no key needed."""
    unit = MarkDistribution("deterministic", grain=Grain.segment([1.0, 0.0]))
    f = IntensityField("quadratic")
    with _recording_uniforms() as sizes:
        _, se = capacity_grid(f, unit, [[0.2, 0.1]], [0.1], mc_points=50_000, seed=8)
        est, _ = hitting_grid(f, unit, [[0.0, 0.0]], [0.5], mc_points=100 * 64, mark_draws=100,
                              seed=8)
        assert sizes == [] and se[0, 0] == 0.0 and est[0, 0] > 0.0
        lam = hitting_grid(f, unit, [[0.0, 0.0]], [0.5], mark_draws=0, seed=8)
        assert tuple(v[0, 0] for v in lam) == (est[0, 0], 0.0)
        a, b = unit.grain.rows()  # the moment rule at the cell, without a key
        assert sausage_moment_rule(np.zeros(2) - a, np.zeros(2) - b, f, 0.5).tolist() == [est[0, 0]]
        assert sizes == []
        # the same calls on a field without the polynomial statement draw
        capacity_grid(MonteCarloField(f), unit, [[0.2, 0.1]], [0.1], mc_points=50_000, seed=8)
        assert sizes == [50_000 * 2]


def test_sausage_kernel_is_monte_carlo_only():
    """sausage_integrals asks the field no question: under |y|², a
    polynomial everywhere, it draws bit for bit as for a field that makes
    no statement, and without a key it refuses."""
    a, b = Grain.segment([1.0, 0.0]).rows()
    f = IntensityField("quadratic")
    est, se = sausage_integrals(a[None], b[None], f, 0.2, 1000, derive_key(3, 0))
    ref = sausage_integrals(a[None], b[None], MonteCarloField(f), 0.2, 1000, derive_key(3, 0))
    assert (est.tolist(), se.tolist()) == (ref[0].tolist(), ref[1].tolist()) and se[0] > 0.0
    with pytest.raises(ConfigurationError, match="needs a random stream"):
        sausage_integrals(a[None], b[None], f, 0.2, 1000, None)


def test_clipped_affine_field_falls_back_to_monte_carlo():
    """max(0, y1) changes sign inside the unit segment's sausage: the grid
    call draws, bit for bit as the kernel on the cell's key for a field
    that makes no polynomial statement."""
    a, b = Grain.segment([1.0, 0.0]).rows()
    reflected = MarkDistribution("deterministic", grain=Grain.segment([-1.0, 0.0]))
    clipped = IntensityField("affine", a=0.0, b=[1.0, 0.0])
    est, se = (v[0, 0] for v in hitting_grid(clipped, reflected, [[0.0, 0.0]], [0.2], 30_000,
                                             seed=9))
    ref = sausage_integrals(a[None], b[None], MonteCarloField(clipped), 0.2, 30_000,
                            derive_key(9, 0))
    assert (est, se) == (ref[0][0], ref[1][0]) and se > 0.0
    # shifted to where it is positive on the whole sausage, it is exact
    shifted = IntensityField("affine", a=0.5, b=[1.0, 0.0])
    assert _grid_sausages(a[None], b[None], shifted, 0.2)[1][0] == 0.0
