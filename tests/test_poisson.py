"""Intensity fields and the thinned marked Poisson sampler."""

import math

import numpy as np
import pytest

from meandense import (
    ConfigurationError,
    Grain,
    IntensityField,
    LengthLaw,
    MarkDistribution,
    OrientationLaw,
    hitting_intensity,
    sample_germs,
)
from meandense.cli import _realization_csv, _write_csv
from meandense.geometry import Box
from meandense.grains import ShiftedField
from meandense.poisson import expected_germs
from meandense.streams import derive_stream

UNIT_SEGMENT = MarkDistribution("deterministic", grain=Grain.segment(np.array([1.0, 0.0])))
RANDOM_SEGMENTS = MarkDistribution(
    "segment",
    length=LengthLaw("uniform", lo=0.5, hi=1.5),
    orientation=OrientationLaw("uniform", dim=2),
)


# ---------------------------------------------------------------------------
# intensity fields


def test_constant_field():
    f = IntensityField("constant", c=2.5)
    assert np.all(f.values(np.zeros((4, 2))) == 2.5)
    assert f.values([[1.0, 1.0]])[0] == 2.5
    with pytest.raises(ConfigurationError):
        IntensityField("constant", c=-1.0)
    for c in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            IntensityField("constant", c=c)


def test_quadratic_field():
    f = IntensityField("quadratic")
    assert f.values([[3.0, 4.0]])[0] == pytest.approx(25.0)
    vals = f.values(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(vals, [1.0, 4.0])


def test_affine_field_clips_at_zero():
    f = IntensityField("affine", a=1.0, b=np.array([-1.0, 0.0]))
    assert f.values([[0.0, 0.0]])[0] == pytest.approx(1.0)
    assert f.values([[2.0, 0.0]])[0] == 0.0  # 1 - 2 clipped
    with pytest.raises(ConfigurationError):
        IntensityField("affine", a=1.0)
    with pytest.raises(ConfigurationError, match="finite"):
        IntensityField("affine", a=math.inf, b=np.array([-1.0, 0.0]))


def test_piecewise_field():
    f = IntensityField(
        "piecewise",
        pieces=(
            (Box([0.0, 0.0], [1.0, 1.0]), 2.0),
            (Box([1.0, 0.0], [2.0, 1.0]), 5.0),
        ),
    )
    assert f.values([[0.5, 0.5]])[0] == 2.0
    assert f.values([[1.5, 0.5]])[0] == 5.0
    assert f.values([[3.0, 3.0]])[0] == 0.0
    with pytest.raises(ConfigurationError):
        IntensityField("piecewise", pieces=((Box([0, 0], [1, 1]), -1.0),))
    with pytest.raises(ConfigurationError):
        IntensityField("gaussian")
    with pytest.raises(ConfigurationError, match="finite"):
        IntensityField("piecewise", pieces=((Box([0, 0], [1, 1]), math.nan),))


def test_polynomial_statement():
    """constant and quadratic are polynomials everywhere, affine where it is
    positive at every corner of the box, piecewise never; ShiftedField asks
    its field about the reflected box x - box, and a field without the
    statement makes none."""
    box = Box([1.0, -1.0], [2.0, 1.0])
    assert IntensityField("constant", c=0.0).polynomial_on(box)
    assert IntensityField("quadratic").polynomial_on(box)
    ramp = IntensityField("affine", a=0.0, b=np.array([1.0, 0.0]))  # max(0, y1)
    assert ramp.polynomial_on(box)
    assert not ramp.polynomial_on(Box([0.0, -1.0], [2.0, 1.0]))   # zero at a corner
    assert not ramp.polynomial_on(Box([-1.0, -1.0], [2.0, 1.0]))  # clipped inside
    piecewise = IntensityField("piecewise", pieces=((Box([0.0, -5.0], [5.0, 5.0]), 1.0),))
    assert not piecewise.polynomial_on(box)
    # f(x - .) on [1, 2] x [-1, 1] reads f on [x1 - 2, x1 - 1] x [x2 - 1, x2 + 1]
    assert ShiftedField(ramp, np.array([3.5, 0.0])).polynomial_on(box)
    assert not ShiftedField(ramp, np.array([0.0, 0.0])).polynomial_on(box)
    assert not ShiftedField(piecewise, np.array([3.5, 0.0])).polynomial_on(box)

    class ValuesOnly:
        values = IntensityField("constant", c=1.0).values

    assert not ShiftedField(ValuesOnly(), np.zeros(2)).polynomial_on(box)


@pytest.mark.parametrize(
    "f",
    [
        IntensityField("constant", c=3.0),
        IntensityField("quadratic"),
        IntensityField("affine", a=0.5, b=np.array([1.0, -2.0])),
        IntensityField(
            "piecewise",
            pieces=((Box([-1.0, -1.0], [0.5, 0.5]), 4.0), (Box([0.5, 0.5], [2.0, 2.0]), 1.0)),
        ),
    ],
)
def test_intensity_bound_dominates_samples(f):
    box = Box([-1.0, -1.0], [2.0, 2.0])
    bound = f.sup(box)
    samples = box.sample(np.random.default_rng(0), 5000)
    assert float(f.values(samples).max()) <= bound + 1e-12


class Field:
    """A field with a given vectorized function and box bound."""

    def __init__(self, fn, sup):
        self.values = fn
        self.sup = sup


def _ones(pts):
    return np.ones(np.atleast_2d(pts).shape[0])


def test_callable_field_needs_bound():
    # thinning reads the field's own bound, and refuses one that is not finite
    box = Box([0.0, 0.0], [1.0, 1.0])
    unbounded = Field(_ones, lambda box: math.inf)
    with pytest.raises(ConfigurationError):
        sample_germs(unbounded, UNIT_SEGMENT, box, derive_stream(0, 0))
    bounded = Field(_ones, lambda box: 1.0)
    assert expected_germs(bounded, box) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# germ sampling


def test_sample_germs_deterministic_and_in_box(tmp_path):
    f = IntensityField("quadratic")
    box = Box([-1.0, -1.0], [1.0, 1.0])
    s1 = sample_germs(f, UNIT_SEGMENT, box, derive_stream(3, 0))
    s2 = sample_germs(f, UNIT_SEGMENT, box, derive_stream(3, 0))
    assert np.array_equal(s1.points, s2.points)
    text = _write_csv(tmp_path, "realization.csv", *_realization_csv(s1, 1)).read_text()
    assert len(text.splitlines()) == len(s1) + 1  # a header, then one row per grain
    assert box.contains(s1.points).all() or len(s1) == 0
    assert s1.proposed >= len(s1)


def test_sample_germs_zero_intensity():
    f = IntensityField("constant", c=0.0)
    rng = derive_stream(0, 0)
    state = rng.bit_generator.state
    s = sample_germs(f, UNIT_SEGMENT, Box([0.0, 0.0], [1.0, 1.0]), rng)
    assert len(s) == 0 and s.proposed == 0
    # a count of 0 draws nothing: the stream is where it was
    assert s.a.shape == (0, 1, 2) and rng.bit_generator.state == state
    # no germ either on a box whose volume overflows to inf
    huge = Box([-1e200, -1e200], [1e200, 1e200])
    with np.errstate(over="ignore"):
        assert len(sample_germs(f, UNIT_SEGMENT, huge, rng)) == 0


def test_sample_germs_count_matches_intensity_integral():
    # N_accept ~ Poisson(∫ f); compare the mean over many replicates
    f = IntensityField("quadratic")
    box = Box([-1.0, -1.0], [1.0, 1.0])
    target = 8.0 / 3.0  # ∫∫ (x² + y²) over [-1,1]²
    counts = [
        len(sample_germs(f, UNIT_SEGMENT, box, derive_stream(11, i))) for i in range(3000)
    ]
    counts = np.asarray(counts, dtype=float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - target) < 4 * se


def test_sample_germs_acceptance_ratio():
    # accepted/proposed -> (∫ f)/(M vol) within 3 standard errors
    f = IntensityField("quadratic")
    box = Box([-1.0, -1.0], [1.0, 1.0])
    accepted = proposed = 0
    for i in range(2000):
        s = sample_germs(f, UNIT_SEGMENT, box, derive_stream(23, i))
        accepted += len(s)
        proposed += s.proposed
    m_bound = f.sup(box)
    p = (8.0 / 3.0) / (m_bound * box.volume)
    se = math.sqrt(p * (1.0 - p) / proposed)
    assert abs(accepted / proposed - p) < 3 * se


def test_sample_germs_spatial_density_follows_f():
    # under f = |y|² on [-1,1]², germs concentrate away from the center:
    # P(|y|_inf <= 0.5) = ∫_inner f / ∫ f = (1/6)/(8/3) = 1/16
    f = IntensityField("quadratic")
    box = Box([-1.0, -1.0], [1.0, 1.0])
    pts = np.vstack(
        [sample_germs(f, UNIT_SEGMENT, box, derive_stream(5, i)).points for i in range(4000)]
    )
    inner = np.all(np.abs(pts) <= 0.5, axis=1).mean()
    se = math.sqrt((1 / 16) * (15 / 16) / pts.shape[0])
    assert abs(inner - 1.0 / 16.0) < 4 * se


# ---------------------------------------------------------------------------
# finiteness of the hitting intensity at the origin


def test_check_finiteness_matches_stadium_area():
    # constant f = 1, deterministic unit segment: the sausage integral is
    # the stadium area 2 l r + π r²
    f = IntensityField("constant", c=1.0)
    est, _ = hitting_intensity(
        f, UNIT_SEGMENT, [0.0, 0.0], 1.0, mc_points=2000 * 64, mark_draws=2000,
        rng=derive_stream(0, 0),
    )
    assert math.isfinite(est)
    assert est == pytest.approx(2.0 + math.pi, rel=0.02)


def test_check_finiteness_point_grain():
    f = IntensityField("constant", c=2.0)
    q = MarkDistribution("deterministic", grain=Grain.point(2))
    est, _ = hitting_intensity(f, q, [0.0, 0.0], 0.5, mc_points=500 * 64, mark_draws=500,
                               rng=derive_stream(1, 0))
    assert math.isfinite(est)
    assert est == pytest.approx(2.0 * math.pi * 0.25, rel=0.05)


def test_check_finiteness_random_marks():
    f = IntensityField("constant", c=1.0)
    est, _ = hitting_intensity(f, RANDOM_SEGMENTS, [0.0, 0.0], 0.1, mc_points=4000 * 64,
                               mark_draws=4000, rng=derive_stream(2, 0))
    # E[2 L r + π r²] with E[L] = 1
    assert math.isfinite(est)
    assert est == pytest.approx(0.2 + math.pi * 0.01, rel=0.05)
