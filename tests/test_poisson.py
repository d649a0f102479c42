"""Intensity fields and the thinned marked Poisson sampler."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meandense import (
    ConfigurationError,
    Grain,
    IntensityField,
    LengthLaw,
    MarkDistribution,
    OrientationLaw,
    hitting_intensity,
    sample_block,
    simulate,
)
from meandense.cli import _realization_csv, _write_csv
from meandense.geometry import Box
from meandense.grains import ShiftedField, mark_segments
from meandense.poisson import MAX_EXPECTED_GERMS, expected_germs, poisson_table
from meandense.streams import block_keys, derive_key, uniforms

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
    samples = box.sample(np.random.default_rng(0).random((5000, 2)))
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
        sample_block(unbounded, UNIT_SEGMENT, box, 0, 0, 1)
    bounded = Field(_ones, lambda box: 1.0)
    assert expected_germs(bounded, box) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# germ sampling


def test_sample_germs_deterministic_and_in_box(tmp_path):
    f = IntensityField("quadratic")
    box = Box([-1.0, -1.0], [1.0, 1.0])
    points, a, b, _ = sample_block(f, UNIT_SEGMENT, box, 3, 0, 1)
    again = sample_block(f, UNIT_SEGMENT, box, 3, 0, 1)[0]
    assert np.array_equal(points, again)
    text = _write_csv(tmp_path, "realization.csv", *_realization_csv(points, a, b, 1)).read_text()
    assert len(text.splitlines()) == len(points) + 1  # a header, then one row per grain
    assert box.contains(points).all() or len(points) == 0
    # the replicate's counter 0 is its proposal count
    assert _proposal_counts(f, box, 3, 0, 1)[0] >= len(points)


def _proposal_counts(f, box, seed, start, stop) -> np.ndarray:
    """Each replicate's Poisson proposal count: its counter 0 inverted on
    the cdf table."""
    n0, cdf = poisson_table(expected_germs(f, box)[1])
    return n0 + np.searchsorted(cdf, uniforms(block_keys(seed, start, stop), 0), side="right")


def _recorded_streams(monkeypatch) -> list:
    """(name, result) of every block_keys and uniforms call that
    sample_block makes from now on, in order."""
    made = []
    for name, fn in (("block_keys", block_keys), ("uniforms", uniforms)):
        def call(*args, name=name, fn=fn):
            made.append((name, fn(*args)))
            return made[-1][1]

        monkeypatch.setattr(f"meandense.poisson.{name}", call)
    return made


def test_sample_germs_zero_intensity(monkeypatch):
    f = IntensityField("constant", c=0.0)
    huge = Box([-1e200, -1e200], [1e200, 1e200])
    for q in (UNIT_SEGMENT, RANDOM_SEGMENTS):
        streams = _recorded_streams(monkeypatch)
        germs, a, b, owner = sample_block(f, q, Box([0.0, 0.0], [1.0, 1.0]), 0, 4, 7)
        assert len(germs) == len(owner) == 0
        # a mean of 0 draws no count and no uniform: three keys, nothing read
        assert a.shape == b.shape == (0, 1, 2) and streams[0][0] == "block_keys"
        assert streams[0][1].tolist() == [derive_key(0, i) for i in range(4, 7)]
        assert all(got.size == 0 for name, got in streams[1:])
        # no germ either on a box whose volume overflows to inf
        assert len(sample_block(f, q, huge, 0, 0, 3)[0]) == 0


def test_sample_germs_count_matches_intensity_integral():
    # N_accept ~ Poisson(∫ f); compare the mean over many replicates
    f = IntensityField("quadratic")
    box = Box([-1.0, -1.0], [1.0, 1.0])
    target = 8.0 / 3.0  # ∫∫ (x² + y²) over [-1,1]²
    owner = sample_block(f, UNIT_SEGMENT, box, 11, 0, 3000)[3]
    counts = np.bincount(owner, minlength=3000).astype(float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - target) < 4 * se


def test_sample_germs_acceptance_ratio():
    # accepted/proposed -> (∫ f)/(M vol) within 3 standard errors
    f = IntensityField("quadratic")
    box = Box([-1.0, -1.0], [1.0, 1.0])
    accepted = len(sample_block(f, UNIT_SEGMENT, box, 23, 0, 2000)[0])
    # each replicate's proposal count is its counter 0 inverted
    proposed = int(_proposal_counts(f, box, 23, 0, 2000).sum())
    m_bound = f.sup(box)
    p = (8.0 / 3.0) / (m_bound * box.volume)
    se = math.sqrt(p * (1.0 - p) / proposed)
    assert abs(accepted / proposed - p) < 3 * se


def _block_law(kind: str, d: int) -> MarkDistribution:
    steps = np.random.default_rng(d).uniform(-0.5, 0.5, (3, d))
    vertices = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)])
    if kind in ("random_segments", "trunc_exp"):
        length = {"random_segments": LengthLaw("uniform", lo=0.0, hi=1.0),
                  "trunc_exp": LengthLaw("trunc_exp", rate=2.0)}[kind]
        return MarkDistribution("segment", length=length,
                                orientation=OrientationLaw("uniform", dim=d))
    grain = {"point": Grain.point(d), "segment": Grain.segment(vertices[1]),
             "polyline": Grain.polyline(vertices)}[kind]
    return MarkDistribution("deterministic", grain=grain)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["point", "segment", "polyline", "random_segments"]),
    st.sampled_from([0.0, 0.5, 4.0]),
    st.integers(0, 2 ** 64 - 1),
    st.integers(0, 1000),
    st.integers(0, 9),
)
@example(d=1, kind="point", proposals=0.5, seed=0, start=0, size=9)
@example(d=3, kind="random_segments", proposals=0.5, seed=5, start=2, size=9)
def test_block_is_its_one_replicate_blocks_concatenated(d, kind, proposals, seed, start, size):
    """A block of replicates is, to the bit, the concatenation of the
    blocks of its replicates one at a time, replicates with no germ
    included: a replicate's draws do not depend on the block it is in."""
    q = _block_law(kind, d)
    box = Box(-np.ones(d), np.ones(d))
    # f = c (1 + sum y), clipped at 0: thinning keeps about half the proposals
    c = proposals / (box.volume * (1 + d))
    f = IntensityField("affine", a=c, b=np.full(d, c))
    germs, a, b, owner = sample_block(f, q, box, seed, start, start + size)
    parts = [sample_block(f, q, box, seed, i, i + 1) for i in range(start, start + size)]
    s = q.segments
    assert germs.shape == (len(owner), d) and a.shape == b.shape == (len(owner), s, d)
    for got, k in ((germs, 0), (a, 1), (b, 2)):
        want = np.concatenate([np.zeros((0,) + got.shape[1:])] + [p[k] for p in parts])
        assert got.dtype == want.dtype and np.array_equal(got, want)
    want = np.concatenate([np.zeros(0, dtype=np.int64)] + [p[3] + j for j, p in enumerate(parts)])
    assert np.array_equal(owner, want)
    assert all(np.array_equal(p[3], np.zeros(len(p[0]))) for p in parts)


MASK = (1 << 64) - 1


def _uniform(key: int, k: int) -> float:
    """Output k of the splitmix64 stream of `key`, in pure Python."""
    z = (key + (k + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


def _reference_replicate(f, q, box, seed, i):
    """Replicate i drawn one uniform at a time on the counter layout: its
    count on counter 0, proposal j on counters 1 + j W + c (coordinates,
    thinning uniform, mark), every thinning uniform read."""
    m_bound, mean = expected_germs(f, box)
    key, d = derive_key(seed, i), box.dim
    width = d + 1 + q.uniforms
    count = 0
    if mean:
        n0, cdf = poisson_table(mean)
        count = n0 + bisect.bisect_right(cdf.tolist(), _uniform(key, 0))
    pts = np.array([[box.lo[c] + (box.hi[c] - box.lo[c]) * _uniform(key, 1 + j * width + c)
                     for c in range(d)] for j in range(count)]).reshape(count, d)
    vals = f.values(pts)
    kept = [j for j in range(count) if _uniform(key, 1 + j * width + d) * m_bound < vals[j]]
    marks = np.array([[_uniform(key, 1 + j * width + d + 1 + c) for c in range(q.uniforms)]
                      for j in kept]).reshape(len(kept), q.uniforms)
    return pts[kept], *mark_segments(q, marks)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["point", "segment", "polyline", "random_segments", "trunc_exp"]),
    st.sampled_from([0.0, 0.5, 4.0]),
    st.booleans(),
    st.sampled_from([0, 1, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1),
    st.sampled_from([0, 2 ** 64 - 9]) | st.integers(0, 2 ** 64 - 9),
    st.integers(0, 8),
)
@example(d=2, kind="trunc_exp", proposals=4.0, thin=True, seed=2 ** 64 - 1,
         start=2 ** 64 - 9, size=8)
@example(d=3, kind="random_segments", proposals=4.0, thin=False, seed=0, start=0, size=8)
def test_block_equals_per_replicate_reference(d, kind, proposals, thin, seed, start, size):
    """sample_block's germs, rows and owners equal, to the bit, a scalar
    loop over its replicates on the counter layout, under an affine field
    that thins about half the proposals or a constant one that thins none
    (whose thinning uniforms sample_block never reads)."""
    q = _block_law(kind, d)
    box = Box(-np.ones(d), np.ones(d))
    c = proposals / (box.volume * (1 + d))
    f = IntensityField("affine", a=c, b=np.full(d, c)) if thin else IntensityField(
        "constant", c=proposals / box.volume)
    germs, a, b, owner = sample_block(f, q, box, seed, start, start + size)
    parts = [_reference_replicate(f, q, box, seed, i) for i in range(start, start + size)]
    for got, k in ((germs, 0), (a, 1), (b, 2)):
        want = np.concatenate([np.zeros((0,) + got.shape[1:])] + [p[k] for p in parts])
        assert got.shape == want.shape and np.array_equal(got, want)
    want = np.concatenate([np.zeros(0, dtype=np.int64)] + [np.full(len(p[0]), j)
                                                           for j, p in enumerate(parts)])
    assert owner.dtype == np.int64 and np.array_equal(owner, want)


def test_replicate_range_past_the_last_key_is_refused_before_drawing(monkeypatch):
    f, box = IntensityField("constant", c=1.0), Box([0.0, 0.0], [1.0, 1.0])
    # any uniform would fail with AttributeError: the range is checked first
    monkeypatch.setattr("meandense.poisson.uniforms", lambda *args: object())
    message = "stream index must lie in \\[0, 2\\^64\\), got 18446744073709551616"
    with pytest.raises(ConfigurationError, match=message):
        sample_block(f, RANDOM_SEGMENTS, box, 0, 2 ** 64 - 1, 2 ** 64 + 1)
    with pytest.raises(ConfigurationError, match=message):
        simulate(f, RANDOM_SEGMENTS, box, 0.1, 2, seed=0, index0=2 ** 64 - 1)
    with pytest.raises(ConfigurationError, match="stream seed must lie in"):
        sample_block(f, RANDOM_SEGMENTS, box, 2 ** 64, 0, 1)


# scipy's own cdf is off by 1.6e-9 at mean 2e6 (its regularized incomplete
# gamma function); these are P(N <= k) there to 25 digits
_CDF_AT_CAP = {2_000_000: 0.5001880631825007707601897, 2_006_376: 0.9999967061350951886860992}


@pytest.mark.parametrize("mean", [1e-3, 0.5, 10.24, 7442.0, 2e6])
def test_poisson_table_is_accurate(mean):
    from scipy import stats

    n0, cdf = poisson_table(mean)
    counts = np.arange(n0, n0 + len(cdf))
    assert np.all(np.diff(cdf) >= 0.0) and cdf[-1] == 1.0
    # the mass outside the table is negligible
    assert stats.poisson.cdf(n0 - 1, mean) < 1e-20 and stats.poisson.sf(counts[-1], mean) < 1e-20
    assert np.abs(cdf - stats.poisson.cdf(counts, mean)).max() < (1e-12 if mean < 1e6 else 3e-9)
    for k, want in _CDF_AT_CAP.items() if mean == 2e6 else ():
        assert abs(cdf[k - n0] - want) < 1e-13


def test_poisson_table_edges():
    # the largest uniform inverts to a count inside the table, not past it
    for mean in (1e-3, 0.5, 10.24, 7442.0, 2e6):
        cdf = poisson_table(mean)[1]
        assert np.searchsorted(cdf, 1.0 - 2.0 ** -53, side="right") < len(cdf)
    # the table at the germ cap is a few hundred kB
    n0, cdf = poisson_table(float(MAX_EXPECTED_GERMS))
    assert cdf.nbytes < 300_000
    # a mean of 0 proposes nothing
    owner = sample_block(IntensityField("constant", c=0.0), RANDOM_SEGMENTS,
                         Box([0.0, 0.0], [1.0, 1.0]), 0, 0, 50)[3]
    assert owner.size == 0


def test_sample_germs_spatial_density_follows_f():
    # under f = |y|² on [-1,1]², germs concentrate away from the center:
    # P(|y|_inf <= 0.5) = ∫_inner f / ∫ f = (1/6)/(8/3) = 1/16
    f = IntensityField("quadratic")
    box = Box([-1.0, -1.0], [1.0, 1.0])
    pts = sample_block(f, UNIT_SEGMENT, box, 5, 0, 4000)[0]
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
        key=derive_key(0, 0),
    )
    assert math.isfinite(est)
    assert est == pytest.approx(2.0 + math.pi, rel=0.02)


def test_check_finiteness_point_grain():
    f = IntensityField("constant", c=2.0)
    q = MarkDistribution("deterministic", grain=Grain.point(2))
    est, _ = hitting_intensity(f, q, [0.0, 0.0], 0.5, mc_points=500 * 64, mark_draws=500,
                               key=derive_key(1, 0))
    assert math.isfinite(est)
    assert est == pytest.approx(2.0 * math.pi * 0.25, rel=0.05)


def test_check_finiteness_random_marks():
    f = IntensityField("constant", c=1.0)
    est, _ = hitting_intensity(f, RANDOM_SEGMENTS, [0.0, 0.0], 0.1, mc_points=4000 * 64,
                               mark_draws=4000, key=derive_key(2, 0))
    # E[2 L r + π r²] with E[L] = 1
    assert math.isfinite(est)
    assert est == pytest.approx(0.2 + math.pi * 0.01, rel=0.05)
