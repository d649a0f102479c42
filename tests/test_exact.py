"""Exact density routes: quadrature, mark Monte Carlo and void probability."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from meandense import (
    ConfigurationError,
    Grain,
    IntensityField,
    LengthLaw,
    MarkDistribution,
    OrientationLaw,
    analytic_segment_density,
    capacity_probability,
    density_grid,
    exact_density,
    hitting_intensity,
    integrate_along,
)
from meandense.cli import main
from meandense.config import parse_config
from meandense.geometry import clipped_lengths
from meandense.grains import ShiftedField, mark_segments, sausage_integrals
from meandense.streams import derive_key, skip, uniforms


class Field:
    """A field given by a vectorized function of an (m, d) point array."""

    def __init__(self, fn):
        self.values = fn


class MonteCarloField:
    """A field's values and sup without its polynomial statement, so the
    sausage kernel integrates it by Monte Carlo."""

    def __init__(self, f):
        self.values = f.values
        self.sup = f.sup


QUADRATIC = IntensityField("quadratic")
CONSTANT = IntensityField("constant", c=1.0)
UNIT_SEGMENT = MarkDistribution("deterministic", grain=Grain.segment(np.array([1.0, 0.0])))
UNIFORM_SEGMENTS = MarkDistribution(
    "segment",
    length=LengthLaw("fixed", value=1.0),
    orientation=OrientationLaw("uniform", dim=2),
)


def test_deterministic_density_closed_form():
    # unit segment along e1, f = |y|²: ∫₀¹ ((x1-t)² + x2²) dt = x1² - x1 + 1/3 + x2²
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, size=2)
        expected = x[0] ** 2 - x[0] + 1.0 / 3.0 + x[1] ** 2
        assert exact_density(QUADRATIC, UNIT_SEGMENT, x)[0] == pytest.approx(expected, abs=1e-12)


def test_deterministic_density_vs_quad_oracle():
    # independent high-order oracle on a non-polynomial intensity
    f = Field(lambda pts: np.exp(-np.atleast_2d(pts)[:, 0] ** 2))
    x = np.array([0.7, -0.2])
    oracle, _ = integrate.quad(lambda t: math.exp(-((x[0] - t) ** 2)), 0.0, 1.0)
    val = integrate_along(UNIT_SEGMENT.grain, ShiftedField(f, x), order=24)
    assert val == pytest.approx(oracle, abs=1e-10)


def test_exact_density_deterministic_has_zero_se():
    val, se = exact_density(QUADRATIC, UNIT_SEGMENT, [0.5, 0.0])
    assert se == 0.0
    assert val == pytest.approx(0.25 - 0.5 + 1.0 / 3.0, abs=1e-12)


def test_exact_density_fixed_law_is_deterministic():
    q = MarkDistribution(
        "segment",
        length=LengthLaw("fixed", value=1.0),
        orientation=OrientationLaw("fixed", dim=2, angle=0.0),
    )
    val, se = exact_density(QUADRATIC, q, [0.5, 0.0])
    assert se == 0.0
    assert val == pytest.approx(0.25 - 0.5 + 1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("field", [QUADRATIC, MonteCarloField(QUADRATIC)],
                         ids=["cubature", "monte_carlo"])
def test_deterministic_grain_and_fixed_law_are_one_path(field):
    """A deterministic segment grain law and the fixed segment law with the
    same vector are one draw of the same row: bit-identical densities and
    capacity probabilities, with cubature and with Monte Carlo sausages."""
    grain = MarkDistribution(
        "deterministic",
        grain=Grain.segment(0.8 * OrientationLaw("fixed", angle=0.3).fixed_direction()),
    )
    fixed = MarkDistribution(
        "segment",
        length=LengthLaw("fixed", value=0.8),
        orientation=OrientationLaw("fixed", dim=2, angle=0.3),
    )
    x = [0.4, -0.7]
    assert exact_density(field, grain, x) == exact_density(field, fixed, x)
    probs = [capacity_probability(field, q, x, 0.2, mc_points=5000, key=derive_key(12, 0))
             for q in (grain, fixed)]
    assert probs[0] == probs[1]
    assert (probs[0][1] == 0.0) == (field is QUADRATIC)


def test_exact_density_requires_stream_for_random_law():
    with pytest.raises(ConfigurationError):
        exact_density(QUADRATIC, UNIFORM_SEGMENTS, [0.0, 0.0])
    with pytest.raises(ConfigurationError):
        exact_density(QUADRATIC, UNIFORM_SEGMENTS, [0.0, 0.0], mark_draws=1,
                      key=derive_key(0, 0))


def test_exact_density_matches_closed_form():
    # (x1² + x2²) E[L] + E[L³]/3 for unit-length uniform-orientation segments
    for x in ([0.0, 0.0], [1.0, 0.0], [0.5, -0.5]):
        val, se = exact_density(QUADRATIC, UNIFORM_SEGMENTS, x, mark_draws=4000,
                                key=derive_key(1, 0))
        expected = analytic_segment_density(1.0, 1.0, x)
        assert abs(val - expected) < max(3 * se, 1e-3)


def test_exact_density_random_lengths():
    q = MarkDistribution(
        "segment",
        length=LengthLaw("uniform", lo=0.5, hi=1.5),
        orientation=OrientationLaw("uniform", dim=2),
    )
    el = q.length.moment(1)
    el3 = q.length.moment(3)
    x = [0.5, 0.5]
    val, se = exact_density(QUADRATIC, q, x, mark_draws=20_000, key=derive_key(2, 0))
    assert se > 0.0
    assert abs(val - analytic_segment_density(el, el3, x)) < 3 * se


def test_analytic_segment_density_values():
    assert analytic_segment_density(1.0, 1.0, [0.0, 0.0]) == pytest.approx(1.0 / 3.0)
    assert analytic_segment_density(1.0, 1.0, [1.0, 0.0]) == pytest.approx(4.0 / 3.0)
    assert analytic_segment_density(2.0, 5.0, [1.0, 1.0]) == pytest.approx(4.0 + 5.0 / 3.0)


def test_capacity_probability_stationary_oracle():
    # c = 1, L ≡ 1: Λ(sausage) = 2r + πr², P = 1 - exp(-Λ)
    r = 0.1
    prob, se = capacity_probability(
        CONSTANT, UNIT_SEGMENT, [0.0, 0.0], r, mc_points=400_000, key=derive_key(3, 0)
    )
    expected = 1.0 - math.exp(-(2 * r + math.pi * r * r))
    assert se == 0.0
    assert abs(prob - expected) <= 3 * se + 1e-12 * abs(expected)


def test_capacity_probability_random_marks():
    r = 0.1
    prob, se = capacity_probability(
        CONSTANT, UNIFORM_SEGMENTS, [0.3, 0.3], r,
        mc_points=200_000, mark_draws=100, key=derive_key(4, 0),
    )
    expected = 1.0 - math.exp(-(2 * r + math.pi * r * r))
    assert abs(prob - expected) < max(3 * se, 2e-3)


def _recording_uniforms(monkeypatch, module):
    """The sizes of the uniforms arrays that `module` reads, call by call."""
    sizes = []

    def recording(keys, k):
        out = uniforms(keys, k)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(module, "uniforms", recording)
    return sizes


def test_sausage_proposals_are_drawn_one_chunk_at_a_time(monkeypatch):
    """10^6 proposals in d = 2 never take more than one chunk of memory,
    and the chunk changes no value: the proposals sit on fixed counters,
    and under f ≡ 1 every piece's sums are whole numbers."""
    from meandense import grains

    args = (MonteCarloField(CONSTANT), UNIT_SEGMENT, [0.0, 0.0], 0.1)
    whole = capacity_probability(*args, mc_points=1_000_000, key=derive_key(5, 0))
    chunk = 300_000
    monkeypatch.setattr(grains, "SAUSAGE_CHUNK", chunk)
    sizes = _recording_uniforms(monkeypatch, grains)
    prob, se = capacity_probability(*args, mc_points=1_000_000, key=derive_key(5, 0))
    assert [n // 2 for n in sizes] == [chunk, chunk, chunk, 100_000]
    assert (prob, se) == whole
    expected = 1.0 - math.exp(-(0.2 + math.pi * 0.01))
    assert abs(prob - expected) < 3 * se


@pytest.mark.parametrize("draws, per_mark, sizes", [
    (10, 300, [900, 900, 900, 300]),   # three whole marks share a chunk
    (3, 2500, [1000, 1000, 500] * 3),  # each mark is split over three chunks
])
def test_random_mark_oracle_draws_one_chunk_at_a_time(monkeypatch, draws, per_mark, sizes):
    """The batched mark sum reads its marks' uniforms in one call and its
    draws × per_mark proposals in calls of at most one chunk, and a small
    chunk changes no value (under f ≡ 1 also where it splits a mark)."""
    from meandense import exact, grains

    args = (MonteCarloField(CONSTANT), UNIFORM_SEGMENTS, [0.3, 0.3], 0.1)
    kwargs = dict(mc_points=draws * per_mark, mark_draws=draws, key=derive_key(6, 0))
    whole = capacity_probability(*args, **kwargs)
    monkeypatch.setattr(grains, "SAUSAGE_CHUNK", 1000)
    marks = _recording_uniforms(monkeypatch, exact)
    proposals = _recording_uniforms(monkeypatch, grains)
    assert capacity_probability(*args, **kwargs) == whole
    assert marks == [UNIFORM_SEGMENTS.uniforms * draws]
    assert [n // 2 for n in proposals] == sizes


def test_capacity_probability_radius_validation():
    for r in (0.0, -0.1, 2.0, 2.5):
        with pytest.raises(ConfigurationError):
            capacity_probability(CONSTANT, UNIT_SEGMENT, [0.0, 0.0], r)
    # a random law needs two mark draws for a standard error, as in exact_density
    with pytest.raises(ConfigurationError, match="mark_draws"):
        capacity_probability(CONSTANT, UNIFORM_SEGMENTS, [0.0, 0.0], 0.1, mark_draws=1,
                             key=derive_key(0, 0))


def _former_check_finiteness(f, q, radius, key, mark_draws, points_per_mark):
    """The finiteness check that hitting_intensity at the origin replaced:
    the mean sausage integral of f(-.) over `mark_draws` marks of Q (a
    deterministic law's grain repeated), `points_per_mark` proposals each,
    the marks on the first mark_draws × U counters of the key and the
    proposals on the ones after."""
    counters = np.arange(mark_draws * q.uniforms).reshape(mark_draws, q.uniforms)
    a, b = mark_segments(q, uniforms(key, counters))
    totals, _ = sausage_integrals(a, b, ShiftedField(f, np.zeros(q.dim)), radius,
                                  points_per_mark, skip(key, counters.size))
    return float(totals.mean())


def _finiteness_law(law, d):
    if law == "random":
        return MarkDistribution("segment", length=LengthLaw("uniform", lo=0.2, hi=0.9),
                                orientation=OrientationLaw("uniform", dim=d))
    grain = {
        "point": Grain.point(d),
        "segment": Grain.segment(np.linspace(0.3, 0.7, d)),
        "polyline": Grain.polyline([np.zeros(d), np.full(d, 0.4), np.linspace(0.8, -0.2, d)]),
    }[law]
    return MarkDistribution("deterministic", grain=grain)


@pytest.mark.parametrize("law", ["point", "segment", "polyline", "random"])
@pytest.mark.parametrize("field", [QUADRATIC, MonteCarloField(QUADRATIC)],
                         ids=["cubature", "monte_carlo"])
@pytest.mark.parametrize("d", [2, 3])
def test_hitting_intensity_at_origin_equals_former_finiteness_check(d, field, law):
    """With mc_points = mark_draws × points_per_mark, a random law makes the
    former check's draws and gets its value bit for bit; a deterministic
    law is one term over the same uniforms (proposal j of mark k is
    proposal k points_per_mark + j of the one grain), equal within 1e-15
    relative."""
    q = _finiteness_law(law, d)
    draws, per_mark = 50, 64
    est, _ = hitting_intensity(field, q, np.zeros(d), 0.3, mc_points=draws * per_mark,
                               mark_draws=draws, key=derive_key(21, d))
    ref = _former_check_finiteness(field, q, 0.3, derive_key(21, d), draws, per_mark)
    if q.is_deterministic:
        assert abs(est - ref) <= 1e-15 * abs(ref)
    else:
        assert est == ref


def test_capacity_probability_is_one_minus_exp_of_hitting_intensity():
    for field in (QUADRATIC, MonteCarloField(QUADRATIC)):
        for q in (UNIT_SEGMENT, UNIFORM_SEGMENTS):
            args = (field, q, [0.3, -0.2], 0.15, 4000, 40)
            lam, lam_se = hitting_intensity(*args, key=derive_key(22, 0))
            prob = capacity_probability(*args, key=derive_key(22, 0))
            assert prob == (1.0 - math.exp(-lam), math.exp(-lam) * lam_se)


def test_hitting_intensity_refusals():
    """A random law needs at least two mark draws and a stream; the
    refusal comes before any draw."""
    for draws in (0, 1):
        with pytest.raises(ConfigurationError, match="mark_draws"):
            hitting_intensity(CONSTANT, UNIFORM_SEGMENTS, [0.0, 0.0], 0.1, mark_draws=draws,
                              key=derive_key(0, 0))
    with pytest.raises(ConfigurationError, match="random mark law needs a random stream"):
        hitting_intensity(CONSTANT, UNIFORM_SEGMENTS, [0.0, 0.0], 0.1)
    with pytest.raises(ConfigurationError, match="random mark law needs a random stream"):
        capacity_probability(CONSTANT, UNIFORM_SEGMENTS, [0.0, 0.0], 0.1)
    for r in (0.0, math.nan, 2.0):
        with pytest.raises(ConfigurationError, match="radius"):
            hitting_intensity(CONSTANT, UNIT_SEGMENT, [0.0, 0.0], r)
    # a deterministic law off the cubature draws its sausage proposals
    with pytest.raises(ConfigurationError, match="needs a random stream"):
        capacity_probability(MonteCarloField(CONSTANT), UNIT_SEGMENT, [0.0, 0.0], 0.1)


def test_density_grid_thread_invariance():
    grid = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [-0.5, 0.25]])
    one = density_grid(QUADRATIC, UNIFORM_SEGMENTS, grid, mark_draws=500, seed=9, threads=1)
    two = density_grid(QUADRATIC, UNIFORM_SEGMENTS, grid, mark_draws=500, seed=9, threads=2)
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.standard_errors, two.standard_errors)
    assert one.method == "exact_quadrature_mark_mc"


def test_density_grid_csv_format(tmp_path):
    """The CLI writes density_grid's field for a unit segment under |y|^2."""
    config = tmp_path / "exact.cfg"
    config.write_text(
        "d = 2\nn = 1\nseed = 0\nintensity.kind = quadratic\n"
        "marks.kind = deterministic\nmarks.grain.kind = segment\nmarks.grain.length = 1\n"
        "window.lo = -1, -1\nwindow.hi = 1, 1\nx_grid.kind = list\nx_grid.points = 0.25, -0.5\n"
    )
    out = tmp_path / "run"
    assert main(["exact", "--config", str(config), "--out", str(out), "--threads", "1"]) == 0
    text = (out / "exact.csv").read_text()
    field = density_grid(QUADRATIC, UNIT_SEGMENT, np.array([[0.25, -0.5]]), seed=0, threads=1)
    assert float(text.splitlines()[1].split(",")[2]) == field.values[0]
    lines = text.strip().splitlines()
    assert lines[0] == "x1,x2,value,standard_error,method"
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.25 and float(cells[1]) == -0.5
    # plain float reprs round-trip and carry no numpy wrappers
    assert "np." not in text
    assert float(cells[2]) == pytest.approx(
        0.25 ** 2 - 0.25 + 1.0 / 3.0 + 0.25, abs=1e-12
    )
    assert cells[4] == "exact_quadrature"


def test_exact_rows_of_polyline_piecewise_equal_clipped_lengths(tmp_path):
    """The field of polyline_piecewise.cfg is constant on each piece, so
    each exact.csv value is the sum of value × clipped length of the
    reflected grain rows x - a, x - b over the pieces, within 1e-12 (one
    8-node rule across the jump at x1 = 0.5 wrote 0.98458 for 1.00978 at
    (0.75, 0.5))."""
    path = Path(__file__).resolve().parents[1] / "configs" / "polyline_piecewise.cfg"
    cfg = parse_config(path.read_text())
    out = tmp_path / "run"
    assert main(["exact", "--config", str(path), "--out", str(out), "--threads", "1"]) == 0
    rows = [line.split(",") for line in (out / "exact.csv").read_text().splitlines()[1:]]
    a, b = cfg.marks.grain.rows()
    assert len(rows) == len(cfg.grid_points()) == 2
    for row, x in zip(rows, cfg.grid_points()):
        ref = sum(value * clipped_lengths(x - a, x - b, box).sum()
                  for box, value in cfg.intensity.pieces)
        assert abs(float(row[2]) - ref) <= 1e-12 * ref and float(row[3]) == 0.0
