"""Exact density routes: quadrature, mark Monte Carlo and void probability."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from meandense import (
    Box,
    ConfigurationError,
    Grain,
    IntensityField,
    LengthLaw,
    MarkDistribution,
    NumericError,
    OrientationLaw,
    capacity_grid,
    density_grid,
    hitting_grid,
)
from meandense import exact
from meandense.cli import main
from meandense.config import parse_config
from meandense.geometry import clipped_lengths
from meandense.grains import line_integrals, mark_segments, sausage_integrals, sausage_moment_rule
from meandense.minkowski import content_limit
from meandense.streams import derive_key, skip, uniforms
from references import analytic_segment_density


class Field:
    """A field given by a vectorized function of an (m, d) point array."""

    def __init__(self, fn):
        self.values = fn


class MonteCarloField:
    """A field's values and sup without its polynomial statement, so the
    grid calls integrate it by Monte Carlo."""

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
    xs = np.random.default_rng(0).uniform(-2.0, 2.0, size=(10, 2))
    expected = xs[:, 0] ** 2 - xs[:, 0] + 1.0 / 3.0 + xs[:, 1] ** 2
    assert density_grid(QUADRATIC, UNIT_SEGMENT, xs).values == pytest.approx(expected, abs=1e-12)


def test_deterministic_density_vs_quad_oracle():
    # independent high-order oracle on a non-polynomial intensity
    f = Field(lambda pts: np.exp(-np.atleast_2d(pts)[:, 0] ** 2))
    x = np.array([0.7, -0.2])
    oracle, _ = integrate.quad(lambda t: math.exp(-((x[0] - t) ** 2)), 0.0, 1.0)
    a, b = UNIT_SEGMENT.grain.rows()
    val = line_integrals((x - a)[None], (x - b)[None], f, 1)[0]
    assert val == pytest.approx(oracle, abs=1e-10)


def test_density_grid_deterministic_has_zero_se():
    field = density_grid(QUADRATIC, UNIT_SEGMENT, [[0.5, 0.0]])
    assert field.standard_errors[0] == 0.0
    assert field.values[0] == pytest.approx(0.25 - 0.5 + 1.0 / 3.0, abs=1e-12)


def test_density_grid_fixed_law_is_deterministic():
    q = MarkDistribution(
        "segment",
        length=LengthLaw("fixed", value=1.0),
        orientation=OrientationLaw("fixed", dim=2, angle=0.0),
    )
    field = density_grid(QUADRATIC, q, [[0.5, 0.0]])
    assert field.standard_errors[0] == 0.0
    assert field.values[0] == pytest.approx(0.25 - 0.5 + 1.0 / 3.0, abs=1e-12)


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
    x = [[0.4, -0.7]]
    densities = [density_grid(field, q, x) for q in (grain, fixed)]
    assert np.array_equal(densities[0].values, densities[1].values)
    assert np.array_equal(densities[0].standard_errors, densities[1].standard_errors)
    probs = [np.stack(capacity_grid(field, q, x, [0.2], mc_points=5000, seed=12))
             for q in (grain, fixed)]
    assert np.array_equal(probs[0], probs[1])
    assert (probs[0][1, 0, 0] == 0.0) == (field is QUADRATIC)


def test_density_grid_random_law_needs_two_mark_draws():
    with pytest.raises(ConfigurationError):
        density_grid(MonteCarloField(QUADRATIC), UNIFORM_SEGMENTS, [[0.0, 0.0]], mark_draws=1)


def test_density_grid_matches_closed_form():
    # (x1² + x2²) E[L] + E[L³]/3 for unit-length uniform-orientation segments
    xs = [[0.0, 0.0], [1.0, 0.0], [0.5, -0.5]]
    field = density_grid(QUADRATIC, UNIFORM_SEGMENTS, xs, mark_draws=4000, seed=1)
    for x, val, se in zip(xs, field.values, field.standard_errors):
        expected = analytic_segment_density(1.0, 1.0, x)
        assert abs(val - expected) < max(3 * se, 1e-3)


def test_density_grid_random_lengths():
    q = MarkDistribution(
        "segment",
        length=LengthLaw("uniform", lo=0.5, hi=1.5),
        orientation=OrientationLaw("uniform", dim=2),
    )
    el = q.length.moment(1)
    el3 = q.length.moment(3)
    x = [0.5, 0.5]
    field = density_grid(MonteCarloField(QUADRATIC), q, [x], mark_draws=20_000, seed=2)
    val, se = field.values[0], field.standard_errors[0]
    assert se > 0.0
    assert abs(val - analytic_segment_density(el, el3, x)) < 3 * se


def test_analytic_segment_density_values():
    assert analytic_segment_density(1.0, 1.0, [0.0, 0.0]) == pytest.approx(1.0 / 3.0)
    assert analytic_segment_density(1.0, 1.0, [1.0, 0.0]) == pytest.approx(4.0 / 3.0)
    assert analytic_segment_density(2.0, 5.0, [1.0, 1.0]) == pytest.approx(4.0 + 5.0 / 3.0)


def test_capacity_grid_stationary_oracle():
    # c = 1, L ≡ 1: Λ(sausage) = 2r + πr², P = 1 - exp(-Λ)
    r = 0.1
    prob, se = (v[0, 0] for v in capacity_grid(CONSTANT, UNIT_SEGMENT, [[0.0, 0.0]], [r],
                                                mc_points=400_000, seed=3))
    expected = 1.0 - math.exp(-(2 * r + math.pi * r * r))
    assert se == 0.0
    assert abs(prob - expected) <= 3 * se + 1e-12 * abs(expected)


def test_capacity_grid_random_marks():
    r = 0.1
    prob, se = (v[0, 0] for v in capacity_grid(CONSTANT, UNIFORM_SEGMENTS, [[0.3, 0.3]], [r],
                                                mc_points=200_000, mark_draws=100, seed=4))
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

    args = (MonteCarloField(CONSTANT), UNIT_SEGMENT, [[0.0, 0.0]], [0.1])
    whole = np.stack(capacity_grid(*args, mc_points=1_000_000, seed=5))
    chunk = 300_000
    monkeypatch.setattr(grains, "SAUSAGE_CHUNK", chunk)
    sizes = _recording_uniforms(monkeypatch, grains)
    prob, se = capacity_grid(*args, mc_points=1_000_000, seed=5)
    assert [n // 2 for n in sizes] == [chunk, chunk, chunk, 100_000]
    assert np.array_equal(np.stack([prob, se]), whole)
    prob, se = prob[0, 0], se[0, 0]
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
    from meandense import grains

    args = (MonteCarloField(CONSTANT), UNIFORM_SEGMENTS, [[0.3, 0.3]], [0.1])
    kwargs = dict(mc_points=draws * per_mark, mark_draws=draws, seed=6)
    whole = np.stack(capacity_grid(*args, **kwargs))
    monkeypatch.setattr(grains, "SAUSAGE_CHUNK", 1000)
    marks = _recording_uniforms(monkeypatch, exact)
    proposals = _recording_uniforms(monkeypatch, grains)
    assert np.array_equal(np.stack(capacity_grid(*args, **kwargs)), whole)
    assert marks == [UNIFORM_SEGMENTS.uniforms * draws]
    assert [n // 2 for n in proposals] == sizes


def test_capacity_grid_radius_validation():
    for r in (0.0, -0.1, 2.0, 2.5):
        with pytest.raises(ConfigurationError):
            capacity_grid(CONSTANT, UNIT_SEGMENT, [[0.0, 0.0]], [r])
    # a random law needs two mark draws for a standard error, as in density_grid
    with pytest.raises(ConfigurationError, match="mark_draws"):
        capacity_grid(CONSTANT, UNIFORM_SEGMENTS, [[0.0, 0.0]], [0.1], mark_draws=1)


def _former_check_finiteness(f, q, radius, key, mark_draws, points_per_mark):
    """The finiteness check that Λ at the origin replaced:
    the mean sausage integral of f over the reflected grains -Z of
    `mark_draws` marks of Q (a deterministic law's grain repeated),
    `points_per_mark` proposals each, the marks on the first
    mark_draws × U counters of the key and the proposals on the ones
    after; with the SE of that mean.  A one-row grain under a field that
    states it is a polynomial (|y|² does everywhere) took the moment rule."""
    counters = np.arange(mark_draws * q.uniforms).reshape(mark_draws, q.uniforms)
    a, b = mark_segments(q, uniforms(key, counters))
    x = np.zeros(q.dim)
    if q.segments == 1 and hasattr(f, "polynomial_on"):
        totals = sausage_moment_rule((x - a)[:, 0], (x - b)[:, 0], f, radius)
    else:
        totals, _ = sausage_integrals(x - a, x - b, f, radius, points_per_mark,
                                      skip(key, counters.size))
    return float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(mark_draws))


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
def test_mark_means_at_origin_equal_former_finiteness_check(d, field, law):
    """Λ of the mark-mean engine at the origin, on the check's key: with
    mc_points = mark_draws × points_per_mark, a random law off the
    mark rule makes the former check's draws and gets its value bit for
    bit; on the rule (|y|² is a polynomial) it is exact, within 4 SE of
    the check's mark mean.  A deterministic law is one term over the same
    uniforms (proposal j of mark k is proposal k points_per_mark + j of the
    one grain), equal within 1e-15 relative."""
    q = _finiteness_law(law, d)
    draws, per_mark = 50, 64
    est, est_se, _ = (v[0, 0] for v in exact._means(field, q, np.zeros((1, d)), [0.3],
                                                    draws * per_mark, draws,
                                                    lambda index: [derive_key(21, d)]))
    ref, ref_se = _former_check_finiteness(field, q, 0.3, derive_key(21, d), draws, per_mark)
    if q.is_deterministic:
        assert abs(est - ref) <= 1e-15 * abs(ref)
    elif field is QUADRATIC:
        print(f"rule against the former check, d = {d}: z = {(est - ref) / ref_se:+.2f}")
        assert est_se == 0.0 and abs(est - ref) <= 4.0 * ref_se
    else:
        assert est == ref


def test_capacity_grid_is_one_minus_exp_of_hitting_grid():
    for field in (QUADRATIC, MonteCarloField(QUADRATIC)):
        for q in (UNIT_SEGMENT, UNIFORM_SEGMENTS):
            args = (field, q, [[0.3, -0.2]], [0.15], 4000, 40, 22)
            lam, lam_se = (v[0, 0] for v in hitting_grid(*args))
            prob = tuple(v[0, 0] for v in capacity_grid(*args))
            assert prob == (1.0 - math.exp(-lam), math.exp(-lam) * lam_se)


def test_hitting_grid_refusals():
    """A random law needs at least two mark draws; the refusal comes
    before any draw."""
    for draws in (0, 1):
        with pytest.raises(ConfigurationError, match="mark_draws"):
            hitting_grid(CONSTANT, UNIFORM_SEGMENTS, [[0.0, 0.0]], [0.1], mark_draws=draws)
    for r in (0.0, math.nan, 2.0):
        with pytest.raises(ConfigurationError, match="radius"):
            hitting_grid(CONSTANT, UNIT_SEGMENT, [[0.0, 0.0]], [r])
    # the Monte Carlo sausage kernel draws its proposals, which need a key
    a, b = UNIT_SEGMENT.grain.rows()
    with pytest.raises(ConfigurationError, match="needs a random stream"):
        sausage_integrals(a[None], b[None], MonteCarloField(CONSTANT), 0.1, 100, None)


class NanBeyond:
    """|y|², NaN where y1 > 5; stated a polynomial everywhere when `rule`,
    so that the grid calls take the mark rule and the moment rule on it."""

    def __init__(self, rule):
        self.sup = QUADRATIC.sup
        if rule:
            self.polynomial_on = QUADRATIC.polynomial_on

    def values(self, pts):
        pts = np.atleast_2d(pts)
        return np.where(pts[:, 0] > 5.0, np.nan, QUADRATIC.values(pts))


@pytest.mark.parametrize("rule", [True, False], ids=["rule", "monte_carlo"])
@pytest.mark.parametrize("q", [UNIT_SEGMENT, UNIFORM_SEGMENTS], ids=["deterministic", "random"])
def test_a_nan_field_value_is_refused_at_its_grid_point(rule, q):
    """A NaN mean density or Λ is refused once every cell is filled, as a
    NumericError naming the grid point of the first cell that gives it,
    on the mark rule and off it."""
    f, grid = NanBeyond(rule), [[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]
    for call, message in ((lambda: density_grid(f, q, grid, mark_draws=20),
                           "non-finite mean density"),
                          (lambda: hitting_grid(f, q, grid, [0.2, 0.1], 400, 20),
                           r"non-finite hitting intensity at radius 0\.2")):
        with pytest.raises(NumericError, match=message) as info:
            call()
        assert info.value.point.tolist() == [10.0, 0.0]


def test_an_overflowing_field_hits_with_probability_one():
    """An affine field past the float range on every grain about x gives
    Λ = inf, so P = 1 with SE 0, on a rule cell (the moment rule on a
    segment) and on Monte Carlo cells (a polyline's sausage, and random
    marks under a field that states no polynomial), with no
    RuntimeWarning; the mean density there is refused at x."""
    f, x = IntensityField("affine", a=1.0, b=np.array([1e307, 0.0])), [[40.0, 0.0]]
    polyline = MarkDistribution("deterministic",
                                grain=Grain.polyline([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]]))
    for field, q, on_rule in ((f, UNIT_SEGMENT, True), (f, polyline, False),
                              (MonteCarloField(f), UNIFORM_SEGMENTS, False)):
        lam, lam_se, rule = exact._means(field, q, x, [0.2, 0.1], 400, 20, exact._keys(0))
        assert (rule == on_rule).all()
        assert lam.tolist() == [[math.inf] * 2] and lam_se.tolist() == [[0.0] * 2]
        probs, ses = capacity_grid(field, q, x, [0.2, 0.1], 400, 20)
        assert probs.tolist() == [[1.0] * 2] and ses.tolist() == [[0.0] * 2]
        with pytest.raises(NumericError, match="non-finite mean density") as info:
            density_grid(field, q, x, mark_draws=20)
        assert info.value.point.tolist() == [40.0, 0.0]


def test_grid_calls_refuse_empty_inputs(monkeypatch):
    """An empty grid or radius list is a ConfigurationError, not a numpy
    error or an empty result, and no key is derived for it."""
    derived, block_keys = [], exact.block_keys

    def counting(seed, start, stop):
        derived.append(stop - start)
        return block_keys(seed, start, stop)

    monkeypatch.setattr(exact, "block_keys", counting)
    empty = np.empty((0, 2))
    for call in (lambda: density_grid(QUADRATIC, UNIFORM_SEGMENTS, empty),
                 lambda: hitting_grid(QUADRATIC, UNIFORM_SEGMENTS, empty, [0.1]),
                 lambda: capacity_grid(QUADRATIC, UNIFORM_SEGMENTS, empty, [0.1])):
        with pytest.raises(ConfigurationError, match="grid: need at least one point"):
            call()
    for f in (QUADRATIC, MonteCarloField(QUADRATIC)):
        with pytest.raises(ConfigurationError, match="radii: need at least one radius"):
            hitting_grid(f, UNIFORM_SEGMENTS, [[0.0, 0.0]], [])
    assert sum(derived) == 0


def test_all_rule_grids_derive_no_key_and_still_check_the_seed(monkeypatch):
    """A grid whose every cell is on the mark rule draws nothing, so it
    calls block_keys not once, for any law, radius count or field of
    degree <= 2; the seed is refused out of [0, 2^64) all the same, before
    any work.  A grid with a Monte Carlo cell derives its keys once."""
    calls, block_keys = [], exact.block_keys

    def counting(seed, start, stop):
        calls.append((start, stop))
        return block_keys(seed, start, stop)

    monkeypatch.setattr(exact, "block_keys", counting)
    grid = [[0.3, -0.2], [1.1, 0.4], [-0.7, 0.0]]
    for q in (UNIT_SEGMENT, UNIFORM_SEGMENTS):
        for f in (QUADRATIC, CONSTANT):
            assert not capacity_grid(f, q, grid, [0.2, 0.05], 100, 20, seed=7)[1].any()
            assert not hitting_grid(f, q, grid, [0.1], 100, 20, seed=7)[1].any()
            assert not density_grid(f, q, grid, mark_draws=20, seed=7).standard_errors.any()
    assert calls == []
    for seed in (-1, 2 ** 64):
        for call in (lambda: capacity_grid(QUADRATIC, UNIFORM_SEGMENTS, grid, [0.1], seed=seed),
                     lambda: hitting_grid(QUADRATIC, UNIT_SEGMENT, grid, [0.1], seed=seed),
                     lambda: density_grid(QUADRATIC, UNIFORM_SEGMENTS, grid, seed=seed)):
            with pytest.raises(ConfigurationError, match="stream seed must lie in"):
                call()
    assert calls == []
    density_grid(MonteCarloField(QUADRATIC), UNIFORM_SEGMENTS, grid, mark_draws=20, seed=7)
    assert calls == [(0, 3)]


def test_density_grid_thread_invariance():
    grid = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [-0.5, 0.25]])
    f = MonteCarloField(QUADRATIC)
    one = density_grid(f, UNIFORM_SEGMENTS, grid, mark_draws=500, seed=9, threads=1)
    two = density_grid(f, UNIFORM_SEGMENTS, grid, mark_draws=500, seed=9, threads=2)
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.standard_errors, two.standard_errors)
    assert one.methods.tolist() == ["exact_quadrature_mark_mc"] * len(grid)


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


# ---------------------------------------------------------------------------
# the mark rule


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", ["segment_quadratic.cfg", "study_quadratic.cfg"])
def test_rule_rows_are_the_closed_form_on_the_quadratic_configs(name):
    """Under |y|² the exact route is the mark rule: every row equals
    (x1² + x2²) E[L] + E[L³]/3 within 1e-12 relative, with SE 0."""
    cfg = parse_config((CONFIGS / name).read_text())
    field = density_grid(cfg.intensity, cfg.marks, cfg.grid_points(), cfg.mark_draws, cfg.seed)
    assert field.methods.tolist() == ["exact_quadrature_mark_rule"] * len(field.values)
    assert field.standard_errors.tolist() == [0.0] * len(field.values)
    el, el3 = cfg.marks.length_moment(1), cfg.marks.length_moment(3)
    for x, value in zip(cfg.grid_points(), field.values):
        ref = analytic_segment_density(el, el3, x)
        assert abs(value - ref) <= 1e-12 * ref, (x, value, ref)


def test_a_cell_does_not_depend_on_its_neighbours():
    """On affine_clipped.cfg, f = max(0, 1 + y1), the mark rule is exact
    at the four right-hand points, whose grains and sausages stay where
    f > 0: their rows read 1 + x1 with SE 0 and equal the one-point
    calls, in density_grid and hitting_grid.  The two left-hand rows keep
    the Monte Carlo marks on their own keys, equal to a call on the first
    two points alone."""
    cfg = parse_config((CONFIGS / "affine_clipped.cfg").read_text())
    f, q, grid = cfg.intensity, cfg.marks, cfg.grid_points()

    def density(points):
        return density_grid(f, q, points, cfg.mark_draws, cfg.seed)

    def hitting(points):
        return hitting_grid(f, q, points, cfg.r_grid, cfg.mc_points, cfg.mark_draws, cfg.seed)

    values, ses, methods = density(grid)
    lam, lam_se = hitting(grid)
    rule = methods == "exact_quadrature_mark_rule"
    assert rule.tolist() == [False, False, True, True, True, True]
    assert np.allclose(values[rule], [1.5, 2.0, 2.5, 3.0], rtol=0.0, atol=1e-12)
    assert not ses[rule].any() and not lam_se[rule].any()
    for i in np.flatnonzero(rule):
        one_values, one_ses, one_methods = density(grid[i:i + 1])
        assert (one_values[0], one_ses[0], one_methods[0]) == (values[i], 0.0, methods[i])
        one_lam, _ = hitting(grid[i:i + 1])
        assert one_lam[0].tolist() == lam[i].tolist()
    head_values, head_ses, head_methods = density(grid[:2])
    assert head_methods.tolist() == methods[:2].tolist() == ["exact_quadrature_mark_mc"] * 2
    assert head_values.tolist() == values[:2].tolist() and head_ses.tolist() == ses[:2].tolist()
    assert (ses[:2] > 0.0).all() and (lam_se[:2] > 0.0).all()
    head_lam, head_lam_se = hitting(grid[:2])
    assert np.array_equal(head_lam, lam[:2]) and np.array_equal(head_lam_se, lam_se[:2])


def test_rule_cells_need_not_share_a_polynomial_box():
    """Two cells each on the rule under f = max(0, 1 + y1 + y2), whose
    reach boxes x ± 1.2 lie where f > 0 though the box around both does
    not: each cell is decided on its own box and its rows go to the moment
    rule without a second question, so the pair equals the two one-point
    calls, exactly and with SE 0."""
    f = IntensityField("affine", a=1.0, b=np.array([1.0, 1.0]))
    grid = np.array([[6.0, -3.0], [-3.0, 6.0]])
    lam, lam_se = hitting_grid(f, UNIFORM_SEGMENTS, grid, [0.2])
    assert not lam_se.any()
    for x, row in zip(grid, lam):
        assert hitting_grid(f, UNIFORM_SEGMENTS, [x], [0.2])[0][0].tolist() == row.tolist()


CLIPPED = IntensityField("affine", a=1.0, b=np.array([1.0, 0.0]))


def test_no_cell_at_the_clip_is_refused():
    """Under f = max(0, 1 + y1), unit segments of uniform direction and
    x = (x1, 0): the cells with x1 > r reach where f > 0 only, so they are
    on the rule, SE 0, and every SE-0 cell is (2r + πr²)(1 + x1).  At
    x1 = r = 0.15 the cell's box corner rounds to -0.9999999999999999, so
    the cell is on the rule, though each grain's own box corner rounds to
    -1.0: no cell is refused."""
    x1 = np.arange(11) / 20.0
    radii = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    grid = np.column_stack([x1, np.zeros(11)])
    lam, lam_se = hitting_grid(CLIPPED, UNIFORM_SEGMENTS, grid, radii, 3200, 20, seed=5)
    r = np.array(radii)
    assert not lam_se[x1[:, None] > r].any()
    exact_cells = lam_se == 0.0
    assert exact_cells[3, 2] and exact_cells.sum() >= 40
    closed = (2.0 * r + math.pi * r * r) * (1.0 + x1[:, None])
    assert np.all(np.abs(lam - closed)[exact_cells] <= 1e-12 * closed[exact_cells])


def test_rule_cells_call_the_moment_rule_directly(monkeypatch):
    """The rule cells of hitting_grid and of content_limit never reach
    sausage_integrals: the grid call has decided them once, a fixed grain
    on its own dilated box.  A cell off the rule, under a piecewise field,
    still does."""
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("sausage_integrals called")
    monkeypatch.setattr(exact, "sausage_integrals", refuse)
    lam, lam_se = hitting_grid(QUADRATIC, UNIFORM_SEGMENTS, [[0.3, -0.2], [1.0, 0.5]],
                               [0.3, 0.2, 0.1])
    assert lam.shape == (2, 3) and not lam_se.any()
    run = content_limit(UNIT_SEGMENT.grain, CONSTANT, [0.3, 0.2, 0.1])
    assert run.ratios.tolist() == pytest.approx([1.0 + math.pi * r / 2.0 for r in (0.3, 0.2, 0.1)],
                                                rel=1e-12)
    # a fixed segment along e1 under max(0, 1 + y2) at x2 = 0 and -0.5: the
    # clip y2 = -1 lies in the reach box x ± (1 + r), not in x - Z dilated
    segment = MarkDistribution("deterministic", grain=Grain.segment([1.0, 0.0]))
    radii = [0.3, 0.2, 0.1]
    lam, lam_se = hitting_grid(IntensityField("affine", a=1.0, b=[0.0, 1.0]), segment,
                               [[0.0, 0.0], [0.0, -0.5]], radii)
    assert not lam_se.any()
    volumes = [2.0 * r + math.pi * r * r for r in radii]
    np.testing.assert_allclose(lam, np.outer([1.0, 0.5], volumes), rtol=1e-12)
    for a in (1.0, 0.5):  # the same cells as Λ at the origin under max(0, a + y2)
        run = content_limit(segment.grain, IntensityField("affine", a=a, b=[0.0, 1.0]), radii)
        assert not run.ratio_ses.any()
        np.testing.assert_allclose(run.ratios, [a * (1.0 + math.pi * r / 2.0) for r in radii],
                                   rtol=1e-12)
    assert not calls
    piecewise = IntensityField("piecewise", pieces=((Box([-2.0, -2.0], [0.5, 3.0]), 2.0),
                                                    (Box([0.5, -2.0], [3.0, 3.0]), 0.75)))
    with pytest.raises(AssertionError, match="sausage_integrals called"):
        hitting_grid(piecewise, UNIT_SEGMENT, [[0.5, 0.0]], [0.1])
    assert len(calls) == 1


def test_mc_points_below_two_is_refused_on_all_rule_grids():
    """The rule draws no proposal, yet a sausage grid refuses mc_points < 2
    as a Monte Carlo cell would."""
    with pytest.raises(ConfigurationError, match="mc_points must be at least 2"):
        hitting_grid(QUADRATIC, UNIFORM_SEGMENTS, [[0.3, -0.2]], [0.1], mc_points=1)
    with pytest.raises(ConfigurationError, match="mc_points must be at least 2"):
        content_limit(UNIT_SEGMENT.grain, CONSTANT, [0.3, 0.2, 0.1], mc_points=1)


def test_study_exact_column_is_the_closed_form(tmp_path):
    """The `exact` column of study_quadratic's study.csv, which the mark
    Monte Carlo once put 0.0058 off at (-0.5, -0.5), is the closed form."""
    path = CONFIGS / "study_quadratic.cfg"
    assert main(["study", "--config", str(path), "--out", str(tmp_path), "--threads", "1"]) == 0
    lines = (tmp_path / "study.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 27
    for row in rows:
        ref = analytic_segment_density(1.0, 1.0, [float(row["x1"]), float(row["x2"])])
        assert abs(float(row["exact"]) - ref) <= 1e-12 * ref


def _length_reference(law, nodes=64):
    """A 64-node Gauss-Legendre rule on the support of the length law,
    weighted by its density."""
    if law.kind == "uniform":
        lengths, weights = np.polynomial.legendre.leggauss(nodes)
        return law.lo + (law.hi - law.lo) * (lengths + 1.0) / 2.0, weights / 2.0
    t, w = np.polynomial.legendre.leggauss(nodes)
    lengths = law.cap * (t + 1.0) / 2.0
    density = law.rate * np.exp(-law.rate * lengths) / -math.expm1(-law.rate * law.cap)
    return lengths, w * law.cap / 2.0 * density


def _direction_reference(d):
    """Unit directions and weights of a 64-node rule for the uniform law:
    the two signs in d = 1, 64 equal angles in d = 2, and in d = 3 an
    8-node Gauss rule in the height times 8 equal angles."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.full(2, 0.5)
    angles = 2.0 * math.pi * (np.arange(64 if d == 2 else 8) + 0.5) / (64 if d == 2 else 8)
    if d == 2:
        return np.stack([np.cos(angles), np.sin(angles)], axis=1), np.full(64, 1.0 / 64)
    z, w = np.polynomial.legendre.leggauss(8)
    s = np.sqrt(1.0 - z * z)[:, None]
    dirs = np.stack([(s * np.cos(angles)).ravel(), (s * np.sin(angles)).ravel(),
                     np.repeat(z, 8)], axis=1)
    return dirs, np.repeat(w / 2.0, 8) / 8.0


@pytest.mark.parametrize("law", [LengthLaw("uniform", lo=0.2, hi=1.5),
                                 LengthLaw("trunc_exp", rate=2.0),
                                 LengthLaw("trunc_exp", rate=0.5, cap=3.0)],
                         ids=["uniform", "trunc_exp", "trunc_exp_capped"])
@pytest.mark.parametrize("field", ["constant", "quadratic", "affine"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_mark_rule_equals_a_64_node_reference(d, field, law):
    """density_grid and hitting_grid on the rule (no key read: no draw)
    equal the mark means over a 64-node length rule times a 64-node
    direction rule within 1e-12 relative: the integrands are polynomials
    of degree <= 3 in L and <= 2 in the direction."""
    q = MarkDistribution("segment", length=law, orientation=OrientationLaw("uniform", dim=d))
    x = np.linspace(0.4, -0.3, d)
    f = {"constant": CONSTANT, "quadratic": QUADRATIC,
         "affine": IntensityField("affine", a=12.0, b=np.linspace(1.0, -0.5, d))}[field]
    lengths, length_weights = _length_reference(law)
    dirs, dir_weights = _direction_reference(d)
    b = (lengths[:, None, None] * dirs).reshape(-1, 1, d)
    weights = np.outer(length_weights, dir_weights).ravel()
    a = np.zeros(b.shape)
    line = line_integrals(x - a, x - b, f, 1) @ weights
    sausage = sausage_moment_rule((x - a)[:, 0], (x - b)[:, 0], f, 0.3) @ weights
    density = density_grid(f, q, [x])
    lam, lam_se = (v[0, 0] for v in hitting_grid(f, q, [x], [0.3]))
    assert density.standard_errors[0] == lam_se == 0.0
    assert abs(density.values[0] - line) <= 1e-12 * line
    assert abs(lam - sausage) <= 1e-12 * sausage


def test_density_grid_makes_one_line_kernel_call_per_chunk(monkeypatch):
    """On the rule a grid costs one line_integrals call per chunk of
    (point, node) rows, whatever its size: the unit segment law has 4
    nodes in d = 2, so a chunk of 40 rows holds 10 points.  No pool is
    started."""
    import concurrent.futures

    calls = []

    def counting(a, b, h, n):
        calls.append(len(a))
        return line_integrals(a, b, h, n)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(exact, "line_integrals", counting)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rng = np.random.default_rng(0)
    for chunk, points, expected in ((40, 1, 1), (40, 10, 1), (40, 11, 2), (40, 95, 10),
                                    (exact.MARK_CHUNK, 2500, 1)):
        monkeypatch.setattr(exact, "MARK_CHUNK", chunk)
        calls.clear()
        grid = rng.uniform(-1.0, 1.0, size=(points, 2))
        field = density_grid(QUADRATIC, UNIFORM_SEGMENTS, grid, seed=0, threads=2)
        assert len(calls) == expected and max(calls) <= chunk
        ref = [analytic_segment_density(1.0, 1.0, x) for x in grid]
        assert np.allclose(field.values, ref, rtol=1e-12, atol=0.0)


def _zigzag(vertices: int) -> MarkDistribution:
    """A deterministic polyline of the given vertex count in the plane."""
    steps = np.tile([[0.02, 0.01], [0.02, -0.01]], (vertices, 1))[:vertices - 1]
    return MarkDistribution("deterministic", grain=Grain.polyline(
        np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])))


def test_line_kernel_calls_hold_at_most_mark_chunk_segment_rows(monkeypatch):
    """MARK_CHUNK bounds the (point, node, segment) rows of a line_integrals
    call, not the points: at a chunk of 1,000 rows, on a 20 x 20 lattice
    under polyline_piecewise's field, a 4-vertex polyline (3 rows a point)
    takes 2 calls of 333 points and a 40-vertex one (39 rows) 16 calls of
    25, and the latter's tracemalloc peak is within 1.5 times the former's."""
    import tracemalloc

    rows = []

    def counting(a, b, h, n):
        rows.append(a.shape[0] * a.shape[1])
        return line_integrals(a, b, h, n)

    monkeypatch.setattr(exact, "line_integrals", counting)
    monkeypatch.setattr(exact, "MARK_CHUNK", 1000)
    f = parse_config((CONFIGS / "polyline_piecewise.cfg").read_text()).intensity
    axis = np.linspace(0.0, 1.0, 20)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    peaks, calls = {}, {}
    for vertices in (4, 40):
        q = _zigzag(vertices)
        rows.clear()
        tracemalloc.start()
        try:
            density_grid(f, q, grid)
            peaks[vertices] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        calls[vertices] = len(rows)
        assert max(rows) <= exact.MARK_CHUNK and sum(rows) == len(grid) * (vertices - 1)
    assert calls == {4: 2, 40: 16}
    assert peaks[40] <= 1.5 * peaks[4]


def test_chunked_line_kernel_values_equal_one_call(monkeypatch):
    """Each point's rows are integrated alike in any chunk: a 40-vertex
    polyline's densities over 300 points equal to the bit those of one
    call holding every row, and those of one point per call."""
    f = parse_config((CONFIGS / "polyline_piecewise.cfg").read_text()).intensity
    grid = np.random.default_rng(11).uniform(-0.5, 1.5, size=(300, 2))
    q = _zigzag(40)
    chunked = density_grid(f, q, grid).values.tolist()
    for chunk in (10 ** 9, 1):
        monkeypatch.setattr(exact, "MARK_CHUNK", chunk)
        assert density_grid(f, q, grid).values.tolist() == chunked


def test_hitting_grid_makes_one_moment_rule_call_for_all_radii(monkeypatch):
    """On the rule a grid of 10 points and 3 radii is 30 cells of the 4
    nodes of the unit segment law in d = 2, 120 rows that fit in
    MARK_CHUNK: one sausage_moment_rule call takes them all, one radius
    per row.  A chunk of 40 rows (10 cells) takes three calls.  Every cell
    equals the one-radius grid's to the bit, with SE 0."""
    calls = []

    def counting(a, b, h, r):
        calls.append((len(a), np.unique(r).size))
        return sausage_moment_rule(a, b, h, r)

    monkeypatch.setattr(exact, "sausage_moment_rule", counting)
    grid = np.random.default_rng(5).uniform(-1.0, 1.0, size=(10, 2))
    radii = [0.2, 0.1, 0.05]
    lam, lam_se = hitting_grid(QUADRATIC, UNIFORM_SEGMENTS, grid, radii, seed=0)
    assert calls == [(120, 3)] and not lam_se.any()
    for j, r in enumerate(radii):
        one_radius, _ = hitting_grid(QUADRATIC, UNIFORM_SEGMENTS, grid, [r])
        assert one_radius[:, 0].tolist() == lam[:, j].tolist()
    monkeypatch.setattr(exact, "MARK_CHUNK", 40)
    calls.clear()
    chunked, _ = hitting_grid(QUADRATIC, UNIFORM_SEGMENTS, grid, radii, seed=0)
    assert [rows for rows, _ in calls] == [40, 40, 40] and chunked.tolist() == lam.tolist()


def test_affine_clipped_keeps_its_rule_and_monte_carlo_cells(monkeypatch):
    """affine_clipped.cfg's oracle cells keep their split with every radius
    in one rule pass: the four right-hand points at both radii are 8 rule
    cells in one sausage_moment_rule call, Λ = (2r + πr²)(1 + x1) with SE
    0, and the two left-hand points at both radii are the 4 _mark_mean
    tasks, with SE > 0."""
    cfg = parse_config((CONFIGS / "affine_clipped.cfg").read_text())
    rule_rows, tasks, mean = [], [], exact._mark_mean

    def counting_rule(a, b, h, r):
        rule_rows.append(len(a))
        return sausage_moment_rule(a, b, h, r)

    def recording_mean(args):
        tasks.append((args[2].tolist(), args[3]))
        return mean(args)

    monkeypatch.setattr(exact, "sausage_moment_rule", counting_rule)
    monkeypatch.setattr(exact, "_mark_mean", recording_mean)
    grid = cfg.grid_points()
    lam, lam_se = hitting_grid(cfg.intensity, cfg.marks, grid, cfg.r_grid, cfg.mc_points,
                               cfg.mark_draws, cfg.seed)
    assert rule_rows == [8 * 4]
    assert tasks == [([x1, 0.0], r) for x1 in (-0.5, 0.0) for r in cfg.r_grid]
    assert (lam_se[:2] > 0.0).all() and not lam_se[2:].any()
    for x, row in zip(grid[2:], lam[2:]):
        ref = [(2.0 * r + math.pi * r * r) * (1.0 + x[0]) for r in cfg.r_grid]
        assert np.allclose(row, ref, rtol=1e-12, atol=0.0)


def test_capacity_grid_cells_are_the_mark_means_alone():
    """capacity_grid's cells equal 1 - exp(-Λ) of the mark-mean engine at
    each (point, radius) alone, on the rule (SE 0) and off it (cell i R + j
    on the key derive_key(seed, i R + j)), to the bit."""
    grid = np.array([[0.3, 0.3], [-0.5, 0.2]])
    radii = [0.2, 0.05]
    for f in (QUADRATIC, MonteCarloField(QUADRATIC)):
        probs, ses = capacity_grid(f, UNIFORM_SEGMENTS, grid, radii, 2000, 20, seed=3)
        for i, x in enumerate(grid):
            for j, r in enumerate(radii):
                key = derive_key(3, i * len(radii) + j)
                lam, lam_se, _ = (v[0, 0] for v in exact._means(f, UNIFORM_SEGMENTS, [x], [r],
                                                                2000, 20, lambda index: [key]))
                cell = (1.0 - math.exp(-lam), math.exp(-lam) * lam_se)
                assert (probs[i, j], ses[i, j]) == cell
                assert (cell[1] == 0.0) == (f is QUADRATIC)


@pytest.mark.parametrize("route", ["line", "sausage"])
def test_mark_draws_go_one_chunk_at_a_time(monkeypatch, route):
    """A chunk of 100 marks bounds the memory of a 4,000-mark mean off the
    rule (a piecewise field): its tracemalloc peak is within twice that of
    100 marks, and a tenth of the unchunked one; the mean and SE equal the
    unchunked ones within 1e-12 relative, the marks on their counters."""
    import tracemalloc

    f = IntensityField("piecewise", pieces=((Box([-2.0, -2.0], [0.5, 3.0]), 2.0),
                                            (Box([0.5, -2.0], [3.0, 3.0]), 0.75)))
    q = MarkDistribution("segment", length=LengthLaw("uniform", lo=0.0, hi=0.7),
                         orientation=OrientationLaw("uniform", dim=2))
    x, seed = [[0.25, 0.75]], 41

    def mean(draws):
        if route == "line":
            field = density_grid(f, q, x, mark_draws=draws, seed=seed)
            return field.values[0], field.standard_errors[0]
        return tuple(v[0, 0] for v in hitting_grid(f, q, x, [0.1], mc_points=draws * 16,
                                                    mark_draws=draws, seed=seed))

    def peak(draws):
        tracemalloc.start()
        try:
            result = mean(draws)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    whole_peak, whole = peak(4000)
    monkeypatch.setattr(exact, "MARK_CHUNK", 100)
    one_chunk_peak, _ = peak(100)
    chunked_peak, chunked = peak(4000)
    assert chunked_peak <= 2 * one_chunk_peak and 10 * chunked_peak <= whole_peak
    assert whole[1] > 0.0
    for got, ref in zip(chunked, whole):
        assert abs(got - ref) <= 1e-12 * ref
