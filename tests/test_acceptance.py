"""Acceptance suite: eleven end-to-end criteria, one test and one printed
pass/fail line each.

Every criterion pins its seed and sample sizes; tolerances are stated in
the asserts.  Criterion 9 holds each finite-radius count ratio to its own
expectation and applies its 10% band to the extrapolated limit r → 0,
because the ratio at r = 0.05 carries a first-order bias of +12.6%.
"""

import math

import numpy as np
import pytest

from meandense import (
    Grain,
    IntensityField,
    LengthLaw,
    MarkDistribution,
    OrientationLaw,
    accumulate_hits,
    capacity_estimate,
    contact_derivative,
    content_limit,
    count_estimate,
    density_grid,
    measure_in_region,
)
from meandense.boolean import _sample_block, checked_guard_margin, count_hits
from meandense.cli import main
from meandense.geometry import Box
from meandense.grains import sausage_moment_rule
from meandense.minkowski import limit_diagnostics, ratio_bound
from meandense.streams import derive_key
from references import analytic_segment_density, histogram_reduction, lattice_points

THREADS = 4

QUADRATIC = IntensityField("quadratic")
CONSTANT_1 = IntensityField("constant", c=1.0)
CONSTANT_2 = IntensityField("constant", c=2.0)
UNIT_SEGMENT_GRAIN = Grain.segment(np.array([1.0, 0.0]))
PAPER_MARKS = MarkDistribution(
    "segment",
    length=LengthLaw("fixed", value=1.0),
    orientation=OrientationLaw("uniform", dim=2),
)
UNIFORM_LENGTH_MARKS = MarkDistribution(
    "segment",
    length=LengthLaw("uniform", lo=0.5, hi=1.5),
    orientation=OrientationLaw("uniform", dim=2),
)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_density_on_grid():
    """Exact route reproduces (x1²+x2²)·E[L] + E[L³]/3 on a 5×5 grid."""
    axes = np.linspace(-1.0, 1.0, 5)
    gx, gy = np.meshgrid(axes, axes, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    field = density_grid(QUADRATIC, PAPER_MARKS, grid, mark_draws=4000, seed=101,
                         threads=THREADS)
    worst = 0.0
    ok = True
    for pt, val, se in zip(grid, field.values, field.standard_errors):
        target = analytic_segment_density(1.0, 1.0, pt)
        tol = max(3.0 * se, 1e-3)
        worst = max(worst, abs(val - target) / tol)
        ok = ok and abs(val - target) <= tol
    report(1, "exact density matches the closed form on the 5x5 grid", ok,
           f"worst error / tolerance = {worst:.2f}")


def test_criterion_02_estimator_consistency():
    """λ̂ with N = 1e5, R = N^(-1/3) within 3 plug-in SE of 1/3 and 4/3."""
    n_samples = 100_000
    radius = float(n_samples) ** (-1.0 / 3.0)
    xs = np.array([[0.0, 0.0], [1.0, 0.0]])
    targets = [1.0 / 3.0, 4.0 / 3.0]
    ind, _ = accumulate_hits(QUADRATIC, PAPER_MARKS, xs, [radius], n_samples,
                             seed=202, threads=THREADS)
    details = []
    ok = True
    for i, target in enumerate(targets):
        lam, se = capacity_estimate(int(ind[i, 0]), n_samples, 2, 1, radius)
        z = (lam - target) / se
        details.append(f"x={tuple(xs[i])}: lambda_hat={lam:.4f}, z={z:+.2f}")
        ok = ok and abs(z) <= 3.0
    report(2, "estimator consistent at (0,0) and (1,0)", ok, "; ".join(details))


def test_criterion_03_fixed_radius_mean_and_variance():
    """200 experiments of N = 1e3 at r = 0.1: studentized mean in [-3, 3]
    and empirical/theoretical variance ratio in [0.7, 1.4]."""
    n_samples, r, experiments = 1000, 0.1, 200
    x = np.array([[0.5, 0.5]])
    prob = 1.0 - math.exp(-(0.2 + 0.01 * math.pi))
    oracle = prob / (2.0 * r)
    theory_var = prob * (1.0 - prob) / (n_samples * (2.0 * r) ** 2)
    lam_hats = np.empty(experiments)
    for k in range(experiments):
        ind, _ = accumulate_hits(CONSTANT_1, PAPER_MARKS, x, [r], n_samples,
                                 seed=303, index0=k * n_samples, threads=THREADS)
        lam_hats[k] = int(ind[0, 0]) / n_samples / (2.0 * r)
    z = (lam_hats.mean() - oracle) / (lam_hats.std(ddof=1) / math.sqrt(experiments))
    ratio = lam_hats.var(ddof=1) / theory_var
    ok = abs(z) <= 3.0 and 0.7 <= ratio <= 1.4
    report(3, "fixed-r mean and variance identities", ok,
           f"z={z:+.2f}, variance ratio={ratio:.3f}")


def test_criterion_04_stationary_corollary():
    """c = 2, L ~ U(0.5, 1.5): both routes within 3 SE of c·E[L] = 2 at
    three points, and the exact route, the mark rule, is flat across the
    grid: spread 0, SE 0."""
    grid = np.array([[0.3, 0.3], [0.5, 0.7], [0.8, 0.4]])
    target = 2.0

    exact = density_grid(CONSTANT_2, UNIFORM_LENGTH_MARKS, grid, mark_draws=20_000,
                         seed=404, threads=THREADS)
    ok = all(
        abs(v - target) <= 3.0 * se
        for v, se in zip(exact.values, exact.standard_errors)
    )
    spread = float(exact.values.max() - exact.values.min())
    hi, lo = int(exact.values.argmax()), int(exact.values.argmin())
    spread_tol = 3.0 * math.hypot(exact.standard_errors[hi], exact.standard_errors[lo])
    ok = ok and spread <= spread_tol and spread == 0.0 and not exact.standard_errors.any()

    n_samples = 20_000
    radius = 0.5 * float(n_samples) ** (-1.0 / 3.0)
    ind, _ = accumulate_hits(CONSTANT_2, UNIFORM_LENGTH_MARKS, grid, [radius],
                             n_samples, seed=405, threads=THREADS)
    zs = []
    for i in range(grid.shape[0]):
        lam, se = capacity_estimate(int(ind[i, 0]), n_samples, 2, 1, radius)
        zs.append((lam - target) / se)
        ok = ok and abs(zs[-1]) <= 3.0
    report(4, "stationary corollary: density = c E[L] = 2 by both routes", ok,
           f"exact spread={spread:.4f} (tol {spread_tol:.4f}), "
           f"estimator z = {', '.join(f'{z:+.2f}' for z in zs)}")


def test_criterion_05_deterministic_grain_closed_form():
    """density_grid of the deterministic unit-segment law equals
    x1² - x1 + 1/3 + x2² to 1e-9 at 20 random points (quadratic intensity)."""
    xs = np.random.default_rng(derive_key(505, 0)).uniform(-2.0, 2.0, size=(20, 2))
    unit_segment = MarkDistribution("deterministic", grain=UNIT_SEGMENT_GRAIN)
    values = density_grid(QUADRATIC, unit_segment, xs).values
    closed = xs[:, 0] ** 2 - xs[:, 0] + 1.0 / 3.0 + xs[:, 1] ** 2
    worst = float(np.abs(values - closed).max())
    ok = worst <= 1e-9
    report(5, "deterministic-grain corollary exact to 1e-9", ok,
           f"worst |error| = {worst:.2e}")


def test_criterion_06_minkowski_content():
    """Sausage ratios: quadratic-f limit within 2% of 1/3; constant-f
    ratios match 1 + πr/2 within 3 SE + 1e-12 relative and respect the
    uniform bound."""
    r_grid = [0.2, 0.1, 0.05, 0.02]
    quad_run = content_limit(UNIT_SEGMENT_GRAIN, QUADRATIC, r_grid,
                             mc_points=2_000_000, seed=606, threads=THREADS)
    rel_err = abs(quad_run.limit_estimate - 1.0 / 3.0) / (1.0 / 3.0)
    ok = rel_err <= 0.02 and limit_diagnostics(quad_run)["within"]

    const_run = content_limit(UNIT_SEGMENT_GRAIN, CONSTANT_1, r_grid,
                              mc_points=2_000_000, seed=607, threads=THREADS)
    worst_dev = 0.0
    for r, ratio, se in zip(const_run.r_grid, const_run.ratios, const_run.ratio_ses):
        ref = 1.0 + math.pi * r / 2.0
        worst_dev = max(worst_dev, abs(ratio - ref) / ref)
        ok = ok and abs(ratio - ref) <= 3.0 * se + 1e-12 * abs(ref)
    margin = float((ratio_bound(UNIT_SEGMENT_GRAIN) - const_run.ratios).min())
    ok = ok and margin > 0.0
    report(6, "generalized Minkowski content limit and uniform bound", ok,
           f"limit rel err={rel_err:.3%}, worst ratio rel dev={worst_dev:.1e}, "
           f"bound margin={margin:.1f}")


def _region_measure_mean(f, marks, region, replicates, seed):
    box = region.dilate(checked_guard_margin(marks, 0.0))
    a, b, owner = _sample_block(f, marks, box, seed, 0, replicates)
    vals = measure_in_region(a, b, owner, replicates, marks.n, region)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicates))


def _region_grid_quadrature(f, marks, region, counts, seed):
    grid = lattice_points(region, counts)
    field = density_grid(f, marks, grid, mark_draws=2000, seed=seed, threads=THREADS)
    cell = region.volume / grid.shape[0]
    value = float(field.values.sum() * cell)
    se = float(np.sqrt((field.standard_errors ** 2).sum()) * cell)
    return value, se


def test_criterion_07_measure_level_identity():
    """Mean H¹ measure in A = [0,1]² over 1e4 replicates matches the grid
    quadrature of the exact density, for both benchmark scenarios."""
    region = Box([0.0, 0.0], [1.0, 1.0])
    details = []
    ok = True
    for name, f, marks, seed in (
        ("stationary", CONSTANT_1, PAPER_MARKS, 707),
        ("quadratic", QUADRATIC, PAPER_MARKS, 708),
    ):
        mc_mean, mc_se = _region_measure_mean(f, marks, region, 10_000, seed)
        quad_val, quad_se = _region_grid_quadrature(f, marks, region, [20, 20], seed + 50)
        z = (mc_mean - quad_val) / math.hypot(mc_se, quad_se)
        details.append(f"{name}: mc={mc_mean:.4f}, quad={quad_val:.4f}, z={z:+.2f}")
        ok = ok and abs(z) <= 3.0
    report(7, "measure-level identity on A=[0,1]^2", ok, "; ".join(details))


def test_criterion_08_histogram_equivalence():
    """n = 0 reduction: bit-identical to the point-grain estimator for 1e3
    random queries; a 1e5-sample uniform histogram is consistent at 0.5."""
    rng = np.random.default_rng(derive_key(808, 0))
    samples = rng.random(200)
    # one point grain per realization, at its sample
    germs, m = samples[:, None, None], samples.size
    identical = True
    for _ in range(1000):
        x = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(0.01, 0.5))
        a = histogram_reduction(samples, x, r)
        ind, _ = count_hits(germs, germs, np.arange(m), [[x]], [r])
        b = capacity_estimate(int(ind[0, 0]), m, 1, 0, r)[0]
        identical = identical and (a == b)

    big = np.random.default_rng(derive_key(808, 1)).random(100_000)
    r = 0.02
    val = histogram_reduction(big, 0.5, r)
    p_hat = val * 2.0 * r
    se = math.sqrt(p_hat * (1.0 - p_hat) / big.size) / (2.0 * r)
    consistent = abs(val - 1.0) <= 3.0 * se
    ok = identical and consistent
    report(8, "n=0 histogram reduction equivalence and consistency", ok,
           f"bit-identical={identical}, estimate at 0.5 = {val:.4f} +- {se:.4f}")


def test_criterion_09_grain_count_route():
    """Count estimator r-sweep {0.2, 0.1, 0.05} at the origin decreases
    toward 1/3; the count route dominates the indicator route pointwise.

    At finite r the count ratio estimates m(r) = E_Q Λ(x − Z₀ ⊕ B_r) / (2r)
    = 1/3 + πr/4 + r² + πr³/4 (the integral of |y|² over the stadium of a
    unit segment), which sits 12.6% above 1/3 at r = 0.05.  Each replicate's
    count is Poisson with mean 2r·m(r), so every ratio must lie within
    3 SE = 3·sqrt(m(r) / (2rN)) of m(r).  m(r) is the exact route's
    sausage integral over 2r (cubature, SE 0), which must agree with the
    hand-derived form to 1e-12 relative.  The 10% band applies to the limit
    r → 0, estimated by the linear extrapolation 2ĉ(0.05) − ĉ(0.1) through
    the two smallest radii, as `content_limit` does."""
    rs = [0.2, 0.1, 0.05]
    n_samples = 100_000
    x = np.array([[0.0, 0.0]])
    ind, cnt = accumulate_hits(QUADRATIC, PAPER_MARKS, x, rs, n_samples,
                               seed=909, threads=THREADS)
    count_ratios = [int(cnt[0, j]) / n_samples / (2.0 * r) for j, r in enumerate(rs)]
    indicator_ratios = [int(ind[0, j]) / n_samples / (2.0 * r) for j, r in enumerate(rs)]

    decreasing = all(a > b for a, b in zip(count_ratios, count_ratios[1:]))
    above = all(c > 1.0 / 3.0 for c in count_ratios)
    dominates = all(c >= i for c, i in zip(count_ratios, indicator_ratios))

    # small-batch cross-check through the public estimators on the totals
    window = Box([-0.25, -0.25], [0.25, 0.25])
    ind, cnt = accumulate_hits(QUADRATIC, PAPER_MARKS, x, rs, 500, seed=910, window=window)
    for j, r in enumerate(rs):
        dominates = dominates and (
            count_estimate(int(cnt[0, j]), 500, 2, 1, r)
            >= capacity_estimate(int(ind[0, j]), 500, 2, 1, r)[0]
        )

    # m(r) from the exact route's moment rule, independent of the
    # simulator; |y|² is rotation invariant, so one orientation stands for
    # the uniform law.  The rule is exact for |y|², so it must agree with
    # the hand-derived form within 1e-12 relative.
    means, sausage_devs = [], []
    reference_ok = True
    a, b = UNIT_SEGMENT_GRAIN.rows()
    for r in rs:
        lam = sausage_moment_rule(a, b, QUADRATIC, r)[0]
        hand = 2.0 * r * (1.0 / 3.0 + math.pi * r / 4.0 + r ** 2 + math.pi * r ** 3 / 4.0)
        reference_ok = reference_ok and abs(lam - hand) <= 1e-12 * hand
        sausage_devs.append((lam - hand) / hand)
        means.append(lam / (2.0 * r))
    zs = [(c - m) / math.sqrt(m / (2.0 * r * n_samples))
          for c, m, r in zip(count_ratios, means, rs)]
    at_mean = all(abs(z) <= 3.0 for z in zs)

    limit = 2.0 * count_ratios[-1] - count_ratios[-2]
    limit_rel_dev = (limit - 1.0 / 3.0) / (1.0 / 3.0)
    limit_within_10pct = abs(limit - 1.0 / 3.0) <= 0.1 / 3.0
    ok = decreasing and above and dominates and at_mean and reference_ok and limit_within_10pct
    report(9, "grain-count route: sweep at its finite-r mean, extrapolated limit "
              "within 10%", ok,
           f"sweep={[f'{c:.4f}' for c in count_ratios]}, "
           f"z vs m(r)={[f'{z:+.2f}' for z in zs]}, "
           f"m(r) rel dev={[f'{v:+.1e}' for v in sausage_devs]}, "
           f"decreasing={decreasing}, above={above}, dominates={dominates}, "
           f"limit={limit:.4f} (rel dev {limit_rel_dev:+.1%})")


def test_criterion_10_contact_distribution_route():
    """Half the fitted contact-distribution slope at r = 0 within 10% of
    the exact density (= 1) at two grid points of the stationary model."""
    window = Box([0.0, 0.0], [1.0, 1.0])
    r_grid = np.linspace(0.02, 0.1, 5)
    xs = [[0.5, 0.5], [0.3, 0.6]]
    ind, _ = accumulate_hits(CONSTANT_1, PAPER_MARKS, xs, r_grid, 6000, seed=1010, window=window)
    details = []
    ok = True
    for x, hits in zip(xs, ind):
        est = contact_derivative(hits, 6000, 2, 1, r_grid)
        details.append(f"x={tuple(x)}: slope/2 = {est:.3f}")
        ok = ok and abs(est - 1.0) <= 0.1
    report(10, "contact-distribution route within 10% of the density",
           ok, "; ".join(details))


ESTIMATE_CFG = """
d = 2
n = 1
seed = 21
intensity.kind = quadratic
marks.kind = segment_law
marks.length.kind = fixed
marks.length.value = 1
marks.orientation.kind = uniform
window.lo = -1, -1
window.hi = 1, 1
x_grid.kind = list
x_grid.points = 0,0; 0.5,0.5
N = 2000
r = 0.1
output = out
"""

MINKOWSKI_CFG = """
d = 2
n = 1
seed = 22
intensity.kind = constant
intensity.c = 1.0
marks.kind = deterministic
marks.grain.kind = segment
marks.grain.length = 1
window.lo = -2, -2
window.hi = 2, 2
r_grid = 0.2, 0.1, 0.05
mc_points = 200000
output = out
"""


ORACLE_CFG = ESTIMATE_CFG + """
r_grid = 0.2, 0.1
mc_points = 20000
mark_draws = 100
"""

STUDY_CFG = """
d = 2
n = 1
seed = 23
intensity.kind = quadratic
marks.kind = segment_law
marks.length.kind = fixed
marks.length.value = 1
marks.orientation.kind = uniform
window.lo = -1, -1
window.hi = 1, 1
x_grid.kind = list
x_grid.points = 0,0; 0.5,0.5
N_grid = 500, 1000
replications = 2
bandwidth.c0 = 1.0
bandwidth.beta = 0.25
mark_draws = 200
output = out
"""


def test_criterion_11_thread_determinism(tmp_path, always_pool):
    """Identical CSV bytes from 1-thread and 8-thread runs of the CLI; the
    8-thread runs fork their workers however light the tasks."""
    ok = True
    details = []
    for name, cfg_text, command, csv_name in (
        ("estimate", ESTIMATE_CFG, "estimate", "estimate.csv"),
        ("minkowski", MINKOWSKI_CFG, "minkowski", "minkowski.csv"),
        ("exact", ESTIMATE_CFG, "exact", "exact.csv"),
        ("oracle", ORACLE_CFG, "oracle", "oracle.csv"),
        ("study", STUDY_CFG, "study", "study.csv"),
    ):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text)
        out1 = tmp_path / f"{name}_t1"
        out8 = tmp_path / f"{name}_t8"
        rc1 = main([command, "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        rc8 = main([command, "--config", str(cfg), "--out", str(out8), "--threads", "8"])
        same = (out1 / csv_name).read_bytes() == (out8 / csv_name).read_bytes()
        ok = ok and rc1 == 0 and rc8 == 0 and same
        details.append(f"{command}: identical={same}")
    report(11, "CSV output independent of the thread count", ok, "; ".join(details))
