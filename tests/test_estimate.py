"""Capacity-functional estimators: streaming counts and studies."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandense import (
    ConfigurationError,
    Grain,
    IntensityField,
    LengthLaw,
    MarkDistribution,
    OrientationLaw,
    QueryError,
    Realizations,
    capacity_estimate,
    contact_derivative,
    convergence_study,
    count_estimate,
    density_estimate,
    empirical_capacity,
    histogram_reduction,
    simulate,
)
from meandense import estimate as estimate_module
from meandense.boolean import checked_guard_margin
from meandense.estimate import accumulate_hits
from meandense.geometry import Box, ball_volume, segment_distances
from meandense.poisson import sample_block
from meandense.streams import derive_key

CONSTANT = IntensityField("constant", c=1.0)
UNIT_SEGMENT = MarkDistribution("deterministic", grain=Grain.segment(np.array([1.0, 0.0])))
RANDOM_SEGMENTS = MarkDistribution(
    "segment",
    length=LengthLaw("fixed", value=1.0),
    orientation=OrientationLaw("uniform", dim=2),
)


def make_batch(count, seed, window=Box([0.0, 0.0], [1.0, 1.0]), r_max=0.3,
               f=CONSTANT, q=RANDOM_SEGMENTS):
    return simulate(f, q, window, r_max, count, seed)


def hits(batch, x, r) -> int:
    """Realizations of the batch meeting the closed ball B_r(x)."""
    return int(batch.counts(x, [r])[0][0])


# ---------------------------------------------------------------------------
# list-based estimators


def test_empirical_capacity_monotone_in_radius():
    batch = make_batch(200, seed=1)
    x = [0.5, 0.5]
    caps = [empirical_capacity(batch, x, r) for r in (0.05, 0.1, 0.2, 0.3)]
    assert all(0.0 <= c <= 1.0 for c in caps)
    assert caps == sorted(caps)


def test_density_estimate_matches_manual_count():
    batch = make_batch(300, seed=2)
    x, r = [0.5, 0.5], 0.1
    lam, se = density_estimate(batch, x, r)
    hit = hits(batch, np.array(x), r)
    assert lam == capacity_estimate(hit, 300, 2, 1, r)[0]
    p = hit / 300
    assert se == pytest.approx(math.sqrt(p * (1 - p) / 300) / (2 * r))


def test_density_estimate_validation():
    batch = make_batch(5, seed=3)
    for radius in (0.0, math.nan):
        with pytest.raises(ConfigurationError, match="radius"):
            density_estimate(batch, [0.5, 0.5], radius)
    x = [0.5, 0.5]
    # the streaming counter: zero replicates are zero totals, fewer are refused
    zero = accumulate_hits(CONSTANT, RANDOM_SEGMENTS, [x], [0.1], 0, seed=1)
    assert [t.tolist() for t in zero] == [[[0]], [[0]]]
    for xs, rs, n_samples, name in (([x], [0.1], -5, "n_samples"),
                                    (np.zeros((0, 2)), [0.1], 5, "xs"),
                                    ([x], [], 5, "rs")):
        with pytest.raises(ConfigurationError, match=name):
            accumulate_hits(CONSTANT, RANDOM_SEGMENTS, xs, rs, n_samples, seed=1)
    with pytest.raises(QueryError, match="nonnegative"):
        accumulate_hits(CONSTANT, RANDOM_SEGMENTS, [x], [0.1, math.nan], 5, seed=1)
    empty = make_batch(0, seed=3)
    for query in (
        lambda: density_estimate(empty, [0.5, 0.5], 0.1),
        lambda: empirical_capacity(empty, [0.5, 0.5], 0.1),
        lambda: count_estimate(empty, [0.5, 0.5], 0.1),
        lambda: contact_derivative(empty, [0.5, 0.5], [0.1, 0.05]),
    ):
        with pytest.raises(ConfigurationError, match="need at least one realization"):
            query()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from([0.05, 0.1, 0.2]))
def test_count_dominates_indicator(seed, r):
    batch = make_batch(100, seed=seed)
    x = [0.5, 0.5]
    assert count_estimate(batch, x, r) >= density_estimate(batch, x, r)[0]


def test_count_estimate_validation():
    batch = make_batch(3, seed=4)
    for r in (-0.1, math.nan):
        with pytest.raises(ConfigurationError, match="radius"):
            count_estimate(batch, [0.5, 0.5], r)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_count_estimate_refuses_a_radius_whose_normalizer_underflows():
    # b_2 r^2 underflows to 0 at r = 1e-200 in d = 3: a ZeroDivisionError
    segment = MarkDistribution("deterministic", grain=Grain.segment([1.0, 0.0, 0.0]))
    batch = simulate(IntensityField("constant", c=5.0), segment, Box([0, 0, 0], [1, 1, 1]),
                     0.5, 5, seed=1)
    with pytest.raises(ConfigurationError,
                       match=re.escape("radius 1e-200 is too small: b_2 R^2 = 0.0")):
        count_estimate(batch, [0.5, 0.5, 0.5], 1e-200)


def test_contact_derivative_needs_codimension_one():
    q = MarkDistribution("deterministic", grain=Grain.point(2))
    batch = make_batch(20, seed=5, q=q)
    with pytest.raises(ConfigurationError):
        contact_derivative(batch, [0.5, 0.5], [0.1, 0.05])
    seg_batch = make_batch(20, seed=6)
    with pytest.raises(ConfigurationError):
        contact_derivative(seg_batch, [0.5, 0.5], [0.1])  # one radius only
    # a repeated radius made the fit rank-deficient: a RankWarning and a number
    for r_grid in ([0.1, 0.1], [0.2, 0.05, 0.05]):
        with pytest.raises(ConfigurationError, match="r_grid: radii must be distinct"):
            contact_derivative(seg_batch, [0.5, 0.5], r_grid)


def test_batch_queries_are_checked_against_its_r_max():
    window = Box([0.0, 0.0], [1.0, 1.0])
    batch = simulate(CONSTANT, RANDOM_SEGMENTS, window, 0.1, 3, seed=7)
    x = [0.5, 0.5]
    assert 0.0 <= empirical_capacity(batch, x, 0.1) <= 1.0
    assert count_estimate(batch, x, 0.1) >= density_estimate(batch, x, 0.1)[0]
    for query in (
        lambda: empirical_capacity(batch, x, 0.15),
        lambda: density_estimate(batch, x, 0.15),
        lambda: count_estimate(batch, x, 0.15),
        lambda: contact_derivative(batch, x, [0.05, 0.15]),
    ):
        with pytest.raises(QueryError, match="exceeds simulated r_max 0.1"):
            query()


def one_realization_batches(batch):
    """Each realization of the batch as a batch of one."""
    out = []
    for i in range(batch.count):
        mine = batch.owner == i
        out.append(Realizations(batch.a[mine], batch.b[mine], np.zeros(mine.sum(), dtype=int), 1,
                                batch.window, batch.r_max, batch.n))
    return out


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.sampled_from(["random_law", "polyline"]))
def test_list_estimators_equal_per_realization_sums(seed, count, kind):
    rng = np.random.default_rng(seed)
    q = _mark_law(kind, 2, rng)
    batch = make_batch(count, seed, q=q)
    x = rng.uniform(0.3, 0.7, size=2)
    r_grid = [0.3, 0.2, 0.1, 0.05]
    per_realization = one_realization_batches(batch)
    for r in r_grid:
        hit = sum(hits(real, x, r) for real in per_realization)
        grains = sum(int(real.counts(x, [r])[1][0]) for real in per_realization)
        assert empirical_capacity(batch, x, r) == hit / count
        assert count_estimate(batch, x, r) == grains / count / ball_volume(1, r)
    t_hat = [sum(hits(real, x, r) for real in per_realization) / count for r in r_grid]
    slope = np.polyfit(np.array(r_grid), np.array(t_hat), 1)[0]
    assert contact_derivative(batch, x, r_grid) == float(slope) / 2.0


def test_histogram_reduction_hand_value():
    samples = np.array([0.0, 0.1, 0.2, 0.9])
    # closed interval [0.0, 0.2] catches three of four samples
    val = histogram_reduction(samples, 0.1, 0.1)
    assert val == pytest.approx(3 / 4 / 0.2)
    with pytest.raises(ConfigurationError):
        histogram_reduction(samples, 0.1, 0.0)
    with pytest.raises(ConfigurationError, match="need at least one sample"):
        histogram_reduction([], 0.1, 0.1)
    with pytest.raises(ConfigurationError, match="half_width"):
        histogram_reduction([0.1], 0.0, float("nan"))
    for x in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="x must be finite"):
            histogram_reduction(samples, x, 0.1)
    # a non-finite sample would count in the denominator only
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError, match=f"samples must be finite, got {bad}"):
            histogram_reduction([0.1, bad], 0.1, 0.05)


def point_batch(samples, window):
    """A batch of one point grain at each sample of the line (n = 0)."""
    m = samples.size
    germs = samples[:, None, None]
    return Realizations(germs, germs, np.arange(m), m, window, r_max=0.5, n=0)


def test_histogram_bit_identity_with_point_grain_estimator():
    rng = np.random.default_rng(derive_key(8, 0))
    samples = rng.random(500)
    realizations = point_batch(samples, Box([-1.0], [2.0]))
    for x, r in ((0.5, 0.1), (0.25, 0.05), (0.8, 0.2)):
        assert histogram_reduction(samples, x, r) == density_estimate(realizations, [x], r)[0]


# ---------------------------------------------------------------------------
# streaming counters


def test_accumulate_hits_checks_query_points_as_one_array():
    """The query points are checked once, as one (P, d) array, with the
    messages of the per-point check: the first bad point is named."""
    x = [0.5, 0.5]
    for xs, message in (([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]],
                         "dimension mismatch: expected 2, got 3"),
                        ([x, [0.5, math.nan], [math.inf, 0.0]],
                         r"non-finite point coordinates: \[0\.5 nan\]"),
                        (np.zeros((0, 2)), "xs: need at least one query point")):
        with pytest.raises(ConfigurationError, match=message):
            accumulate_hits(CONSTANT, RANDOM_SEGMENTS, xs, [0.1], 5, seed=1)


def test_accumulate_hits_thread_invariance(monkeypatch, always_pool):
    """Blocks of about 40 replicates: ten tasks for a real pool."""
    monkeypatch.setattr(estimate_module, "_BLOCK_SEGMENTS", 256)
    xs = [[0.3, 0.3], [0.7, 0.7]]
    rs = [0.05, 0.1]
    a_ind, a_cnt = accumulate_hits(CONSTANT, RANDOM_SEGMENTS, xs, rs, 400, seed=10, threads=1)
    b_ind, b_cnt = accumulate_hits(CONSTANT, RANDOM_SEGMENTS, xs, rs, 400, seed=10, threads=4)
    assert np.array_equal(a_ind, b_ind)
    assert np.array_equal(a_cnt, b_cnt)
    assert np.all(a_cnt >= a_ind)
    # hits are monotone in the radius
    assert np.all(a_ind[:, 1] >= a_ind[:, 0])


def test_accumulate_hits_blocks_compose():
    xs = [[0.5, 0.5]]
    rs = [0.1]
    full_ind, full_cnt = accumulate_hits(CONSTANT, RANDOM_SEGMENTS, xs, rs, 300, seed=11)
    h1 = accumulate_hits(CONSTANT, RANDOM_SEGMENTS, xs, rs, 100, seed=11, index0=0)
    h2 = accumulate_hits(CONSTANT, RANDOM_SEGMENTS, xs, rs, 200, seed=11, index0=100)
    assert np.array_equal(full_ind, h1[0] + h2[0])
    assert np.array_equal(full_cnt, h1[1] + h2[1])


def _mark_law(kind, d, rng):
    """A mark law of the given kind in R^d with parameters drawn from rng."""
    direction = rng.normal(size=d)
    if kind == "point":
        return MarkDistribution("deterministic", grain=Grain.point(d))
    if kind == "segment":
        return MarkDistribution(
            "deterministic",
            grain=Grain.segment(rng.uniform(0.2, 1.0) * direction / np.linalg.norm(direction)),
        )
    if kind == "polyline":
        steps = rng.uniform(-0.5, 0.5, size=(2, d))
        vertices = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)])
        return MarkDistribution("deterministic", grain=Grain.polyline(vertices))
    if kind == "fixed_law":
        return MarkDistribution(
            "segment",
            length=LengthLaw("fixed", value=0.7),
            orientation=OrientationLaw("fixed", dim=d, angle=1.0, polar=0.5, azimuth=2.0),
        )
    return MarkDistribution(
        "segment",
        length=LengthLaw("uniform", lo=0.0, hi=1.0),
        orientation=OrientationLaw("uniform", dim=d),
    )


def _grain_distance(germ, grain, x):
    """Distance from x to one placed grain, with the arithmetic of
    _tie_radii."""
    a, b = grain.rows()
    return segment_distances(x, germ + a, germ + b).min()


def _placed(points, b, q):
    """(germ, grain) pairs of germs of law q with their marks' end rows b:
    one grain object per germ."""
    if q.kind == "deterministic":
        return [(p, q.grain) for p in points]
    return [(p, Grain.segment(v)) for p, v in zip(points, b[:, 0])]


def _tie_radii(placed, xs, r_top):
    """Exact distances from each x to the placed grains that lie within
    r_top, computed with the arithmetic of the realization's own queries."""
    out = set()
    for x in xs:
        for germ, grain in placed:
            a, b = grain.rows()
            dist = segment_distances(x, germ + a, germ + b)
            out.update(float(v) for v in dist if v <= r_top)
    return sorted(out)[:4]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["point", "segment", "polyline", "fixed_law", "random_law"]),
    st.sampled_from(["constant", "quadratic"]),
    st.integers(0, 2 ** 32 - 1),
    st.integers(1, 12),
    st.integers(0, 50),
)
def test_block_engine_matches_realization_reference(d, kind, field, seed, n_samples, index0):
    """The block engine's integer totals equal Realizations.counts on a
    simulate() batch over the same window and streams, with blocks of a few
    replicates so that one call spans several blocks, and both equal a
    per-grain loop, with no prefilter and no bincount, over the grain
    objects of the germs and marks that sample_block draws on those
    streams, one replicate at a time."""
    rng = np.random.default_rng(seed)
    q = _mark_law(kind, d, rng)
    f = CONSTANT if field == "constant" else IntensityField("quadratic")
    xs = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 4)), d))
    r_top = 0.3
    window = Box(xs.min(axis=0) - r_top, xs.max(axis=0) + r_top)
    batch = simulate(f, q, window, r_top, n_samples, seed, index0)
    box = window.dilate(checked_guard_margin(q, r_top))
    placed = []
    for i in range(index0, index0 + n_samples):
        points, _, b, _ = sample_block(f, q, box, seed, i, i + 1)
        placed.append(_placed(points, b, q))
    rs = [0.0, 0.05, r_top] + _tie_radii(placed[0], xs, r_top)
    ref_ind = np.zeros((len(xs), len(rs)), dtype=np.int64)
    ref_cnt = np.zeros((len(xs), len(rs)), dtype=np.int64)
    loop_ind = np.zeros((len(xs), len(rs)), dtype=np.int64)
    loop_cnt = np.zeros((len(xs), len(rs)), dtype=np.int64)
    for i, x in enumerate(xs):
        ref_ind[i], ref_cnt[i] = batch.counts(x, rs)
    for grains in placed:
        for i, x in enumerate(xs):
            dists = [_grain_distance(germ, grain, x) for germ, grain in grains]
            for j, r in enumerate(rs):
                c = sum(1 for dist in dists if dist <= r)
                loop_cnt[i, j] += c
                loop_ind[i, j] += c > 0
    assert np.array_equal(ref_ind, loop_ind)
    assert np.array_equal(ref_cnt, loop_cnt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate_module, "_BLOCK_REPLICATES", 3)
        mp.setattr(estimate_module, "_BLOCK_SEGMENTS", 40)
        ind, cnt = accumulate_hits(f, q, xs, rs, n_samples, seed, index0)
    assert np.array_equal(ind, ref_ind)
    assert np.array_equal(cnt, ref_cnt)


def test_block_size_depends_on_the_scenario_only(monkeypatch):
    """Blocks are the parallel tasks; their split never follows threads."""
    splits = []

    def recording_map(fn, tasks, threads=1):
        splits.append([t[-2:] for t in tasks])
        return [fn(t) for t in tasks]

    monkeypatch.setattr(estimate_module, "parallel_map", recording_map)
    monkeypatch.setattr(estimate_module, "_BLOCK_SEGMENTS", 100)
    for threads in (1, 2, 8):
        accumulate_hits(CONSTANT, RANDOM_SEGMENTS, [[0.5, 0.5]], [0.1], 50, seed=1,
                        index0=7, threads=threads)
    # 5.76 expected germs per replicate on the guarded box: 17 replicates a block
    assert splits[0] == splits[1] == splits[2] == [(7, 24), (24, 41), (41, 57)]


def test_expected_germ_count_is_capped_before_drawing(monkeypatch):
    from meandense.poisson import MAX_EXPECTED_GERMS

    huge = IntensityField("constant", c=1e12)
    box = Box([0.0, 0.0], [1.0, 1.0])
    message = f"expected germ count 1e\\+12 per realization exceeds the cap {MAX_EXPECTED_GERMS}"
    # any key or uniform would fail with AttributeError: the cap is checked first
    for name in ("block_keys", "uniforms"):
        monkeypatch.setattr(f"meandense.poisson.{name}", lambda *args: object())
    with pytest.raises(ConfigurationError, match=message):
        sample_block(huge, RANDOM_SEGMENTS, box, 1, 0, 10)
    with pytest.raises(ConfigurationError, match="exceeds the cap"):
        simulate(huge, RANDOM_SEGMENTS, box, 0.1, 10, seed=1)
    with pytest.raises(ConfigurationError, match="exceeds the cap"):
        accumulate_hits(huge, RANDOM_SEGMENTS, [[0.5, 0.5]], [0.1], 10, seed=1)


def _streaming_report(x, n, r, seed):
    """The CLI's estimate at one point: accumulate_hits on a window just
    covering the query ball, then the estimator arithmetic."""
    ind, _ = accumulate_hits(CONSTANT, RANDOM_SEGMENTS, [x], [r], n, seed)
    return capacity_estimate(int(ind[0, 0]), n, 2, 1, r)


def test_streaming_hits_match_list_route():
    """The streaming estimator must agree exactly with the list-based one
    when both consume identical realizations (same streams and window)."""
    x, r, n = np.array([0.5, 0.5]), 0.1, 250
    rep = _streaming_report(x, n, r, seed=12)
    window = Box(x - r, x + r)
    batch = simulate(CONSTANT, RANDOM_SEGMENTS, window, r, n, seed=12)
    direct = density_estimate(batch, x, r)
    assert rep[0] == direct[0]
    assert rep[1] == direct[1]


def test_streaming_estimator_is_consistent_oracle():
    # stationary model: λ = c E[L] = 1; expectation of λ̂ is P(r)/(2r)
    x, r, n = np.array([0.5, 0.5]), 0.05, 4000
    lam, se = _streaming_report(x, n, r, seed=13)
    expected = (1.0 - math.exp(-(2 * r + math.pi * r * r))) / (2 * r)
    assert abs(lam - expected) < 3 * se


# ---------------------------------------------------------------------------
# convergence study


def test_convergence_study_rows_and_identities():
    radii = {200: 200 ** -0.25, 400: 400 ** -0.25}
    xs = [[0.4, 0.4], [0.6, 0.6]]
    region = Box([0.25, 0.25], [0.75, 0.75])
    rows = convergence_study(
        CONSTANT, RANDOM_SEGMENTS, xs, list(radii.values()), list(radii), replications=3,
        seed=14, region=region, mark_draws=200,
    )
    assert len(rows) == 4  # 2 sample sizes x 2 points
    for row in rows:
        assert row["R_N"] == pytest.approx(radii[row["N"]])
        # mse = bias² + (1 - 1/m) var with m replications
        assert row["mse"] == pytest.approx(
            row["bias"] ** 2 + row["variance"] * (3 - 1) / 3, rel=1e-9, abs=1e-12
        )
        assert math.isfinite(row["region_hat"]) and math.isfinite(row["region_exact"])


def test_convergence_study_validation():
    with pytest.raises(ConfigurationError):
        convergence_study(CONSTANT, RANDOM_SEGMENTS, [[0.5, 0.5]], [0.3], [100],
                          replications=1, seed=0)
    with pytest.raises(ConfigurationError):
        convergence_study(CONSTANT, RANDOM_SEGMENTS, [[0.5, 0.5]], [0.2, 0.3], [400, 100],
                          replications=2, seed=0)
    with pytest.raises(ConfigurationError, match="n_grid"):
        convergence_study(CONSTANT, RANDOM_SEGMENTS, [[0.5, 0.5]], [1.0, 0.5], [0, 10],
                          replications=2, seed=0)
    # one radius in (0, 2) per sample size, refused before the exact reference
    for radii in ([0.3], [0.3, 2.0], [0.0, 0.2]):
        fault = f"radii: need one in (0, 2) per sample size, got {radii}"
        with pytest.raises(ConfigurationError, match=re.escape(fault)):
            convergence_study(CONSTANT, RANDOM_SEGMENTS, [[0.5, 0.5]], radii, [100, 200],
                              replications=2, seed=0, mark_draws=0)


def test_indicator_density_arithmetic():
    assert capacity_estimate(10, 100, 2, 1, 0.1)[0] == pytest.approx(10 / 100 / 0.2)
    assert capacity_estimate(5, 50, 1, 0, 0.25)[0] == pytest.approx(5 / 50 / 0.5)
    assert capacity_estimate(3, 10, 3, 1, 0.5)[0] == pytest.approx(
        3 / 10 / (ball_volume(2) * 0.25)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10 ** 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n), min_size=1, max_size=8))
    ),
    st.sampled_from([(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]),
    st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
)
def test_capacity_estimate_array_equals_scalar_arithmetic(totals, dims, radius):
    """One array call equals the elementwise scalar calls, and both equal
    the per-point arithmetic of 0.2.0, bit for bit."""
    n_samples, hits = totals
    d, n = dims
    norm = ball_volume(d - n) * radius ** (d - n)
    if norm < sys.float_info.min:  # 0.2.0 could divide by zero or overflow
        for arg in (hits[0], np.array(hits, dtype=np.int64)):
            with pytest.raises(ConfigurationError, match="radius .* is too small"):
                capacity_estimate(arg, n_samples, d, n, radius)
        return
    lam, se = capacity_estimate(np.array(hits, dtype=np.int64), n_samples, d, n, radius)
    for count, lam_i, se_i in zip(hits, lam, se):
        p = count / n_samples
        assert (lam_i, se_i) == capacity_estimate(count, n_samples, d, n, radius)
        assert lam_i == count / n_samples / norm
        assert se_i == math.sqrt(p * (1 - p) / n_samples) / norm


def test_capacity_estimate_refuses_no_samples():
    for n_samples in (0, -3):
        message = f"n_samples must be at least 1, got {n_samples}"
        with pytest.raises(ConfigurationError, match=message):
            capacity_estimate(0, n_samples, 2, 1, 0.1)
