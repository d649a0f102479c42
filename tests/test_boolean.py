"""Boolean realizations: hit queries, the grain arrays, region measure and
the one sampler behind batches and the streaming engine's blocks."""

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
    QueryError,
    Realizations,
    simulate,
)
from meandense.boolean import checked_guard_margin
from meandense.cli import _realization_csv, _write_csv
from meandense.geometry import Box, clipped_lengths, segment_distances
from meandense.grains import mark_segments
from meandense.poisson import sample_block
from meandense.streams import derive_key

UNIT_SEGMENT = MarkDistribution("deterministic", grain=Grain.segment(np.array([1.0, 0.0])))
RANDOM_SEGMENTS = MarkDistribution(
    "segment",
    length=LengthLaw("fixed", value=1.0),
    orientation=OrientationLaw("uniform", dim=2),
)


def stack_rows(batches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (a, b) of all batches' grains, stacked in order, and the
    index of the batch each grain comes from."""
    a = np.concatenate([batch.a for batch in batches])
    b = np.concatenate([batch.b for batch in batches])
    return a, b, np.repeat(np.arange(len(batches)), [len(batch.a) for batch in batches])


def rows_of(placed, d=2, s=None):
    """Segment rows (a, b), each of shape (K, s, d), of (germ, grain) pairs
    in order.  Grains with fewer than s rows are padded with zero-length
    rows at their last vertex; s defaults to the most rows of any grain."""
    grains = [(np.asarray(germ, dtype=float), grain.rows()) for germ, grain in placed]
    s = s or max([len(a) for _, (a, _) in grains], default=1)
    a = np.zeros((len(grains), s, d))
    b = np.zeros((len(grains), s, d))
    for k, (germ, (ga, gb)) in enumerate(grains):
        a[k] = b[k] = germ + gb[-1]
        a[k, :len(ga)] = germ + ga
        b[k, :len(gb)] = germ + gb
    return a, b


def manual_realization(germs_and_grains, window, r_max=0.5, n=1, s=None):
    """A batch of one hand-built realization."""
    a, b = rows_of(germs_and_grains, window.dim, s)
    owner = np.zeros(len(a), dtype=int)
    return Realizations(a, b, owner, 1, window, r_max=r_max, n=n)


def hit_count(batch, x, r) -> int:
    """Grains of the batch meeting the closed ball B_r(x)."""
    return int(batch.counts(x, [r])[1][0])


def hits(batch, x, r) -> int:
    """Realizations of the batch meeting the closed ball B_r(x)."""
    return int(batch.counts(x, [r])[0][0])


def grain_distance(g, x) -> float:
    """Distance from x to the grain anchored at the origin."""
    a, b = g.rows()
    return float(segment_distances(x, a, b).min())


def brute_force_hits(placed, x, r):
    """Reference implementation: scan every placed grain."""
    x = np.asarray(x, dtype=float)
    count = 0
    for germ, grain in placed:
        if grain_distance(grain, x - germ) <= r:
            count += 1
    return count


def test_hits_hand_case():
    window = Box([0.0, 0.0], [4.0, 4.0])
    real = manual_realization(
        [([1.0, 1.0], Grain.segment(np.array([1.0, 0.0])))], window, r_max=0.5
    )
    assert hits(real, [1.5, 1.2], 0.3)
    assert hit_count(real, [1.5, 1.2], 0.3) == 1
    assert not hits(real, [1.5, 1.6], 0.3)
    # closed semantics: distance exactly r is a hit (dyadic values, exact)
    assert hits(real, [1.5, 1.25], 0.25)


def test_query_validation():
    window = Box([0.0, 0.0], [2.0, 2.0])
    real = manual_realization([], window, r_max=0.5, n=1)
    for r in (-0.1, math.nan):
        with pytest.raises(QueryError, match="nonnegative"):
            hits(real, [1.0, 1.0], r)
    with pytest.raises(QueryError):
        hits(real, [1.0, 1.0], 0.6)  # above r_max
    with pytest.raises(QueryError):
        hits(real, [0.1, 1.0], 0.5)  # ball pokes out of the window
    assert not hits(real, [1.0, 1.0], 0.5)
    # no radius is refused by name, as the streaming engine refuses it
    with pytest.raises(ConfigurationError, match="rs: need at least one radius"):
        real.counts([1.0, 1.0], [])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 60), st.sampled_from([1, 2, 3]))
@example(seed=1, count=40, d=1)
@example(seed=2, count=40, d=3)
def test_index_matches_brute_force(seed, count, d):
    rng = np.random.default_rng(derive_key(seed, 0))
    window = Box(np.zeros(d), np.full(d, 4.0))
    placed = []
    for _ in range(count):
        germ = rng.uniform(-1.0, 5.0, size=d)
        kind = rng.integers(0, 3)
        if kind == 0:
            grain = Grain.segment(rng.uniform(-1.0, 1.0, size=d))
        elif kind == 1:
            grain = Grain.point(d)
        else:
            steps = rng.uniform(-0.5, 0.5, size=(2, d))
            grain = Grain.polyline(np.vstack([np.zeros(d), np.cumsum(steps, axis=0)]))
    # mixed grain families share n only artificially; fix n = 1 for the query API
        placed.append((germ, grain))
    # every grain padded to the polyline's two rows, so rows map to grains
    # by // 2
    real = manual_realization(placed, window, r_max=0.5, s=2)
    for _ in range(10):
        x = rng.uniform(0.5, 3.5, size=d)
        r = rng.uniform(0.0, 0.5)
        expected = brute_force_hits(placed, x, r)
        assert hit_count(real, x, r) == expected
        assert hits(real, x, r) == (expected > 0)


def test_many_segments_match_brute_force():
    # 200 segments: the bounding-box prefilter must not change any answer
    rng = np.random.default_rng(derive_key(99, 0))
    window = Box([0.0, 0.0], [4.0, 4.0])
    placed = [
        (rng.uniform(0.0, 4.0, size=2), Grain.segment(rng.uniform(-1.0, 1.0, size=2)))
        for _ in range(200)
    ]
    real = manual_realization(placed, window, r_max=0.4)
    assert real.a.shape[0] > 32
    for _ in range(50):
        x = rng.uniform(0.4, 3.6, size=2)
        r = rng.uniform(0.0, 0.4)
        assert hit_count(real, x, r) == brute_force_hits(placed, x, r)


def test_measure_in_region_segments():
    window = Box([0.0, 0.0], [4.0, 4.0])
    real = manual_realization(
        [
            ([1.0, 1.0], Grain.segment(np.array([1.0, 0.0]))),   # fully inside
            ([3.5, 1.0], Grain.segment(np.array([1.0, 0.0]))),   # half clipped
        ],
        window,
    )
    assert real.measure_in_region(window) == pytest.approx([1.5])
    assert real.measure_in_region(Box([0.0, 0.0], [2.5, 2.0])) == pytest.approx([1.0])


def test_measure_in_region_validation():
    window = Box([0.0, 0.0], [2.0, 2.0])
    real = manual_realization([], window)
    with pytest.raises(QueryError):
        real.measure_in_region(Box([0.0, 0.0], [3.0, 3.0]))
    with pytest.raises(ConfigurationError):
        real.measure_in_region(Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]))


def test_measure_additivity_over_partition():
    f = IntensityField("constant", c=3.0)
    window = Box([0.0, 0.0], [2.0, 2.0])
    real = simulate(f, RANDOM_SEGMENTS, window, 0.0, 1, seed=17)
    quads = [
        Box([0.0, 0.0], [1.0, 1.0]),
        Box([1.0, 0.0], [2.0, 1.0]),
        Box([0.0, 1.0], [1.0, 2.0]),
        Box([1.0, 1.0], [2.0, 2.0]),
    ]
    total = sum(real.measure_in_region(b) for b in quads)
    assert total == pytest.approx(real.measure_in_region(window), abs=1e-9)
    assert real.count == 1 and total.shape == (1,)


def test_point_counting_is_half_open():
    # a germ on the shared face of two cells is counted exactly once
    window = Box([0.0, 0.0], [2.0, 2.0])
    real = manual_realization([([1.0, 0.5], Grain.point(2))], window, n=0)
    left = Box([0.0, 0.0], [1.0, 1.0])
    right = Box([1.0, 0.0], [2.0, 1.0])
    assert real.measure_in_region(left).tolist() == [0.0]
    assert real.measure_in_region(right).tolist() == [1.0]
    assert real.measure_in_region(window).tolist() == [1.0]


def test_simulate_guard_margin_and_validation():
    f = IntensityField("constant", c=1.0)
    window = Box([0.0, 0.0], [1.0, 1.0])
    real = simulate(f, UNIT_SEGMENT, window, 0.3, 1, seed=0)
    assert checked_guard_margin(UNIT_SEGMENT, 0.3) == 1.3
    assert real.r_max == 0.3
    with pytest.raises(ConfigurationError):
        simulate(f, UNIT_SEGMENT, window, -0.1, 1, seed=0)
    with pytest.raises(ConfigurationError):
        simulate(f, UNIT_SEGMENT, window, 2.0, 1, seed=0)
    # no replicates is an empty batch; fewer are refused by name
    assert simulate(f, UNIT_SEGMENT, window, 0.1, 0, seed=1).count == 0
    with pytest.raises(ConfigurationError, match="n_samples"):
        simulate(f, UNIT_SEGMENT, window, 0.1, -3, seed=1)


def test_simulate_deterministic_in_stream():
    f = IntensityField("quadratic")
    window = Box([-1.0, -1.0], [1.0, 1.0])
    a = simulate(f, RANDOM_SEGMENTS, window, 0.2, 1, seed=5, index0=9)
    b = simulate(f, RANDOM_SEGMENTS, window, 0.2, 1, seed=5, index0=9)
    assert a.a.shape == b.a.shape
    for field in ("a", "b"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(a.owner, b.owner)


def test_guard_zone_eliminates_edge_effects():
    """Hit statistics at the window edge match an explicit larger-window
    simulation driven by the same germ process (coupling by construction:
    a realization on a bigger window restricted to the same guarded box)."""
    f = IntensityField("constant", c=2.0)
    window = Box([0.0, 0.0], [1.0, 1.0])
    big_window = Box([-0.5, -0.5], [1.5, 1.5])
    x = np.array([0.15, 0.5])   # near the small window's edge
    r = 0.1
    hits_small = hits(simulate(f, RANDOM_SEGMENTS, window, r, 4000, seed=31), x, r)
    hits_big = hits(simulate(f, RANDOM_SEGMENTS, big_window, r, 4000, seed=77), x, r)
    p1, p2 = hits_small / 4000, hits_big / 4000
    se = math.sqrt(p1 * (1 - p1) / 4000 + p2 * (1 - p2) / 4000)
    assert abs(p1 - p2) < 3.5 * se


def _law(kind):
    return {
        "segment_law": RANDOM_SEGMENTS,
        "polyline": MarkDistribution(
            "deterministic", grain=Grain.polyline([[0.0, 0.0], [0.3, 0.1], [0.2, 0.4]])
        ),
        "point": MarkDistribution("deterministic", grain=Grain.point(2)),
    }[kind]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.integers(1, 6),
    st.integers(0, 50),
    st.sampled_from(["segment_law", "polyline", "point"]),
)
def test_batch_equals_concatenated_one_replicate_batches(seed, k, index0, kind):
    """A batch of k realizations is the k one-realization batches at
    index0..index0+k-1, concatenated: the sampler draws replicate by
    replicate on its own stream, and block boundaries change nothing."""
    f = IntensityField("quadratic")
    window = Box([-0.5, -0.5], [0.5, 0.5])
    batch = simulate(f, _law(kind), window, 0.2, k, seed, index0)
    ones = [simulate(f, _law(kind), window, 0.2, 1, seed, index0 + i) for i in range(k)]
    a, b, owner = stack_rows(ones)
    assert batch.count == k and batch.a.shape == a.shape
    assert np.array_equal(batch.a, a) and np.array_equal(batch.b, b)
    assert np.array_equal(batch.owner, owner)


@pytest.mark.parametrize("kind", ["segment_law", "polyline", "point"])
def test_batched_measure_equals_per_realization_reference(kind):
    """measure_in_region's one bincount over the batch equals each
    realization's own clipped-length sum within 1e-12, and its own germ
    count exactly for point grains."""
    batch = simulate(IntensityField("constant", c=3.0), _law(kind), Box([0.0, 0.0], [2.0, 2.0]),
                     0.0, 40, seed=18)
    region = Box([0.3, 0.2], [1.7, 1.1])
    got = batch.measure_in_region(region)
    d = batch.dim
    assert got.shape == (40,) and got.max() > 0.0
    for i in range(40):
        ai = batch.a[batch.owner == i].reshape(-1, d)
        bi = batch.b[batch.owner == i].reshape(-1, d)
        if batch.n == 0:
            assert got[i] == float(np.all((ai >= region.lo) & (ai < region.hi), axis=1).sum())
        else:
            assert abs(got[i] - clipped_lengths(ai, bi, region).sum()) <= 1e-12


def realization_text(points, a, b, q, out_dir) -> str:
    """realization.csv as the CLI writes it for germs of law q with their
    marks' rows a, b."""
    rows = _realization_csv(points, a, b, q.n)
    return _write_csv(out_dir, "realization.csv", *rows).read_text()


def test_to_csv_lists_every_grain(tmp_path):
    kinds = []
    for germ, grain in (
        ([0.5, 0.5], Grain.point(2)),
        ([1.0, 1.0], Grain.segment(np.array([0.5, 0.0]))),
        ([1.5, 1.5], Grain.polyline([[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]])),
    ):
        q = MarkDistribution("deterministic", grain=grain)
        a, b = mark_segments(q, np.empty((1, 0)))
        lines = realization_text(np.array([germ]), a, b, q, tmp_path).strip().splitlines()
        assert lines[0] == "germ_0,germ_1,kind,params"
        assert len(lines) == 2
        kinds.append(lines[1].split(",")[2])
    assert kinds == ["point", "segment", "polyline"]


def reference_csv(points, b, q) -> str:
    """realization.csv written grain by grain from one object per germ: the
    law's grain, or each segment law mark's vector."""
    if q.kind == "deterministic":
        placed = [(p, q.grain) for p in points]
    else:
        placed = [(p, Grain.segment(v)) for p, v in zip(points, b[:, 0])]
    germ_cols = ",".join(f"germ_{k}" for k in range(points.shape[1]))
    out = f"{germ_cols},kind,params\n"
    for germ, grain in placed:
        coords = ",".join(repr(float(c)) for c in germ)
        if grain.n == 0:
            out += f"{coords},point,\n"
        elif len(grain.vertices) == 2:
            params = ";".join(repr(float(c)) for c in grain.vertices[1])
            out += f"{coords},segment,{params}\n"
        else:
            params = ";".join(" ".join(repr(float(c)) for c in v) for v in grain.vertices)
            out += f"{coords},polyline,{params}\n"
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["point", "segment", "polyline", "random_segments"])
def test_realization_csv_from_arrays_equals_per_grain_writer(d, kind, tmp_path):
    rng = np.random.default_rng(d)
    vertices = np.vstack([np.zeros(d), np.cumsum(rng.uniform(-0.5, 0.5, (3, d)), axis=0)])
    q = {
        "point": MarkDistribution("deterministic", grain=Grain.point(d)),
        "segment": MarkDistribution("deterministic", grain=Grain.segment(vertices[1])),
        "polyline": MarkDistribution("deterministic", grain=Grain.polyline(vertices)),
        "random_segments": MarkDistribution(
            "segment",
            length=LengthLaw("uniform", lo=0.0, hi=1.0),
            orientation=OrientationLaw("uniform", dim=d),
        ),
    }[kind]
    box = Box(-np.ones(d), np.full(d, 2.0))
    f = IntensityField("constant", c=30.0 / box.volume)
    for i in range(3):
        points, a, b, _ = sample_block(f, q, box, d, i, i + 1)
        assert len(points) > 0
        assert realization_text(points, a, b, q, tmp_path) == reference_csv(points, b, q)
    points, a, b, _ = sample_block(IntensityField("constant", c=0.0), q, box, d, 0, 1)
    assert realization_text(points, a, b, q, tmp_path) == reference_csv(points, b, q)
