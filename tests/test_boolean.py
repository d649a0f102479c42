"""Boolean realizations: hit queries, the grain arrays, region measure and
the one sampler behind the streaming engine's blocks."""

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
    accumulate_hits,
    measure_in_region,
)
from meandense import boolean
from meandense.boolean import _sample_block, checked_guard_margin, count_hits
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


def stack_rows(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (a, b) of all blocks' grains, stacked in order, and the
    index of the block each grain comes from."""
    a = np.concatenate([block[0] for block in blocks])
    b = np.concatenate([block[1] for block in blocks])
    return a, b, np.repeat(np.arange(len(blocks)), [len(block[0]) for block in blocks])


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


def manual_realization(germs_and_grains, d=2, s=None):
    """The rows (a, b) and owners of one hand-built realization."""
    a, b = rows_of(germs_and_grains, d, s)
    return a, b, np.zeros(len(a), dtype=int)


def hit_count(real, x, r) -> int:
    """Grains of the realization meeting the closed ball B_r(x)."""
    return int(count_hits(*real, [x], [r])[1][0, 0])


def hits(real, x, r) -> int:
    """1 if the realization meets the closed ball B_r(x), else 0."""
    return int(count_hits(*real, [x], [r])[0][0, 0])


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
    real = manual_realization([([1.0, 1.0], Grain.segment(np.array([1.0, 0.0])))])
    assert hits(real, [1.5, 1.2], 0.3)
    assert hit_count(real, [1.5, 1.2], 0.3) == 1
    assert not hits(real, [1.5, 1.6], 0.3)
    # closed semantics: distance exactly r is a hit (dyadic values, exact)
    assert hits(real, [1.5, 1.25], 0.25)


def test_query_validation():
    """accumulate_hits refuses what its window cannot answer exactly: a
    negative or NaN radius, a ball poking out of the window, no radius."""
    window = Box([0.0, 0.0], [2.0, 2.0])
    empty = IntensityField("constant", c=0.0)

    def query(x, rs):
        return accumulate_hits(empty, UNIT_SEGMENT, [x], rs, 1, seed=0, window=window)

    for r in (-0.1, math.nan):
        with pytest.raises(QueryError, match="query radius must be nonnegative"):
            query([1.0, 1.0], [r])
    with pytest.raises(QueryError, match="query ball is not contained in the observation window"):
        query([0.1, 1.0], [0.5])  # ball pokes out of the window
    assert query([1.0, 1.0], [0.5])[0].tolist() == [[0]]
    # a ball touching the window's faces is answered
    assert query([0.5, 1.5], [0.5])[0].tolist() == [[0]]
    # no radius is refused by name
    with pytest.raises(ConfigurationError, match="rs: need at least one radius"):
        query([1.0, 1.0], [])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 60), st.sampled_from([1, 2, 3]))
@example(seed=1, count=40, d=1)
@example(seed=2, count=40, d=3)
def test_index_matches_brute_force(seed, count, d):
    rng = np.random.default_rng(derive_key(seed, 0))
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
    real = manual_realization(placed, d, s=2)
    for _ in range(10):
        x = rng.uniform(0.5, 3.5, size=d)
        r = rng.uniform(0.0, 0.5)
        expected = brute_force_hits(placed, x, r)
        assert hit_count(real, x, r) == expected
        assert hits(real, x, r) == (expected > 0)


def loop_count_hits(a, b, owner, xs, rs):
    """Reference for count_hits: one pass per query point, which box-tests
    every row, measures the rows whose padded box holds the point with one
    one-point segment_distances call, and counts per radius the distinct
    hit grains and their owners."""
    _, s, d = a.shape
    a, b = a.reshape(-1, d), b.reshape(-1, d)
    lo = np.minimum(a.T, b.T, order="C")
    hi = np.maximum(a.T, b.T, order="C")
    scale = max(-lo.min(initial=0.0), hi.max(initial=0.0), np.abs(np.asarray(xs)).max())
    pad = max(rs) + 1e-9 * (1.0 + scale)
    lo -= pad
    hi += pad
    ind = np.zeros((len(xs), len(rs)), dtype=np.int64)
    cnt = np.zeros((len(xs), len(rs)), dtype=np.int64)
    for i, x in enumerate(xs):
        col = x[:, None]
        near = np.flatnonzero(np.all((lo <= col) & (col <= hi), axis=0))
        dist = segment_distances(x, a[near], b[near])
        for j, r in enumerate(rs):
            hit = np.unique(near[dist <= r] // s)
            cnt[i, j] = hit.size
            ind[i, j] = np.count_nonzero(np.bincount(owner[hit]))
    return ind, cnt


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["point", "segment", "polyline2", "polyline3"]),
    st.integers(0, 40),
    st.sampled_from(["lattice", "list", "point"]),
    st.sampled_from([None, 3]),
    st.sampled_from([None, 0]),
)
@example(seed=0, d=3, kind="segment", k=30, grid="lattice", chunk=None, cells=None)
@example(seed=1, d=2, kind="polyline3", k=0, grid="list", chunk=3, cells=0)
def test_join_matches_per_point_loop(seed, d, kind, k, grid, chunk, cells):
    """count_hits' spatial join gives the per-point loop's int64 totals, on
    lattices (shape 1 along an axis included), on lists with duplicate
    points and points outside every box and on one point, with owners that skip values or
    come unsorted, at radii 0 and at ties equal to a one-point distance,
    with a chunk of a few pairs and with a table of one cell."""
    rng = np.random.default_rng(derive_key(seed, 1))
    s = {"point": 1, "segment": 1, "polyline2": 2, "polyline3": 3}[kind]
    vertices = np.cumsum(rng.uniform(-0.6, 0.6, size=(k, s + 1, d)), axis=1)
    vertices += rng.uniform(-0.5, 2.5, size=(k, 1, d))
    if kind == "point":
        vertices[:, 1] = vertices[:, 0]
    a, b = vertices[:, :-1].copy(), vertices[:, 1:].copy()
    b[::4, 0] = a[::4, 0]  # zero-length rows inside proper grains
    owner = np.cumsum(rng.integers(0, 3, size=k))
    if rng.random() < 0.3:
        rng.shuffle(owner)
    if grid == "lattice":
        lo = rng.uniform(-0.5, 1.5, size=d)
        hi = lo + rng.uniform(0.0, 2.0, size=d)
        axes = [np.linspace(lo[i], hi[i], rng.integers(1, 10 - 2 * d)) for i in range(d)]
        xs = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    elif grid == "list":
        xs = rng.uniform(-0.5, 2.5, size=(rng.integers(1, 8), d))
        xs = np.concatenate([xs, xs[:rng.integers(0, len(xs) + 1)], [np.full(d, 40.0)]])
        rng.shuffle(xs)
    else:
        xs = rng.uniform(-0.5, 2.5, size=(1, d))
    rs = [0.0, float(rng.uniform(0.0, 0.6))]
    if k:
        # a tie: the radius equals one (point, row) distance
        x = xs[rng.integers(len(xs))]
        rows_a, rows_b = a.reshape(-1, d), b.reshape(-1, d)
        rs.append(float(segment_distances(x, rows_a, rows_b)[rng.integers(len(rows_a))]))
        rs = [r for r in rs if r <= 1.5]
    with pytest.MonkeyPatch.context() as mp:
        if chunk:
            mp.setattr(boolean, "_PAIR_CHUNK", chunk)
        if cells is not None:
            mp.setattr(boolean, "_CELLS_PER_POINT", cells)
        ind, cnt = count_hits(a, b, owner, xs, rs)
    ref_ind, ref_cnt = loop_count_hits(a, b, owner, xs, rs)
    assert ind.dtype == cnt.dtype == np.int64
    assert np.array_equal(ind, ref_ind)
    assert np.array_equal(cnt, ref_cnt)


def test_many_segments_match_brute_force():
    # 200 segments: the bounding-box prefilter must not change any answer
    rng = np.random.default_rng(derive_key(99, 0))
    placed = [
        (rng.uniform(0.0, 4.0, size=2), Grain.segment(rng.uniform(-1.0, 1.0, size=2)))
        for _ in range(200)
    ]
    real = manual_realization(placed)
    assert real[0].shape[0] > 32
    for _ in range(50):
        x = rng.uniform(0.4, 3.6, size=2)
        r = rng.uniform(0.0, 0.4)
        assert hit_count(real, x, r) == brute_force_hits(placed, x, r)


def measure(real, region, n=1):
    """H^n inside the region of a hand-built realization."""
    return measure_in_region(*real, 1, n, region)


def test_measure_in_region_segments():
    window = Box([0.0, 0.0], [4.0, 4.0])
    real = manual_realization(
        [
            ([1.0, 1.0], Grain.segment(np.array([1.0, 0.0]))),   # fully inside
            ([3.5, 1.0], Grain.segment(np.array([1.0, 0.0]))),   # half clipped
        ],
    )
    assert measure(real, window) == pytest.approx([1.5])
    assert measure(real, Box([0.0, 0.0], [2.5, 2.0])) == pytest.approx([1.0])


def test_measure_in_region_validation():
    real = manual_realization([])
    with pytest.raises(ConfigurationError, match="region dimension mismatch"):
        measure(real, Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]))


def test_measure_additivity_over_partition():
    f = IntensityField("constant", c=3.0)
    window = Box([0.0, 0.0], [2.0, 2.0])
    box = window.dilate(checked_guard_margin(RANDOM_SEGMENTS, 0.0))
    real = _sample_block(f, RANDOM_SEGMENTS, box, 17, 0, 1)
    quads = [
        Box([0.0, 0.0], [1.0, 1.0]),
        Box([1.0, 0.0], [2.0, 1.0]),
        Box([0.0, 1.0], [1.0, 2.0]),
        Box([1.0, 1.0], [2.0, 2.0]),
    ]
    total = sum(measure(real, b) for b in quads)
    assert total == pytest.approx(measure(real, window), abs=1e-9)
    assert total.shape == (1,)


def test_point_counting_is_half_open():
    # a germ on the shared face of two cells is counted exactly once
    window = Box([0.0, 0.0], [2.0, 2.0])
    real = manual_realization([([1.0, 0.5], Grain.point(2))])
    left = Box([0.0, 0.0], [1.0, 1.0])
    right = Box([1.0, 0.0], [2.0, 1.0])
    assert measure(real, left, n=0).tolist() == [0.0]
    assert measure(real, right, n=0).tolist() == [1.0]
    assert measure(real, window, n=0).tolist() == [1.0]


def test_guard_margin_and_validation():
    assert checked_guard_margin(UNIT_SEGMENT, 0.3) == 1.3
    with pytest.raises(ConfigurationError, match="r_max must be nonnegative"):
        checked_guard_margin(UNIT_SEGMENT, -0.1)
    with pytest.raises(ConfigurationError, match="r_max must be below 2"):
        accumulate_hits(IntensityField("constant", c=1.0), UNIT_SEGMENT, [[0.5, 0.5]], [2.0], 1,
                        seed=0)


def test_sample_block_deterministic_in_stream():
    f = IntensityField("quadratic")
    box = Box([-1.0, -1.0], [1.0, 1.0]).dilate(checked_guard_margin(RANDOM_SEGMENTS, 0.2))
    a = _sample_block(f, RANDOM_SEGMENTS, box, 5, 9, 10)
    b = _sample_block(f, RANDOM_SEGMENTS, box, 5, 9, 10)
    assert a[0].shape == b[0].shape
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_guard_zone_eliminates_edge_effects():
    """Hit statistics at the window edge match an explicit larger-window
    simulation driven by the same germ process (coupling by construction:
    a realization on a bigger window restricted to the same guarded box)."""
    f = IntensityField("constant", c=2.0)
    window = Box([0.0, 0.0], [1.0, 1.0])
    big_window = Box([-0.5, -0.5], [1.5, 1.5])
    x = np.array([0.15, 0.5])   # near the small window's edge
    r = 0.1
    hits_small, hits_big = (
        int(accumulate_hits(f, RANDOM_SEGMENTS, [x], [r], 4000, seed=seed, window=w)[0][0, 0])
        for w, seed in ((window, 31), (big_window, 77)))
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
    box = Box([-0.5, -0.5], [0.5, 0.5]).dilate(checked_guard_margin(_law(kind), 0.2))
    batch = _sample_block(f, _law(kind), box, seed, index0, index0 + k)
    ones = [_sample_block(f, _law(kind), box, seed, i, i + 1) for i in range(index0, index0 + k)]
    a, b, owner = stack_rows(ones)
    assert batch[0].shape == a.shape
    assert np.array_equal(batch[0], a) and np.array_equal(batch[1], b)
    assert np.array_equal(batch[2], owner)


@pytest.mark.parametrize("kind", ["segment_law", "polyline", "point"])
def test_batched_measure_equals_per_realization_reference(kind):
    """measure_in_region's one bincount over the batch equals each
    realization's own clipped-length sum within 1e-12, and its own germ
    count exactly for point grains."""
    q = _law(kind)
    window = Box([0.0, 0.0], [2.0, 2.0])
    a, b, owner = _sample_block(IntensityField("constant", c=3.0), q,
                                window.dilate(checked_guard_margin(q, 0.0)), 18, 0, 40)
    region = Box([0.3, 0.2], [1.7, 1.1])
    got = measure_in_region(a, b, owner, 40, q.n, region)
    assert got.shape == (40,) and got.max() > 0.0
    for i in range(40):
        ai = a[owner == i].reshape(-1, 2)
        bi = b[owner == i].reshape(-1, 2)
        if q.n == 0:
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
