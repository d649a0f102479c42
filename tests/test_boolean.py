"""Boolean realizations: hit queries, the grain arrays, region measure and
the one sampler behind batches and the streaming engine's blocks."""

import math

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
    simulate,
)
from meandense.boolean import GrainArrays, grain_arrays
from meandense.cli import _realization_csv, _write_csv
from meandense.geometry import Box, clipped_lengths, segment_distances
from meandense.poisson import MarkedGermSample, sample_germs
from meandense.streams import derive_stream

UNIT_SEGMENT = MarkDistribution("deterministic", grain=Grain.segment(np.array([1.0, 0.0])))
RANDOM_SEGMENTS = MarkDistribution(
    "segment",
    length=LengthLaw("fixed", value=1.0),
    orientation=OrientationLaw("uniform", dim=2),
)


def stack_grains(parts: list[GrainArrays]) -> tuple[GrainArrays, np.ndarray]:
    """One GrainArrays of all parts, grains renumbered in order, and the
    index of the part each grain comes from."""
    counts = np.array([p.count for p in parts])
    first = np.cumsum(counts) - counts
    stacked = GrainArrays(
        np.concatenate([p.a for p in parts]),
        np.concatenate([p.b for p in parts]),
        np.concatenate([p.grain for p in parts]) + np.repeat(first, [p.grain.size for p in parts]),
        int(counts.sum()),
    )
    return stacked, np.repeat(np.arange(len(parts)), counts)


def arrays_of(placed, d=2):
    """Grain arrays of (germ, grain) pairs, stacked in order."""
    parts = [grain_arrays(np.asarray(germ, dtype=float)[None, :], grain) for germ, grain in placed]
    return stack_grains(parts or [grain_arrays(np.zeros((0, d)), np.zeros((0, d)))])[0]


def manual_realization(germs_and_grains, window, r_max=0.5, n=1):
    """A batch of one hand-built realization."""
    arrays = arrays_of(germs_and_grains, window.dim)
    owner = np.zeros(arrays.count, dtype=int)
    return Realizations(arrays, owner, 1, window, guard_margin=2.0, r_max=r_max, n=n)


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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 60))
def test_index_matches_brute_force(seed, count):
    rng = derive_stream(seed, 0)
    window = Box([0.0, 0.0], [4.0, 4.0])
    placed = []
    for _ in range(count):
        germ = rng.uniform(-1.0, 5.0, size=2)
        kind = rng.integers(0, 3)
        if kind == 0:
            grain = Grain.segment(rng.uniform(-1.0, 1.0, size=2))
        elif kind == 1:
            grain = Grain.point(2)
        else:
            steps = rng.uniform(-0.5, 0.5, size=(2, 2))
            grain = Grain.polyline(np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)]))
    # mixed grain families share n only artificially; fix n = 1 for the query API
        placed.append((germ, grain))
    real = manual_realization(placed, window, r_max=0.5)
    for _ in range(10):
        x = rng.uniform(0.5, 3.5, size=2)
        r = rng.uniform(0.0, 0.5)
        expected = brute_force_hits(placed, x, r)
        assert hit_count(real, x, r) == expected
        assert hits(real, x, r) == (expected > 0)


def test_many_segments_match_brute_force():
    # 200 segments: the bounding-box prefilter must not change any answer
    rng = derive_stream(99, 0)
    window = Box([0.0, 0.0], [4.0, 4.0])
    placed = [
        (rng.uniform(0.0, 4.0, size=2), Grain.segment(rng.uniform(-1.0, 1.0, size=2)))
        for _ in range(200)
    ]
    real = manual_realization(placed, window, r_max=0.4)
    assert real.grains.a.shape[0] > 32
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
    assert real.guard_margin == pytest.approx(1.3)
    assert real.r_max == 0.3
    with pytest.raises(ConfigurationError):
        simulate(f, UNIT_SEGMENT, window, -0.1, 1, seed=0)
    with pytest.raises(ConfigurationError):
        simulate(f, UNIT_SEGMENT, window, 2.0, 1, seed=0)
    with pytest.raises(ConfigurationError):
        simulate(f, UNIT_SEGMENT, window, 0.3, 1, seed=0, guard_margin=0.5)
    # no replicates is an empty batch; fewer are refused by name
    assert simulate(f, UNIT_SEGMENT, window, 0.1, 0, seed=1).count == 0
    with pytest.raises(ConfigurationError, match="n_samples"):
        simulate(f, UNIT_SEGMENT, window, 0.1, -3, seed=1)


def test_simulate_deterministic_in_stream():
    f = IntensityField("quadratic")
    window = Box([-1.0, -1.0], [1.0, 1.0])
    a = simulate(f, RANDOM_SEGMENTS, window, 0.2, 1, seed=5, index0=9)
    b = simulate(f, RANDOM_SEGMENTS, window, 0.2, 1, seed=5, index0=9)
    assert a.grains.count == b.grains.count
    for field in ("a", "b", "grain"):
        assert np.array_equal(getattr(a.grains, field), getattr(b.grains, field))
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
    grains, owner = stack_grains([one.grains for one in ones])
    assert batch.count == k and batch.grains.count == grains.count
    for field in ("a", "b", "grain"):
        assert np.array_equal(getattr(batch.grains, field), getattr(grains, field))
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
    a, b, grain, _ = batch.grains
    rows = batch.owner[grain]
    assert got.shape == (40,) and got.max() > 0.0
    for i in range(40):
        ai, bi = a[rows == i], b[rows == i]
        if batch.n == 0:
            assert got[i] == float(np.all((ai >= region.lo) & (ai < region.hi), axis=1).sum())
        else:
            assert abs(got[i] - clipped_lengths(ai, bi, region).sum()) <= 1e-12


def realization_text(sample, out_dir) -> str:
    """realization.csv as the CLI writes it for the sample."""
    return _write_csv(out_dir, "realization.csv", *_realization_csv(sample)).read_text()


def test_to_csv_lists_every_grain(tmp_path):
    kinds = []
    for germ, grain in (
        ([0.5, 0.5], Grain.point(2)),
        ([1.0, 1.0], Grain.segment(np.array([0.5, 0.0]))),
        ([1.5, 1.5], Grain.polyline([[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]])),
    ):
        q = MarkDistribution("deterministic", grain=grain)
        sample = MarkedGermSample(np.array([germ]), q)
        lines = realization_text(sample, tmp_path).strip().splitlines()
        assert lines[0] == "germ_0,germ_1,kind,params"
        assert len(lines) == 2
        kinds.append(lines[1].split(",")[2])
    assert kinds == ["point", "segment", "polyline"]


def reference_csv(sample) -> str:
    """realization.csv written grain by grain from one object per germ."""
    if sample.vectors is None:
        placed = [(p, sample.marks.grain) for p in sample.points]
    else:
        placed = [(p, Grain.segment(v)) for p, v in zip(sample.points, sample.vectors)]
    germ_cols = ",".join(f"germ_{k}" for k in range(sample.points.shape[1]))
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
        sample = sample_germs(f, q, box, derive_stream(d, i))
        assert len(sample) > 0
        assert realization_text(sample, tmp_path) == reference_csv(sample)
    empty = sample_germs(IntensityField("constant", c=0.0), q, box, derive_stream(d, 0))
    assert realization_text(empty, tmp_path) == reference_csv(empty)
