"""Boolean-model realizations and hit/count/measure queries.

A realization holds every grain whose germ falls in the observation
window dilated by the guard margin L_max + r_max, so all
in-window queries with radius <= r_max are exact for the truncated mark
law: edge effects are eliminated rather than corrected.

Grains are held as the segment rows of `grains.mark_segments`, translated
to their germs: a, b of shape (K, s, d), a point grain being one
zero-length row.  `_sample_block` places the grains of a block of
`poisson.sample_block` replicates on their germs, with the replicate that
owns each grain; it builds both a `Realizations` batch (`simulate`) and
the streaming engine's blocks.  One kernel, `count_hits`, answers every
hit and count query on either.  It is a spatial join of the query points
and the rows' bounding boxes, a cell list (Allen and Tildesley, Computer
Simulation of Liquids, 1987) whose cells are the points' distinct
coordinates, axis by axis (`_PointTable`): each box gives per axis the
index range of the coordinates it covers, and the cells of the ranges'
product give the (point, row) pairs to measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, QueryError
from .geometry import Box, as_point, clipped_lengths, segment_distances
from .grains import MarkDistribution
from .poisson import sample_block


# Candidate (point, row) pairs are built and measured this many at a time:
# few enough for a chunk's arrays to stay in cache.  Of 1024 to 65536,
# 4096 was fastest on a 2-core x86-64 machine, on the 40 x 40 grid of
# segment_quadratic.cfg and on the benchmark's dense_estimate block.
_PAIR_CHUNK = 1 << 12
# Cells the point table may hold per query point (a lattice needs one);
# beyond them, consecutive distinct coordinates of an axis share a bucket.
_CELLS_PER_POINT = 4


class _PointTable:
    """Query points xs of shape (P, d), indexed by their coordinates: per
    axis the sorted distinct coordinates, `width` consecutive ones to a
    bucket, and per cell (one bucket per axis, row-major) the points
    members[first[c]:first[c] + occupancy[c]].  It depends on the points
    only, so one table serves every block of a run."""

    def __init__(self, xs):
        self.xs = xs = np.asarray(xs, dtype=float)
        self.bottom, self.top = xs.min(axis=0)[:, None], xs.max(axis=0)[:, None]
        self.scale = np.abs(xs).max()
        axes = [col.compress(np.concatenate(([True], col[1:] != col[:-1])))
                for col in np.sort(xs, axis=0).T]
        counts = [len(u) for u in axes]
        self.width = [1] * len(axes)
        buckets = list(counts)
        # bounded before the table is allocated
        while math.prod(buckets) > max(1, _CELLS_PER_POINT * len(xs)):
            k = int(np.argmax(buckets))
            self.width[k] *= 2
            buckets[k] = -(-counts[k] // self.width[k])
        self.strides = np.array([math.prod(buckets[k + 1:]) for k in range(len(axes))])
        cell = sum(u.searchsorted(col) // w * st
                   for u, col, w, st in zip(axes, xs.T, self.width, self.strides))
        self.occupancy = np.bincount(cell, minlength=math.prod(buckets))
        self.first = np.cumsum(self.occupancy) - self.occupancy
        self.members = cell.argsort(kind="stable")
        # per corner and axis the values a corner is counted against: a
        # lower corner lo against the coordinates u, an upper one hi against
        # the float below each u, which is below hi exactly when u <= hi
        self.sides = [[u, np.nextafter(u, -np.inf)] for u in axes]
        # the sides end to end, each between a -inf and a +inf, so that one
        # take reads u[g - 1], and one u[g], on every corner and axis
        flat = [np.concatenate(([-np.inf], side[c], [np.inf])) for c in (0, 1) for side in self.sides]
        self.flat = np.concatenate(flat)
        self.offset = np.cumsum([0] + [len(v) for v in flat[:-1]]).reshape(2, -1, 1)
        self.count = np.array(counts, dtype=float)[:, None]
        self.step = np.array([(u[-1] - u[0]) / (len(u) - 1) if len(u) > 1 else 1.0
                              for u in axes])[:, None]
        self.origin = np.array([u[0] for u in axes])[:, None] - self.step
        self.irregular = [k for k, u in enumerate(axes) if len(u) > 2 and np.abs(
            u - np.linspace(u[0], u[-1], len(u))).max() > self.step[k, 0] / 4]

    def ranges(self, box: np.ndarray) -> np.ndarray:
        """For boxes of shape (2, d, rows), lower and upper corners, the
        index ranges (j0, j1) of shape (2, d, rows) of each axis' distinct
        coordinates in the box: j0 counts those below the lower corner, j1
        those at most the upper one.  On an evenly spaced axis, as
        np.linspace makes one, the arithmetic guess g is off by at most
        one, which one comparison each way mends; on another a binary
        search replaces it."""
        u = box - self.origin
        u /= self.step
        np.maximum(u, 0.0, out=u)
        np.minimum(u, self.count, out=u)
        g = u.astype(np.intp)
        g += self.offset
        # every index is in range; mode="clip" spares take a checked copy
        g -= self.flat.take(g, out=u, mode="clip") >= box
        g += self.flat[1:].take(g, out=u, mode="clip") < box
        del u
        g -= self.offset
        for k in self.irregular:
            for c in (0, 1):
                g[c, k] = self.sides[k][c].searchsorted(box[c, k])
        return g

    def pairs(self, box: np.ndarray):
        """The (point, row) pairs of boxes of shape (2, d, rows) whose box
        contains the point, about _PAIR_CHUNK at a time: the points of the
        cells that a box covers."""
        j0, j1 = self.ranges(box)
        coarse = max(self.width) > 1
        if coarse:
            w = np.array(self.width)[:, None]
            j1 = np.where(j1 > j0, (j1 - 1) // w + 1, j0 // w)
            j0 //= w
        else:
            del box  # only a bucket's points are box-tested again
        # a box covers the product of its ranges
        extent = j1 - j0
        cells = extent.prod(axis=0)
        live = (cells > 0).nonzero()[0]
        cells, extent = cells.take(live), extent.take(live, axis=1)
        base = (j0.take(live, axis=1) * self.strides[:, None]).sum(axis=0)
        del j0, j1
        ends = cells.cumsum()
        starts = ends - cells
        total = int(ends[-1]) if len(live) else 0
        step = max(1, _PAIR_CHUNK // int(self.occupancy.max()))
        for t0 in range(0, total, step):
            t1 = min(t0 + step, total)
            # the live rows r0..r1 and their number of cells in t0..t1-1
            r0, r1 = ends.searchsorted([t0, t1 - 1], side="right")
            n = cells[r0:r1 + 1].copy()
            n[0] -= t0 - starts[r0]
            n[-1] -= ends[r1] - t1
            rows = np.arange(r0, r1 + 1)
            cell = base[r0:r1 + 1]
            if t1 - t0 > len(n) or t0 > starts[r0]:
                # not every cell is its row's first: its offset into the
                # row's product of ranges, last axis fastest
                rows = rows.repeat(n)
                cell = base.take(rows)
                off = np.arange(t0, t1) - starts.take(rows)
                for k in reversed(range(1, len(extent))):
                    off, o = np.divmod(off, extent[k].take(rows))
                    cell += o * self.strides[k]
                cell += off * self.strides[0]
            # every point of each cell
            n = self.occupancy.take(cell)
            rows = live.take(rows).repeat(n)
            slot = (self.first.take(cell) - n.cumsum() + n).repeat(n)
            slot += np.arange(len(slot))
            pts = self.members.take(slot)
            if coarse:
                # a bucket also holds points outside the box
                x = self.xs.T.take(pts, axis=1)
                inside = np.logical_and.reduce((box[0].take(rows, axis=1) <= x)
                                               & (x <= box[1].take(rows, axis=1)))
                pts, rows = pts.compress(inside), rows.compress(inside)
            yield pts, rows


def _distinct_first(key: np.ndarray, first: np.ndarray, nr: int):
    """The distinct keys, each with the least of its `first` values (all
    below nr)."""
    k = key * nr + first
    k.sort()
    k, f = np.divmod(k, nr)
    keep = np.ones(len(k), dtype=bool)
    np.not_equal(k[1:], k[:-1], out=keep[1:])
    return k.compress(keep), f.compress(keep)


def count_hits(a: np.ndarray, b: np.ndarray, owner, xs, rs) -> tuple[np.ndarray, np.ndarray]:
    """Integer totals (ind, cnt) of shape (len(xs), len(rs)) over K grains
    given as segment rows a, b of shape (K, s, d): cnt[i, j] counts the
    grains meeting the closed ball B_rs[j](xs[i]), ind[i, j] the distinct
    owners among them (owner[k] is the owner of grain k).

    A (point, row) pair is measured only when the row's bounding box,
    dilated by a hair over max(rs), contains the point; the hair keeps
    rounding in a box from dropping a grain that the distance test would
    count.  The pairs come from one spatial join (`_PointTable.pairs`),
    with no loop over the points, and each chunk of them is measured by
    one `segment_distances` call.  A pair hits at the sorted radii from
    the first one at least its distance.  The hit (grain, point) pairs of
    all chunks are made distinct, and then their owners per point, by
    sorting combined integer keys.
    """
    _, s, d = a.shape
    table = _PointTable(np.reshape(xs, (-1, d)))
    xs = table.xs
    owner = np.asarray(owner, dtype=np.intp)
    a, b = a.reshape(-1, d), b.reshape(-1, d)
    # boxes as (2, d, rows), lower and upper corners: each comparison runs
    # along a contiguous row, many times faster than reducing (rows, d)
    # along its short axis
    box = np.empty((2, d, len(a)))
    np.minimum(a.T, b.T, out=box[0])
    np.maximum(a.T, b.T, out=box[1])
    scale = max(-box[0].min(initial=0.0), box[1].max(initial=0.0), table.scale)
    pad = max(rs) + 1e-9 * (1.0 + scale)
    # a row whose box misses the points' hull, dilated by twice the pad,
    # holds none of them: the margin covers the rounding of the padding
    near = np.logical_and.reduce(
        (box[0] <= table.top + 2 * pad) & (table.bottom - 2 * pad <= box[1]), axis=0).nonzero()[0]
    box = box.take(near, axis=2)
    box[0] -= pad
    box[1] += pad
    chunks = table.pairs(box)
    del box

    order = sorted(range(len(rs)), key=rs.__getitem__)
    radii = [rs[j] for j in order]
    nr, npts = len(radii), len(xs)
    # per hit pair, the key grain * npts + point and the first radius it hits
    keys, firsts = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for pts, rows in chunks:
        rows = near.take(rows)
        dist = segment_distances(xs.take(pts, axis=0), a.take(rows, axis=0), b.take(rows, axis=0))
        # the number of radii below the distance: the first one it hits
        first = np.zeros(len(dist), dtype=np.intp)
        for r in radii:
            first += dist > r
        hit = first < nr
        keys.append(rows.compress(hit) // s * npts + pts.compress(hit))
        firsts.append(first.compress(hit))
    key, first = np.concatenate(keys), np.concatenate(firsts)
    if s > 1:
        # a polyline meets a point once, at the first radius of its rows
        key, first = _distinct_first(key, first, nr)
    grain, pt = np.divmod(key, npts)
    cnt = np.bincount(pt * nr + first, minlength=npts * nr).reshape(npts, nr)
    key, first = _distinct_first(owner.take(grain) * npts + pt, first, nr)
    ind = np.bincount(key % npts * nr + first, minlength=npts * nr).reshape(npts, nr)
    if nr > 1:
        # a hit at a radius is a hit at every larger one; the columns go
        # back to the order of rs
        back = sorted(range(nr), key=order.__getitem__)
        ind, cnt = (np.cumsum(t, axis=1).take(back, axis=1) for t in (ind, cnt))
    return ind, cnt


@dataclass(eq=False)
class Realizations:
    """A batch of `count` realizations over one guarded window: the grains
    of all of them as segment rows a, b of shape (K, s, d), translated to
    their germs, and the realization (0..count-1) that owns each grain.
    n is the Hausdorff dimension of the grains."""

    a: np.ndarray
    b: np.ndarray
    owner: np.ndarray
    count: int
    window: Box
    r_max: float
    n: int

    @property
    def dim(self) -> int:
        return self.window.dim

    def counts(self, x, rs) -> tuple[np.ndarray, np.ndarray]:
        """Hit-indicator and grain-count totals over the batch at x, one of
        each per radius in rs, from one kernel call after every query is
        checked to be answerable exactly: 0 <= r <= r_max and B_r(x) in the
        observation window."""
        if self.count == 0:
            raise ConfigurationError("need at least one realization")
        x = as_point(x, dim=self.dim)
        if len(rs) == 0:
            raise ConfigurationError("rs: need at least one radius")
        for r in rs:
            if not r >= 0:
                raise QueryError("query radius must be nonnegative")
            if r > self.r_max:
                raise QueryError(f"query radius {r} exceeds simulated r_max {self.r_max}")
            if not self.window.contains_box(Box(x - r, x + r)):
                raise QueryError("query ball is not contained in the observation window")
        ind, cnt = count_hits(self.a, self.b, self.owner, [x], rs)
        return ind[0], cnt[0]

    def measure_in_region(self, region: Box) -> np.ndarray:
        """H^n of each realization inside the region: summed clipped segment
        lengths (n = 1) or contained germ count (n = 0).

        Overlaps of distinct grains on sets of positive H^n measure occur
        with probability zero and are not subtracted.  Point counting is
        half-open on the upper faces so partitions add up exactly.
        """
        if region.dim != self.dim:
            raise ConfigurationError("region dimension mismatch")
        if not self.window.contains_box(region):
            raise QueryError("region is not contained in the observation window")
        a = self.a.reshape(-1, self.dim)
        if self.n == 0:
            weights = np.all((a >= region.lo) & (a < region.hi), axis=1)
        else:
            weights = clipped_lengths(a, self.b.reshape(-1, self.dim), region)
        return np.bincount(np.repeat(self.owner, self.a.shape[1]), weights=weights,
                           minlength=self.count)


def checked_guard_margin(q: MarkDistribution, r_max: float) -> float:
    """Guard margin L_max + r_max for queries up to r_max, after checking
    r_max and the diameter bound."""
    if r_max < 0:
        raise ConfigurationError("r_max must be nonnegative")
    if r_max >= 2.0:
        raise ConfigurationError("r_max must be below 2 (all radii in scope are < 2)")
    l_max = q.l_max
    if not np.isfinite(l_max):
        raise ConfigurationError("mark law needs a finite diameter bound")
    return l_max + r_max


def _sample_block(f, q: MarkDistribution, box: Box, seed: int, start: int, stop: int):
    """The grains of poisson.sample_block's replicates start..stop-1 as
    segment rows (a, b) translated to their germs, and the replicate
    (counted from start) that owns each grain."""
    germs, a, b, owner = sample_block(f, q, box, seed, start, stop)
    return a + germs[:, None, :], b + germs[:, None, :], owner


def simulate(
    f,
    q: MarkDistribution,
    window: Box,
    r_max: float,
    n_samples: int,
    seed: int,
    index0: int = 0,
) -> Realizations:
    """Sample `n_samples` realizations covering the window plus guard zone,
    realization i being replicate index0 + i of poisson.sample_block."""
    if n_samples < 0:
        raise ConfigurationError(f"n_samples must be nonnegative, got {n_samples}")
    box = window.dilate(checked_guard_margin(q, r_max))
    a, b, owner = _sample_block(f, q, box, seed, index0, index0 + n_samples)
    return Realizations(a, b, owner, n_samples, window, r_max, q.n)
