"""Boolean-model realizations and hit/count/measure queries.

A realization holds every grain whose germ falls in the observation
window dilated by a guard margin of at least L_max + r_max, so all
in-window queries with radius <= r_max are exact for the truncated mark
law: edge effects are eliminated rather than corrected.

Grains are held as arrays only (`grain_arrays`): segment rows (a, b) with
the grain each row belongs to, a point grain being one zero-length row; a
hand-built realization stacks such arrays with `stack_grains`.  One kernel,
`count_hits`, answers every hit and count query, for one realization, a
stacked batch of realizations or a block of the replicate engine alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, QueryError
from .geometry import Ball, Box, as_point, clipped_lengths, segment_distances
from .grains import MarkDistribution
from .poisson import sample_germs


class GrainArrays(NamedTuple):
    """Translated grains as segment rows (a, b); a point grain is one row
    with a = b = its germ.  Grains are numbered 0..count-1."""

    a: np.ndarray      # (rows, d) segment start points
    b: np.ndarray      # (rows, d) segment end points
    grain: np.ndarray  # (rows,) grain of each row
    count: int


def grain_arrays(germs: np.ndarray, marks) -> GrainArrays:
    """Arrays of the grains germs[i] + Z_i for germs of shape (m, d).

    `marks` is the (m, d) array of segment vectors of a segment law, or the
    one grain of a deterministic law, shared by every germ.
    """
    m, d = germs.shape
    ids = np.arange(m)
    if isinstance(marks, np.ndarray):
        return GrainArrays(germs, germs + marks, ids, m)
    a0, b0 = marks.rows()
    a = (germs[:, None, :] + a0).reshape(-1, d)
    b = (germs[:, None, :] + b0).reshape(-1, d)
    return GrainArrays(a, b, np.repeat(ids, a0.shape[0]), m)


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


def count_hits(grains: GrainArrays, owner: np.ndarray, xs, rs) -> tuple[np.ndarray, np.ndarray]:
    """Integer totals (ind, cnt) of shape (len(xs), len(rs)): cnt[i, j]
    counts the grains meeting the closed ball B_rs[j](xs[i]), ind[i, j]
    the distinct owners among them (owner[g] is the owner of grain g).

    Per x, only rows whose bounding box, dilated by a hair over max(rs),
    contains x are measured; the hair keeps rounding in a box from
    dropping a grain that the distance test would count.
    """
    a, b, grain, _ = grains
    # boxes as (d, rows): each comparison runs along a contiguous row, many
    # times faster than reducing (rows, d) along its short axis
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
            hit = np.unique(grain[near[dist <= r]])
            cnt[i, j] = hit.size
            ind[i, j] = np.count_nonzero(np.bincount(owner[hit]))
    return ind, cnt


def check_query(window: Box, r_max: float, x: np.ndarray, r: float):
    """Raise QueryError unless B_r(x) is answerable exactly: 0 <= r <= r_max
    and the ball lies in the observation window."""
    if r < 0:
        raise QueryError("query radius must be nonnegative")
    if r > r_max:
        raise QueryError(f"query radius {r} exceeds simulated r_max {r_max}")
    if not window.contains_box(Ball(x, r).bounding_box()):
        raise QueryError("query ball is not contained in the observation window")


@dataclass(eq=False)
class BooleanRealization:
    """One sample of the model: translated grains over a guarded window,
    held as grain arrays (`grain_arrays`, `stack_grains`)."""

    arrays: GrainArrays
    observation_window: Box
    guard_margin: float
    r_max: float = 0.0
    hausdorff_dim: int | None = None  # n of the grain family; inferred if None

    def __post_init__(self):
        if self.arrays.a.shape[1] != self.dim:
            raise ConfigurationError("dimension mismatch between grains and window")

    @property
    def dim(self) -> int:
        return self.observation_window.dim

    @property
    def grain_dim(self) -> int:
        """Hausdorff dimension n of the grain family: 0 when inferred from
        rows that all have zero length."""
        if self.hausdorff_dim is not None:
            return self.hausdorff_dim
        return 0 if np.array_equal(self.arrays.a, self.arrays.b) else 1

    def __len__(self) -> int:
        return self.arrays.count

    def hit_count(self, x, r: float) -> int:
        """Number of placed grains meeting the closed ball B_r(x)."""
        x = as_point(x, dim=self.dim)
        check_query(self.observation_window, self.r_max, x, r)
        owner = np.zeros(self.arrays.count, dtype=int)
        return int(count_hits(self.arrays, owner, [x], [r])[1][0, 0])

    def hits(self, x, r: float) -> bool:
        """True iff some grain meets the closed ball B_r(x)."""
        return self.hit_count(x, r) > 0

    def measure_in_region(self, region: Box) -> float:
        """H^n of the realization inside the region: summed clipped segment
        lengths (n = 1) or contained germ count (n = 0).

        Overlaps of distinct grains on sets of positive H^n measure occur
        with probability zero and are not subtracted.  Point counting is
        half-open on the upper faces so partitions add up exactly.
        """
        if region.dim != self.dim:
            raise ConfigurationError("region dimension mismatch")
        if not self.observation_window.contains_box(region):
            raise QueryError("region is not contained in the observation window")
        a, b, _, _ = self.arrays
        if self.grain_dim == 0:
            return float(np.all((a >= region.lo) & (a < region.hi), axis=1).sum())
        return float(clipped_lengths(a, b, region).sum())


def checked_guard_margin(
    q: MarkDistribution, r_max: float, guard_margin: float | None = None
) -> float:
    """Guard margin for queries up to r_max, L_max + r_max unless a wider
    one is given, after checking r_max and the diameter bound."""
    if r_max < 0:
        raise ConfigurationError("r_max must be nonnegative")
    if r_max >= 2.0:
        raise ConfigurationError("r_max must be below 2 (all radii in scope are < 2)")
    l_max = q.l_max
    if not np.isfinite(l_max):
        raise ConfigurationError("mark law needs a finite diameter bound")
    margin = guard_margin if guard_margin is not None else l_max + r_max
    if margin < l_max + r_max:
        raise ConfigurationError("guard margin must be at least L_max + r_max")
    return margin


def simulate(
    f,
    q: MarkDistribution,
    window: Box,
    r_max: float,
    rng: np.random.Generator,
    guard_margin: float | None = None,
) -> BooleanRealization:
    """Sample one realization covering the window plus guard zone."""
    margin = checked_guard_margin(q, r_max, guard_margin)
    s = sample_germs(f, q, window.dilate(margin), rng)
    arrays = grain_arrays(s.points, q.grain if s.vectors is None else s.vectors)
    return BooleanRealization(arrays, window, margin, r_max, hausdorff_dim=q.n)
