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
hit and count query on either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, QueryError
from .geometry import Box, as_point, clipped_lengths, segment_distances
from .grains import MarkDistribution
from .poisson import sample_block


def count_hits(a: np.ndarray, b: np.ndarray, owner, xs, rs) -> tuple[np.ndarray, np.ndarray]:
    """Integer totals (ind, cnt) of shape (len(xs), len(rs)) over K grains
    given as segment rows a, b of shape (K, s, d): cnt[i, j] counts the
    grains meeting the closed ball B_rs[j](xs[i]), ind[i, j] the distinct
    owners among them (owner[k] is the owner of grain k).

    Per x, only rows whose bounding box, dilated by a hair over max(rs),
    contains x are measured; the hair keeps rounding in a box from
    dropping a grain that the distance test would count.
    """
    _, s, d = a.shape
    a, b = a.reshape(-1, d), b.reshape(-1, d)
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
            hit = np.unique(near[dist <= r] // s)
            cnt[i, j] = hit.size
            ind[i, j] = np.count_nonzero(np.bincount(owner[hit]))
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
