"""Boolean-model realizations and hit/count/measure queries.

A realization holds every grain whose germ falls in the observation
window dilated by a guard margin of at least L_max + r_max, so all
in-window queries with radius <= r_max are exact for the truncated mark
law: edge effects are eliminated rather than corrected.

Hit queries are accelerated by a uniform grid over segment bounding boxes
(dilated by r_max); correctness is independent of the cell size and is
property-tested against brute force.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, QueryError
from .geometry import Ball, Box, as_point, clipped_lengths, segment_distances
from .grains import Grain, MarkDistribution, PointGrain, PolylineGrain, SegmentGrain
from .poisson import sample_germs

# below this many segments brute force beats the index
_INDEX_THRESHOLD = 32


@dataclass(eq=False)
class BooleanRealization:
    """One sample of the model: translated grains over a guarded window."""

    placed_grains: list          # list of (germ: (d,) array, grain)
    observation_window: Box
    guard_margin: float
    r_max: float = 0.0
    hausdorff_dim: int | None = None  # n of the grain family; inferred if None

    def __post_init__(self):
        d = self.observation_window.dim
        seg_a, seg_b, seg_idx = [], [], []
        pt_pos, pt_idx = [], []
        for gi, (germ, grain) in enumerate(self.placed_grains):
            germ = as_point(germ, dim=d)
            if isinstance(grain, PointGrain):
                pt_pos.append(germ)
                pt_idx.append(gi)
            else:
                a, b = grain.segment_arrays()
                seg_a.append(germ + a)
                seg_b.append(germ + b)
                seg_idx.append(np.full(a.shape[0], gi))
        self._seg_a = np.vstack(seg_a) if seg_a else np.zeros((0, d))
        self._seg_b = np.vstack(seg_b) if seg_b else np.zeros((0, d))
        self._seg_grain = np.concatenate(seg_idx) if seg_idx else np.zeros(0, dtype=int)
        self._pt_pos = np.vstack(pt_pos) if pt_pos else np.zeros((0, d))
        self._pt_grain = np.asarray(pt_idx, dtype=int)
        self._index = None

    @property
    def dim(self) -> int:
        return self.observation_window.dim

    @property
    def grain_dim(self) -> int:
        """Hausdorff dimension n of the grain family."""
        if self.hausdorff_dim is not None:
            return self.hausdorff_dim
        return 1 if self._seg_a.shape[0] else 0

    def __len__(self) -> int:
        return len(self.placed_grains)

    # -- spatial index ------------------------------------------------------

    def _cell_of(self, x: np.ndarray, cell: float) -> tuple:
        return tuple(np.floor(x / cell).astype(int))

    def _build_index(self, cell_size: float | None = None):
        cell = cell_size if cell_size else max(self.guard_margin, self.r_max, 1e-9)
        cells: dict[tuple, list[int]] = {}
        pad = self.r_max
        for i in range(self._seg_a.shape[0]):
            lo = np.minimum(self._seg_a[i], self._seg_b[i]) - pad
            hi = np.maximum(self._seg_a[i], self._seg_b[i]) + pad
            lo_c = np.floor(lo / cell).astype(int)
            hi_c = np.floor(hi / cell).astype(int)
            for key in np.ndindex(*(hi_c - lo_c + 1)):
                cells.setdefault(tuple(lo_c + key), []).append(i)
        self._index = (cell, {k: np.asarray(v) for k, v in cells.items()})

    def _candidate_segments(self, x: np.ndarray) -> np.ndarray:
        if self._seg_a.shape[0] <= _INDEX_THRESHOLD:
            return np.arange(self._seg_a.shape[0])
        if self._index is None:
            self._build_index()
        cell, cells = self._index
        return cells.get(self._cell_of(x, cell), np.zeros(0, dtype=int))

    # -- queries ------------------------------------------------------------

    def _check_query(self, x: np.ndarray, r: float):
        if r < 0:
            raise QueryError("query radius must be nonnegative")
        if r > self.r_max:
            raise QueryError(f"query radius {r} exceeds simulated r_max {self.r_max}")
        if not self.observation_window.contains_box(Ball(x, r).bounding_box()):
            raise QueryError("query ball is not contained in the observation window")

    def _hit_grains(self, x: np.ndarray, r: float) -> np.ndarray:
        """Indices of placed grains within (closed) distance r of x."""
        hit = []
        cand = self._candidate_segments(x)
        if cand.size:
            d = segment_distances(x, self._seg_a[cand], self._seg_b[cand])
            hit.append(self._seg_grain[cand[d <= r]])
        if self._pt_pos.shape[0]:
            d = np.linalg.norm(self._pt_pos - x, axis=1)
            hit.append(self._pt_grain[d <= r])
        if not hit:
            return np.zeros(0, dtype=int)
        return np.unique(np.concatenate(hit))

    def hits(self, x, r: float) -> bool:
        """True iff some grain meets the closed ball B_r(x)."""
        x = as_point(x, dim=self.dim)
        self._check_query(x, r)
        return self._hit_grains(x, r).size > 0

    def hit_count(self, x, r: float) -> int:
        """Number of placed grains meeting B_r(x)."""
        x = as_point(x, dim=self.dim)
        self._check_query(x, r)
        return int(self._hit_grains(x, r).size)

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
        total = 0.0
        if self._seg_a.shape[0]:
            total += float(clipped_lengths(self._seg_a, self._seg_b, region).sum())
        if self._pt_pos.shape[0]:
            inside = np.all(
                (self._pt_pos >= region.lo) & (self._pt_pos < region.hi), axis=1
            )
            total += float(inside.sum())
        return total

    def to_csv(self) -> str:
        """One row per grain: germ coordinates, grain kind and parameters."""
        buf = io.StringIO()
        d = self.dim
        germ_cols = ",".join(f"germ_{k}" for k in range(d))
        buf.write(f"{germ_cols},kind,params\n")
        for germ, grain in self.placed_grains:
            coords = ",".join(repr(float(c)) for c in germ)
            if isinstance(grain, PointGrain):
                buf.write(f"{coords},point,\n")
            elif isinstance(grain, SegmentGrain):
                params = ";".join(repr(float(c)) for c in grain.vec)
                buf.write(f"{coords},segment,{params}\n")
            else:
                params = ";".join(
                    " ".join(repr(float(c)) for c in v) for v in grain.vertices
                )
                buf.write(f"{coords},polyline,{params}\n")
        return buf.getvalue()


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
    sample = sample_germs(f, q, window.dilate(margin), rng)
    placed = list(zip(sample.points, sample.grains))
    return BooleanRealization(placed, window, margin, r_max, hausdorff_dim=q.n)
