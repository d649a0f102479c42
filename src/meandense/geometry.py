"""Dimension-generic geometric primitives for d in {1, 2, 3}.

All sets use closed semantics: balls, boxes and segments include their
boundaries, and ties (distance exactly equal to the radius) count as hits.
Every value here is immutable after construction and every operation is a
pure function.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SUPPORTED_DIMS = (1, 2, 3)

_BALL_VOLUMES = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def ball_volume(k: int, r: float = 1.0) -> float:
    """Volume b_k r^k of a ball of radius r in R^k, k in {1, 2, 3}."""
    try:
        return _BALL_VOLUMES[k] * r ** k
    except KeyError:
        raise ConfigurationError(f"ball_volume: unsupported dimension {k}; must be in {SUPPORTED_DIMS}")


def checked_ball_volume(k: int, r: float) -> float:
    """The normalizer b_k r^k of a ratio, refused where it is below the
    smallest normal float: dividing by it would overflow or divide by 0."""
    norm = float(ball_volume(k, r))
    if norm < sys.float_info.min:
        raise ConfigurationError(f"radius {float(r)!r} is too small: b_{k} R^{k} = {norm!r}")
    return norm


def as_point(p, dim: int | None = None) -> np.ndarray:
    """Coerce to a float coordinate array, checking finiteness and dimension."""
    a = np.asarray(p, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise ConfigurationError(f"point must be 1-dimensional, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ConfigurationError(f"dimension mismatch: expected {dim}, got {a.shape[0]}")
    if a.shape[0] not in SUPPORTED_DIMS:
        raise ConfigurationError(f"unsupported dimension {a.shape[0]}")
    if not np.isfinite(a).all():
        raise ConfigurationError(f"non-finite point coordinates: {a}")
    return a


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned closed box with lo[k] <= hi[k] on every axis."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi, dim=self.lo.shape[0]))
        if (self.lo > self.hi).any():
            raise ConfigurationError(f"box with lo > hi: {self.lo} / {self.hi}")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def volume(self) -> float:
        # a box wider than about 1e154 per side in d = 2 has volume inf
        with np.errstate(over="ignore"):
            return float(np.prod(self.hi - self.lo))

    def dilate(self, margin: float) -> "Box":
        if margin < 0:
            raise ConfigurationError("dilation margin must be nonnegative")
        return Box(self.lo - margin, self.hi + margin)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Closed membership; pts of shape (d,) or (m, d)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return ((pts >= self.lo) & (pts <= self.hi)).all(axis=1)

    def contains_box(self, other: "Box") -> bool:
        return bool((other.lo >= self.lo).all() and (other.hi <= self.hi).all())

    def sample(self, u: np.ndarray) -> np.ndarray:
        """The points lo + (hi - lo) u for uniforms u of shape (m, d)."""
        return self.lo + (self.hi - self.lo) * u

    def corners(self) -> np.ndarray:
        grids = np.meshgrid(*[(self.lo[k], self.hi[k]) for k in range(self.dim)], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def segment_distances(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points to segments (a, b), broadcast over the leading
    axes: one point (d,) against m segments (m, d), or k point sets
    (k, 1, m, d) against the s rows (k, s, 1, d) of k grains.  A
    zero-length segment is a point, measured with np.linalg.norm."""
    ab = b - a
    rel = pts - a
    denom = np.einsum("...j,...j->...", ab, ab)
    degenerate = denom == 0.0
    t = np.einsum("...j,...j->...", rel, ab)
    t /= np.where(degenerate, 1.0, denom)
    np.clip(t, 0.0, 1.0, out=t)
    # rel becomes the offset from the nearest point of the segment (t = 0
    # leaves a zero-length segment's rows as they are), one axis at a time:
    # a broadcast (..., d) product would loop over d innermost, several
    # times slower on a large batch
    for k in range(rel.shape[-1]):
        rel[..., k] -= t * ab[..., k]
    dist = np.sqrt(np.einsum("...j,...j->...", rel, rel))
    if degenerate.any():
        return np.where(degenerate, np.linalg.norm(rel, axis=-1), dist)
    return dist


def clip_parameters(a: np.ndarray, b: np.ndarray, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Liang-Barsky entry and exit parameters t0, t1 in [0, 1] of segments
    (a, b), broadcast over the leading axes, with the box: the clipped
    segment is a + [t0, t1] (b - a) unless t0 > t1 or it misses a slab."""
    d = b - a
    par = d == 0.0
    # slab parameters of every axis at once; a parallel axis divides by
    # zero and is masked, a subnormal one overflows to ±inf, which max/min
    # handle
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ta = (box.lo - a) / d
        tb = (box.hi - a) / d
    t0 = np.where(par, 0.0, np.minimum(ta, tb)).max(axis=-1, initial=0.0)
    t1 = np.where(par, 1.0, np.maximum(ta, tb)).min(axis=-1, initial=1.0)
    return t0, t1


def clipped_lengths(a: np.ndarray, b: np.ndarray, box: Box) -> np.ndarray:
    """Lengths of the clipped sub-segments of m segments (a, b) inside box."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    d = b - a
    t0, t1 = clip_parameters(a, b, box)
    # a segment parallel to an axis lies in that slab or misses the box
    inside = ((d != 0.0) | ((a >= box.lo) & (a <= box.hi))).all(axis=1)
    return np.where(inside & (t1 >= t0), t1 - t0, 0.0) * np.linalg.norm(d, axis=1)
