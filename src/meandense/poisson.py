"""Germ process sampling: a marked Poisson process on a box via thinning.

The intensity measure factorizes as f(y) dy ⊗ Q(ds): germ locations follow
an inhomogeneous Poisson process with density f and every germ carries an
independent mark.  A field is anything with `values(pts)`, its values at
the rows of an (m, d) array, and `sup(box)`, an upper bound on a box;
it may also state `polynomial_on(box)`, which lets the sausage kernel
integrate it exactly, and `splits(a, b)`, where it is not smooth along
segment rows, which keeps the line kernel exact.  `IntensityField` is the
one implementation.
Thinning (acceptance-rejection against the box bound) is exact for any
bounded f.  `sample_block` is the one replicate draw: a block of
replicates, each on counter-based uniforms of its own key, as arrays of
germ points, their marks' segment rows and the replicate that owns each
germ, in a few array operations whatever the block's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import Box, as_point, clip_parameters
from .grains import MarkDistribution, mark_segments
from .streams import GAMMA, block_keys, uniforms

INTENSITY_KINDS = ("constant", "quadratic", "affine", "piecewise")


@dataclass(frozen=True, eq=False)
class IntensityField:
    """Germ intensity f: R^d -> [0, inf).

    Built-in families (all locally bounded, with H^n-negligible
    discontinuity sets):
      constant(c)            f = c everywhere
      quadratic              f(y) = |y|^2
      affine(a, b)           f(y) = max(0, a + b·y)
      piecewise(pieces)      constant on disjoint boxes, 0 outside;
                             discontinuities live on the box faces
    """

    kind: str
    c: float = 0.0
    a: float = 0.0
    b: np.ndarray | None = None
    pieces: tuple = ()  # tuple of (Box, value)

    def __post_init__(self):
        if self.kind not in INTENSITY_KINDS:
            raise ConfigurationError(f"unknown intensity kind {self.kind!r}")
        if not np.all(np.isfinite([self.c, self.a, *(val for _, val in self.pieces)])):
            raise ConfigurationError("intensity c, a and piece values must be finite")
        if self.kind == "constant" and self.c < 0:
            raise ConfigurationError("constant intensity must be nonnegative")
        if self.kind == "affine":
            if self.b is None:
                raise ConfigurationError("affine intensity needs a slope vector b")
            object.__setattr__(self, "b", as_point(self.b))
        if self.kind == "piecewise":
            for box, val in self.pieces:
                if val < 0:
                    raise ConfigurationError("piecewise intensity values must be nonnegative")

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at pts of shape (m, d)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "constant":
            return np.full(pts.shape[0], self.c)
        if self.kind == "quadratic":
            return np.einsum("ij,ij->i", pts, pts)
        if self.kind == "affine":
            return np.clip(self.a + pts @ self.b, 0.0, None)
        out = np.zeros(pts.shape[0])
        for box, val in self.pieces:
            out = np.where(box.contains(pts), val, out)
        return out

    def sup(self, box: Box) -> float:
        """Upper bound of f on the box, used for thinning: exact, attained
        at a corner for the polynomial kinds, and the largest value of a
        piece meeting the box (or 0) for piecewise."""
        if self.kind == "constant":
            return float(self.c)
        if self.kind in ("quadratic", "affine"):
            return float(self.values(box.corners()).max())
        vals = [0.0]
        for piece_box, val in self.pieces:
            if np.all(piece_box.hi >= box.lo) and np.all(piece_box.lo <= box.hi):
                vals.append(val)
        return float(max(vals))

    def polynomial_on(self, box: Box) -> bool:
        """True when f is a polynomial of degree <= 2 on the box: constant
        and quadratic always, affine when positive at every corner (its
        clip at 0 is inactive there), piecewise never."""
        if self.kind == "affine":
            return bool(np.all(self.a + box.corners() @ self.b > 0.0))
        return self.kind in ("constant", "quadratic")

    def splits(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """Parameters t, shape (..., m), of the rows a + t (b - a), shape
        (..., d), between which f is smooth (one outside [0, 1] splits
        nothing): each piece's entry and exit for piecewise, the zero of
        a + b·y for affine, None for constant and quadratic."""
        if self.kind == "piecewise" and self.pieces:
            return np.stack([t for box, _ in self.pieces
                             for t in clip_parameters(a, b, box)], axis=-1)
        if self.kind != "affine":
            return None
        with np.errstate(divide="ignore", invalid="ignore"):  # a row along a level set
            zero = -(self.a + a @ self.b) / ((b - a) @ self.b)
        return np.nan_to_num(zero, nan=0.0)[..., None]


# cap on the expected germ count of one realization: a draw allocates a few
# arrays of that many rows, so a larger mean is refused before drawing
MAX_EXPECTED_GERMS = 2_000_000


def expected_germs(f, box: Box) -> tuple[float, float]:
    """(intensity bound, expected Poisson proposal count) on the box.

    Checked before anything is drawn: the bound must be finite and the
    expected count, sup f times the box volume, at most MAX_EXPECTED_GERMS.
    A zero bound expects no germ, also on a box whose volume overflows.
    """
    m_bound = f.sup(box)
    if not np.isfinite(m_bound):
        raise ConfigurationError("intensity bound is not finite on the sampling box")
    mean = m_bound * box.volume if m_bound else 0.0
    if mean > MAX_EXPECTED_GERMS:
        raise ConfigurationError(
            f"expected germ count {mean:.6g} per realization exceeds the cap "
            f"{MAX_EXPECTED_GERMS}"
        )
    return m_bound, mean


def poisson_table(mean: float) -> tuple[int, np.ndarray]:
    """(n0, cdf), cdf[j] = P(N <= n0 + j) for N ~ Poisson(mean > 0) on the
    counts within 10 sd + 10 of the mean (outside, the mass is below 1e-20):
    cumulative sums of log(mean / n), normalized to cdf[-1] = 1 exactly,
    within 1e-13 of the exact cdf; 28,307 entries (226 kB) at the germ cap."""
    half = 10.0 * math.sqrt(mean) + 10.0
    n0 = max(0, math.floor(mean - half))
    steps = np.log(mean / np.arange(n0 + 1, math.ceil(mean + half) + 1))
    log_pmf = np.concatenate([[0.0], np.cumsum(steps)])  # log p(n) - log p(n0)
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    return n0, cdf / cdf[-1]


def sample_block(f, q: MarkDistribution, box: Box, seed: int, start: int, stop: int):
    """Replicates start..stop-1 of the marked Poisson process on the box:
    the germs (m, d) in replicate order, their marks' rows a, b of shape
    (m, s, d) anchored at the origin, and the replicate (counted from
    start) that owns each germ.  The germ cap and the replicate range are
    checked before anything is drawn.  Replicate i reads the uniforms of
    its key: counter 0 inverts to its proposal count N ~ Poisson(M vol),
    and proposal j reads counters 1 + j W + c, W = d + 1 + q.uniforms:
    c < d its point, c = d its thinning uniform u (kept when u M < f(y);
    where f(y) >= M that holds for every u, which is not read) and the
    rest its mark's."""
    m_bound, mean = expected_germs(f, box)
    keys = block_keys(seed, start, stop)
    d = box.dim
    if mean:
        n0, cdf = poisson_table(mean)
        proposed = n0 + np.searchsorted(cdf, uniforms(keys, 0), side="right")
    else:  # no proposal, and no count to draw
        proposed = np.zeros(len(keys), dtype=np.int64)
    owner = np.repeat(np.arange(len(keys)), proposed)
    # proposal j of replicate i, the t-th of the block, reads counters
    # 1 + j W + c of key_i: output c of key_i + (1 + j W) gamma, that is of
    # its replicate's base plus t W gamma.  Uniforms come as (columns,
    # proposals), so every operation runs along the proposals
    w = d + 1 + q.uniforms
    step = np.full(1, w, dtype=np.uint64) * GAMMA  # an array: a wrapping scalar warns
    base = keys + GAMMA - (np.cumsum(proposed) - proposed).astype(np.uint64) * step
    key = np.repeat(base, proposed) + np.arange(len(owner), dtype=np.uint64) * step
    column = np.arange(w, dtype=np.uint64)[:, None]
    pts = np.ascontiguousarray(box.sample(uniforms(key, column[:d]).T))  # C order for f
    vals = f.values(pts)
    accept = vals >= m_bound  # u M < M <= f(y) for every u < 1
    thin = np.flatnonzero(~accept)
    if thin.size:
        thin = thin if thin.size < len(accept) else slice(None)  # all thinned: no gather
        accept[thin] = uniforms(key[thin], column[d]) * m_bound < vals[thin]
        kept = np.flatnonzero(accept)
        pts, owner, key = pts[kept], owner[kept], key[kept]
    return pts, *mark_segments(q, uniforms(key, column[d + 1:]).T), owner
