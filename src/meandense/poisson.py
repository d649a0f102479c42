"""Germ process sampling: a marked Poisson process on a box via thinning.

The intensity measure factorizes as f(y) dy ⊗ Q(ds): germ locations follow
an inhomogeneous Poisson process with density f and every germ carries an
independent mark.  A field is anything with `values(pts)`, its values at
the rows of an (m, d) array, and `sup(box)`, an upper bound on a box;
it may also state `polynomial_on(box)`, which lets the sausage kernel
integrate it exactly.  `IntensityField` is the one implementation.
Thinning (acceptance-rejection against the box bound) is exact for any
bounded f; the Poisson count itself comes from numpy's PCG64 generator,
whose count sampler (inversion for small means, transformed rejection
above) is fixed and reproducible for a given seed.  `sample_block` is the
one replicate draw: a block of replicates, each on its own stream, as
arrays of germ points, the segment rows that `mark_segments` draws for
them and the replicate that owns each germ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import Box, as_point
from .grains import MarkDistribution, mark_segments
from .streams import derive_stream

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


def sample_block(f, q: MarkDistribution, box: Box, seed: int, start: int, stop: int):
    """Replicates start..stop-1 of the marked Poisson process on the box.

    Replicate i is drawn on stream derive_stream(seed, i): N ~ Poisson(M
    vol), N points uniform on the box and N thinning uniforms, of which
    the points with u M < f(y) are kept, and then a mark for every kept
    point.  Returns the germs (m, d) in replicate order, their marks' rows
    a, b of shape (m, s, d) anchored at the origin, and the replicate
    (counted from start) that owns each germ.  The germ cap is checked
    before any stream is derived.
    """
    m_bound, mean = expected_germs(f, box)
    rngs = [derive_stream(seed, i) for i in range(start, stop)]
    proposed = [int(rng.poisson(mean)) for rng in rngs]
    # per stream: its count, then its points, then its thinning uniforms
    pts = np.concatenate(
        [np.zeros((0, box.dim))] + [box.sample(rng, n) for rng, n in zip(rngs, proposed)]
    )
    u = np.concatenate([np.zeros(0)] + [rng.random(n) for rng, n in zip(rngs, proposed)])
    accept = u * m_bound < f.values(pts)
    owner = np.repeat(np.arange(stop - start), proposed)[accept]
    counts = np.bincount(owner, minlength=stop - start).tolist()
    return (pts[accept], *mark_segments(q, counts, rngs), owner)
