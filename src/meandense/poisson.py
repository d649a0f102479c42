"""Germ process sampling: a marked Poisson process on a box via thinning.

The intensity measure factorizes as f(y) dy ⊗ Q(ds): germ locations follow
an inhomogeneous Poisson process with density f and every germ carries an
independent mark.  Thinning (acceptance-rejection against the box
supremum of f) is exact for any bounded f; the Poisson count itself comes
from numpy's PCG64 generator, whose count sampler (inversion for small
means, transformed rejection above) is fixed and reproducible for a given
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import Box, as_point
from .grains import (
    Grain,
    MarkDistribution,
    SegmentGrain,
    ShiftedField,
    mark_segments,
    sample_mark_vectors,
    sausage_integrals,
)

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

    def __call__(self, pt) -> float:
        return float(self.values(np.atleast_2d(as_point(pt)))[0])

    @property
    def discontinuity_description(self) -> str:
        if self.kind == "piecewise":
            return "faces of the piece boxes (H^n-negligible for n < d)"
        return "empty"


@dataclass(frozen=True, eq=False)
class CallableField:
    """Adapter exposing an arbitrary callable as a field; used by tests and
    oracles.  A bound callable may be supplied for thinning."""

    fn: object
    bound_fn: object | None = None
    kind: str = "callable"

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.asarray(self.fn(pts), dtype=float)
        if out.shape != (pts.shape[0],):
            out = np.array([float(self.fn(p)) for p in pts])
        return out

    def __call__(self, pt) -> float:
        return float(self.values(np.atleast_2d(as_point(pt)))[0])


def intensity_bound(f, box: Box) -> float:
    """Finite upper bound for sup of f over the box; exact (attained at a
    corner) for the built-in families."""
    if isinstance(f, CallableField):
        if f.bound_fn is None:
            raise ConfigurationError("callable field needs an explicit bound for thinning")
        return float(f.bound_fn(box))
    if f.kind == "constant":
        return float(f.c)
    if f.kind == "quadratic":
        return float(f.values(box.corners()).max())
    if f.kind == "affine":
        return float(f.values(box.corners()).max())
    vals = [0.0]
    for piece_box, val in f.pieces:
        if np.all(piece_box.hi >= box.lo) and np.all(piece_box.lo <= box.hi):
            vals.append(val)
    return float(max(vals))


# cap on the expected germ count of one realization: a draw allocates a few
# arrays of that many rows, so a larger mean is refused before drawing
MAX_EXPECTED_GERMS = 2_000_000


def expected_germs(f, box: Box) -> tuple[float, float]:
    """(intensity bound, expected Poisson proposal count) on the box.

    Checked before anything is drawn: the bound must be finite and the
    expected count, sup f times the box volume, at most MAX_EXPECTED_GERMS.
    """
    m_bound = intensity_bound(f, box)
    if not np.isfinite(m_bound):
        raise ConfigurationError("intensity bound is not finite on the sampling box")
    mean = m_bound * box.volume
    if mean > MAX_EXPECTED_GERMS:
        raise ConfigurationError(
            f"expected germ count {mean:.6g} per realization exceeds the cap "
            f"{MAX_EXPECTED_GERMS}"
        )
    return m_bound, mean


@dataclass(frozen=True, eq=False)
class MarkedGermSample:
    """Accepted germ locations with their marks, held as arrays; per-grain
    objects are built only when `grains` is read."""

    points: np.ndarray          # (m, d) germ locations
    marks: MarkDistribution
    window_used: Box
    intensity_bound_used: float
    proposed: int = 0           # number of Poisson proposals before thinning
    vectors: np.ndarray | None = None  # (m, d) segment vectors; None for a deterministic law

    @property
    def grains(self) -> list[Grain]:
        if self.vectors is None:
            return [self.marks.grain] * len(self)
        return [SegmentGrain(v) for v in self.vectors]

    @property
    def germs(self) -> list[tuple[np.ndarray, Grain]]:
        return list(zip(self.points, self.grains))

    def __len__(self) -> int:
        return self.points.shape[0]


def sample_germs(
    f,
    q: MarkDistribution,
    box: Box,
    rng: np.random.Generator,
    expected: tuple[float, float] | None = None,
) -> MarkedGermSample:
    """Realization of the marked Poisson process restricted to the box.

    Draw N ~ Poisson(M vol), place N points uniformly, keep each with
    probability f(y)/M, and attach an independent mark to every survivor.
    `expected` is expected_germs(f, box) when the caller already has it.
    """
    m_bound, mean = expected_germs(f, box) if expected is None else expected
    if m_bound == 0.0:
        empty = None if q.kind == "deterministic" else np.zeros((0, box.dim))
        return MarkedGermSample(np.zeros((0, box.dim)), q, box, 0.0, 0, empty)
    count = int(rng.poisson(mean))
    pts = box.sample(rng, count)
    u = rng.random(count)
    accept = u * m_bound < f.values(pts)
    kept = pts[accept]
    vectors = None if q.kind == "deterministic" else sample_mark_vectors(q, kept.shape[0], rng)
    return MarkedGermSample(kept, q, box, m_bound, count, vectors)


def check_finiteness(
    f,
    q: MarkDistribution,
    radius: float,
    rng: np.random.Generator,
    mark_draws: int = 10_000,
    points_per_mark: int = 64,
) -> tuple[bool, float]:
    """Monte Carlo check of the hitting-intensity condition: the expected
    number of germs whose translated grain meets a ball of the given radius
    must be finite.

    Estimates E_Q[ ∫_{(-Z_0)⊕radius} f(y) dy ] over the truncated mark law
    and returns (is_finite, estimate); the estimate is a diagnostic value,
    not just a flag.  All marks are drawn first, then one sausage_integrals
    call draws `points_per_mark` proposals for each of them.
    """
    if q.l_max is None or not np.isfinite(q.l_max):
        raise ConfigurationError("mark law needs a finite diameter bound")
    a, b = mark_segments(q, mark_draws, rng)
    # the integral of f over (-Z_0)⊕radius is that of f(-.) over Z_0⊕radius
    reflected = ShiftedField(f, np.zeros(q.dim))
    totals, _ = sausage_integrals(a, b, reflected, radius, points_per_mark, rng)
    estimate = float(totals.mean())
    return bool(np.isfinite(estimate)), estimate
