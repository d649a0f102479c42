"""Closed-form mean densities and finite-radius capacity probabilities.

The mean density at x is the mark-expectation of the line integral of
f(x - .) over the typical grain.  The mark integral uses Monte Carlo
(exact single term for a deterministic mark law); the inner line integral
uses Gauss-Legendre quadrature, so it is exact for the polynomial
intensities in scope.  The finite-radius route evaluates the Poisson void
probability P(x in Θ⊕r) = 1 - exp(-Λ(sausage)), with Λ averaged over
the mark law by Monte Carlo (a single term for a deterministic law).  All
marks of one (x, r) go through one batched sausage-kernel call: exact
cubature for segment and point grains under the polynomial intensities,
Monte Carlo over each mark's bounding box otherwise.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .geometry import as_point
from .grains import (
    Grain,
    MarkDistribution,
    ShiftedField,
    integrate_along,
    mark_segments,
    sample_marks,
    sample_mark_vectors,
    sausage_integral,
    sausage_integrals,
)


@dataclass(eq=False)
class DensityField:
    """Exact or estimated density values on a point grid."""

    grid: np.ndarray            # (m, d)
    values: np.ndarray          # (m,)
    standard_errors: np.ndarray  # (m,)
    method: str

    def to_csv(self) -> str:
        buf = io.StringIO()
        d = self.grid.shape[1]
        cols = ",".join(f"x{k + 1}" for k in range(d))
        buf.write(f"{cols},value,standard_error,method\n")
        for pt, v, se in zip(self.grid, self.values, self.standard_errors):
            coords = ",".join(repr(float(c)) for c in pt)
            buf.write(f"{coords},{float(v)!r},{float(se)!r},{self.method}\n")
        return buf.getvalue()


def deterministic_density(f, g: Grain, x, order: int = 8) -> float:
    """Mean density for a deterministic typical grain: the line integral of
    f(x - .) over the grain; no Monte Carlo."""
    x = as_point(x, dim=g.dim)
    try:
        return integrate_along(g, ShiftedField(f, x), order=order)
    except NumericError as exc:
        raise NumericError(str(exc), point=x) from exc


def exact_density(
    f,
    q: MarkDistribution,
    x,
    mark_draws: int = 2000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Mean density at x with its Monte Carlo standard error.

    The mark integral is a Monte Carlo average over `mark_draws` samples of
    Q; a deterministic mark law is evaluated as a single exact term with
    zero standard error.
    """
    x = as_point(x, dim=q.dim)
    if q.is_deterministic:
        # a deterministic or fixed segment law: its one grain, no draw
        g = sample_marks(q, 1, np.random.default_rng(0))[0]
        return deterministic_density(f, g, x), 0.0
    if rng is None:
        raise ConfigurationError("random mark law needs a random stream")
    if mark_draws < 2:
        raise ConfigurationError("mark_draws must be at least 2 for a standard error")
    vals = _mark_integrals(f, sample_mark_vectors(q, mark_draws, rng), x)
    if not np.all(np.isfinite(vals)):
        raise NumericError("non-finite inner integral", point=x)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(mark_draws))
    return mean, se


def _mark_integrals(f, vecs: np.ndarray, x: np.ndarray, order: int = 8) -> np.ndarray:
    """Inner line integrals of f(x - .) over the segments from the origin
    to each row of vecs (K, d), vectorized across marks."""
    lengths = np.linalg.norm(vecs, axis=1)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = (nodes + 1.0) / 2.0                           # (order,)
    pts = x[None, None, :] - t[None, :, None] * vecs[:, None, :]
    vals = f.values(pts.reshape(-1, x.shape[0])).reshape(len(vecs), order)
    return (vals * weights[None, :]).sum(axis=1) * lengths / 2.0


def analytic_segment_density(el: float, el3: float, x) -> float:
    """Closed form for the planar segment model with quadratic intensity
    |y|^2 and uniform orientation: (x1^2 + x2^2) E[L] + E[L^3]/3."""
    x = as_point(x, dim=2)
    return float((x[0] ** 2 + x[1] ** 2) * el + el3 / 3.0)


def sausage_intensity_integral(
    f, g: Grain, x: np.ndarray, r: float, mc_points: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Estimate (and SE) of the integral of f over the r-sausage of the
    reflected translated grain x - Z_0(s).  With y = x - z it is the
    integral of f(x - .) over Z_0⊕r, which sausage_integral computes
    (exactly, SE 0, where its cubature applies)."""
    return sausage_integral(g, ShiftedField(f, x), r, mc_points, rng)


def capacity_probability(
    f,
    q: MarkDistribution,
    x,
    r: float,
    mc_points: int = 200_000,
    mark_draws: int = 200,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """P(x in Θ⊕r) = 1 - exp(-Λ(sausage)) with propagated standard error.

    The outer mark integral is Monte Carlo over `mark_draws` samples of Q
    (a single term for a deterministic law).  All mark vectors are drawn
    first, then one sausage_integrals call integrates over every mark's
    sausage: exactly where its cubature applies, otherwise with
    `mc_points` proposals split evenly across the marks, drawn in mark
    order.
    """
    if r <= 0 or r >= 2.0:
        raise ConfigurationError("radius must lie in (0, 2)")
    if rng is None:
        rng = np.random.default_rng(0)
    x = as_point(x, dim=q.dim)
    if q.is_deterministic:
        g = sample_marks(q, 1, np.random.default_rng(0))[0]
        lam, lam_se = sausage_intensity_integral(f, g, x, r, mc_points, rng)
    else:
        draws = max(2, mark_draws)
        per_mark = max(16, mc_points // draws)
        a, b = mark_segments(q, draws, rng)
        ests, _ = sausage_integrals(a, b, ShiftedField(f, x), r, per_mark, rng)
        lam = float(ests.mean())
        lam_se = float(ests.std(ddof=1) / math.sqrt(draws))
    prob = 1.0 - math.exp(-lam)
    prob_se = math.exp(-lam) * lam_se
    return prob, prob_se


def density_grid(
    f,
    q: MarkDistribution,
    grid: np.ndarray,
    mark_draws: int = 2000,
    seed: int = 0,
    threads: int = 1,
) -> DensityField:
    """Evaluate exact_density on a grid of points; grid points get
    independent derived streams so results are thread-count invariant."""
    from .parallel import parallel_map  # late import: parallel depends on nothing here

    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    tasks = [(f, q, grid[i], mark_draws, seed, i) for i in range(grid.shape[0])]
    results = parallel_map(_density_point_task, tasks, threads)
    values = np.array([v for v, _ in results])
    ses = np.array([s for _, s in results])
    method = "exact_quadrature" if q.is_deterministic else "exact_quadrature_mark_mc"
    return DensityField(grid, values, ses, method)


def _density_point_task(args):
    from .streams import derive_stream

    f, q, x, mark_draws, seed, index = args
    return exact_density(f, q, x, mark_draws=mark_draws, rng=derive_stream(seed, index))
