"""Closed-form mean densities and finite-radius capacity probabilities.

The mean density at x is the mark expectation of the line integral of
f(x - .) over the typical grain, E_Q[∫_{Z_0} f(x - y) H^n(dy)].  The
finite-radius route evaluates the Poisson void probability
P(x in Θ⊕r) = 1 - exp(-Λ(sausage)) with Λ = E_Q[∫_{Z_0⊕r} f(x - y) dy].
Both routes take one path for every mark law: draw the marks' segment rows
once (one draw for a deterministic or fixed law), integrate over all of
them in one kernel call on f(x - .), and return the single term or the
Monte Carlo mark mean with its standard error.  The line kernel is
Gauss-Legendre quadrature, exact for the polynomial intensities in scope;
the sausage kernel is exact cubature for segment and point grains under
those intensities and Monte Carlo over each mark's bounding box otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .geometry import as_point
from .grains import MarkDistribution, ShiftedField, line_integrals, mark_segments, sausage_integrals


@dataclass(eq=False)
class DensityField:
    """Exact or estimated density values at the points of a grid, in order."""

    values: np.ndarray          # (m,)
    standard_errors: np.ndarray  # (m,)
    method: str


def exact_density(
    f,
    q: MarkDistribution,
    x,
    mark_draws: int = 2000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Mean density at x with its Monte Carlo standard error.

    The mark integral is a Monte Carlo average over `mark_draws` samples of
    Q; a deterministic or fixed law is one draw, an exact single term with
    zero standard error.  A non-finite value raises NumericError at x.
    """
    x = as_point(x, dim=q.dim)
    if not q.is_deterministic:
        if rng is None:
            raise ConfigurationError("random mark law needs a random stream")
        if mark_draws < 2:
            raise ConfigurationError("mark_draws must be at least 2 for a standard error")
    draws = 1 if q.is_deterministic else mark_draws
    try:
        vals = line_integrals(*mark_segments(q, draws, rng), ShiftedField(f, x), q.n)
        if not np.all(np.isfinite(vals)):
            raise NumericError("non-finite inner integral")
    except NumericError as exc:
        raise NumericError(str(exc), point=x) from exc
    if draws == 1:
        return float(vals[0]), 0.0
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))


def analytic_segment_density(el: float, el3: float, x) -> float:
    """Closed form for the planar segment model with quadratic intensity
    |y|^2 and uniform orientation: (x1^2 + x2^2) E[L] + E[L^3]/3."""
    x = as_point(x, dim=2)
    return float((x[0] ** 2 + x[1] ** 2) * el + el3 / 3.0)


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
    (a deterministic or fixed law is one draw, a single term).  All marks
    are drawn first, then one sausage_integrals call integrates over every
    mark's sausage: exactly where its cubature applies, otherwise with
    `mc_points` proposals split evenly across the marks (all of them for
    the single term), drawn in mark order.
    """
    if r <= 0 or r >= 2.0:
        raise ConfigurationError("radius must lie in (0, 2)")
    if not q.is_deterministic and mark_draws < 2:
        raise ConfigurationError("mark_draws must be at least 2 for a standard error")
    if rng is None:
        rng = np.random.default_rng(0)
    x = as_point(x, dim=q.dim)
    draws = 1 if q.is_deterministic else mark_draws
    per_mark = mc_points if draws == 1 else max(16, mc_points // draws)
    a, b = mark_segments(q, draws, rng)
    ests, ses = sausage_integrals(a, b, ShiftedField(f, x), r, per_mark, rng)
    if draws == 1:
        lam, lam_se = float(ests[0]), float(ses[0])
    else:
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
    return DensityField(values, ses, method)


def _density_point_task(args):
    from .streams import derive_stream

    f, q, x, mark_draws, seed, index = args
    return exact_density(f, q, x, mark_draws=mark_draws, rng=derive_stream(seed, index))
