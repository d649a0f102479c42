"""Closed-form mean densities and finite-radius capacity probabilities.

The mean density at x is the mark expectation of the line integral of
f(x - .) over the typical grain, E_Q[∫_{Z_0} f(x - y) H^n(dy)].  The
finite-radius route evaluates the Poisson void probability
P(x in Θ⊕r) = 1 - exp(-Λ(sausage)) with Λ = E_Q[∫_{Z_0⊕r} f(x - y) dy].
Both are mark averages of one kernel on f(x - .), taken by `_mark_mean`:
draw the marks' segment rows once on the uniforms of the task's key
(without a draw for a deterministic or fixed law), integrate over all of
them in one kernel call, and return the single term or the Monte Carlo
mark mean with its standard error.  The line kernel is Gauss-Legendre
quadrature between the field's split points, exact for the intensities
in scope; the sausage kernel is exact cubature for segment and point
grains under polynomial intensities and Monte Carlo otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .geometry import as_point
from .grains import MarkDistribution, ShiftedField, line_integrals, mark_segments, sausage_integrals
from .parallel import parallel_map
from .streams import block_keys, skip, uniforms


@dataclass(eq=False)
class DensityField:
    """Exact or estimated density values at the points of a grid, in order."""

    values: np.ndarray          # (m,)
    standard_errors: np.ndarray  # (m,)
    method: str


def _mark_mean(q: MarkDistribution, mark_draws: int, key, integrate) -> tuple[float, float]:
    """The mark average E_Q of a per-grain integral, with its standard error.

    `integrate(a, b, key)` returns (values, ses) for the segment rows of
    mark_segments.  A deterministic or fixed law is one term, made without
    a draw, with that term's own SE.  A random law is the Monte Carlo mean
    over K = `mark_draws` marks, with the SE of that mean: column c < U =
    q.uniforms of mark k reads counter k U + c, and `integrate` gets the
    key whose counter t is counter K U + t of this one.
    """
    if q.is_deterministic:
        vals, ses = integrate(*mark_segments(q, np.empty((1, 0))), key)
        return float(vals[0]), float(ses[0])
    if key is None:
        raise ConfigurationError("random mark law needs a random stream")
    if mark_draws < 2:
        raise ConfigurationError("mark_draws must be at least 2 for a standard error")
    u = uniforms(key, np.arange(mark_draws * q.uniforms).reshape(mark_draws, q.uniforms))
    vals, _ = integrate(*mark_segments(q, u), skip(key, u.size))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mark_draws))


def exact_density(f, q: MarkDistribution, x, mark_draws: int = 2000,
                  key: int | None = None) -> tuple[float, float]:
    """Mean density at x with its Monte Carlo standard error: the mark mean
    of the line integral of f(x - .) over the grain, the marks on the
    counters of `key` that _mark_mean documents.  A deterministic or fixed
    law is an exact single term with zero standard error.  A non-finite
    value raises NumericError at x.
    """
    x = as_point(x, dim=q.dim)
    h = ShiftedField(f, x)

    def line(a, b, _):
        vals = line_integrals(a, b, h, q.n)
        if not np.all(np.isfinite(vals)):
            raise NumericError("non-finite inner integral")
        return vals, np.zeros(vals.shape)

    try:
        return _mark_mean(q, mark_draws, key, line)
    except NumericError as exc:
        raise NumericError(str(exc), point=x) from exc


def analytic_segment_density(el: float, el3: float, x) -> float:
    """Closed form for the planar segment model with quadratic intensity
    |y|^2 and uniform orientation: (x1^2 + x2^2) E[L] + E[L^3]/3."""
    x = as_point(x, dim=2)
    return float((x[0] ** 2 + x[1] ** 2) * el + el3 / 3.0)


def hitting_intensity(f, q: MarkDistribution, x, r: float, mc_points: int = 200_000,
                      mark_draws: int = 200, key: int | None = None) -> tuple[float, float]:
    """Λ = E_Q[∫_{Z_0⊕r} f(x - y) dy], the mean number of germs whose grain
    meets the closed ball B_r(x), with its standard error.  Finite Λ is
    the hitting-intensity condition.

    The sausage integrals of all marks come from one sausage_integrals
    call: exact where its cubature applies, otherwise with `mc_points`
    proposals for the single term, or max(16, mc_points // mark_draws) per
    mark, on the counters of `key` after the marks' (see _mark_mean and
    sausage_integrals).
    """
    if not 0.0 < r < 2.0:
        raise ConfigurationError("radius must lie in (0, 2)")
    h = ShiftedField(f, as_point(x, dim=q.dim))

    def sausage(a, b, after_marks):
        per_mark = mc_points if len(a) == 1 else max(16, mc_points // len(a))
        return sausage_integrals(a, b, h, r, per_mark, after_marks)

    return _mark_mean(q, mark_draws, key, sausage)


def capacity_probability(f, q: MarkDistribution, x, r: float, mc_points: int = 200_000,
                         mark_draws: int = 200, key: int | None = None) -> tuple[float, float]:
    """P(x in Θ⊕r) = 1 - exp(-Λ) for Λ = hitting_intensity(...), with the
    propagated standard error exp(-Λ) SE_Λ."""
    lam, lam_se = hitting_intensity(f, q, x, r, mc_points, mark_draws, key)
    return 1.0 - math.exp(-lam), math.exp(-lam) * lam_se


def density_grid(
    f,
    q: MarkDistribution,
    grid: np.ndarray,
    mark_draws: int = 2000,
    seed: int = 0,
    threads: int = 1,
) -> DensityField:
    """Evaluate exact_density on a grid of points; point i reads the key
    derive_key(seed, i), so results are thread-count invariant."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    tasks = [(f, q, x, mark_draws, int(k)) for x, k in zip(grid, block_keys(seed, 0, len(grid)))]
    results = parallel_map(_density_point_task, tasks, threads)
    values = np.array([v for v, _ in results])
    ses = np.array([s for _, s in results])
    method = "exact_quadrature" if q.is_deterministic else "exact_quadrature_mark_mc"
    return DensityField(values, ses, method)


def _density_point_task(args):
    return exact_density(*args)
