"""Numerical verification of the weighted Minkowski content limit.

For a compact rectifiable set S (a grain used deterministically) and a
weighted measure with density f, the ratio of the sausage integral
∫_{S⊕r} f to b_{d-n} r^{d-n} converges, as r shrinks, to the line
integral of f over S.  The sausage integral is exact (SE 0) by a moment
rule for a segment or point grain under a polynomial intensity and
chunked Monte Carlo otherwise (polylines, piecewise or clipped fields),
so on the exact rows the ratios show the convergence itself, free of
noise.  The limit target is computed by quadrature, independently of the
sausage route, and the uniform ratio bound (2^n 4^d b_d / (gamma'
b_{d-n}) with a normalized density witness) is checked with its margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import ball_volume, checked_ball_volume
from .grains import Grain, RegularityCertificate, integrate_along, sausage_integral
from .parallel import parallel_map
from .streams import block_keys


@dataclass(eq=False)
class MinkowskiRun:
    """Inputs and results of one convergence run."""

    shape: Grain
    r_grid: np.ndarray           # decreasing radii in (0, 2)
    ratios: np.ndarray           # estimated ratio per radius
    ratio_ses: np.ndarray
    target: float                # ∫_S f dH^n by quadrature
    limit_estimate: float        # linear extrapolation to r = 0


def _radius_task(args):
    return sausage_integral(*args)


def content_limit(
    shape: Grain,
    f,
    r_grid,
    mc_points: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
) -> MinkowskiRun:
    """Estimate the ratio at every radius and extrapolate linearly in r to
    zero using the two smallest radii; the target side ∫_S f dH^n comes
    from quadrature, independent of the sausage route; radius i (largest
    first) reads the key derive_key(seed, i)."""
    r_grid = np.asarray(sorted(r_grid, reverse=True), dtype=float)
    if r_grid.size < 3:
        raise ConfigurationError("r_grid: need at least three radii for the extrapolation")
    if np.unique(r_grid).size < r_grid.size:
        raise ConfigurationError(f"r_grid: radii must be distinct, got {r_grid.tolist()}")
    if np.any(r_grid <= 0.0) or np.any(r_grid >= 2.0):
        raise ConfigurationError("all radii must lie in (0, 2)")
    norms = [checked_ball_volume(shape.dim - shape.n, r) for r in r_grid]
    keys = block_keys(seed, 0, len(r_grid))
    tasks = [(shape, f, float(r), mc_points, int(k)) for r, k in zip(r_grid, keys)]
    results = parallel_map(_radius_task, tasks, threads)
    ratios = np.array([est / norm for (est, _), norm in zip(results, norms)])
    ses = np.array([se / norm for (_, se), norm in zip(results, norms)])
    # linear extrapolation through the two smallest radii
    r1, r0 = r_grid[-2], r_grid[-1]
    v1, v0 = ratios[-2], ratios[-1]
    limit = v0 - r0 * (v1 - v0) / (r1 - r0)
    target = integrate_along(shape, f)
    return MinkowskiRun(
        shape=shape,
        r_grid=r_grid,
        ratios=ratios,
        ratio_ses=ses,
        target=target,
        limit_estimate=float(limit),
    )


def limit_diagnostics(run: MinkowskiRun) -> dict:
    """Absolute extrapolation error and whether it sits inside the
    propagated 3 SE + 2% acceptance band."""
    # extrapolation weights on the two smallest radii
    r1, r0 = run.r_grid[-2], run.r_grid[-1]
    w0 = 1.0 + r0 / (r1 - r0)
    w1 = r0 / (r1 - r0)
    se = math.hypot(w0 * run.ratio_ses[-1], w1 * run.ratio_ses[-2])
    err = abs(run.limit_estimate - run.target)
    band = 3.0 * se + 0.02 * abs(run.target)
    return {"error": err, "se": se, "band": band, "within": err <= band}


def ratio_bound(shape: Grain, cert: RegularityCertificate) -> float:
    """Uniform upper bound on the ratio for f ≡ 1 and r < 2, using the
    normalized-measure form of the certificate."""
    d, n = shape.dim, shape.n
    gamma = cert.normalized_gamma(shape)
    return (1.0 / gamma) * 2 ** n * 4 ** d * ball_volume(d) / ball_volume(d - n)


def bound_check(
    run: MinkowskiRun, cert: RegularityCertificate, constant_value: float = 1.0
) -> tuple[bool, float]:
    """True iff every estimated ratio (rescaled to f ≡ 1) stays below the
    uniform bound; also returns the worst margin (bound - ratio)."""
    if not constant_value > 0:
        raise ConfigurationError("constant intensity value must be positive")
    bound = ratio_bound(run.shape, cert)
    scaled = run.ratios / constant_value
    margin = float((bound - scaled).min())
    return bool(np.all(scaled <= bound)), margin
