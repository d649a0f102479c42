"""Numerical verification of the weighted Minkowski content limit.

For a compact rectifiable set S (a grain used deterministically) and a
weighted measure with density f, the ratio of the sausage integral
∫_{S⊕r} f to b_{d-n} r^{d-n} converges, as r shrinks, to the line
integral of f over S.  The sausage integral is the oracle's Λ of
`exact.hitting_grid` at the origin for the reflected grain -S, on the
same mark-mean engine: exact (SE 0) by a moment rule for a segment or
point grain under a polynomial intensity and chunked Monte Carlo
otherwise (polylines, piecewise or clipped fields), so on the exact rows
the ratios show the convergence itself, free of noise.  The limit target
is computed by quadrature, independently of the sausage route.  Under
f ≡ 1 every ratio with r < 2 lies below the uniform bound
2^n 4^d b_d / (gamma b_{d-n}) (`ratio_bound`), gamma the constant of the
lower density bound H^n(Z~_0 ∩ B_r(x)) >= gamma r^n that the enlarged
grain Z~_0 meets once its measure is normalized to a probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .exact import hitting_grid
from .geometry import ball_volume, checked_ball_volume
from .grains import Grain, MarkDistribution, line_integrals


@dataclass(eq=False)
class MinkowskiRun:
    """Inputs and results of one convergence run."""

    r_grid: np.ndarray           # decreasing radii in (0, 2)
    ratios: np.ndarray           # estimated ratio per radius
    ratio_ses: np.ndarray
    target: float                # ∫_S f dH^n by quadrature
    limit_estimate: float        # linear extrapolation to r = 0


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
    from quadrature, independent of the sausage route.  ∫_{S⊕r} f is Λ of
    exact.hitting_grid at the origin under the reflected grain -S, since
    ∫_{S⊕r} f = ∫_{(0 - (-S))⊕r} f; radius i (largest first) reads the
    key derive_key(seed, i)."""
    r_grid = np.asarray(sorted(r_grid, reverse=True), dtype=float)
    if r_grid.size < 3:
        raise ConfigurationError("r_grid: need at least three radii for the extrapolation")
    if len(set(r_grid.tolist())) < r_grid.size:
        raise ConfigurationError(f"r_grid: radii must be distinct, got {r_grid.tolist()}")
    if (r_grid <= 0.0).any() or (r_grid >= 2.0).any():
        raise ConfigurationError("all radii must lie in (0, 2)")
    norms = np.array([checked_ball_volume(shape.dim - shape.n, r) for r in r_grid])
    a, b = shape.rows()
    target = float(line_integrals(a[None], b[None], f, shape.n)[0])
    if not math.isfinite(target):
        raise NumericError(f"non-finite target: the integral of f over the grain is {target}")
    reflected = MarkDistribution("deterministic", grain=Grain(-shape.vertices))
    lam, lam_se = hitting_grid(f, reflected, np.zeros((1, shape.dim)), r_grid, mc_points,
                               seed=seed, threads=threads)
    ratios, ses = lam[0] / norms, lam_se[0] / norms
    # linear extrapolation through the two smallest radii
    r1, r0 = r_grid[-2], r_grid[-1]
    v1, v0 = ratios[-2], ratios[-1]
    limit = v0 - r0 * (v1 - v0) / (r1 - r0)
    return MinkowskiRun(
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


def _enlarged(g: Grain) -> Grain:
    """The enlarged grain Z~_0 containing g, of H^n measure at least 1, so
    that H^n(Z~_0 ∩ B_r(x)) >= r^n for x on it and r < 1 however short g
    is: a short segment scaled, a short polyline continued along its last
    segment.  A point grain meets the bound as it is."""
    total = g.measure
    if g.n == 0 or total >= 1.0:
        return g
    v = g.vertices
    if len(v) == 2:
        if total == 0.0:
            raise ConfigurationError("cannot extend a zero-length segment")
        return Grain.segment(v[1] * (1.0 / total))
    d = v[-1] - v[-2]
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ConfigurationError("cannot extend a degenerate last segment")
    extra = (1.0 - total) / norm
    return Grain(np.vstack([v, v[-1] + extra * d]))


def ratio_bound(shape: Grain) -> float:
    """Uniform upper bound on the ratio for f ≡ 1 and r < 2, with gamma =
    1 / H^n(Z~_0): the lower density constant 1 of the enlarged grain after
    its measure is normalized to a probability."""
    d, n = shape.dim, shape.n
    gamma = 1.0 / _enlarged(shape).measure
    return (1.0 / gamma) * 2 ** n * 4 ** d * ball_volume(d) / ball_volume(d - n)
