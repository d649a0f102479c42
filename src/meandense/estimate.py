"""Mean-density estimators built on the empirical capacity functional.

One replicate engine, `accumulate_hits`, totals over N realizations the
hit indicators and the grain counts of every query ball B_R(x), and every
estimator is a function of those integer totals.  The core estimator
divides the fraction of realizations hitting a shrinking ball by the
ball-volume normalizer b_{d-n} R^{d-n}.  Variants use grain counts
instead of hit indicators and the slope of the empirical contact
distribution (n = d-1).
All estimator evaluation is deterministic: randomness enters only through
the realizations.  Reductions over replicates are integer counts or
compensated sums, so results do not depend on aggregation order.
"""

from __future__ import annotations

import math

import numpy as np

from .boolean import _sample_block, checked_guard_margin, count_hits
from .errors import ConfigurationError, QueryError
from .exact import density_grid
from .geometry import Box, checked_ball_volume
from .grains import MarkDistribution
from .parallel import parallel_map
from .poisson import expected_germs

# stream index space for the exact-density reference inside studies
_EXACT_STREAM_SALT = 0x45584143


def _normalizer(n_samples: int, d: int, n: int, radius: float) -> float:
    """b_{d-n} R^{d-n}, after checking N = n_samples >= 1 and R > 0."""
    if not n_samples >= 1:
        raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
    if not radius > 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    return checked_ball_volume(d - n, radius)


def capacity_estimate(hits, n_samples: int, d: int, n: int, radius: float):
    """λ̂ = hits / N / (b_{d-n} R^{d-n}) from the number of N realizations
    meeting B_R(x), a scalar or an array of totals, and its plug-in
    standard error sqrt(p (1 - p) / N) / (b_{d-n} R^{d-n}), p = hits / N."""
    norm = _normalizer(n_samples, d, n, radius)
    p_hat = hits / n_samples
    return p_hat / norm, np.sqrt(p_hat * (1.0 - p_hat) / n_samples) / norm


def count_estimate(cnt, n_samples: int, d: int, n: int, radius: float):
    """Grain-count estimator cnt / N / (b_{d-n} R^{d-n}) from the number of
    grains meeting B_R(x) over N realizations, a scalar or an array of
    totals; it dominates capacity_estimate pointwise.  The total can exceed
    N, so it has no binomial standard error."""
    norm = _normalizer(n_samples, d, n, radius)
    return cnt / n_samples / norm


def contact_derivative(ind, n_samples: int, d: int, n: int, r_grid) -> float:
    """Half the least-squares slope at r = 0 of the empirical contact
    distribution r -> T^(r) = ind / N, from the hit totals ind at the radii
    r_grid over N realizations; valid for codimension-1 grains only."""
    if n != d - 1:
        raise ConfigurationError(
            f"contact-distribution route needs n = d - 1 (got n={n}, d={d})"
        )
    if not n_samples >= 1:
        raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 2:
        raise ConfigurationError("r_grid: need at least two radii to fit a slope")
    if np.unique(r_grid).size < r_grid.size:
        raise ConfigurationError(f"r_grid: radii must be distinct, got {r_grid.tolist()}")
    t_hat = np.asarray(ind) / n_samples
    if t_hat.shape != r_grid.shape:
        raise ConfigurationError(f"ind: need one total per radius, got shape {t_hat.shape}")
    # the fit sees the radii in descending order
    order = np.argsort(r_grid)[::-1]
    return float(np.polyfit(r_grid.take(order), t_hat.take(order), 1)[0]) / 2.0


# ---------------------------------------------------------------------------
# the replicate engine: simulate-and-count without retaining realizations


# A block of replicates is drawn into flat arrays and queried at once.  It
# holds at most _BLOCK_REPLICATES replicates and about _BLOCK_SEGMENTS
# segment rows in expectation.  Blocks are the parallel tasks; their size
# depends on the scenario only, and since every replicate keeps its own
# stream, the block boundaries cannot change any count.
_BLOCK_REPLICATES = 4096
_BLOCK_SEGMENTS = 1 << 16


def _block_task(args):
    """Worker: the block of replicates start..stop-1 and the kernel's
    integer hit and grain-count totals on it, of shape (len(xs), len(rs))."""
    f, q, xs, rs, box, seed, start, stop = args
    return count_hits(*_sample_block(f, q, box, seed, start, stop), xs, rs)


def accumulate_hits(
    f,
    q: MarkDistribution,
    xs,
    rs,
    n_samples: int,
    seed: int,
    index0: int = 0,
    threads: int = 1,
    window: Box | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate `n_samples` replicates (streams derived from consecutive
    indices starting at index0) and total the hit indicators and grain
    counts for every (x, r) pair.  Integer reductions make the result
    independent of the blocking, hence of the thread count.  Replicates are
    drawn on `window` (by default the points' hull dilated by max(rs)) plus
    the guard margin for max(rs), so every query ball must lie in it."""
    if n_samples < 0:
        raise ConfigurationError(f"n_samples must be nonnegative, got {n_samples}")
    # the query points are checked as one (P, d) array, with as_point's
    # messages
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    rs = [float(r) for r in np.atleast_1d(rs)]
    if not len(xs):
        raise ConfigurationError("xs: need at least one query point")
    if xs.ndim != 2:
        raise ConfigurationError(f"point must be 1-dimensional, got shape {xs.shape[1:]}")
    if xs.shape[1] != q.dim:
        raise ConfigurationError(f"dimension mismatch: expected {q.dim}, got {xs.shape[1]}")
    finite = np.isfinite(xs).all(axis=1)
    if not finite.all():
        raise ConfigurationError(f"non-finite point coordinates: {xs[np.argmin(finite)]}")
    if not rs:
        raise ConfigurationError("rs: need at least one radius")
    if not all(r >= 0 for r in rs):
        raise QueryError("query radius must be nonnegative")
    r_max = max(rs)
    hull = Box(xs.min(axis=0) - r_max, xs.max(axis=0) + r_max)
    if window is None:
        window = hull
    elif window.dim != q.dim:
        raise ConfigurationError(f"window: dimension mismatch: expected {q.dim}, got {window.dim}")
    elif not window.contains_box(hull):
        raise QueryError("query ball is not contained in the observation window")
    box = window.dilate(checked_guard_margin(q, r_max))
    # the germ cap is refused here, before the pool starts
    rows = expected_germs(f, box)[1] * q.segments
    per_block = _BLOCK_REPLICATES
    if rows * per_block > _BLOCK_SEGMENTS:
        per_block = max(1, int(_BLOCK_SEGMENTS // rows))
    stop = index0 + n_samples
    tasks = [
        (f, q, xs, rs, box, seed, i, min(i + per_block, stop))
        for i in range(index0, stop, per_block)
    ]
    ind = np.zeros((len(xs), len(rs)), dtype=np.int64)
    cnt = np.zeros((len(xs), len(rs)), dtype=np.int64)
    for a, b in parallel_map(_block_task, tasks, threads):
        ind += a
        cnt += b
    return ind, cnt


# ---------------------------------------------------------------------------
# convergence study


def convergence_study(
    f,
    q: MarkDistribution,
    x_grid,
    radii,
    n_grid,
    replications: int,
    seed: int,
    region: Box | None = None,
    mark_draws: int = 2000,
    threads: int = 1,
) -> list[dict]:
    """Empirical bias/variance/MSE of the estimator against the exact
    density for each sample size in n_grid, at its bandwidth R_N in radii.

    Each (sample size, replication) pair is an independent experiment of
    that many replicates, with streams derived from a running index so the
    whole study is reproducible and thread-count invariant.  When a region
    is given and the x_grid is a lattice covering it, the rows also carry
    the region-level comparison of the grid sums of estimate and exact
    density.
    """
    if replications < 2:
        raise ConfigurationError("need at least two replications for a variance")
    n_grid = [int(n) for n in n_grid]
    if any(n < 1 for n in n_grid):
        raise ConfigurationError(f"n_grid: sample sizes must be positive, got {n_grid}")
    if sorted(set(n_grid)) != n_grid:
        raise ConfigurationError("n_grid must be increasing")
    xs = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if xs.shape[1] != q.dim:
        raise ConfigurationError("x_grid dimension mismatch")
    radii = [float(r) for r in radii]
    if len(radii) != len(n_grid) or not all(0.0 < r < 2.0 for r in radii):
        raise ConfigurationError(f"radii: need one in (0, 2) per sample size, got {radii}")

    exact, _, _ = density_grid(
        f, q, xs, mark_draws=mark_draws, seed=seed ^ _EXACT_STREAM_SALT, threads=threads
    )
    rows = []
    base_index = 0
    for n_samples, radius in zip(n_grid, radii):
        lam_hats = np.zeros((replications, xs.shape[0]))
        for rep in range(replications):
            ind, _ = accumulate_hits(
                f, q, xs, [radius], n_samples, seed, base_index, threads
            )
            base_index += n_samples
            lam_hats[rep] = capacity_estimate(ind[:, 0], n_samples, q.dim, q.n, radius)[0]
        region_hat = region_exact = float("nan")
        if region is not None:
            inside = region.contains(xs)
            if inside.any():
                cell = region.volume / int(inside.sum())
                region_hat = math.fsum(lam_hats.mean(axis=0)[inside]) * cell
                region_exact = math.fsum(exact[inside]) * cell
        for i in range(xs.shape[0]):
            vals = lam_hats[:, i]
            mean = math.fsum(vals) / replications
            lam = exact[i]
            rows.append(
                {
                    "x": xs[i],
                    "N": n_samples,
                    "R_N": radius,
                    "lambda_hat": mean,
                    "se": float(vals.std(ddof=1) / math.sqrt(replications)),
                    "exact": float(lam),
                    "bias": mean - float(lam),
                    "variance": float(vals.var(ddof=1)),
                    "mse": math.fsum((vals - lam) ** 2) / replications,
                    "region_hat": region_hat,
                    "region_exact": region_exact,
                }
            )
    return rows
