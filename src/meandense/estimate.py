"""Mean-density estimators built on the empirical capacity functional.

The core estimator divides the fraction of realizations hitting a shrinking
ball B_R(x) by the ball-volume normalizer b_{d-n} R^{d-n}.  Variants use
germ counts instead of hit indicators, the slope of the empirical contact
distribution (n = d-1), and the histogram reduction for the n = 0 case.
All estimator evaluation is deterministic: randomness enters only through
the realizations.  Reductions over replicates are integer counts or
compensated sums, so results do not depend on aggregation order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .boolean import Realizations, _sample_block, checked_guard_margin, count_hits
from .errors import ConfigurationError, QueryError
from .exact import density_grid
from .geometry import Box, as_point, ball_volume
from .grains import MarkDistribution
from .parallel import parallel_map
from .poisson import expected_germs

# stream index space for the exact-density reference inside studies
_EXACT_STREAM_SALT = 0x45584143


@dataclass(frozen=True)
class BandwidthSchedule:
    """Bandwidth R_N = c0 * N^(-beta) with 0 < beta < 1/(d-n), so that
    R_N -> 0 while N R_N^(d-n) -> infinity."""

    c0: float
    beta: float
    d: int
    n: int

    def __post_init__(self):
        if not self.c0 > 0:
            raise ConfigurationError("bandwidth c0 must be positive")
        codim = self.d - self.n
        if codim <= 0:
            raise ConfigurationError("bandwidth schedule needs n < d")
        if not (0.0 < self.beta < 1.0 / codim):
            raise ConfigurationError(
                f"beta must lie in (0, {1.0 / codim}) for d={self.d}, n={self.n}; got {self.beta}"
            )

    @classmethod
    def default(cls, d: int, n: int, c0: float = 1.0) -> "BandwidthSchedule":
        # kernel-density rate heuristic; the optimal exponent is open
        return cls(c0, 1.0 / (d - n + 2), d, n)

    def radius(self, n_samples: int) -> float:
        if not n_samples >= 1:
            raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
        return self.c0 * float(n_samples) ** (-self.beta)


def capacity_estimate(hits, n_samples: int, d: int, n: int, radius: float):
    """λ̂ = hits / N / (b_{d-n} R^{d-n}) from the number of N realizations
    meeting B_R(x), a scalar or an array of totals, and its plug-in
    standard error sqrt(p (1 - p) / N) / (b_{d-n} R^{d-n}), p = hits / N."""
    if not n_samples >= 1:
        raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
    norm = ball_volume(d - n, radius)
    if norm < sys.float_info.min:  # 1 / norm would overflow or divide by zero
        raise ConfigurationError(
            f"radius {radius!r} is too small: b_{d - n} R^{d - n} = {norm!r}")
    p_hat = hits / n_samples
    return p_hat / norm, np.sqrt(p_hat * (1.0 - p_hat) / n_samples) / norm


def empirical_capacity(batch: Realizations, x, r: float) -> float:
    """Fraction of realizations whose set meets the closed ball B_r(x)."""
    ind, _ = batch.counts(x, [r])
    return int(ind[0]) / batch.count


def density_estimate(batch: Realizations, x, radius: float) -> tuple[float, float]:
    """Indicator estimator at x and its standard error (capacity_estimate)."""
    if not radius > 0:
        raise ConfigurationError("bandwidth radius must be positive")
    ind, _ = batch.counts(x, [radius])
    return capacity_estimate(int(ind[0]), batch.count, batch.dim, batch.n, radius)


def count_estimate(batch: Realizations, x, r: float) -> float:
    """Grain-count estimator: mean number of grains hitting B_r(x) over the
    same normalizer; dominates the indicator estimator pointwise.  The
    total can exceed N, so it has no binomial standard error."""
    if not r > 0:
        raise ConfigurationError("radius must be positive")
    _, cnt = batch.counts(x, [r])
    return int(cnt[0]) / batch.count / ball_volume(batch.dim - batch.n, r)


def contact_derivative(batch: Realizations, x, r_grid) -> float:
    """Half the least-squares slope at r = 0 of the empirical contact
    distribution r -> T^(r); valid for codimension-1 grains only."""
    if batch.n != batch.dim - 1:
        raise ConfigurationError(
            f"contact-distribution route needs n = d - 1 (got n={batch.n}, d={batch.dim})"
        )
    r_grid = np.asarray(sorted(r_grid, reverse=True), dtype=float)
    if r_grid.size < 2:
        raise ConfigurationError("r_grid: need at least two radii to fit a slope")
    if np.unique(r_grid).size < r_grid.size:
        raise ConfigurationError(f"r_grid: radii must be distinct, got {r_grid.tolist()}")
    ind, _ = batch.counts(x, [float(r) for r in r_grid])
    t_hat = ind / batch.count
    slope = np.polyfit(r_grid, t_hat, 1)[0]
    return float(slope) / 2.0


def histogram_reduction(samples, x: float, half_width: float) -> float:
    """Classical histogram density value: the fraction of samples in the
    closed interval [x - R, x + R] divided by its length 2R (d=1, n=0)."""
    if not half_width > 0:
        raise ConfigurationError("half_width must be positive")
    if not math.isfinite(x):
        raise ConfigurationError(f"x must be finite, got {x}")
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ConfigurationError("need at least one sample")
    bad = samples[~np.isfinite(samples)]
    if bad.size:
        raise ConfigurationError(f"samples must be finite, got {bad[0]}")
    count = int(np.count_nonzero(np.abs(samples - x) <= half_width))
    return capacity_estimate(count, samples.size, 1, 0, half_width)[0]


# ---------------------------------------------------------------------------
# streaming engines: simulate-and-count without retaining realizations


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
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate `n_samples` replicates (streams derived from consecutive
    indices starting at index0) and total the hit indicators and grain
    counts for every (x, r) pair.  Integer reductions make the result
    independent of the blocking, hence of the thread count."""
    if n_samples < 0:
        raise ConfigurationError(f"n_samples must be nonnegative, got {n_samples}")
    xs = [as_point(x, dim=q.dim) for x in np.atleast_2d(np.asarray(xs, dtype=float))]
    rs = [float(r) for r in np.atleast_1d(rs)]
    if not xs:
        raise ConfigurationError("xs: need at least one query point")
    if not rs:
        raise ConfigurationError("rs: need at least one radius")
    if not all(r >= 0 for r in rs):
        raise QueryError("query radius must be nonnegative")
    r_max = max(rs)
    pts = np.stack(xs)
    window = Box(pts.min(axis=0) - r_max, pts.max(axis=0) + r_max)
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
    schedule: BandwidthSchedule,
    n_grid,
    replications: int,
    seed: int,
    region: Box | None = None,
    mark_draws: int = 2000,
    threads: int = 1,
) -> list[dict]:
    """Empirical bias/variance/MSE of the estimator against the exact
    density for each sample size in n_grid.

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
    if sorted(n_grid) != n_grid:
        raise ConfigurationError("n_grid must be increasing")
    xs = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if xs.shape[1] != q.dim:
        raise ConfigurationError("x_grid dimension mismatch")
    if schedule.d != q.dim or schedule.n != q.n:
        raise ConfigurationError("bandwidth schedule does not match the scenario")

    exact = density_grid(
        f, q, xs, mark_draws=mark_draws, seed=seed ^ _EXACT_STREAM_SALT, threads=threads
    )
    rows = []
    base_index = 0
    for n_samples in n_grid:
        radius = schedule.radius(n_samples)
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
                region_exact = math.fsum(exact.values[inside]) * cell
        for i in range(xs.shape[0]):
            vals = lam_hats[:, i]
            mean = math.fsum(vals) / replications
            lam = exact.values[i]
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
