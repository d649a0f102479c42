"""Closed-form mean densities and finite-radius capacity probabilities.

The mean density at x is the mark expectation of the line integral of
f(x - .) over the typical grain, E_Q[∫_{Z_0} f(x - y) H^n(dy)].  The
finite-radius route evaluates the Poisson void probability
P(x in Θ⊕r) = 1 - exp(-Λ(sausage)) with Λ = E_Q[∫_{Z_0⊕r} f(x - y) dy].
Both are mark means of one kernel on the translated rows x - a, x - b
against f itself, since ∫_{Z⊕r} f(x - y) dy = ∫_{(x - Z)⊕r} f.  `_means`
alone decides per (point, radius) cell whether `grains.mark_rule` is exact
there: a rule cell is its weighted sum of `line_integrals` or
`grains.sausage_moment_rule`, SE 0, any other the `_mark_mean` Monte Carlo;
it alone refuses a non-finite value, once every cell is filled.
Each integral has one call, over a grid of points: `density_grid` for the
line integral and `hitting_grid` for Λ, of which `capacity_grid` is
1 - exp(-Λ) and `minkowski.content_limit` reads the reflected grain's Λ
at the origin.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericError
from .grains import (MarkDistribution, line_integrals, mark_rule, mark_segments, sausage_integrals,
                     sausage_moment_rule)
from .parallel import parallel_map
from .streams import block_keys, check_seed, skip, uniforms

# grains per kernel call of a mark mean, marks or (point, rule node, segment)
# rows: its memory is bounded whatever mark_draws, the grid or the grain is
MARK_CHUNK = 10_000


class _Densities(NamedTuple):
    """density_grid's values, SEs and methods at the grid's points, in order."""

    values: np.ndarray           # (m,)
    standard_errors: np.ndarray  # (m,)
    methods: np.ndarray          # (m,) labels


def _rule_means(f, n: int, rule, xs: np.ndarray, rs: np.ndarray | None) -> np.ndarray:
    """Σ_k w_k I(x - a_k, x - b_k) over the rows and weights (a, b, w) of
    mark_rule at every cell (x, r) of the points xs and radii rs, I the
    line integral (rs None) or sausage_moment_rule, one call per MARK_CHUNK
    (cell, node, segment) rows whatever their radii."""
    a, b, w = rule
    per_call = max(1, MARK_CHUNK // a[..., 0].size)
    out = np.empty(len(xs))
    for i in range(0, len(xs), per_call):
        cells = slice(i, i + per_call)
        xa, xb = ((xs[cells, None, None] - e).reshape(-1, *e.shape[1:]) for e in (a, b))
        vals = line_integrals(xa, xb, f, n) if rs is None else sausage_moment_rule(
            xa[:, 0], xb[:, 0], f, np.repeat(rs[cells], len(w)))
        out[cells] = (vals.reshape(-1, len(w)) * w).sum(axis=1)
    return out


def _keys(seed: int):
    """index -> derive_key(seed, index) for the cells that draw; the seed is checked now."""
    check_seed(int(seed))
    return lambda index: block_keys(seed, 0, index[-1] + 1)[index].tolist()


def _mark_mean(args) -> tuple[float, float]:
    """The Monte Carlo mark mean and its SE of the line (r None) or
    r-sausage integral of f over x - Z, args = (f, q, x, r, mc_points,
    mark_draws, key).  A deterministic law is one term, with mc_points
    sausage proposals and its own SE.  Otherwise mark k < K = mark_draws
    reads counters k U + c, c < U = q.uniforms, of the key and gets
    m = max(16, mc_points // K) proposals, coordinate c of proposal j on
    counter K U + (k m + j) d + c; marks go MARK_CHUNK at a time, their
    means and squared deviations merged (Chan, Golub and LeVeque, 1979);
    a chunk whose mean is not finite is returned as it is, with SE 0."""
    f, q, x, r, mc_points, mark_draws, key = args
    if q.is_deterministic:  # only with a radius: its line integral is on the rule
        a, b = mark_segments(q, np.empty((1, 0)))
        vals, ses = sausage_integrals(x - a, x - b, f, r, mc_points, key)
        return float(vals[0]), float(ses[0])
    per_grain = max(16, mc_points // mark_draws)
    after, stride = skip(key, mark_draws * q.uniforms), 0 if r is None else per_grain * q.dim
    count = mean = m2 = 0.0
    for k in range(0, mark_draws, MARK_CHUNK):
        u = np.arange(k * q.uniforms, min(mark_draws, k + MARK_CHUNK) * q.uniforms)
        a, b = mark_segments(q, uniforms(key, u.reshape(-1, q.uniforms)))
        vals = (line_integrals(x - a, x - b, f, q.n) if r is None else
                sausage_integrals(x - a, x - b, f, r, per_grain, skip(after, k * stride))[0])
        part, n = vals.mean(), len(vals)
        if not math.isfinite(part):
            return float(part), 0.0
        delta, count = part - mean, count + n
        mean += delta * (n / count)
        m2 += ((vals - part) ** 2).sum() + delta * delta * n * (count - n) / count
    return float(mean), math.sqrt(m2 / (mark_draws - 1)) / math.sqrt(mark_draws)


def _means(f, q: MarkDistribution, grid, radii, mc_points: int, mark_draws: int, keys,
           threads: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mark means, SEs and whether mark_rule(q) gave them, each (m, R), of
    the line (radius None) or sausage integral at every (point, radius)
    cell, the one exactness decision, for cell (i, j) by itself: the rule
    holds for the line kernel under a deterministic law, and where f states
    that it is a polynomial of degree <= 2 on the box that every grain of
    the cell reaches, x_i - Z dilated by r_j for a fixed grain Z, else
    x_i ± (l_max + r_j), the sausage kernel needing one segment row per
    grain.  Other cells are _mark_mean tasks, cell (i, j) on keys(index)
    at its index i R + j, called only if a cell draws: no value depends on
    another cell or on the thread count.  Once every cell is filled, a
    non-finite mean density or a NaN Λ raises NumericError naming the
    first such cell's point; Λ = inf stays, a probability of 1."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != q.dim or not np.isfinite(grid).all():
        raise ConfigurationError(f"points must be finite and of dimension {q.dim}")
    if not len(grid):
        raise ConfigurationError("grid: need at least one point")
    if not radii:
        raise ConfigurationError("radii: need at least one radius")
    if any(r is not None and not 0.0 < r < 2.0 for r in radii):
        raise ConfigurationError("radius must lie in (0, 2)")
    if not q.is_deterministic and mark_draws < 2:  # also where the rule draws none
        raise ConfigurationError("mark_draws must be at least 2 for a standard error")
    if radii[0] is not None and mc_points < 2:  # likewise
        raise ConfigurationError("mc_points must be at least 2 for a standard error")
    line, rule = radii[0] is None, mark_rule(q)
    on_rule = np.full((len(grid), len(radii)), line and q.is_deterministic)
    statement = getattr(f, "polynomial_on", None)
    if statement is not None and not on_rule.all() and (line or q.segments == 1):
        # x - Z spans x - max(ends) .. x - min(ends): a fixed grain's own, else ± l_max
        ends = (np.concatenate(rule[:2], 1)[0] if q.is_deterministic
                else np.array([[q.l_max], [-q.l_max]]))
        dilation = np.array([r or 0.0 for r in radii])[:, None]
        on_rule = statement(grid[:, None] - (ends.max(0) + dilation),
                            grid[:, None] + (dilation - ends.min(0)))
    values, ses = np.empty(on_rule.shape), np.zeros(on_rule.shape)
    i, j = on_rule.nonzero()  # every radius's rule cells in one pass
    values[i, j] = _rule_means(f, q.n, rule, grid[i], None if line else np.array(radii)[j])
    i, j = (~on_rule).nonzero()
    tasks = [(f, q, grid[k], radii[r], mc_points, mark_draws, key) for k, r, key in
             zip(i.tolist(), j.tolist(), keys(i * len(radii) + j) if len(i) else ())]
    values[i, j], ses[i, j] = np.reshape(parallel_map(_mark_mean, tasks, threads), (-1, 2)).T
    bad = ~np.isfinite(values) if line else ~(values > -np.inf)  # NaN or -inf: Λ = inf stays
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NumericError("non-finite mean density" if line else
                           f"non-finite hitting intensity at radius {radii[j]}", point=grid[i])
    return values, ses, on_rule


def hitting_grid(f, q: MarkDistribution, grid, radii, mc_points: int = 200_000,
                 mark_draws: int = 200, seed: int = 0,
                 threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Λ = E_Q[∫_{Z_0⊕r} f(x - y) dy], the mean number of germs whose grain
    meets the closed ball B_r(x), with its SE at every (point i, radius j)
    cell, each (m, R), finite at the origin under the hitting-intensity
    condition: the cells on the mark rule exact (SE 0), every other cell
    (i, j) on derive_key(seed, i R + j)."""
    grid, radii = np.atleast_2d(np.asarray(grid, dtype=float)), [float(r) for r in radii]
    return _means(f, q, grid, radii, mc_points, mark_draws, _keys(seed), threads)[:2]


def capacity_grid(f, q: MarkDistribution, grid, radii, mc_points: int = 200_000,
                  mark_draws: int = 200, seed: int = 0,
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """P(x in Θ⊕r) = 1 - exp(-Λ) for Λ of hitting_grid at every (point,
    radius) cell, as (m, R) probabilities and SEs exp(-Λ) SE_Λ."""
    lam, lam_se = hitting_grid(f, q, grid, radii, mc_points, mark_draws, seed, threads)
    survival = np.array([math.exp(-v) for v in lam.ravel().tolist()]).reshape(lam.shape)
    return 1.0 - survival, survival * lam_se


def density_grid(
    f,
    q: MarkDistribution,
    grid: np.ndarray,
    mark_draws: int = 2000,
    seed: int = 0,
    threads: int = 1,
) -> _Densities:
    """(values, standard_errors, methods) of the mean density at the grid's
    points: `exact_quadrature` under a deterministic law, else
    `exact_quadrature_mark_rule` (SE 0) where the mark rule holds at the
    point and `exact_quadrature_mark_mc`, the Monte Carlo mark mean of
    point i on derive_key(seed, i), elsewhere; thread-count invariant."""
    values, ses, on_rule = _means(f, q, grid, [None], 0, mark_draws, _keys(seed), threads)
    rule = "exact_quadrature" if q.is_deterministic else "exact_quadrature_mark_rule"
    return _Densities(values[:, 0], ses[:, 0],
                     np.where(on_rule[:, 0], rule, "exact_quadrature_mark_mc"))
