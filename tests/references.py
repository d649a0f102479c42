"""Reference values that the tests check meandense against and that no CLI
route reads: the classical histogram (the paper's n = 0 reduction), the
closed-form density of the planar segment model under |y|^2 and the
cell-centred lattice of a box."""

import math

import numpy as np

from meandense import ConfigurationError, capacity_estimate
from meandense.geometry import Box, as_point


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


def analytic_segment_density(el: float, el3: float, x) -> float:
    """Closed form for the planar segment model with quadratic intensity
    |y|^2 and uniform orientation: (x1^2 + x2^2) E[L] + E[L^3]/3."""
    x = as_point(x, dim=2)
    return float((x[0] ** 2 + x[1] ** 2) * el + el3 / 3.0)


def lattice_points(box: Box, counts) -> np.ndarray:
    """Cell-centered lattice over a box (used for region-level checks)."""
    counts = np.atleast_1d(np.asarray(counts, dtype=int))
    axes = []
    for k in range(box.dim):
        edges = np.linspace(box.lo[k], box.hi[k], counts[k] + 1)
        axes.append((edges[:-1] + edges[1:]) / 2.0)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)
