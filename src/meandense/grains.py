"""Grain families, mark distributions and the regularity certificate.

A grain is its vertex chain anchored at the origin (`Grain`): one vertex
is a point (n = 0), two a segment and more a polyline (n = 1).  Mark
distributions describe the law Q of the typical grain; laws with unbounded
length support are truncated so that an almost sure diameter bound is
always available for guard zones.

Every layer takes many grains at once as segment rows a, b of shape
(K, s, d), s rows per grain (`Grain.rows` gives one grain's, a point being
one zero-length row).  `mark_segments` is the one mark draw: it maps
rows of uniforms to these rows, a segment law's starting at the origin
and a deterministic law's being one read-only view of its grain
repeated.  A field is integrated over each grain with respect to H^n by
Gauss-Legendre quadrature between the points where it states it is not
smooth (`line_integrals`) and over each grain's r-sausage
(`sausage_integrals`): exactly, from 2d + 3 field values, for segment and
point grains under a field that states it is a polynomial of degree <= 2
there, by chunked Monte Carlo on the uniforms of one key otherwise.
`integrate_along` and `sausage_integral` are their one-grain calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .geometry import Box, as_point, ball_volume, segment_distances
from .streams import skip, uniforms

DEFAULT_QUADRATURE_ORDER = 8

# truncation quantile used when a length law has unbounded support and no
# explicit cap is given
DEFAULT_TRUNCATION_QUANTILE = 0.9999


# ---------------------------------------------------------------------------
# grains


@dataclass(frozen=True, eq=False)
class Grain:
    """A grain as its (k, d) vertex chain anchored at the origin: one vertex
    is the point {0} (n = 0, H^0 counting measure), k >= 2 vertices the
    polyline through them (n = 1), a segment being k = 2."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ConfigurationError("grain needs a (k, d) vertex array with k >= 1")
        if v.shape[1] not in (1, 2, 3):
            raise ConfigurationError(f"unsupported dimension {v.shape[1]}")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("non-finite polyline vertices")
        if np.any(v[0] != 0.0):
            raise ConfigurationError("polyline must be anchored at the origin")
        object.__setattr__(self, "vertices", v)

    @classmethod
    def point(cls, dim: int = 2) -> "Grain":
        return cls(np.zeros((1, dim)))

    @classmethod
    def segment(cls, vec) -> "Grain":
        """The segment from the origin to `vec`."""
        vec = as_point(vec)
        return cls(np.vstack([np.zeros_like(vec), vec]))

    @classmethod
    def polyline(cls, vertices) -> "Grain":
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ConfigurationError("polyline needs a (k, d) vertex array with k >= 2")
        return cls(v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n(self) -> int:
        return 0 if len(self.vertices) == 1 else 1

    @property
    def diameter(self) -> float:
        v = self.vertices
        if len(v) == 2:
            return _unsquared(np.linalg.norm, v[1])  # a segment's length
        diffs = v[:, None, :] - v[None, :, :]
        return _unsquared(lambda x: np.sqrt((x ** 2).sum(-1)).max(), diffs)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Segment rows (a, b), each of shape (s, d); a point is one
        zero-length row at the origin."""
        v = self.vertices
        return (v, v) if len(v) == 1 else (v[:-1], v[1:])


def _unsquared(norm, x: np.ndarray) -> float:
    """norm(x), which squares the entries of x, or where a square overflows
    s norm(x / s), s the largest |entry|: finite up to the float range."""
    with np.errstate(over="ignore"):
        out = norm(x)
        if np.isinf(out) and (s := np.abs(x).max()) < np.inf:
            out = s * norm(x / s)
    return float(out)


def hn_measure(g: Grain) -> float:
    """H^n measure of the grain: 1 for a point, total length otherwise."""
    if g.n == 0:
        return 1.0
    a, b = g.rows()
    return _unsquared(lambda x: np.linalg.norm(x, axis=1).sum(), b - a)


def integrate_along(g: Grain, h, order: int = DEFAULT_QUADRATURE_ORDER) -> float:
    """Line integral of the field h over one grain with respect to H^n:
    line_integrals with K = 1."""
    a, b = g.rows()
    return float(line_integrals(a[None], b[None], h, g.n, order)[0])


def line_integrals(
    a: np.ndarray, b: np.ndarray, h, n: int, order: int = DEFAULT_QUADRATURE_ORDER
) -> np.ndarray:
    """Integrals of the field h (its `values`) with respect to H^n over
    each of K grains, given as segment rows a, b of shape (K, s, d).

    Fixed-order Gauss-Legendre (exact for polynomials of degree <= 2*order
    - 1) on each piece of a row between the parameters in [0, 1] where h
    states that it is not smooth along it (`h.splits(a, b)`, none when h
    makes no statement), summed over each grain's rows; for n = 0 the
    grain is the point a[:, 0] and its integral is h there.  A non-finite
    field value raises NumericError at its node."""
    n_grains, segments, d = a.shape
    if n == 0:
        pts = a[:, 0]
    else:
        if order < 1:
            raise ConfigurationError("quadrature order must be positive")
        t, weights = _gauss(order, 0.0, 1.0)
        statement = getattr(h, "splits", None)
        cuts = statement(a, b) if statement else None
        if cuts is not None:  # the rule on each piece [edge_i, edge_i+1]
            edges = np.sort(np.pad(np.clip(cuts, 0.0, 1.0), ((0, 0), (0, 0), (1, 1)),
                                   constant_values=(0.0, 1.0)), axis=-1)
            width = np.diff(edges, axis=-1)[..., None]
            t = (edges[..., :-1, None] + width * t).reshape(n_grains, segments, -1)
            weights = (width * weights).reshape(n_grains, segments, -1)
        ab = b - a
        # node j of a row at a + t_j (b - a), (K, s, nodes, d); a product
        # swapped is twice as fast as broadcasting over d.  The nodes go to h
        # in C order: a quadratic field's einsum rounds by layout in d = 3
        pts = (ab[..., None] * t[..., None, :]).swapaxes(2, 3)
        pts += a[:, :, None, :]
        pts = np.ascontiguousarray(pts).reshape(-1, d)
    vals = h.values(pts)
    if not np.all(np.isfinite(vals)):
        raise NumericError("non-finite field value", point=pts[~np.isfinite(vals)][0])
    if n == 0:
        return vals
    vals = vals.reshape(n_grains, segments, -1)
    return ((vals * weights).sum(axis=2) * np.linalg.norm(ab, axis=2)).sum(axis=1)


# point-row pairs measured at once by sausage_integrals: its memory is
# bounded by this many whatever mc_points is
SAUSAGE_CHUNK = 1_000_000


class ShiftedField:
    """The field f(x - .): integrating it over a grain anchored at the
    origin integrates f over the reflected, translated grain x - Z."""

    def __init__(self, f, x: np.ndarray):
        self._f = f
        self._x = x

    def values(self, pts: np.ndarray) -> np.ndarray:
        return self._f.values(self._x - np.atleast_2d(pts))

    def polynomial_on(self, box: Box) -> bool:
        """f's statement on the reflected box x - box; False when f makes none."""
        inner = getattr(self._f, "polynomial_on", None)
        return bool(inner and inner(Box(self._x - box.hi, self._x - box.lo)))

    def splits(self, a: np.ndarray, b: np.ndarray):
        """f's split parameters of the rows x - a, x - b, the same points of
        the rows; None when f states none."""
        inner = getattr(self._f, "splits", None)
        return inner(self._x - a, self._x - b) if inner else None


def mark_segments(q: MarkDistribution, u: np.ndarray):
    """Segment rows (a, b), each of shape (m, s, d), of m grains from Q,
    grain k from the row u[k] of an (m, q.uniforms) array of uniforms.
    The one definition of the mark draws: a segment law maps a row to its
    length and its direction, and its rows start at the origin; a
    deterministic law's grain is repeated as read-only views."""
    if q.kind == "deterministic":
        return tuple(np.broadcast_to(v, (len(u),) + v.shape) for v in q.grain.rows())
    b = (q.length.sample(u)[:, None] * q.orientation.sample(u))[:, None, :]
    return np.zeros(b.shape), b


def sausage_integral(g: Grain, h, r: float, mc_points: int, key) -> tuple[float, float]:
    """MC estimate (and SE) of the integral of h over the r-sausage Z⊕r of
    one grain: sausage_integrals with K = 1."""
    a, b = g.rows()
    est, se = sausage_integrals(a[None], b[None], h, r, mc_points, key)
    return float(est[0]), float(se[0])


def sausage_integrals(
    a: np.ndarray, b: np.ndarray, h, r: float, mc_points: int, key
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates (and SEs) of the integral of h over the r-sausage of
    each of K grains, given as segment rows a, b of shape (K, s, d).

    When every grain is one segment row and h states that it is a
    polynomial of degree <= 2 on the sausages' bounding box
    (`h.polynomial_on(box)`), the integrals are exact cubature: no draw,
    SE 0.  Otherwise grain k gets `mc_points` (at least 2) uniform
    proposals on its bounding box dilated by r, coordinate c of proposal j
    on counter (k mc_points + j) d + c of `key`.  A chunk holds whole
    grains or a piece of one, at most SAUSAGE_CHUNK // s proposals, each
    measured against all s rows of its grain at once; a grain's sums add
    its pieces' sums, so a chunk that splits no grain changes no bit."""
    if not (0.0 < r < 2.0):
        raise ConfigurationError("radius must lie in (0, 2)")
    if mc_points < 2:
        raise ConfigurationError("mc_points must be at least 2 for a standard error")
    n_grains, segments, d = a.shape
    lo = np.minimum(a.min(axis=1), b.min(axis=1)) - r
    hi = np.maximum(a.max(axis=1), b.max(axis=1)) + r
    statement = getattr(h, "polynomial_on", None)
    if (segments == 1 and n_grains and statement
            and statement(Box(lo.min(axis=0), hi.max(axis=0)))):
        return _sausage_cubature(a[:, 0], b[:, 0], h, r), np.zeros(n_grains)
    if key is None:
        raise ConfigurationError("Monte Carlo sausage integral needs a random stream")
    span = hi - lo
    volume = np.prod(span, axis=1)
    sums = np.zeros(n_grains)
    squares = np.zeros(n_grains)
    chunk = max(1, SAUSAGE_CHUNK // segments)
    piece = min(mc_points, chunk)
    per_chunk = chunk // piece
    for k0 in range(0, n_grains, per_chunk):
        ks = slice(k0, min(n_grains, k0 + per_chunk))
        count = ks.stop - k0
        lo_k, span_k = lo[ks, None, :], span[ks, None, :]
        for done in range(0, mc_points, piece):
            m = min(piece, mc_points - done)
            keys = skip(key, (np.arange(k0, ks.stop) * mc_points + done) * d)[:, None]
            # lo + span * u, computed in the uniforms' own array
            pts = uniforms(keys, np.arange(m * d)).reshape(count, m, d)
            pts *= span_k
            pts += lo_k
            # (count, s, m): a min over a trailing s axis is 1.6x slower
            dist = segment_distances(pts[:, None], a[ks, :, None], b[ks, :, None]).min(axis=1)
            vals = h.values(pts.reshape(-1, d)).reshape(count, m) * (dist <= r)
            sums[ks] += vals.sum(axis=1)
            squares[ks] += (vals * vals).sum(axis=1)
    mean = sums / mc_points
    var = np.maximum(squares / mc_points - mean * mean, 0.0)
    return volume * mean, volume * np.sqrt(var / mc_points)


@functools.cache  # leggauss takes about 0.2 ms, a tenth of a 4,000-mark density
def _gauss(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [lo, hi], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _sausage_cubature(a: np.ndarray, b: np.ndarray, h, r: float) -> np.ndarray:
    """Exact integrals of a polynomial h of degree <= 2 over the r-sausages
    of K segments (a, b), each of shape (K, d), a point's being the ball.
    A sausage is symmetric about its midpoint m, so ∫ h = V h(m) + (B tr H
    + (A - B) u'Hu) / 2 for h's Hessian H, its volume V and its second
    moments A along the axis u and B across it.  The Hessian terms are
    second differences at m ± r e_i and m ± s u, s² = A / V <= (L/2 + r)²:
    2d + 3 nodes in the grain's r-dilated bounding box.  Grains go
    SAUSAGE_CHUNK field points at a time."""
    n_grains, d = a.shape
    ab = b - a
    length = np.linalg.norm(ab, axis=1)
    # cross-section b_{d-1} r^{d-1} (1 in d = 1) and ball b_d r^d
    cross, ball = ball_volume(d - 1, r) if d > 1 else 1.0, ball_volume(d, r)
    volume = length * cross + ball
    across = (length * cross / (d + 1) + ball / (d + 2)) * r * r
    excess = length * (cross * (length * length / 12.0 + r * r / (d + 1)) + ball * length / 4.0)
    # s u with s² = A / V, A = B + excess; a ball has A = B and takes u = 0
    step = (np.sqrt((across + excess) / volume) / np.where(length > 0.0, length, 1.0))[:, None] * ab
    # weights of the second differences: B / r² at each e_i, V (A - B) / A at u
    w_cross, w_axis = across / (r * r), volume * excess / (across + excess)
    offsets = np.kron(np.eye(d), [[r], [-r]])  # m ± r e_i, in pairs
    out = np.empty(n_grains)
    per_chunk = max(1, SAUSAGE_CHUNK // (2 * d + 3))
    for k in range(0, n_grains, per_chunk):
        ks = slice(k, k + per_chunk)
        mid = 0.5 * (a[ks] + b[ks])
        pts = np.concatenate([mid[:, None], mid[:, None] + offsets, (mid + step[ks])[:, None],
                              (mid - step[ks])[:, None]], axis=1)
        vals = h.values(pts.reshape(-1, d)).reshape(len(mid), 2 * d + 3)
        centre = vals[:, :1]
        with np.errstate(invalid="ignore"):  # inf - inf and inf·0 where h overflows
            diffs = (vals[:, 1::2] - centre) + (vals[:, 2::2] - centre)  # one per pair
            sums = volume[ks] * centre[:, 0] + 0.5 * (
                w_cross[ks] * diffs[:, :-1].sum(axis=1) + w_axis[ks] * diffs[:, -1])
        out[ks] = np.where(np.isinf(vals).any(axis=1), np.inf, sums)  # an intensity is >= 0
    return out


# ---------------------------------------------------------------------------
# length and orientation laws


@dataclass(frozen=True)
class LengthLaw:
    """Law of the segment length L; kind in {fixed, uniform, trunc_exp}.

    trunc_exp is an exponential(rate) law truncated at l_max (default: its
    0.9999 quantile), so diameters are almost surely bounded.
    """

    kind: str
    value: float = 0.0        # fixed
    lo: float = 0.0           # uniform
    hi: float = 0.0           # uniform
    rate: float = 0.0         # trunc_exp
    cap: float | None = None  # trunc_exp truncation point

    def __post_init__(self):
        for name in ("value", "lo", "hi", "rate"):
            if not math.isfinite(value := getattr(self, name)):
                raise ConfigurationError(f"length law {name} must be finite, got {value}")
        if self.kind == "fixed":
            if self.value < 0:
                raise ConfigurationError("fixed length must be nonnegative")
        elif self.kind == "uniform":
            if not (0 <= self.lo <= self.hi):
                raise ConfigurationError("uniform length law needs 0 <= lo <= hi")
        elif self.kind == "trunc_exp":
            if not self.rate > 0:
                raise ConfigurationError("trunc_exp length law needs rate > 0")
            if self.cap is None:
                object.__setattr__(
                    self, "cap", -math.log(1.0 - DEFAULT_TRUNCATION_QUANTILE) / self.rate
                )
            elif not self.cap > 0:
                raise ConfigurationError("trunc_exp cap must be positive")
        else:
            raise ConfigurationError(f"unknown length law {self.kind!r}")

    @property
    def l_max(self) -> float:
        return {"fixed": self.value, "uniform": self.hi, "trunc_exp": self.cap}[self.kind]

    def moment(self, k: int) -> float:
        """E[L^k] under the (truncated) law."""
        if self.kind == "fixed":
            return self.value ** k
        if self.kind == "uniform":
            if self.hi == self.lo:
                return self.lo ** k
            return (self.hi ** (k + 1) - self.lo ** (k + 1)) / ((k + 1) * (self.hi - self.lo))
        # truncated exponential: E[L^k] = (k!/rate^k) P(k+1, rate*cap) / P(1, rate*cap);
        # scipy is imported here, off the CLI's import path
        from scipy import special

        z = self.rate * self.cap
        num = math.factorial(k) / self.rate ** k * special.gammainc(k + 1, z)
        return num / special.gammainc(1, z)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Lengths from the first column of an (m, k) array of uniforms (none
        read when fixed): lo + (hi - lo) u, or inversion."""
        if self.kind == "fixed":
            return np.full(len(u), self.value)
        if self.kind == "uniform":
            return self.lo + (self.hi - self.lo) * u[:, 0]
        return -np.log1p(-(u[:, 0] * (1.0 - math.exp(-self.rate * self.cap)))) / self.rate


@dataclass(frozen=True)
class OrientationLaw:
    """Law of the segment direction; kind in {fixed, uniform}.

    Angles: d=1 uses the sign of cos(angle); d=2 a planar angle; d=3 a
    (polar, azimuth) pair.  uniform draws the direction uniformly (a random
    sign for d=1, uniform angle for d=2, uniform on the sphere for d=3).
    """

    kind: str
    dim: int = 2
    angle: float = 0.0
    polar: float = 0.0
    azimuth: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed", "uniform"):
            raise ConfigurationError(f"unknown orientation law {self.kind!r}")
        for name in ("angle", "polar", "azimuth"):
            if not math.isfinite(value := getattr(self, name)):
                raise ConfigurationError(f"orientation law {name} must be finite, got {value}")
        if self.dim not in (1, 2, 3):
            raise ConfigurationError(f"unsupported dimension {self.dim}")

    def fixed_direction(self) -> np.ndarray:
        if self.dim == 1:
            return np.array([1.0 if math.cos(self.angle) >= 0 else -1.0])
        if self.dim == 2:
            return np.array([math.cos(self.angle), math.sin(self.angle)])
        st = math.sin(self.polar)
        return np.array(
            [st * math.cos(self.azimuth), st * math.sin(self.azimuth), math.cos(self.polar)]
        )

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Unit directions (m, d) from the last columns of an (m, k) array of
        uniforms (none read when fixed): a sign in d = 1, an angle in d = 2,
        (z, azimuth) in d = 3, each as lo + (hi - lo) u."""
        if self.kind == "fixed":
            return np.tile(self.fixed_direction(), (len(u), 1))
        if self.dim == 1:
            return np.where(u[:, -1:] < 0.5, 1.0, -1.0)
        out = np.empty((len(u), self.dim))
        if self.dim == 2:
            ang = 2.0 * math.pi * u[:, -1]
            out[:, 0], out[:, 1] = np.cos(ang), np.sin(ang)
            return out
        z = -1.0 + 2.0 * u[:, -2]
        phi = 2.0 * math.pi * u[:, -1]
        s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        out[:, 0], out[:, 1], out[:, 2] = s * np.cos(phi), s * np.sin(phi), z
        return out


# ---------------------------------------------------------------------------
# mark distribution


@dataclass(frozen=True, eq=False)
class MarkDistribution:
    """Law Q of the typical grain.

    kind "deterministic": always returns `grain`.
    kind "segment": random segment with independent length and orientation.
    """

    kind: str
    grain: Grain | None = None
    length: LengthLaw | None = None
    orientation: OrientationLaw | None = None

    def __post_init__(self):
        if self.kind == "deterministic":
            if self.grain is None:
                raise ConfigurationError("deterministic mark law needs a grain")
        elif self.kind == "segment":
            if self.length is None or self.orientation is None:
                raise ConfigurationError("segment mark law needs length and orientation laws")
        else:
            raise ConfigurationError(f"unknown mark distribution {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.grain.dim if self.kind == "deterministic" else self.orientation.dim

    @property
    def n(self) -> int:
        return self.grain.n if self.kind == "deterministic" else 1

    @property
    def uniforms(self) -> int:
        """Uniforms per grain that mark_segments reads: one for a random
        length, then the direction's, d - 1 (a sign in d = 1) when random."""
        if self.kind == "deterministic":
            return 0
        direction = max(1, self.dim - 1) if self.orientation.kind != "fixed" else 0
        return (self.length.kind != "fixed") + direction

    @property
    def segments(self) -> int:
        """Segment rows per grain, s, in the rows of mark_segments."""
        return len(self.grain.rows()[0]) if self.kind == "deterministic" else 1

    @property
    def l_max(self) -> float:
        """Almost sure diameter bound for sampled grains."""
        return self.grain.diameter if self.kind == "deterministic" else self.length.l_max

    @property
    def is_deterministic(self) -> bool:
        return self.kind == "deterministic" or self.length.kind == self.orientation.kind == "fixed"

    def mean_hn(self) -> float:
        """E_Q[H^n(Z_0)] (exact for all built-in laws)."""
        return hn_measure(self.grain) if self.kind == "deterministic" else self.length.moment(1)

    def length_moment(self, k: int) -> float:
        if self.kind == "deterministic":
            return hn_measure(self.grain) ** k if self.grain.n == 1 else 0.0
        return self.length.moment(k)


# ---------------------------------------------------------------------------
# regularity certificate


@dataclass(frozen=True)
class RegularityCertificate:
    """Witness for the lower density bound H^n(Z~_0 ∩ B_r(x)) >= gamma r^n.

    The enlarged grain Z~_0 extends grains of total length below
    `min_length` along their last segment so the bound holds with gamma = 1
    down to arbitrarily small grains.  Point grains satisfy the bound
    trivially (H^0 of the singleton is 1 >= r^0 gamma for gamma <= 1).
    """

    gamma: float = 1.0
    min_length: float = 1.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise ConfigurationError("gamma must be positive")

    def extend(self, g: Grain) -> Grain:
        """The enlarged grain Z~_0 containing g: a short segment scaled, a
        short polyline continued along its last segment."""
        total = hn_measure(g)
        if g.n == 0 or total >= self.min_length:
            return g
        v = g.vertices
        if len(v) == 2:
            if total == 0.0:
                raise ConfigurationError("cannot extend a zero-length segment")
            return Grain.segment(v[1] * (self.min_length / total))
        d = v[-1] - v[-2]
        norm = np.linalg.norm(d)
        if norm == 0.0:
            raise ConfigurationError("cannot extend a degenerate last segment")
        extra = (self.min_length - total) / norm
        return Grain(np.vstack([v, v[-1] + extra * d]))

    def normalized_gamma(self, g: Grain) -> float:
        """gamma after normalizing eta = H^n restricted to Z~_0 to a
        probability measure (divide by the total mass of eta, 1 for a
        point)."""
        return self.gamma / hn_measure(self.extend(g))
