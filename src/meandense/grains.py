"""Grain families and mark distributions.

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
repeated; `mark_rule` is the one mark quadrature, rows and weights whose
weighted sum is exact for integrands of low degree in the length and the
direction.  A field is integrated over each grain with respect to H^n by
Gauss-Legendre quadrature between the points where it states it is not
smooth (`line_integrals`) and over each grain's r-sausage: exactly from
2d + 3 field values of a polynomial of degree <= 2 over a segment or point
grain (`sausage_moment_rule`), or by chunked Monte Carlo on one key
(`sausage_integrals`).  Which one a cell takes is decided by its caller,
`exact._means`, the one reader of a field's `polynomial_on`, which also
judges their values: the kernels never raise on a field value, and a
grain's integral is inf wherever a field value it reads is.
One grain is K = 1: its `Grain.rows` with a leading axis added.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import as_point, ball_volume, segment_distances
from .streams import skip, uniforms

QUADRATURE_ORDER = 8  # Gauss-Legendre nodes per piece of a row

# truncation quantile used when a length law has unbounded support and no
# explicit cap is given
DEFAULT_TRUNCATION_QUANTILE = 0.9999

# ±e_i in pairs, rows e_0, -e_0, e_1, ...: mark_rule's directions and the moment rule's offsets
_AXES = {d: np.stack([np.eye(d), -np.eye(d)], 1).reshape(2 * d, d) for d in (1, 2, 3)}


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
        if not np.isfinite(v).all():
            raise ConfigurationError("non-finite polyline vertices")
        if (v[0] != 0.0).any():
            raise ConfigurationError("polyline must be anchored at the origin")
        object.__setattr__(self, "vertices", v)

    @classmethod
    def point(cls, dim: int = 2) -> "Grain":
        return cls(np.zeros((1, dim)))

    @classmethod
    def segment(cls, vec) -> "Grain":
        """The segment from the origin to `vec`."""
        vec = as_point(vec)
        return cls(np.array([np.zeros(len(vec)), vec]))

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
        # one vertex at a time: (k, d) temporaries for k vertices, not (k, k, d)
        return max(_unsquared(lambda x: np.sqrt((x ** 2).sum(-1)).max(), v - p) for p in v)

    @functools.cached_property  # once per grain: a run may read it three times
    def measure(self) -> float:
        """H^n measure: 1 for a point, total length otherwise."""
        if self.n == 0:
            return 1.0
        a, b = self.rows()
        return _unsquared(lambda x: np.linalg.norm(x, axis=1).sum(), b - a)

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


def line_integrals(a: np.ndarray, b: np.ndarray, h, n: int) -> np.ndarray:
    """Integrals of the field h (its `values`) with respect to H^n over
    each of K grains, given as segment rows a, b of shape (K, s, d).

    QUADRATURE_ORDER-point Gauss-Legendre (exact for polynomials of degree
    <= 15) on each piece of a row between the parameters in [0, 1] where h
    states that it is not smooth along it (`h.splits(a, b)`, none when h
    makes no statement), summed over each grain's rows; for n = 0 the
    grain is the point a[:, 0] and its integral is h there.  A grain's
    integral is inf wherever a field value it reads is: the caller judges
    a non-finite one."""
    n_grains, segments, d = a.shape
    if n == 0:
        pts = a[:, 0]
    else:
        t, weights = _gauss(QUADRATURE_ORDER)
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
        # swapped is twice as fast as broadcasting over d
        pts = (ab[..., None] * t[..., None, :]).swapaxes(2, 3)
        pts += a[:, :, None, :]
        pts = pts.reshape(-1, d)
    vals = h.values(pts)
    if n == 0:
        return vals
    vals = vals.reshape(n_grains, segments, -1)
    with np.errstate(invalid="ignore"):  # inf·0 on an empty piece or a zero-length row
        sums = ((vals * weights).sum(axis=2) * np.sqrt((ab * ab).sum(axis=2))).sum(axis=1)
    return np.where((vals == np.inf).any(axis=(1, 2)), np.inf, sums)


# point-row pairs measured at once by sausage_integrals: its memory is
# bounded by this many whatever mc_points is
SAUSAGE_CHUNK = 1_000_000


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


def mark_rule(q: MarkDistribution):
    """Segment rows (a, b), each of shape (k, s, d), and weights (k,) of a
    product rule over Q: the weighted sum of a per-grain integral over
    these rows is its mark mean E_Q wherever the integral is a polynomial
    of degree <= 3 in the length and <= 2 in the direction.  Lengths: the
    fixed value, 2-node Gauss-Legendre on a uniform law, the 2-node Gauss
    rule of a truncated exponential law from its moments.  Directions:
    the fixed one, or ±e_i with weight 1/(2d): the two signs in d = 1,
    four equal angles in d = 2 (exact below trigonometric degree 4), and
    in d = 3 exact for spherical polynomials of degree <= 3.  A
    deterministic law is its grain with weight 1."""
    if q.kind == "deterministic":  # its grain's rows, without a broadcast view
        return *(v[None] for v in q.grain.rows()), np.ones(1)
    lengths, length_weights = _length_rule(q.length)
    d = q.dim
    if q.orientation.kind == "fixed":
        directions, direction_weights = q.orientation.fixed_direction()[None], np.ones(1)
    else:
        directions, direction_weights = _AXES[d], np.full(2 * d, 0.5 / d)
    b = (lengths[:, None, None] * directions).reshape(-1, 1, d)
    return np.zeros(b.shape), b, (length_weights[:, None] * direction_weights).ravel()


def sausage_integrals(
    a: np.ndarray, b: np.ndarray, h, r: float, mc_points: int, key
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimates (and SEs) of the integral of h over the
    r-sausage of each of K grains, given as segment rows a, b of shape
    (K, s, d).  Grain k gets `mc_points` (>= 2) uniform proposals on its
    r-dilated bounding box, coordinate c of proposal j on counter
    (k mc_points + j) d + c of `key`.  A chunk holds
    whole grains or a piece of one, at most SAUSAGE_CHUNK // s proposals,
    each measured against all s rows of its grain at once; a grain's sums
    add its pieces' sums, so a chunk that splits no grain changes no bit.
    A grain whose sausage holds an inf field value gets inf, with SE 0."""
    if not (0.0 < r < 2.0):
        raise ConfigurationError("radius must lie in (0, 2)")
    if mc_points < 2:
        raise ConfigurationError("mc_points must be at least 2 for a standard error")
    if key is None:
        raise ConfigurationError("Monte Carlo sausage integral needs a random stream")
    n_grains, segments, d = a.shape
    lo = np.minimum(a.min(axis=1), b.min(axis=1)) - r
    hi = np.maximum(a.max(axis=1), b.max(axis=1)) + r
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
            vals = np.where(dist <= r, h.values(pts.reshape(-1, d)).reshape(count, m), 0.0)
            sums[ks] += vals.sum(axis=1)
            squares[ks] += (vals * vals).sum(axis=1)
    mean = sums / mc_points
    with np.errstate(invalid="ignore"):  # inf - inf where the mean is inf
        var = np.maximum(squares / mc_points - mean * mean, 0.0)
    return volume * mean, np.where(mean == np.inf, 0.0, volume * np.sqrt(var / mc_points))


@functools.cache  # leggauss takes about 0.2 ms, a tenth of a 4,000-mark density
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _length_rule(law: LengthLaw) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights of a rule on the length law that is
    exact for polynomials of degree <= 3, read-only.  The truncated
    exponential's is the eigen-decomposition of its 2 x 2 Jacobi matrix
    from E[L^k], k <= 3 (Golub and Welsch, Math. Comp., 1969)."""
    if law.kind == "fixed":
        nodes, weights = np.array([law.value]), np.ones(1)
    elif law.kind == "uniform":
        t, weights = _gauss(2)
        nodes = law.lo + (law.hi - law.lo) * t
    else:
        m1, m2, m3 = (law.moment(k) for k in (1, 2, 3))
        var = m2 - m1 * m1
        third = m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3  # E[(L - m1)^3]
        off = math.sqrt(var)
        nodes, vectors = np.linalg.eigh([[m1, off], [off, m1 + third / var]])
        weights = vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def sausage_moment_rule(a: np.ndarray, b: np.ndarray, h, r) -> np.ndarray:
    """Exact integrals of a polynomial h of degree <= 2 over the r-sausages
    of K segments (a, b), each of shape (K, d), a point's being the ball, at
    one radius r or one per segment.  A sausage is symmetric about its
    midpoint m, so ∫ h = V h(m) + (B tr H + (A - B) u'Hu) / 2 for h's
    Hessian H, its volume V and its second moments A along the axis u and B
    across it.  The Hessian terms are second differences at m ± r e_i and
    m ± s u, s² = A / V <= (L/2 + r)²: 2d + 3 nodes in the grain's
    r-dilated bounding box, all K at once: the exact route hands it at most
    exact.MARK_CHUNK segments, whatever their radii."""
    n_grains, d = a.shape
    ab = b - a
    length = np.sqrt((ab * ab).sum(axis=1))  # np.linalg.norm's own sum and root
    # r, cross-section b_{d-1} r^{d-1} (1 in d = 1) and ball b_d r^d per row, floats per radius
    rows = np.full(n_grains, r)
    radii = sorted(set(rows.tolist()))
    r, cross, ball = np.array([(s, ball_volume(d - 1, s) if d > 1 else 1.0, ball_volume(d, s))
                               for s in radii]).reshape(-1, 3)[np.searchsorted(radii, rows)].T
    tube, r2 = length * cross, r * r
    volume = tube + ball
    across = (tube / (d + 1) + ball / (d + 2)) * r * r
    excess = length * (cross * (length * length / 12.0 + r2 / (d + 1)) + ball * length / 4.0)
    second = across + excess  # A
    # s u with s² = A / V, A = B + excess; a ball has A = B and takes u = 0
    step = (np.sqrt(second / volume) / np.where(length > 0.0, length, 1.0))[:, None] * ab
    # weights of the second differences: B / r² at each e_i, V (A - B) / A at u
    w_cross, w_axis = across / r2, volume * excess / second
    offsets = r[:, None, None] * _AXES[d]  # m ± r e_i, in pairs
    mid = 0.5 * (a + b)
    pts = np.concatenate([mid[:, None], mid[:, None] + offsets, (mid + step)[:, None],
                          (mid - step)[:, None]], axis=1)
    vals = h.values(pts.reshape(-1, d)).reshape(n_grains, 2 * d + 3)
    centre = vals[:, :1]
    with np.errstate(invalid="ignore"):  # inf - inf and inf·0 where h overflows
        diffs = (vals[:, 1::2] - centre) + (vals[:, 2::2] - centre)  # one per pair
        sums = volume * centre[:, 0] + 0.5 * (
            w_cross * diffs[:, :-1].sum(axis=1) + w_axis * diffs[:, -1])
    return np.where((vals == np.inf).any(axis=1), np.inf, sums)


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
        """E[L^k] under the (truncated) law.  trunc_exp's is cap^k J_k / J_0
        for J_k = int_0^1 t^k e^(-z t) dt, z = rate cap: up to z = 3, J_k =
        k! e^(-z) sum_j z^j / (k+1+j)!, positive terms whose e^(-z) cancels,
        so accurate as z -> 0; above it, where that sum's rounding grows,
        J_k = k! z^(-k-1) (1 - e^(-z) sum_{j<=k} z^j / j!), the subtraction
        costing a bit or two."""
        if self.kind == "fixed":
            return self.value ** k
        if self.kind == "uniform":
            if self.hi == self.lo:
                return self.lo ** k
            return (self.hi ** (k + 1) - self.lo ** (k + 1)) / ((k + 1) * (self.hi - self.lo))
        z = self.rate * self.cap
        if z > 3.0:  # e^(-z) is 0 past z = 745, where z^j may overflow
            e = math.exp(-z)
            tail = e and e * sum(z ** j / math.factorial(j) for j in range(k + 1))
            return math.factorial(k) / self.rate ** k * (1.0 - tail) / -math.expm1(-z)
        # the terms of sum_j z^j / (1+j)! stop mattering after those of k's
        sk, s0, tk, t0, j = 0.0, 0.0, 1.0 / math.factorial(k + 1), 1.0, 0
        while s0 + t0 != s0:
            sk, s0, j = sk + tk, s0 + t0, j + 1
            tk, t0 = tk * z / (k + 1 + j), t0 * z / (1 + j)
        return self.cap ** k * math.factorial(k) * sk / s0

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Lengths from the first column of an (m, k) array of uniforms (none
        read when fixed): lo + (hi - lo) u, or inversion."""
        if self.kind == "fixed":
            return np.full(len(u), self.value)
        if self.kind == "uniform":
            return self.lo + (self.hi - self.lo) * u[:, 0]
        return -np.log1p(u[:, 0] * math.expm1(-self.rate * self.cap)) / self.rate


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

    @functools.cached_property  # once per law: a grain's diameter takes a norm per vertex
    def l_max(self) -> float:
        """Almost sure diameter bound for sampled grains."""
        return self.grain.diameter if self.kind == "deterministic" else self.length.l_max

    @property
    def is_deterministic(self) -> bool:
        return self.kind == "deterministic" or self.length.kind == self.orientation.kind == "fixed"

    def mean_hn(self) -> float:
        """E_Q[H^n(Z_0)] (exact for all built-in laws)."""
        return self.grain.measure if self.kind == "deterministic" else self.length.moment(1)

    def length_moment(self, k: int) -> float:
        if self.kind == "deterministic":
            return self.grain.measure ** k if self.grain.n == 1 else 0.0
        return self.length.moment(k)
