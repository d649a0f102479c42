"""Scenario configuration: a flat key-value format with dotted sections.

One `key = value` pair per line, `#` starts a comment; scalar lists are
comma-separated and point lists use `;` between points.  Parsing validates
the whole file and reports every violation, not just the first.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .geometry import Box, ball_volume
from .grains import Grain, LengthLaw, MarkDistribution, OrientationLaw
from .poisson import IntensityField

_KNOWN_KEYS = {
    "d", "n", "seed", "N", "N_grid", "replications", "r", "r_grid", "r_max",
    "mc_points", "mark_draws", "output",
    "intensity.kind", "intensity.c", "intensity.a", "intensity.b",
    "intensity.pieces",
    "marks.kind", "marks.grain.kind", "marks.grain.length", "marks.grain.angle",
    "marks.grain.polar", "marks.grain.azimuth", "marks.grain.vertices",
    "marks.length.kind", "marks.length.value", "marks.length.lo",
    "marks.length.hi", "marks.length.rate", "marks.length.cap",
    "marks.orientation.kind", "marks.orientation.angle",
    "marks.orientation.polar", "marks.orientation.azimuth",
    "window.lo", "window.hi",
    "region.lo", "region.hi",
    "x_grid.kind", "x_grid.lo", "x_grid.hi", "x_grid.shape", "x_grid.points",
    "bandwidth.c0", "bandwidth.beta",
}

# intensity.pieceK.{lo,hi,value}, K = 1..intensity.pieces, are matched here
_PIECE_KEY = re.compile(r"intensity\.piece([1-9][0-9]*)\.(lo|hi|value)")

# lattice points x_grid may hold, checked before the lattice is built
MAX_GRID_POINTS = 1_000_000


@dataclass(eq=False)
class ScenarioConfig:
    """Full experiment description parsed from a config file."""

    d: int
    n: int
    intensity: IntensityField
    marks: MarkDistribution
    window: Box
    seed: int = 0
    n_samples: int | None = None
    n_grid: list[int] | None = None
    bandwidth: tuple[float, float] | None = None  # (c0, beta)
    fixed_r: float | None = None
    r_grid: list[float] | None = None
    r_max: float | None = None
    x_grid: np.ndarray | None = None
    region: Box | None = None
    replications: int = 3
    mc_points: int = 1_000_000
    mark_draws: int = 2000
    output: str = "out"
    raw_text: str = ""

    @functools.cached_property  # once per run: study.csv repeats it on every row
    def scenario_id(self) -> str:
        canon = "\n".join(sorted(
            stripped for line in self.raw_text.splitlines()
            if (stripped := line.partition("#")[0].strip())))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def grid_points(self) -> np.ndarray:
        if self.x_grid is not None:
            return self.x_grid
        center = (self.window.lo + self.window.hi) / 2.0
        return center[None, :]

    def query_radius(self) -> float:
        if self.fixed_r is not None:
            return self.fixed_r
        if self.bandwidth is not None and self.n_samples is not None:
            return self.bandwidth_radius(self.n_samples)
        raise ConfigurationError("config needs either r or bandwidth.{c0,beta} with N")

    def bandwidth_radius(self, n_samples: int) -> float:
        """The bandwidth R_N = c0 N^(-beta) at N = n_samples, a radius below
        2 that _underflow passes.  With 0 < beta < 1/(d-n), R_N -> 0 while
        N R_N^(d-n) -> infinity."""
        (c0, beta), codim = self.bandwidth, self.d - self.n
        radius = c0 * float(n_samples) ** (-beta)
        where = f"bandwidth.c0: the radius c0 N^(-beta) = {radius!r} at N = {n_samples}"
        if radius >= 2.0:
            raise ConfigurationError(f"{where} must be below 2")
        if _underflow("bandwidth.c0", [radius], codim):
            raise ConfigurationError(f"{where} is too small: b_{codim} R^{codim} underflows")
        return radius


def _integer(text: str) -> int:
    """An integer, also in float notation (1e6), but never a truncation."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():
            raise
        return int(value)


def _underflow(key: str, radii, codim: int) -> list[str]:
    """Violations of the radii whose normalizer b_k r^k, k = d - n, is below
    the smallest normal float (its inverse overflows)."""
    return [f"{key}: radius {r!r} is too small: b_{codim} r^{codim} = {norm!r}"
            for r in radii if (norm := ball_volume(codim, r)) < sys.float_info.min]


def _length_rule_fault(marks: MarkDistribution) -> str | None:
    """The violation of a truncated exponential length law whose E[L^k],
    k <= 3, lie below the float range, so that the exact route's two-node
    length rule cannot be built from them: rate^k overflows in k! / rate^k
    when rate * cap > 3, cap^k underflows below it, and the variance rounds
    to 0.  A law reaching 1e75 is L_max's violation: its moments overflow."""
    law = marks.length
    if marks.kind != "segment" or law.kind != "trunc_exp" or law.cap >= 1e75:
        return None
    with contextlib.suppress(OverflowError, ZeroDivisionError):
        m1, m2, _ = (law.moment(k) for k in (1, 2, 3))  # E[L^3] may raise alone
        if m2 - m1 * m1 > 0.0:
            return None
    key = "marks.length.rate" if law.rate * law.cap > 3.0 else "marks.length.cap"
    return (f"{key}: rate {law.rate!r} with cap {law.cap!r} puts E[L^k], k <= 3, below "
            "the float range, and the exact route's length rule reads them")


class _NotFinite(ValueError):
    """A number that parses but is nan or infinite."""


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _NotFinite
    return value


def _floats(text: str) -> list[float]:
    """One point: comma-separated coordinates."""
    return [_float(v) for v in text.split(",")]


class _Violations(list):
    """Violation lines, one per fault.  A line that follows from a default
    is dropped: once `get` has reported a key, a later line about that key
    or its section; once d is refused, a `count` of components against d
    and an n in {0, 1, 2} measured against the d that stands in for it."""

    def __init__(self, lines):
        super().__init__(lines)
        self.reported = set()
        self.d_refused = False

    def append(self, line):
        if line.split(":", 1)[0] not in self.reported:
            super().append(line)

    def count(self, line):
        if not self.d_refused:
            self.append(line)


def _tokenize(text: str) -> tuple[dict[str, str], list[str]]:
    """The key-value pairs and the violations of the line syntax: a line
    that is not `key = value`, or a key given twice."""
    pairs: dict[str, str] = {}
    seen: dict[str, int] = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        key, equals, val = stripped.partition("=")
        if not equals:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key = key.strip()
        if key in seen:
            errors.append(f"{key}: repeated on line {lineno}, first given on line {seen[key]}")
            continue
        seen[key] = lineno
        pairs[key] = val.strip()
    return pairs, errors


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate; raises ConfigurationError listing every
    violation with the offending key and its admissible range."""
    pairs, errors = _tokenize(text)
    errors = _Violations(errors)

    for key in pairs:
        if key not in _KNOWN_KEYS and not _PIECE_KEY.fullmatch(key):
            errors.append(f"unknown key {key!r}")

    def get(key, default=None, cast=_float, sep=None):
        """Every numeric value goes through here: the value of `key` read
        with `cast`, or a nonempty list of them split at `sep`; `default` if
        the key is absent or its value does not parse, is nan, inf or an
        empty list, which is a violation naming the key."""
        if key not in pairs:
            return default
        text = pairs[key]
        try:
            if sep is None:
                return cast(text)
            if values := [cast(t) for t in text.split(sep) if t.strip()]:
                return values
            errors.append(f"{key}: needs at least one value, got {text!r}")
        except _NotFinite:
            errors.append(f"{key}: must be finite, got {text!r}")
        except ValueError:
            errors.append(f"{key}: cannot interpret {text!r}")
        errors.reported.update((key, key.rsplit(".", 1)[0]))
        return default

    d = get("d", cast=_integer)
    n = get("n", cast=_integer)
    if d is None or d not in (1, 2, 3):
        errors.append("d: required, must be in {1, 2, 3}")
        d, errors.d_refused = 2, True
    if not (n_valid := n is not None and 0 <= n < d):
        if n not in range(3) or not errors.d_refused:  # n < 3 may hold for the refused d
            errors.append(f"n: required, must satisfy 0 <= n < d (d={d}); "
                          "the n = d case is out of estimator scope")
        n = max(0, d - 1)

    intensity = _build_intensity(pairs, get, d, errors)
    marks = _build_marks(pairs, get, d, errors)

    if marks is not None and n_valid and marks.n != n:
        errors.append(f"marks: grain family has Hausdorff dimension {marks.n}, config says n = {n}")

    window = _build_box(pairs, get, "window", d, errors, required=True)
    region = _build_box(pairs, get, "region", d, errors, required=False)

    seed = get("seed", 0, cast=_integer)
    if not 0 <= seed < 2 ** 64:
        errors.append("seed: must be a nonnegative 64-bit integer")

    n_samples = get("N", cast=_integer)
    if n_samples is not None and n_samples <= 0:
        errors.append("N: must be positive")
    n_grid = get("N_grid", cast=_integer, sep=",")
    if n_grid is not None and (any(v <= 0 for v in n_grid) or sorted(set(n_grid)) != n_grid):
        errors.append("N_grid: must be increasing positive integers")

    bandwidth = None
    if "bandwidth.c0" in pairs or "bandwidth.beta" in pairs:
        c0 = get("bandwidth.c0", 1.0)
        beta = get("bandwidth.beta")
        if c0 <= 0:
            errors.append("bandwidth.c0: must be positive")
        if beta is None:
            errors.append("bandwidth.beta: required when a schedule is given")
        elif c0 > 0 and not 0.0 < beta < 1.0 / (d - n):
            errors.append(f"bandwidth.beta: beta must lie in (0, {1.0 / (d - n)}) "
                          f"for d={d}, n={n}; got {beta}")
        elif c0 > 0:
            bandwidth = (c0, beta)

    fixed_r = get("r")
    if fixed_r is not None and not (0.0 < fixed_r < 2.0):
        errors.append("r: must lie in (0, 2)")
    elif fixed_r is not None:
        errors.extend(_underflow("r", [fixed_r], d - n))
    r_grid = get("r_grid", sep=",")
    if r_grid is not None and any(not (0.0 < v < 2.0) for v in r_grid):
        errors.append("r_grid: all radii must lie in (0, 2)")
    elif r_grid is not None:
        errors.extend(_underflow("r_grid", r_grid, d - n))
    r_max = get("r_max")
    if r_max is not None and not (0.0 <= r_max < 2.0):
        errors.append("r_max: must lie in [0, 2)")

    x_grid = _build_x_grid(pairs, get, d, errors)

    replications = get("replications", 3, cast=_integer)
    if replications is not None and replications < 2:
        errors.append("replications: must be at least 2 for a variance")
    mc_points = get("mc_points", 1_000_000, cast=_integer)
    if mc_points is not None and mc_points < 2:
        errors.append("mc_points: must be at least 2")
    mark_draws = get("mark_draws", 2000, cast=_integer)
    if mark_draws is not None and mark_draws < 2:
        errors.append("mark_draws: must be at least 2")
    output = pairs.get("output", "out")

    # moment conditions on the mark law; a moment past the float range is inf
    if marks is not None:
        key = "marks.length" if marks.kind == "segment" else "marks.grain"
        quadratic = intensity is not None and intensity.kind == "quadratic" and marks.n == 1
        mean = third = math.inf
        with contextlib.suppress(OverflowError, ZeroDivisionError):
            mean = marks.mean_hn()
            third = marks.length_moment(3) if quadratic else 0.0
        if not math.isfinite(marks.l_max):
            errors.append(f"{key}: the law needs a finite diameter bound L_max")
        elif not math.isfinite(mean):
            errors.append(f"{key}: E_Q[H^n(Z_0)] must be finite")
        elif fault := _length_rule_fault(marks):  # before E[L^3], which may have underflowed
            errors.append(fault)
        elif not math.isfinite(third):
            errors.append(f"{key}: quadratic intensity needs E[L^3] < infinity")
        elif marks.l_max >= 1e75:  # the sausage moment rule's products grow like L^4
            errors.append(f"{key}: L_max = {marks.l_max!r} must be below 1e75")

    if errors:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(errors))

    return ScenarioConfig(
        d=d, n=n, intensity=intensity, marks=marks, window=window, seed=seed,
        n_samples=n_samples, n_grid=n_grid, bandwidth=bandwidth, fixed_r=fixed_r,
        r_grid=r_grid, r_max=r_max, x_grid=x_grid, region=region,
        replications=replications, mc_points=mc_points, mark_draws=mark_draws,
        output=output, raw_text=text,
    )


def _build_intensity(pairs, get, d, errors) -> IntensityField | None:
    kind = pairs.get("intensity.kind")
    if kind is None:
        errors.append("intensity.kind: required")
        return None
    try:
        if kind == "constant":
            return IntensityField("constant", c=get("intensity.c", 0.0))
        if kind == "quadratic":
            return IntensityField("quadratic")
        if kind == "affine":
            a = get("intensity.a", 0.0)
            b = get("intensity.b", [], sep=",")
            if len(b) != d:
                errors.count(f"intensity.b: needs {d} components")
                return None
            return IntensityField("affine", a=a, b=np.array(b, dtype=float))
        if kind == "piecewise":
            count = get("intensity.pieces", 0, cast=_integer)
            if count < 1:
                errors.append("intensity.pieces: must be a positive integer")
            errors.extend(f"{key}: beyond intensity.pieces = {count}" for key in pairs
                          if (piece := _PIECE_KEY.fullmatch(key)) and int(piece[1]) > count >= 1)
            pieces = []
            for k in range(1, count + 1):
                lo = get(f"intensity.piece{k}.lo", [], sep=",")
                hi = get(f"intensity.piece{k}.hi", [], sep=",")
                val = get(f"intensity.piece{k}.value", 0.0)
                if len(lo) != d or len(hi) != d:
                    errors.count(f"intensity.piece{k}: lo/hi need {d} components")
                    return None
                pieces.append((Box(np.array(lo, float), np.array(hi, float)), val))
            return IntensityField("piecewise", pieces=tuple(pieces))
        errors.append(f"intensity.kind: unknown kind {kind!r}")
    except ConfigurationError as exc:
        errors.append(f"intensity: {exc}")
    return None


def _build_marks(pairs, get, d, errors) -> MarkDistribution | None:
    kind = pairs.get("marks.kind")
    if kind is None:
        errors.append("marks.kind: required")
        return None
    try:
        if kind == "deterministic":
            grain = _build_grain(pairs, get, d, errors)
            return None if grain is None else MarkDistribution("deterministic", grain=grain)
        if kind == "segment_law":
            length = _build_length(pairs, get, errors)
            orientation = _build_orientation(pairs, get, d, errors)
            if length is None or orientation is None:
                return None
            return MarkDistribution("segment", length=length, orientation=orientation)
        errors.append(f"marks.kind: unknown kind {kind!r}; use deterministic or segment_law")
    except ConfigurationError as exc:
        errors.append(f"marks: {exc}")
    return None


def _build_grain(pairs, get, d, errors):
    gkind = pairs.get("marks.grain.kind")
    if gkind == "point":
        return Grain.point(d)
    if gkind == "segment":
        length = get("marks.grain.length", 1.0)
        if length < 0.0:
            errors.append(f"marks.grain.length: must be nonnegative, got {length}")
            return None
        law = OrientationLaw(
            "fixed", dim=d,
            angle=get("marks.grain.angle", 0.0),
            polar=get("marks.grain.polar", 0.0),
            azimuth=get("marks.grain.azimuth", 0.0),
        )
        return Grain.segment(length * law.fixed_direction())
    if gkind == "polyline":
        pts = get("marks.grain.vertices", [], cast=_floats, sep=";")
        if not pts or any(len(p) != d for p in pts):
            errors.count(f"marks.grain.vertices: needs {d}-d points separated by ';'")
            return None
        return Grain.polyline(np.array(pts))
    fault = "required for deterministic marks" if gkind is None else f"unknown kind {gkind!r}"
    errors.append(f"marks.grain.kind: {fault} (point|segment|polyline)")
    return None


def _build_length(pairs, get, errors) -> LengthLaw | None:
    kind = pairs.get("marks.length.kind")
    try:
        if kind == "fixed":
            return LengthLaw("fixed", value=get("marks.length.value", 1.0))
        if kind == "uniform":
            return LengthLaw("uniform", lo=get("marks.length.lo", 0.0), hi=get("marks.length.hi", 1.0))
        if kind == "trunc_exp":
            return LengthLaw(
                "trunc_exp", rate=get("marks.length.rate", 1.0), cap=get("marks.length.cap")
            )
        fault = "required" if kind is None else f"unknown kind {kind!r}"
        errors.append(f"marks.length.kind: {fault} (fixed|uniform|trunc_exp)")
    except ConfigurationError as exc:
        errors.append(f"marks.length: {exc}")
    return None


def _build_orientation(pairs, get, d, errors) -> OrientationLaw | None:
    kind = pairs.get("marks.orientation.kind")
    try:
        if kind in ("fixed", "uniform"):
            return OrientationLaw(
                kind, dim=d,
                angle=get("marks.orientation.angle", 0.0),
                polar=get("marks.orientation.polar", 0.0),
                azimuth=get("marks.orientation.azimuth", 0.0),
            )
        fault = "required" if kind is None else f"unknown kind {kind!r}"
        errors.append(f"marks.orientation.kind: {fault} (fixed|uniform)")
    except ConfigurationError as exc:
        errors.append(f"marks.orientation: {exc}")
    return None


def _build_box(pairs, get, prefix, d, errors, required) -> Box | None:
    lo_key, hi_key = f"{prefix}.lo", f"{prefix}.hi"
    if lo_key not in pairs and hi_key not in pairs:
        if required:
            errors.append(f"{prefix}.lo / {prefix}.hi: required")
        return None
    lo = get(lo_key, [], sep=",")
    hi = get(hi_key, [], sep=",")
    if len(lo) != d or len(hi) != d:
        errors.count(f"{prefix}: lo and hi need {d} components each")
        return None
    try:
        return Box(np.array(lo, float), np.array(hi, float))
    except ConfigurationError as exc:
        errors.append(f"{prefix}: {exc}")
        return None


def _build_x_grid(pairs, get, d, errors) -> np.ndarray | None:
    kind = pairs.get("x_grid.kind")
    if kind is None:
        return None
    if kind == "list":
        pts = get("x_grid.points", [], cast=_floats, sep=";")
        if not pts or any(len(p) != d for p in pts):
            errors.count(f"x_grid.points: needs {d}-d points separated by ';'")
            return None
        return np.array(pts)
    if kind == "lattice":
        lo = get("x_grid.lo", [], sep=",")
        hi = get("x_grid.hi", [], sep=",")
        shape = get("x_grid.shape", [], cast=_integer, sep=",")
        if len(lo) != d or len(hi) != d or len(shape) != d:
            errors.count(f"x_grid: lo, hi and shape need {d} components each")
            return None
        if any(s < 1 for s in shape):
            errors.append("x_grid.shape: all counts must be >= 1")
            return None
        if (count := math.prod(shape)) > MAX_GRID_POINTS:
            errors.append(f"x_grid.shape: {count} lattice points exceed the cap {MAX_GRID_POINTS}")
            return None
        points = np.empty((*shape, d))  # point (i_1, ..., i_d) in C order
        for k in range(d):  # coordinate k from axis k's linspace
            points[..., k] = np.linspace(lo[k], hi[k], shape[k]).reshape(-1, *[1] * (d - 1 - k))
        return points.reshape(-1, d)
    errors.append("x_grid.kind: must be lattice or list")
    return None

