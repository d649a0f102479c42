"""Weighted Minkowski-content verification: sausage MC, limits and bounds."""

import math
import re

import numpy as np
import pytest

from meandense import (
    ConfigurationError,
    Grain,
    IntensityField,
    RegularityCertificate,
    bound_check,
    content_limit,
    sausage_integral,
)
from meandense.cli import main
from meandense.geometry import ball_volume
from meandense.minkowski import limit_diagnostics, ratio_bound
from meandense.streams import derive_key

class MonteCarloField:
    """A field's values and sup without its polynomial statement, so the
    sausage kernel integrates it by Monte Carlo."""

    def __init__(self, f):
        self.values = f.values
        self.sup = f.sup


CONSTANT = IntensityField("constant", c=1.0)
QUADRATIC = IntensityField("quadratic")
UNIT_SEGMENT = Grain.segment(np.array([1.0, 0.0]))


def test_sausage_integral_matches_stadium_area():
    # f ≡ 1 on a unit segment: area = 2r + πr² exactly
    for r in (0.2, 0.05):
        est, se = sausage_integral(UNIT_SEGMENT, MonteCarloField(CONSTANT), r, 400_000,
                                   derive_key(0, 0))
        expected = 2 * r + math.pi * r * r
        assert se > 0.0
        assert abs(est - expected) < 3.5 * se


def test_sausage_integral_point_grain_ball():
    # point grain: the sausage is the ball itself
    g = Grain.point(2)
    est, se = sausage_integral(g, MonteCarloField(CONSTANT), 0.3, 200_000, derive_key(1, 0))
    assert abs(est - math.pi * 0.09) < 3.5 * se


def test_sausage_integral_radius_validation():
    for r in (0.0, -0.5, 2.0):
        with pytest.raises(ConfigurationError):
            sausage_integral(UNIT_SEGMENT, CONSTANT, r, 100, derive_key(0, 0))


def test_content_limit_constant_intensity():
    run = content_limit(UNIT_SEGMENT, CONSTANT, [0.2, 0.1, 0.05, 0.02],
                        mc_points=400_000, seed=2)
    # exact ratio is 1 + πr/2; the cubature reproduces it with SE 0
    for r, ratio, se in zip(run.r_grid, run.ratios, run.ratio_ses):
        ref = 1.0 + math.pi * r / 2.0
        assert se == 0.0
        assert abs(ratio - ref) <= 3 * se + 1e-12 * abs(ref)
    assert run.target == pytest.approx(1.0)
    diag = limit_diagnostics(run)
    assert diag["within"]
    assert abs(run.limit_estimate - 1.0) < 0.01


def test_content_limit_quadratic_intensity():
    run = content_limit(UNIT_SEGMENT, QUADRATIC, [0.2, 0.1, 0.05, 0.02],
                        mc_points=400_000, seed=3)
    assert run.target == pytest.approx(1.0 / 3.0)
    # ratios decrease toward the line integral as r shrinks
    assert list(run.ratios) == sorted(run.ratios, reverse=True)
    assert limit_diagnostics(run)["within"]


def test_content_limit_polyline():
    poly = Grain.polyline([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]])
    run = content_limit(poly, CONSTANT, [0.1, 0.05, 0.02], mc_points=300_000, seed=4)
    assert run.target == pytest.approx(1.0)
    assert abs(run.limit_estimate - 1.0) < 0.05


def test_content_limit_validation():
    with pytest.raises(ConfigurationError):
        content_limit(UNIT_SEGMENT, CONSTANT, [0.2, 0.1], mc_points=100)
    with pytest.raises(ConfigurationError):
        content_limit(UNIT_SEGMENT, CONSTANT, [0.2, 0.1, 2.5], mc_points=100)
    # two equal smallest radii made the extrapolation 0/0 (nan, a RuntimeWarning)
    with pytest.raises(ConfigurationError, match="r_grid: radii must be distinct"):
        content_limit(UNIT_SEGMENT, CONSTANT, [0.2, 0.05, 0.05], mc_points=100)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_content_limit_refuses_a_radius_whose_normalizer_underflows():
    # b_2 r^2 underflows to 0 at r = 1e-200 in d = 3: the ratio was nan, with
    # an "invalid value encountered in divide" RuntimeWarning
    segment = Grain.segment([1.0, 0.0, 0.0])
    with pytest.raises(ConfigurationError,
                       match=re.escape("radius 1e-200 is too small: b_2 R^2 = 0.0")):
        content_limit(segment, CONSTANT, [0.2, 0.1, 1e-200], mc_points=100)


def test_content_limit_thread_invariance():
    one = content_limit(UNIT_SEGMENT, CONSTANT, [0.2, 0.1, 0.05], mc_points=50_000,
                        seed=5, threads=1)
    two = content_limit(UNIT_SEGMENT, CONSTANT, [0.2, 0.1, 0.05], mc_points=50_000,
                        seed=5, threads=3)
    assert np.array_equal(one.ratios, two.ratios)
    assert one.limit_estimate == two.limit_estimate


def test_ratio_bound_formula():
    cert = RegularityCertificate()
    # d=2, n=1, unit segment: gamma' = 1, bound = 2·16·π/2 = 16π
    assert ratio_bound(UNIT_SEGMENT, cert) == pytest.approx(16.0 * math.pi)
    # a length-2 segment halves gamma' and doubles the bound
    assert ratio_bound(Grain.segment(np.array([2.0, 0.0])), cert) == pytest.approx(32.0 * math.pi)
    # point grain in d=2 (n=0): 1·16·π/π = 16
    assert ratio_bound(Grain.point(2), cert) == pytest.approx(16.0)


def test_bound_check_positive_margin():
    run = content_limit(UNIT_SEGMENT, CONSTANT, [0.2, 0.1, 0.05], mc_points=100_000, seed=6)
    ok, margin = bound_check(run, RegularityCertificate())
    assert ok and margin > 0.0
    for value in (0.0, math.nan):
        with pytest.raises(ConfigurationError, match="constant intensity"):
            bound_check(run, RegularityCertificate(), constant_value=value)


def test_minkowski_csv_format(tmp_path):
    """The CLI writes content_limit's run for a unit segment under f = 1,
    with the uniform ratio bound 16 pi."""
    config = tmp_path / "minkowski.cfg"
    config.write_text(
        "d = 2\nn = 1\nseed = 7\nintensity.kind = constant\nintensity.c = 1\n"
        "marks.kind = deterministic\nmarks.grain.kind = segment\nmarks.grain.length = 1\n"
        "window.lo = 0, 0\nwindow.hi = 1, 1\nr_grid = 0.2, 0.1, 0.05\nmc_points = 20000\n"
    )
    out = tmp_path / "run"
    assert main(["minkowski", "--config", str(config), "--out", str(out), "--threads", "1"]) == 0
    text = (out / "minkowski.csv").read_text()
    run = content_limit(UNIT_SEGMENT, CONSTANT, [0.2, 0.1, 0.05], mc_points=20_000, seed=7)
    assert [float(line.split(",")[1]) for line in text.splitlines()[1:]] == run.ratios.tolist()
    lines = text.strip().splitlines()
    assert lines[0] == "r,ratio,se,bound,target,limit_estimate"
    assert len(lines) == 4
    assert "np." not in text
    first = lines[1].split(",")
    assert float(first[0]) == 0.2
    assert float(first[3]) == pytest.approx(16.0 * math.pi)
