"""Config parsing/validation and command-line orchestration."""

import hashlib
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import meandense
from meandense import ConfigurationError, parse_config
from meandense import config as config_module
from meandense.boolean import checked_guard_margin
from meandense.cli import main
from meandense.estimate import accumulate_hits, convergence_study
from meandense.exact import density_grid
from meandense.geometry import Box, ball_volume
from meandense.grains import sausage_moment_rule
from meandense.minkowski import content_limit, ratio_bound
from meandense.poisson import sample_block
from references import lattice_points

FULL_CONFIG = """
# exercise every common key
d = 2
n = 1
seed = 42

intensity.kind = quadratic

marks.kind = segment_law
marks.length.kind = uniform
marks.length.lo = 0.5
marks.length.hi = 1.5
marks.orientation.kind = uniform

window.lo = -1, -1
window.hi = 1, 1

region.lo = 0, 0
region.hi = 1, 1

x_grid.kind = lattice
x_grid.lo = -1, -1
x_grid.hi = 1, 1
x_grid.shape = 3, 3

N = 1000
N_grid = 100, 200
replications = 4
bandwidth.c0 = 0.8
bandwidth.beta = 0.25
r = 0.1
r_grid = 0.2, 0.1, 0.05
r_max = 0.3
mc_points = 5000
mark_draws = 100
output = results
"""


def test_parse_full_config():
    cfg = parse_config(FULL_CONFIG)
    assert cfg.d == 2 and cfg.n == 1 and cfg.seed == 42
    assert cfg.intensity.kind == "quadratic"
    assert cfg.marks.kind == "segment"
    assert cfg.marks.length.lo == 0.5
    assert cfg.window.volume == pytest.approx(4.0)
    assert cfg.region.volume == pytest.approx(1.0)
    assert cfg.x_grid.shape == (9, 2)
    assert cfg.n_samples == 1000
    assert cfg.n_grid == [100, 200]
    assert cfg.bandwidth_radius(256) == pytest.approx(0.8 * 256 ** -0.25)
    assert cfg.fixed_r == 0.1
    assert cfg.r_grid == [0.2, 0.1, 0.05]
    assert cfg.replications == 4
    assert cfg.output == "results"
    assert cfg.query_radius() == 0.1


def test_scenario_id_ignores_comments_and_order():
    cfg = parse_config(FULL_CONFIG)
    reordered = "\n".join(reversed(FULL_CONFIG.strip().splitlines()))
    assert parse_config(reordered).scenario_id == cfg.scenario_id
    changed = FULL_CONFIG.replace("seed = 42", "seed = 43")
    assert parse_config(changed).scenario_id != cfg.scenario_id


def test_parse_deterministic_grain_kinds():
    base = """
d = 2
n = 1
intensity.kind = constant
intensity.c = 1
window.lo = 0, 0
window.hi = 1, 1
marks.kind = deterministic
"""
    seg = parse_config(base + "marks.grain.kind = segment\nmarks.grain.length = 2\n")
    assert seg.marks.grain.measure == pytest.approx(2.0)
    poly = parse_config(
        base + "marks.grain.kind = polyline\nmarks.grain.vertices = 0,0; 1,0; 1,1\n"
    )
    assert poly.marks.grain.vertices.shape == (3, 2)
    pt = parse_config(base.replace("n = 1", "n = 0") + "marks.grain.kind = point\n")
    assert pt.marks.grain.n == 0


def test_parse_piecewise_intensity():
    text = """
d = 2
n = 1
intensity.kind = piecewise
intensity.pieces = 2
intensity.piece1.lo = 0, 0
intensity.piece1.hi = 1, 1
intensity.piece1.value = 2.0
intensity.piece2.lo = 1, 0
intensity.piece2.hi = 2, 1
intensity.piece2.value = 0.5
marks.kind = deterministic
marks.grain.kind = segment
marks.grain.length = 1
window.lo = 0, 0
window.hi = 2, 1
"""
    cfg = parse_config(text)
    assert cfg.intensity.values([[0.5, 0.5], [1.5, 0.5]]).tolist() == [2.0, 0.5]


def test_errors_are_aggregated():
    bad = """
d = 5
n = 3
intensity.kind = wavelet
marks.kind = deterministic
marks.grain.kind = segment
bogus_key = 1
r = 3.0
replications = 1
"""
    with pytest.raises(ConfigurationError) as exc:
        parse_config(bad)
    message = str(exc.value)
    for fragment in ("d:", "intensity.kind", "bogus_key", "r:", "window", "replications:"):
        assert fragment in message, f"missing {fragment!r} in:\n{message}"


def test_n_equal_d_is_rejected():
    text = FULL_CONFIG.replace("n = 1", "n = 2")
    with pytest.raises(ConfigurationError, match="out of estimator scope"):
        parse_config(text)


def test_grain_dimension_must_match_n():
    text = FULL_CONFIG.replace("n = 1", "n = 0")
    with pytest.raises(ConfigurationError, match="Hausdorff dimension"):
        parse_config(text)


def test_beta_out_of_range_rejected():
    text = FULL_CONFIG.replace("bandwidth.beta = 0.25", "bandwidth.beta = 1.5")
    with pytest.raises(ConfigurationError, match="beta"):
        parse_config(text)
    # each schedule error is filed under the key that caused it
    text = FULL_CONFIG.replace("bandwidth.c0 = 0.8", "bandwidth.c0 = -1")
    with pytest.raises(ConfigurationError, match="bandwidth.c0: must be positive") as exc:
        parse_config(text)
    assert "bandwidth.beta" not in str(exc.value)


def test_malformed_line_reports_lineno():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config("d = 2\nnot a pair\n")


def test_lattice_points_cell_centered():
    pts = lattice_points(Box([0.0, 0.0], [1.0, 2.0]), [2, 2])
    assert pts.shape == (4, 2)
    assert np.allclose(sorted(set(pts[:, 0])), [0.25, 0.75])
    assert np.allclose(sorted(set(pts[:, 1])), [0.5, 1.5])


def _lattice_config(shape) -> str:
    d = len(shape)
    lo, hi = [-1.25, 0.1, 2.0][:d], [0.75, 0.3, 2.9][:d]
    return "\n".join([
        f"d = {d}", "n = 0", "intensity.kind = constant", "intensity.c = 1",
        "marks.kind = deterministic", "marks.grain.kind = point",
        f"window.lo = {', '.join(['-3'] * d)}", f"window.hi = {', '.join(['3'] * d)}",
        "x_grid.kind = lattice", f"x_grid.lo = {', '.join(map(str, lo))}",
        f"x_grid.hi = {', '.join(map(str, hi))}", f"x_grid.shape = {', '.join(map(str, shape))}",
    ]) + "\n"


@pytest.mark.parametrize("shape", [(4,), (1, 6), (6, 1), (2, 5), (3, 3, 3)])
def test_lattice_is_the_former_meshgrid_stack_bit_for_bit(shape):
    """x_grid, filled axis by axis, is the array that np.meshgrid (indexing
    "ij") and np.stack built from the same linspace axes, to the bit and in
    the same (C) order, also along an axis of one point."""
    sc = parse_config(_lattice_config(shape))
    axes = [np.linspace(lo, hi, count) for lo, hi, count in
            zip([-1.25, 0.1, 2.0], [0.75, 0.3, 2.9], shape)]
    former = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    assert sc.x_grid.shape == former.shape == (math.prod(shape), len(shape))
    assert sc.x_grid.tobytes() == former.tobytes()


def test_lattice_over_the_cap_is_refused_before_any_allocation():
    """A shape over MAX_GRID_POINTS is a violation before a point is built:
    parsing a 16 MB lattice, or one of 10^18 points, allocates under 1 MB."""
    import tracemalloc

    for shape in ((1001, 1000), (10 ** 9, 10 ** 9)):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="lattice points exceed the cap"):
                parse_config(_lattice_config(shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# CLI


MINI_EXACT = """
d = 2
n = 1
seed = 5
intensity.kind = quadratic
marks.kind = deterministic
marks.grain.kind = segment
marks.grain.length = 1
window.lo = -1, -1
window.hi = 1, 1
x_grid.kind = list
x_grid.points = 0,0; 0.5,0.5
output = out
"""

MINI_ESTIMATE = """
d = 2
n = 1
seed = 6
intensity.kind = constant
intensity.c = 1
marks.kind = segment_law
marks.length.kind = fixed
marks.length.value = 1
marks.orientation.kind = uniform
window.lo = 0, 0
window.hi = 1, 1
x_grid.kind = list
x_grid.points = 0.5, 0.5
N = 300
r = 0.1
output = out
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# The 0.2.0 CSV writers, copied as references: DensityField.to_csv (its
# method now read per row), MinkowskiRun.to_csv, MarkedGermSample.to_csv
# and the CLI's estimate, study and oracle loops, each applied to the
# library results of a run.


def _coord_header(d: int) -> str:
    return ",".join(f"x{k + 1}" for k in range(d))


def exact_csv_020(grid, field) -> str:
    d = grid.shape[1]
    cols = ",".join(f"x{k + 1}" for k in range(d))
    out = f"{cols},value,standard_error,method\n"
    for pt, v, se, method in zip(grid, *field):
        coords = ",".join(repr(float(c)) for c in pt)
        out += f"{coords},{float(v)!r},{float(se)!r},{method}\n"
    return out


def estimate_csv_020(cfg, xs, ind, radius) -> str:
    lines = [f"{_coord_header(cfg.d)},N,R_N,lambda_hat,se"]
    n_samples, codim = cfg.n_samples, cfg.d - cfg.n
    for i in range(xs.shape[0]):
        count = int(ind[i, 0])
        lam = count / n_samples / (ball_volume(codim) * radius ** codim)
        p = count / n_samples
        se = math.sqrt(p * (1 - p) / n_samples) / (ball_volume(codim) * radius ** codim)
        coords = ",".join(repr(float(c)) for c in xs[i])
        lines.append(f"{coords},{n_samples},{float(radius)!r},{lam!r},{se!r}")
    return "\n".join(lines) + "\n"


def study_csv_020(cfg, rows) -> str:
    lines = [
        f"scenario_id,{_coord_header(cfg.d)},N,R_N,lambda_hat,se,exact,bias,variance,mse,"
        "region_hat,region_exact"
    ]
    for row in rows:
        coords = ",".join(repr(float(c)) for c in row["x"])
        cells = ",".join(
            repr(float(row[k]))
            for k in ("R_N", "lambda_hat", "se", "exact", "bias", "variance",
                      "mse", "region_hat", "region_exact")
        )
        lines.append(f"{cfg.scenario_id},{coords},{row['N']},{cells}")
    return "\n".join(lines) + "\n"


def minkowski_csv_020(run, bound=None) -> str:
    out = "r,ratio,se,bound,target,limit_estimate\n"
    bound_s = "" if bound is None else repr(float(bound))
    for r, ratio, se in zip(run.r_grid, run.ratios, run.ratio_ses):
        out += (
            f"{float(r)!r},{float(ratio)!r},{float(se)!r},{bound_s},"
            f"{float(run.target)!r},{float(run.limit_estimate)!r}\n"
        )
    return out


def oracle_csv_020(cfg, coords, results) -> str:
    norm = ball_volume(cfg.d - cfg.n)
    lines = [f"{_coord_header(cfg.d)},r,prob,se,ratio"]
    for (x, r), (prob, se) in zip(coords, results):
        cs = ",".join(repr(float(c)) for c in x)
        ratio = prob / (norm * r ** (cfg.d - cfg.n))
        lines.append(f"{cs},{float(r)!r},{float(prob)!r},{float(se)!r},{float(ratio)!r}")
    return "\n".join(lines) + "\n"


def realization_csv_020(points, b, q) -> str:
    """0.2.0's writer, fed the law's grain for a deterministic law and each
    mark's vector (its end row b) for a segment law."""
    header = ",".join(f"germ_{k}" for k in range(points.shape[1]))
    if q.kind != "deterministic":
        kind = "segment"
        params = [";".join(repr(float(c)) for c in v) for v in b[:, 0]]
    else:
        v = q.grain.vertices
        if len(v) == 1:
            kind, one = "point", ""
        elif len(v) == 2:
            kind, one = "segment", ";".join(repr(float(c)) for c in v[1])
        else:
            kind = "polyline"
            one = ";".join(" ".join(repr(float(c)) for c in vertex) for vertex in v)
        params = [one] * len(points)
    rows = [
        ",".join(repr(float(c)) for c in p) + f",{kind},{ps}\n"
        for p, ps in zip(points, params)
    ]
    return f"{header},kind,params\n" + "".join(rows)


def test_cli_exact_writes_csv_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, MINI_EXACT)
    out = tmp_path / "run"
    assert main(["exact", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    text = (out / "exact.csv").read_text()
    lines = text.strip().splitlines()
    assert len(lines) == 3 and "np." not in text
    sc = parse_config(MINI_EXACT)
    grid = sc.grid_points()
    field = density_grid(sc.intensity, sc.marks, grid, mark_draws=sc.mark_draws, seed=5)
    assert text == exact_csv_020(grid, field)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "exact"
    assert manifest["seed"] == 5
    assert manifest["scenario_id"]


@pytest.mark.parametrize("comment", [
    "",
    "# ASCII only: \"quoted\", C:\\path\\to\\file, a tab\there\n",
    "# non-ASCII: café, Ω, 単位, 😀 and \"quotes\" \\ \\n \\u00e9 \x7f\n# second line\r\n",
])
def test_manifest_bytes_are_json_dumps_with_indent_2(tmp_path, comment):
    """The manifest is built value by value, yet its bytes are those of
    json.dumps(manifest, indent=2) plus a newline, whatever the config text
    echoed in it holds."""
    path = tmp_path / "scenario.cfg"
    path.write_text(comment + MINI_EXACT + comment, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["exact", "--config", str(path), "--out", str(out), "--threads", "1"]) == 0
    data = (out / "manifest.json").read_bytes()
    manifest = json.loads(data)
    assert list(manifest) == ["command", "seed", "threads", "scenario_id", "version",
                              "timestamp", "config"]
    assert manifest["config"] == path.read_text(encoding="utf-8")
    assert data == (json.dumps(manifest, indent=2) + "\n").encode()


def test_cli_estimate_runs(tmp_path):
    cfg = write_cfg(tmp_path, MINI_ESTIMATE)
    out = tmp_path / "run"
    assert main(["estimate", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    text = (out / "estimate.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "x1,x2,N,R_N,lambda_hat,se"
    cells = lines[1].split(",")
    assert float(cells[4]) >= 0.0
    sc = parse_config(MINI_ESTIMATE)
    xs, radius = sc.grid_points(), sc.query_radius()
    ind, _ = accumulate_hits(sc.intensity, sc.marks, xs, [radius], sc.n_samples, sc.seed)
    assert text == estimate_csv_020(sc, xs, ind, radius)


def test_cli_simulate_runs(tmp_path):
    cfg = write_cfg(tmp_path, MINI_ESTIMATE)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "realization.csv").read_text()
    assert text.splitlines()[0] == "germ_0,germ_1,kind,params"
    sc = parse_config(MINI_ESTIMATE)
    box = sc.window.dilate(checked_guard_margin(sc.marks, sc.fixed_r))
    points, _, b, _ = sample_block(sc.intensity, sc.marks, box, sc.seed, 0, 1)
    assert len(points) > 0
    assert text == realization_csv_020(points, b, sc.marks)


TWO_VERTEX = """
d = 2
n = 1
seed = 3
intensity.kind = constant
intensity.c = 2
marks.kind = deterministic
{grain}
window.lo = 0, 0
window.hi = 1, 1
x_grid.kind = list
x_grid.points = 0.5, 0.5; 0.3, 0.6
N = 200
r = 0.1
r_grid = 0.2, 0.1, 0.05
N_grid = 50, 100
replications = 2
bandwidth.c0 = 1
bandwidth.beta = 0.25
mc_points = 2000
"""


def test_cli_two_vertex_polyline_is_the_segment(tmp_path):
    """A polyline config with two vertices is the segment it describes:
    every sub-command writes the bytes of the equivalent segment config
    (study.csv but for its scenario_id, a hash of the config text), and
    realization.csv labels it a segment.  At this vector a segment's
    diameter (its norm, which sets the guard margin) and its extension by
    the certificate (scaled, which sets the Minkowski bound) differ in the
    last bit from a polyline's pairwise diameter and appended vertex."""
    grains = {
        "segment": "marks.grain.kind = segment\nmarks.grain.length = 0.6\nmarks.grain.angle = 1.5",
        # 0.6 (cos 1.5, sin 1.5), written exactly
        "polyline": "marks.grain.kind = polyline\n"
                    "marks.grain.vertices = 0,0; 0.042442321000621744,0.5984969919624327",
    }
    for command in ("exact", "estimate", "study", "minkowski", "oracle", "simulate"):
        outputs = {}
        for name, grain in grains.items():
            cfg = write_cfg(tmp_path, TWO_VERTEX.format(grain=grain), f"{name}.cfg")
            out = tmp_path / f"{command}-{name}"
            assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
            outputs[name] = {p.name: p.read_text() for p in out.glob("*.csv")}
            if command == "study":
                lines = outputs[name]["study.csv"].splitlines()
                outputs[name]["study.csv"] = [line.split(",", 1)[1] for line in lines]
        assert outputs["polyline"] == outputs["segment"] and outputs["segment"], command
    rows = outputs["segment"]["realization.csv"].splitlines()[1:]
    assert rows and all(row.split(",")[2] == "segment" for row in rows)


def _with_line(text, line):
    """text with `line` in place of the line of the same key, or added."""
    key = line.split("=")[0].strip()
    kept = [ln for ln in text.strip().splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


# the lines a key needs in the estimate config below before it is read, or
# to be the only fault besides r
_READ_WITH = {
    "bandwidth.c0": ("bandwidth.beta = 0.3",),
    "marks.grain.angle": ("marks.kind = deterministic", "marks.grain.kind = segment"),
    "marks.grain.kind": ("marks.kind = deterministic",),
    "x_grid.points": ("x_grid.kind = list",),
}

# lines whose violation is not their own key's: the grain kind's vertices
_REPORTED_AS = {
    "marks.grain.kind = polyline": "marks.grain.vertices: needs 2-d points separated by ';'",
}


@pytest.mark.parametrize("line", [
    "N_grid = 10, abc",
    "N_grid = 10.9, 20",
    "r_grid = 0.1, x",
    "intensity.c = abc",
    "x_grid.shape = 2, q",
    "x_grid.shape = 2.7, 3",
    "marks.length.value = abc",
    "window.lo = 0, a",
    "intensity.c = nan",
    "intensity.c = inf",
    "marks.grain.angle = inf",
    "marks.orientation.polar = inf",
    "x_grid.points = nan, 0.5",
    "x_grid.lo = 0.4, -inf",
    "bandwidth.c0 = nan",
    "r_grid = 0.1, nan",
    "bandwidth.beta = abc",
    "x_grid.hi = 1, inf",
    "marks.grain.kind = polyline",
])
def test_cli_unparsable_number_is_a_named_violation(tmp_path, capsys, line):
    """A value that does not parse as its number (an integer key given a
    fraction included), or parses to nan or an infinity, is a violation
    naming the key, and parsing goes on to report the others (here r = 5).
    Each fault is one line: a check that the default left behind by a bad
    value fails (a missing component, a missing schedule, a grain of the
    wrong dimension) does not report the key again."""
    key, value = (part.strip() for part in line.split("="))
    text = MINI_ESTIMATE
    for extra in ("x_grid.kind = lattice", "x_grid.lo = 0.4, 0.4", "x_grid.hi = 0.6, 0.6",
                  "x_grid.shape = 2, 2", "r = 5", *_READ_WITH.get(key, ()), line):
        text = _with_line(text, extra)
    out = tmp_path / "run"
    assert main(["estimate", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation"
    non_finite = any(word in value for word in ("nan", "inf"))
    reason = f"must be finite, got {value!r}" if non_finite else "cannot interpret"
    expected = _REPORTED_AS.get(line, f"{key}: {reason}")
    heading, *faults = error["message"].splitlines()
    assert heading == "invalid configuration:" and len(faults) == 2, faults
    assert "  r: must lie in (0, 2)" in faults
    assert any(fault.startswith(f"  {expected}") for fault in faults)
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_cli_rejects_seeds_outside_64_bits(tmp_path, capsys, seed):
    """Seeds outside [0, 2^64) used to alias in-range ones (-1 wrote the
    bytes of 2^64 - 1); the flag and the config key reject them by name."""
    cfg = write_cfg(tmp_path, MINI_ESTIMATE)
    out = tmp_path / "run"
    assert main(["estimate", "--config", cfg, "--out", str(out), "--seed", seed]) == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert "--seed must lie in [0, 2^64)" in message
    keyed = write_cfg(tmp_path, MINI_ESTIMATE.replace("seed = 6", f"seed = {seed}"), "keyed.cfg")
    assert main(["estimate", "--config", keyed, "--out", str(out)]) == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert "seed: must be a nonnegative 64-bit integer" in message
    assert not out.exists()
    top = ["--threads", "1", "--seed", str(2 ** 64 - 1)]
    assert main(["estimate", "--config", cfg, "--out", str(out)] + top) == 0


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, MINI_ESTIMATE)
    out1, out2, out3 = (tmp_path / f"run{i}" for i in range(3))
    main(["estimate", "--config", cfg, "--out", str(out1), "--threads", "1"])
    main(["estimate", "--config", cfg, "--out", str(out2), "--threads", "1",
          "--seed", "6"])
    main(["estimate", "--config", cfg, "--out", str(out3), "--threads", "1",
          "--seed", "999"])
    base = (out1 / "estimate.csv").read_bytes()
    assert base == (out2 / "estimate.csv").read_bytes()     # same seed as config
    assert base != (out3 / "estimate.csv").read_bytes()     # reseeded


def test_cli_missing_config_file():
    assert main(["exact", "--config", "/nonexistent/x.cfg"]) == 1


def test_cli_unwritable_out_is_a_validation_error(tmp_path, capsys, monkeypatch):
    """An --out below a regular file cannot be created: exit 1 with the
    JSON error line naming --out and the path.  Only the writes are
    caught: an OSError from the worker pool still propagates."""
    cfg = write_cfg(tmp_path, MINI_EXACT)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "run"
    assert main(["exact", "--config", cfg, "--out", str(out), "--threads", "1"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation"
    assert "--out" in error["message"] and str(out) in error["message"]

    def failing_pool(*args, **kwargs):
        raise OSError("pool failed")

    monkeypatch.setattr("meandense.exact.parallel_map", failing_pool)
    with pytest.raises(OSError, match="pool failed"):
        main(["exact", "--config", cfg, "--out", str(tmp_path / "ok"), "--threads", "1"])


def test_cli_rewrites_longer_outputs_in_place(tmp_path):
    """A run into an --out whose exact.csv and manifest.json are longer than
    what it writes leaves the fresh run's CSV bytes and a manifest that
    parses: each file is truncated to its new length, on the same inode."""
    cfg = write_cfg(tmp_path, MINI_EXACT)
    fresh, out = tmp_path / "fresh", tmp_path / "run"
    assert main(["exact", "--config", cfg, "--out", str(fresh), "--threads", "1"]) == 0
    out.mkdir()
    for name in ("exact.csv", "manifest.json"):
        old = (fresh / name).read_bytes()
        (out / name).write_bytes(b"9" * (2 * len(old) + 100))
    inode = (out / "exact.csv").stat().st_ino
    assert main(["exact", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    assert (out / "exact.csv").read_bytes() == (fresh / "exact.csv").read_bytes()
    assert (out / "exact.csv").stat().st_ino == inode
    assert json.loads((out / "manifest.json").read_text())["command"] == "exact"


def test_cli_rewrites_through_a_symlinked_output(tmp_path):
    """An --out file that is a symlink is followed: its target gets the new
    bytes and the link stays a link.  A link to /dev/null is written but
    not truncated, which a device refuses."""
    cfg = write_cfg(tmp_path, MINI_EXACT)
    fresh, out, elsewhere = tmp_path / "fresh", tmp_path / "run", tmp_path / "elsewhere"
    assert main(["exact", "--config", cfg, "--out", str(fresh), "--threads", "1"]) == 0
    out.mkdir()
    elsewhere.mkdir()
    target = elsewhere / "kept.csv"
    target.write_bytes(b"stale\n" * 1000)
    (out / "exact.csv").symlink_to(target)
    (out / "manifest.json").symlink_to(os.devnull)
    assert main(["exact", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    assert (out / "exact.csv").is_symlink() and (out / "manifest.json").is_symlink()
    assert os.readlink(out / "exact.csv") == str(target)
    assert target.read_bytes() == (fresh / "exact.csv").read_bytes()


def test_cli_invalid_config(tmp_path):
    cfg = write_cfg(tmp_path, "d = 7\n")
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_cli_repeated_key_is_a_violation(tmp_path, capsys):
    # MINI_ESTIMATE's line 16 is "r = 0.1"; line 18 repeats it, line 19 is unknown
    cfg = write_cfg(tmp_path, MINI_ESTIMATE + "r = 0.2\nbogus_key = 1\n")
    out = tmp_path / "run"
    assert main(["estimate", "--config", cfg, "--out", str(out), "--threads", "1"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation"
    assert "r: repeated on line 18, first given on line 16" in error["message"]
    assert "bogus_key" in error["message"]
    assert not out.exists()


def test_cli_numeric_error_reports_the_point(tmp_path, capsys):
    # |y|^2 overflows to inf along a grain placed 1e160 from the origin,
    # for the deterministic grain and for a random segment law
    deterministic = MINI_EXACT.replace("0,0; 0.5,0.5", "1e160, 0")
    grain = "marks.kind = deterministic\nmarks.grain.kind = segment\nmarks.grain.length = 1\n"
    segment_law = deterministic.replace(grain, (
        "marks.kind = segment_law\nmarks.length.kind = fixed\nmarks.length.value = 1\n"
        "marks.orientation.kind = uniform\nmark_draws = 50\n"))
    assert segment_law != deterministic
    for name, text in (("deterministic", deterministic), ("segment_law", segment_law)):
        cfg = write_cfg(tmp_path, text, f"{name}.cfg")
        out = str(tmp_path / name)
        assert main(["exact", "--config", cfg, "--out", out, "--threads", "1"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "numeric" and "non-finite" in error["message"]
        assert len(error["point"]) == 2
        assert all(isinstance(c, float) and math.isfinite(c) for c in error["point"])
        assert error["point"] == [1e160, 0.0]  # the grid point, not a quadrature node


def test_cli_field_past_the_float_range(tmp_path, capsys):
    """f(y) = max(0, 1 + 1e307 y1) is inf on every grain about x = (40, 0):
    the oracle writes P = 1 with SE 0 for a segment (the moment rule) and
    a polyline (Monte Carlo sausages), and exact exits 2 naming x."""
    text = MINI_EXACT.replace("intensity.kind = quadratic", (
        "intensity.kind = affine\nintensity.a = 1\nintensity.b = 1e307, 0")).replace(
        "0,0; 0.5,0.5", "40, 0") + "r_grid = 0.2, 0.1\nmc_points = 400\n"
    polyline = text.replace("marks.grain.kind = segment\nmarks.grain.length = 1", (
        "marks.grain.kind = polyline\nmarks.grain.vertices = 0,0; 0.5,0; 0.5,0.5"))
    assert polyline != text
    for name, grain in (("segment", text), ("polyline", polyline)):
        cfg, out = write_cfg(tmp_path, grain, f"{name}.cfg"), tmp_path / name
        assert main(["oracle", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        rows = (out / "oracle.csv").read_text().splitlines()  # x1,x2,r,prob,se,ratio
        assert [row.split(",")[3:5] for row in rows[1:]] == [["1.0", "0.0"]] * 2
        assert main(["exact", "--config", cfg, "--out", str(out), "--threads", "1"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "numeric" and "non-finite" in error["message"]
        assert error["point"] == [40.0, 0.0]


def test_cli_window_of_overflowing_volume_hits_the_germ_cap(tmp_path, capsys):
    # the guarded window's volume overflows to inf: refused by the germ
    # cap, with no RuntimeWarning on the way
    text = MINI_ESTIMATE.replace("window.lo = 0, 0\nwindow.hi = 1, 1",
                                 "window.lo = -1e200, -1e200\nwindow.hi = 1e200, 1e200")
    assert text != MINI_ESTIMATE
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation"
    assert error["message"] == "expected germ count inf per realization exceeds the cap 2000000"
    assert not out.exists()


def _validation_error(capsys, command, cfg, out):
    """Run `command` on the config file under RuntimeWarnings as errors,
    check that it exits 1 writing nothing, and return the JSON message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation"
    assert not out.exists()
    return error["message"]


@pytest.mark.parametrize("base, lines, key", [
    (MINI_ESTIMATE, ("marks.length.value = 1e200",), "marks.length"),
    (MINI_ESTIMATE, ("marks.length.kind = uniform", "marks.length.hi = 1e120"), "marks.length"),
    (MINI_ESTIMATE, ("marks.length.kind = trunc_exp", "marks.length.rate = 1e-200"),
     "marks.length"),
    (MINI_EXACT, ("marks.grain.length = 1e150",), "marks.grain"),
], ids=["fixed", "uniform", "trunc_exp", "deterministic"])
def test_cli_length_moment_past_the_float_range_is_a_named_violation(
        tmp_path, capsys, base, lines, key):
    """Under a quadratic field E[L^3] must be finite.  For these laws it is
    past the float range: L^3 overflows (fixed, the deterministic grain),
    hi^4 does in the uniform moment, and rate^3 underflows to 0 under
    3! / rate^3 (trunc_exp).  Each is a violation naming the law's key,
    not a traceback."""
    text = _with_line(base, "intensity.kind = quadratic")
    for line in lines:
        text = _with_line(text, line)
    message = _validation_error(capsys, "exact", write_cfg(tmp_path, text), tmp_path / "run")
    assert message.splitlines() == [
        "invalid configuration:", f"  {key}: quadratic intensity needs E[L^3] < infinity"]


@pytest.mark.parametrize("field, rate, cap, key", [
    ("constant", "1e300", "1e-299", "marks.length.rate"),
    ("quadratic", "1e300", "1e-299", "marks.length.rate"),
    ("constant", "1e103", None, "marks.length.rate"),
    ("constant", "1", "1e-200", "marks.length.cap"),
], ids=["rate", "rate-quadratic", "rate-default-cap", "cap"])
@pytest.mark.parametrize("command", ["exact", "oracle", "estimate"])
def test_cli_trunc_exp_moments_below_the_float_range_are_a_named_violation(
        tmp_path, capsys, command, field, rate, cap, key):
    """The length rule reads E[L^k], k <= 3.  Past rate * cap = 3 they are
    k! / rate^k, whose rate^k overflows (rate^3 at rate 1e103); below it
    cap^k E[(L / cap)^k], whose cap^2 underflows and rounds the variance to
    0.  Under every field, f = 1 included, each is one violation naming the
    key, at parse time, not a traceback; under |y|^2 it is not reported as
    an E[L^3] = infinity (the moment is tiny)."""
    text = MINI_ESTIMATE
    for line in (f"intensity.kind = {field}", "marks.length.kind = trunc_exp",
                 f"marks.length.rate = {rate}", "r_grid = 0.2, 0.1"):
        text = _with_line(text, line)
    if cap is not None:
        text = _with_line(text, f"marks.length.cap = {cap}")
    message = _validation_error(capsys, command, write_cfg(tmp_path, text), tmp_path / "run")
    lines = message.splitlines()
    assert lines[0] == "invalid configuration:" and len(lines) == 2
    assert lines[1].startswith(f"  {key}: rate {float(rate)!r} with cap ")
    assert "below the float range" in lines[1]


def _csv_row(path):
    """The first data row of a CSV as a dict."""
    return dict(zip(*(line.split(",") for line in path.read_text().splitlines()[:2])))


def test_cli_trunc_exp_lengths_at_a_tiny_rate_agree_with_exact(tmp_path):
    """At rate * cap = 1e-17, 1 - exp(-rate * cap) rounds to 0 and every
    inverted length with it; the lengths are near uniform on [0, cap], and
    the estimate agrees with exact's c E[L] = 0.5 within 3 SE."""
    text = _with_line(_with_line(_with_line(MINI_ESTIMATE, "marks.length.kind = trunc_exp"),
                                 "marks.length.rate = 1e-17"), "marks.length.cap = 1")
    cfg = write_cfg(tmp_path, _with_line(text, "N = 2000"))
    for command in ("exact", "estimate"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command),
                     "--threads", "1"]) == 0
    exact = float(_csv_row(tmp_path / "exact" / "exact.csv")["value"])
    row = _csv_row(tmp_path / "estimate" / "estimate.csv")
    assert exact == pytest.approx(0.5, rel=1e-12)
    assert abs(float(row["lambda_hat"]) - exact) <= 3.0 * float(row["se"])


@pytest.mark.parametrize("field, expected", [
    (("intensity.kind = constant",), 0.5),
    (("intensity.kind = quadratic",), 0.5 * 0.5 + 1.0 / 12.0),
], ids=["constant", "quadratic"])
def test_cli_exact_on_trunc_exp_at_a_vanishing_rate(tmp_path, field, expected):
    """rate = 1e-300 with cap 1 is the uniform law on [0, 1] up to rounding:
    exact writes c E[L] = 0.5 under a constant field and |x|^2 E[L] +
    E[L^3] / 3 = 0.25 + 1/12 at x = (0.5, 0.5) under |y|^2, where the
    moments k!/rate^k P(k+1, z)/P(1, z) underflowed."""
    text = MINI_ESTIMATE
    for line in ("marks.length.kind = trunc_exp", "marks.length.rate = 1e-300",
                 "marks.length.cap = 1", *field):
        text = _with_line(text, line)
    out = tmp_path / "run"
    assert main(["exact", "--config", write_cfg(tmp_path, text), "--out", str(out),
                 "--threads", "1"]) == 0
    assert float(_csv_row(out / "exact.csv")["value"]) == pytest.approx(expected, rel=1e-12)


CONFIGS = Path(__file__).parents[1] / "configs"
SRC = str(Path(meandense.__file__).resolve().parents[1])
PIECEWISE = (CONFIGS / "uniform_piecewise.cfg").read_text()
LATTICE = ("x_grid.kind = lattice", "x_grid.lo = 0.4, 0.4", "x_grid.hi = 0.6, 0.6")


def _edited(text, lines):
    """text with each `key = value` line in place of its key's, and each
    `-key` line's key removed."""
    for line in lines:
        if line.startswith("-"):
            text = "\n".join(ln for ln in text.splitlines()
                             if ln.split("=")[0].strip() != line[1:]) + "\n"
        else:
            text = _with_line(text, line)
    return text


def _assert_fault(tmp_path, capsys, command, text, faults):
    """`command` on text exits 1, writing nothing, with exactly these
    violation lines (one line without a heading when the sub-command
    refuses a valid config)."""
    message = _validation_error(capsys, command, write_cfg(tmp_path, text), tmp_path / "run")
    if message.startswith("invalid configuration:"):
        assert message.splitlines() == ["invalid configuration:", *(f"  {f}" for f in faults)]
    else:
        assert [message] == faults


@pytest.mark.parametrize("name, line, key", [
    ("minkowski_segment.cfg", "marks.grain.length = 1e200", "marks.grain"),
    ("stationary_segment.cfg", "marks.length.value = 1e200", "marks.length"),
])
@pytest.mark.parametrize("command", ["exact", "estimate", "study", "oracle", "minkowski",
                                     "simulate"])
def test_cli_length_past_the_kernel_bound_is_a_named_violation(
        tmp_path, capsys, name, line, key, command):
    """A grain length of 1e200 used to end in an overflow RuntimeWarning:
    in the grain's diameter, its H^1 measure, or the norms of the line and
    sausage kernels.  L_max must lie below 1e75, where the sausage moment
    rule's products (about L^4) stay finite."""
    _assert_fault(tmp_path, capsys, command, _edited((CONFIGS / name).read_text(), [line]),
                  [f"{key}: L_max = 1e+200 must be below 1e75"])


def test_cli_refused_n_is_one_violation(tmp_path, capsys):
    """n = -1 on segments_3d.cfg is refused once: the grain family's
    dimension is not checked against the default that stands in for n."""
    text = _edited((CONFIGS / "segments_3d.cfg").read_text(), ["n = -1"])
    _assert_fault(tmp_path, capsys, "exact", text, [
        "n: required, must satisfy 0 <= n < d (d=3); the n = d case is out of estimator scope"])


def test_cli_refused_d_is_one_violation(tmp_path, capsys):
    """d = 4 on segments_3d.cfg is refused once: its window and points are
    not counted against the d = 2 that stands in for d, nor is an n in
    {0, 1, 2}, which may suit the d that is meant (n = 0 against its
    segments is a fault of its own).  A missing n, n < 0 or n >= 3 fits no
    d and is still refused.  A valid d still counts components: a window
    of two components in d = 3 gets its line."""
    text = (CONFIGS / "segments_3d.cfg").read_text()
    refused_d = "d: required, must be in {1, 2, 3}"
    refused_n = ("n: required, must satisfy 0 <= n < d (d=2); "
                 "the n = d case is out of estimator scope")
    family = "marks: grain family has Hausdorff dimension 1, config says n = 0"
    for n, faults in (("n = 1", []), ("n = 2", []), ("n = 0", [family]), ("-n", [refused_n]),
                      ("n = -1", [refused_n]), ("n = 3", [refused_n])):
        _assert_fault(tmp_path, capsys, "exact", _edited(text, ["d = 4", n]), [refused_d, *faults])
    _assert_fault(tmp_path, capsys, "exact", _edited(text, ["window.lo = 0.5, 0.5"]),
                  ["window: lo and hi need 3 components each"])


def test_cli_main_parses_each_call_afresh(tmp_path, capsys):
    """main reuses one parser: oracle with --seed and --threads 2, a bad
    sub-command (exit 2), then exact with neither flag, all in one process,
    write the CSVs of separate processes, and exact reads the config's seed."""
    cfg = str(CONFIGS / "affine_clipped.cfg")
    runs = [["oracle", "--config", cfg, "--seed", "5", "--threads", "2"],
            ["exact", "--config", cfg]]
    assert main([*runs[0], "--out", str(tmp_path / "in" / "oracle")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", cfg])
    assert exc.value.code == 2
    assert main([*runs[1], "--out", str(tmp_path / "in" / "exact")]) == 0
    capsys.readouterr()
    src = str(Path(meandense.__file__).resolve().parents[1])
    for argv in runs:
        out = tmp_path / "alone" / argv[0]
        done = subprocess.run([sys.executable, "-m", "meandense.cli", *argv, "--out", str(out)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True)
        assert done.returncode == 0, done.stderr
        name = f"{argv[0]}.csv"
        assert (tmp_path / "in" / argv[0] / name).read_bytes() == (out / name).read_bytes()
    manifest = json.loads((tmp_path / "in" / "exact" / "manifest.json").read_text())
    assert manifest["seed"] == parse_config(Path(cfg).read_text()).seed != 5


def test_cli_oracle_on_the_cell_at_the_clip(tmp_path):
    """affine_clipped.cfg at x = (0.15, 0) and r = 0.15, where the cell's
    box corner x1 - (1 + r) rounds to -0.9999999999999999 and puts it on
    the mark rule: oracle writes prob = 1 - exp(-Λ), Λ = (2r + πr²)(1 + x1),
    SE 0, where it once exited 1 asking for a random stream."""
    text = _edited((CONFIGS / "affine_clipped.cfg").read_text(), [
        "-x_grid.lo", "-x_grid.hi", "-x_grid.shape", "x_grid.kind = list",
        "x_grid.points = 0.15, 0", "r_grid = 0.15"])
    out = tmp_path / "run"
    assert main(["oracle", "--config", write_cfg(tmp_path, text), "--out", str(out),
                 "--threads", "1"]) == 0
    row = _csv_row(out / "oracle.csv")
    lam = (2.0 * 0.15 + math.pi * 0.15 ** 2) * 1.15
    assert float(row["prob"]) == pytest.approx(1.0 - math.exp(-lam), rel=1e-12)
    assert float(row["se"]) == 0.0


def test_cli_radius_whose_normalizer_underflows_is_a_named_violation(tmp_path, capsys):
    """b_{d-n} r^{d-n} below the smallest normal float cannot divide a
    probability: an r or r_grid entry that makes it so is a violation
    naming the key, and so is a bandwidth radius under bandwidth.c0 in
    estimate and study.  exact never uses the radius and still runs."""
    configs = Path(__file__).parents[1] / "configs"
    three_d = _with_line((configs / "segments_3d.cfg").read_text(), "r_grid = 0.2, 0.1, 1e-200")
    segment = _with_line((configs / "minkowski_segment.cfg").read_text(),
                         "r_grid = 0.2, 1e-320, 0.05")
    for command, text, fault in (
        ("oracle", three_d, "r_grid: radius 1e-200 is too small: b_2 r^2 = 0.0"),
        ("minkowski", segment, "r_grid: radius 1e-320 is too small: b_1 r^1 = 2e-320"),
        ("estimate", _with_line(MINI_ESTIMATE, "r = 1e-320"),
         "r: radius 1e-320 is too small: b_1 r^1 = 2e-320"),
    ):
        cfg = write_cfg(tmp_path, text, f"{command}.cfg")
        message = _validation_error(capsys, command, cfg, tmp_path / command)
        assert message.splitlines() == ["invalid configuration:", f"  {fault}"]
    text = _with_line(_with_line(MINI_ESTIMATE, "N = 100"), "bandwidth.c0 = 1e-320")
    text = text.replace("r = 0.1\n", "") + (
        "bandwidth.beta = 0.3\nN_grid = 100, 200\nreplications = 2\nmark_draws = 10\n"
    )
    cfg = write_cfg(tmp_path, text, "narrow.cfg")
    for command in ("estimate", "study"):
        message = _validation_error(capsys, command, cfg, tmp_path / command)
        assert message.startswith("bandwidth.c0: the radius c0 N^(-beta) = ")
        assert message.endswith(" at N = 100 is too small: b_1 R^1 underflows")
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "exact"),
                 "--threads", "1"]) == 0


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_rejects_nonpositive_threads(tmp_path, capsys, threads):
    cfg = write_cfg(tmp_path, MINI_ESTIMATE)
    out = tmp_path / "run"
    assert main(["estimate", "--config", cfg, "--out", str(out), "--threads", threads]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation" and "--threads" in error["message"]
    assert not out.exists()


def test_cli_subcommand_preconditions(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINI_EXACT)  # has no N, no r_grid
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    est = write_cfg(tmp_path, MINI_ESTIMATE, "est.cfg")  # random marks
    assert main(["minkowski", "--config", est, "--out", str(tmp_path / "b")]) == 1
    assert main(["study", "--config", est, "--out", str(tmp_path / "c")]) == 1
    capsys.readouterr()
    two_radii = write_cfg(tmp_path, MINI_EXACT + "r_grid = 0.2, 0.1\n", "two.cfg")
    assert main(["minkowski", "--config", two_radii, "--out", str(tmp_path / "d")]) == 1
    assert "r_grid: need at least three radii" in json.loads(capsys.readouterr().err)["message"]
    repeated = write_cfg(tmp_path, MINI_EXACT + "r_grid = 0.2, 0.05, 0.05\n", "repeated.cfg")
    assert main(["minkowski", "--config", repeated, "--out", str(tmp_path / "e")]) == 1
    assert json.loads(capsys.readouterr().err)["message"].startswith(
        "r_grid: radii must be distinct")
    # the ratio bound of a constant field cannot extend a zero-length segment
    point_like = _with_line(MINI_EXACT, "marks.grain.length = 0").replace(
        "intensity.kind = quadratic", "intensity.kind = constant\nintensity.c = 1")
    cfg = write_cfg(tmp_path, point_like + "r_grid = 0.2, 0.1, 0.05\n", "zero.cfg")
    assert main(["minkowski", "--config", cfg, "--out", str(tmp_path / "f")]) == 1
    assert json.loads(capsys.readouterr().err)["message"] == (
        "marks.grain.length: cannot extend a zero-length segment")
    # c0 N^(-beta) = 50 * 100^(-0.3) = 12.6 is no radius in scope: estimate and
    # study name bandwidth.c0 and the N; exact never uses the radius
    text = _with_line(_with_line(MINI_ESTIMATE, "N = 100"), "bandwidth.c0 = 50")
    text = text.replace("r = 0.1\n", "") + (
        "bandwidth.beta = 0.3\nN_grid = 100, 200\nreplications = 2\nmark_draws = 10\n"
    )
    cfg = write_cfg(tmp_path, text, "wide.cfg")
    for command in ("estimate", "study"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "validation"
        assert error["message"].startswith("bandwidth.c0: the radius c0 N^(-beta)")
        assert "at N = 100 must be below 2" in error["message"]
        assert not out.exists()
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "exact"),
                 "--threads", "1"]) == 0


@pytest.mark.parametrize("command, base, lines, faults", [
    ("study", MINI_ESTIMATE, ("N_grid = ,", "bandwidth.c0 = 1", "bandwidth.beta = 0.3"),
     ["N_grid: needs at least one value, got ','"]),
    ("oracle", MINI_ESTIMATE, ("r_grid = ,",), ["r_grid: needs at least one value, got ','"]),
    ("estimate", PIECEWISE, ("intensity.pieces = -3",),
     ["intensity.pieces: must be a positive integer"]),
    ("estimate", PIECEWISE, ("intensity.pieces = 1",),
     [f"intensity.piece2.{part}: beyond intensity.pieces = 1" for part in ("lo", "hi", "value")]),
    ("estimate", PIECEWISE, ("intensity.pieceX.lo = 0, 0",),
     ["unknown key 'intensity.pieceX.lo'"]),
    ("estimate", PIECEWISE, ("intensity.pieces.hi = 1, 1",),
     ["unknown key 'intensity.pieces.hi'"]),
    ("estimate", MINI_ESTIMATE, ("marks.length.kind = normal",),
     ["marks.length.kind: unknown kind 'normal' (fixed|uniform|trunc_exp)"]),
    ("estimate", MINI_ESTIMATE, ("marks.orientation.kind = isotropic",),
     ["marks.orientation.kind: unknown kind 'isotropic' (fixed|uniform)"]),
    ("exact", MINI_EXACT, ("marks.grain.kind = circle",),
     ["marks.grain.kind: unknown kind 'circle' (point|segment|polyline)"]),
    # one point over the cap: an unchecked parser builds a 16 MB lattice
    ("estimate", MINI_ESTIMATE, LATTICE + ("x_grid.shape = 1001, 1000",),
     ["x_grid.shape: 1001000 lattice points exceed the cap 1000000"]),
], ids=["empty-N_grid", "empty-r_grid", "negative-pieces", "piece-beyond-pieces",
        "piece-number-not-an-integer", "pieces-with-a-part", "unknown-length-kind",
        "unknown-orientation-kind", "unknown-grain-kind", "lattice-over-the-cap"])
def test_cli_input_that_passed_silently_is_a_named_violation(
        tmp_path, capsys, command, base, lines, faults):
    """Each of these used to run: an empty N_grid or r_grid wrote a
    header-only CSV, intensity.pieces = -3 made f = 0, piece keys beyond
    the count or not of the form intensity.pieceK.{lo,hi,value} were
    ignored, and an unknown length, orientation or grain kind was reported
    as missing.  A lattice over MAX_GRID_POINTS was built before any check."""
    _assert_fault(tmp_path, capsys, command, _edited(base, lines), faults)


POINT_GRAIN = ("n = 0", "marks.kind = deterministic", "marks.grain.kind = point")


@pytest.mark.parametrize("command, base, lines, fault", [
    ("estimate", MINI_ESTIMATE, ("N = 0",), "N: must be positive"),
    ("estimate", MINI_ESTIMATE, ("N = -5",), "N: must be positive"),
    ("study", MINI_ESTIMATE, ("N_grid = 200, 100",), "N_grid: must be increasing positive integers"),
    ("study", MINI_ESTIMATE, ("N_grid = 0, 100",), "N_grid: must be increasing positive integers"),
    ("study", MINI_ESTIMATE, ("N_grid = 100, 100",),
     "N_grid: must be increasing positive integers"),
    ("oracle", MINI_ESTIMATE, ("r_grid = 0.1, 2",), "r_grid: all radii must lie in (0, 2)"),
    ("simulate", MINI_ESTIMATE, ("r_max = 2",), "r_max: must lie in [0, 2)"),
    ("simulate", MINI_ESTIMATE, ("r_max = -0.1",), "r_max: must lie in [0, 2)"),
    ("oracle", MINI_ESTIMATE, ("mc_points = 1",), "mc_points: must be at least 2"),
    ("exact", MINI_ESTIMATE, ("mark_draws = 1",), "mark_draws: must be at least 2"),
    ("estimate", MINI_ESTIMATE, ("marks.length.kind = trunc_exp", "marks.length.rate = 5e-324"),
     "marks.length: the law needs a finite diameter bound L_max"),
    ("estimate", MINI_ESTIMATE, ("intensity.kind = affine", "intensity.a = 1", "intensity.b = 1"),
     "intensity.b: needs 2 components"),
    ("estimate", PIECEWISE, ("intensity.piece1.lo = -2",),
     "intensity.piece1: lo/hi need 2 components"),
    ("estimate", PIECEWISE, ("intensity.piece2.value = -0.5",),
     "intensity: piecewise intensity values must be nonnegative"),
    ("estimate", MINI_ESTIMATE, ("marks.kind = random",),
     "marks.kind: unknown kind 'random'; use deterministic or segment_law"),
    ("estimate", MINI_ESTIMATE, ("marks.kind = deterministic",),
     "marks.grain.kind: required for deterministic marks (point|segment|polyline)"),
    ("exact", MINI_EXACT, ("marks.grain.length = -1.0",),
     "marks.grain.length: must be nonnegative, got -1.0"),
    ("estimate", MINI_ESTIMATE, ("-marks.length.kind",),
     "marks.length.kind: required (fixed|uniform|trunc_exp)"),
    ("estimate", MINI_ESTIMATE, ("-marks.orientation.kind",),
     "marks.orientation.kind: required (fixed|uniform)"),
    ("estimate", MINI_ESTIMATE,
     ("marks.length.kind = uniform", "marks.length.lo = 2", "marks.length.hi = 1"),
     "marks.length: uniform length law needs 0 <= lo <= hi"),
    ("estimate", MINI_ESTIMATE, ("window.lo = 1, 0", "window.hi = 0, 1"),
     "window: box with lo > hi: [1. 0.] / [0. 1.]"),
    ("estimate", MINI_ESTIMATE, LATTICE + ("x_grid.shape = 0, 2",),
     "x_grid.shape: all counts must be >= 1"),
    ("estimate", MINI_ESTIMATE, ("x_grid.kind = grid",), "x_grid.kind: must be lattice or list"),
    ("estimate", MINI_ESTIMATE, ("-r",), "config needs either r or bandwidth.{c0,beta} with N"),
    ("oracle", MINI_ESTIMATE, (), "oracle needs r_grid"),
    ("minkowski", MINI_EXACT, (), "minkowski needs r_grid"),
    # the cases of the bandwidth schedule class that this check replaced
    ("estimate", MINI_ESTIMATE, ("bandwidth.c0 = 1", "bandwidth.beta = 0"),
     "bandwidth.beta: beta must lie in (0, 1.0) for d=2, n=1; got 0.0"),
    ("estimate", MINI_ESTIMATE, ("bandwidth.c0 = 1", "bandwidth.beta = 1.0"),
     "bandwidth.beta: beta must lie in (0, 1.0) for d=2, n=1; got 1.0"),
    ("estimate", MINI_ESTIMATE, POINT_GRAIN + ("bandwidth.c0 = 1", "bandwidth.beta = 0.6"),
     "bandwidth.beta: beta must lie in (0, 0.5) for d=2, n=0; got 0.6"),
])
def test_cli_config_violation_names_its_key(tmp_path, capsys, command, base, lines, fault):
    """Each check of the config and of the sub-commands' preconditions
    exits 1 with the one line that names its key."""
    _assert_fault(tmp_path, capsys, command, _edited(base, lines), [fault])


def test_config_defaults_and_bandwidth_radius():
    """N in float notation is an integer, a config without x_grid queries
    the window's centre, and R_N = c0 N^(-beta) is computed in the config."""
    cfg = parse_config(_edited(MINI_ESTIMATE, (
        "N = 1e3", "-x_grid.kind", "-x_grid.points", "window.lo = 0, 1", "window.hi = 1, 3",
        "bandwidth.c0 = 1", "bandwidth.beta = 0.3333333333333333")))
    assert cfg.n_samples == 1000 and isinstance(cfg.n_samples, int)
    assert cfg.grid_points().tolist() == [[0.5, 2.0]]
    assert cfg.bandwidth == (1.0, 1.0 / 3.0)
    assert cfg.bandwidth_radius(1000) == pytest.approx(0.1)
    assert cfg.bandwidth_radius(8) == pytest.approx(0.5)
    assert cfg.bandwidth_radius(1000) == 1.0 * float(1000) ** (-1.0 / 3.0)


def test_cli_minkowski_runs(tmp_path):
    text_cfg = MINI_EXACT + "r_grid = 0.2, 0.1, 0.05\nmc_points = 20000\n"
    cfg = write_cfg(tmp_path, text_cfg)
    out = tmp_path / "run"
    assert main(["minkowski", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    text = (out / "minkowski.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "r,ratio,se,bound,target,limit_estimate"
    assert len(lines) == 4
    sc = parse_config(text_cfg)
    run = content_limit(sc.marks.grain, sc.intensity, sc.r_grid, mc_points=sc.mc_points,
                        seed=sc.seed)
    assert text == minkowski_csv_020(run)  # no bound: the intensity is not constant
    constant = text_cfg.replace("intensity.kind = quadratic",
                                "intensity.kind = constant\nintensity.c = 2")
    out = tmp_path / "constant"
    assert main(["minkowski", "--config", write_cfg(tmp_path, constant, "constant.cfg"),
                 "--out", str(out), "--threads", "1"]) == 0
    sc = parse_config(constant)
    run = content_limit(sc.marks.grain, sc.intensity, sc.r_grid, mc_points=sc.mc_points,
                        seed=sc.seed)
    bound = ratio_bound(sc.marks.grain)
    assert (out / "minkowski.csv").read_text() == minkowski_csv_020(run, bound)


def test_cli_oracle_runs(tmp_path, capsys):
    text = MINI_EXACT + "r_grid = 0.2, 0.1\nmc_points = 20000\nmark_draws = 10\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "run"
    assert main(["oracle", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    csv = (out / "oracle.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == "x1,x2,r,prob,se,ratio"
    assert len(lines) == 5  # 2 points x 2 radii
    sc = parse_config(text)
    coords = [(x, r) for x in sc.grid_points() for r in sc.r_grid]
    a, b = sc.marks.grain.rows()
    lams = [  # |y|² under a fixed segment: every cell is on the moment rule, SE 0
        (sausage_moment_rule(x - a, x - b, sc.intensity, r)[0], 0.0) for x, r in coords
    ]
    results = [(1.0 - math.exp(-lam), math.exp(-lam) * se) for lam, se in lams]
    assert csv == oracle_csv_020(sc, coords, results)
    # a nan intensity used to write nan in every prob, se and ratio cell and exit 0
    nan = text.replace("intensity.kind = quadratic", "intensity.kind = constant\nintensity.c = nan")
    out = tmp_path / "nan"
    assert main(["oracle", "--config", write_cfg(tmp_path, nan, "nan.cfg"), "--out", str(out),
                 "--threads", "1"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation" and "intensity.c: must be finite" in error["message"]
    assert not out.exists()


def test_cli_study_runs(tmp_path, monkeypatch):
    """study.csv repeats the scenario_id on every row, and the manifest
    holds it too: one run hashes the config text once."""
    text = MINI_ESTIMATE + (
        "N_grid = 100, 200\nreplications = 2\n"
        "bandwidth.c0 = 1.0\nbandwidth.beta = 0.25\nmark_draws = 50\n"
        "region.lo = 0.25, 0.25\nregion.hi = 0.75, 0.75\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "run"
    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(config_module, "hashlib", types.SimpleNamespace(sha256=sha256))
    assert main(["study", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    assert len(hashed) == 1
    monkeypatch.undo()
    csv = (out / "study.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("scenario_id,x1,x2,N,R_N,lambda_hat")
    assert len(lines) == 3  # 2 sample sizes x 1 point
    sc = parse_config(text)
    radii = [sc.bandwidth_radius(n_samples) for n_samples in sc.n_grid]
    rows = convergence_study(sc.intensity, sc.marks, sc.grid_points(), radii,
                             sc.n_grid, sc.replications, sc.seed, region=sc.region,
                             mark_draws=sc.mark_draws)
    assert csv == study_csv_020(sc, rows)


def test_cli_import_and_bundled_configs_do_not_load_scipy():
    """scipy takes a few hundred ms to import and the engine needs none of
    it: importing the CLI and parsing every bundled config, the truncated
    exponential law of trunc_exp_segment.cfg included, leaves it unloaded."""
    configs = sorted(CONFIGS.glob("*.cfg"))
    assert any("trunc_exp" in path.read_text(encoding="utf-8") for path in configs)
    code = (
        "import sys\n"
        "import meandense.cli\n"
        "from meandense.config import parse_config\n"
        "for path in sys.argv[1:]:\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        parse_config(fh.read()).grid_points()\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run([sys.executable, "-c", code, *map(str, configs)],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cli_runs_trunc_exp_without_scipy(tmp_path):
    """With scipy unimportable (sys.modules["scipy"] = None), exact,
    oracle, estimate and simulate each exit 0 on trunc_exp_segment.cfg and
    write their CSV: its moments and its inversion need numpy alone."""
    commands = ("exact", "oracle", "estimate", "simulate")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from meandense.cli import main\n"
        "cfg, out = sys.argv[1:]\n"
        f"for command in {commands!r}:\n"
        "    args = [command, '--config', cfg, '--out', f'{out}/{command}', '--threads', '1']\n"
        "    assert main(args) == 0, command\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(CONFIGS / "trunc_exp_segment.cfg"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    for command in commands:
        assert list((tmp_path / command).glob("*.csv")), command


def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    """A config holding byte 0xff exits 1 with the JSON error line, which
    names the file, not with a traceback, and writes nothing."""
    path = tmp_path / "scenario.cfg"
    path.write_bytes(MINI_EXACT.encode() + b"# \xff\n")
    out = tmp_path / "run"
    assert main(["exact", "--config", str(path), "--out", str(out), "--threads", "1"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert str(path) in error["message"] and "0xff" in error["message"]
    assert not out.exists()


def test_cli_reads_a_config_as_utf8_under_the_c_locale(tmp_path):
    """segment_clipped.cfg has a "±" in a comment.  Under LC_ALL=C with
    Python's UTF-8 mode off, the locale's encoding is ASCII on Linux; the
    CLI still reads the config as UTF-8, exits 0 and writes the bytes of a
    run here."""
    cfg = CONFIGS / "segment_clipped.cfg"
    assert not cfg.read_bytes().isascii()
    args = ["exact", "--config", str(cfg), "--threads", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "meandense.cli", *args, "--out", str(tmp_path / "c")],
        env={**os.environ, "PYTHONPATH": SRC, "LC_ALL": "C", "PYTHONUTF8": "0"},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert main([*args, "--out", str(tmp_path / "here")]) == 0
    for csv in (tmp_path / "here").glob("*.csv"):
        assert (tmp_path / "c" / csv.name).read_bytes() == csv.read_bytes()
