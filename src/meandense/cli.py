"""Command-line orchestration: scenario runs with deterministic seeding,
bounded parallelism and CSV emission.

    meandense <exact|estimate|study|minkowski|simulate|oracle>
              --config PATH [--seed U64] [--threads N] [--out DIR]

Exit codes: 0 success, 1 validation error, 2 numeric error.  Every run
writes its sub-command CSV plus a manifest (config echo, seed, version);
output bytes are identical for any thread count, only the manifest
timestamp varies.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .boolean import checked_guard_margin
from .config import ScenarioConfig, parse_config
from .errors import ConfigurationError, NumericError, QueryError
from .estimate import accumulate_hits, capacity_estimate, convergence_study
from .exact import capacity_probability, density_grid
from .geometry import ball_volume
from .grains import RegularityCertificate
from .minkowski import bound_check, content_limit, ratio_bound
from .parallel import parallel_map, usable_cpus
from .poisson import sample_block
from .streams import block_keys


def _write(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigurationError(
            f"--out (or the config's output key): cannot write {path}: {exc.strerror or exc}"
        ) from exc
    return path


def _manifest(out_dir: Path, command: str, cfg: ScenarioConfig, seed: int, threads: int):
    manifest = {
        "command": command,
        "seed": seed,
        "threads": threads,
        "scenario_id": cfg.scenario_id,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": cfg.raw_text,
    }
    _write(out_dir, "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _cell(v) -> str:
    """A float cell is its shortest round-trip repr; any other cell (an
    integer, a label, an empty bound) is its str."""
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _write_csv(out_dir: Path, name: str, header, rows) -> Path:
    """Every CSV of the CLI: the header and each row of cells joined with
    commas, one line each, ending with a newline."""
    lines = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
    return _write(out_dir, name, "\n".join(lines) + "\n")


def _realization_csv(points, a, b, n: int) -> tuple[list[str], list[list]]:
    """realization.csv's header and rows: per germ (a row of points) its
    coordinates, the kind of its grain and the grain's parameters (a
    segment's vector, a polyline's vertices; ';' between coordinates or
    vertices), written from its mark's rows a, b anchored at the origin;
    n is the grains' Hausdorff dimension."""
    if n == 0:
        kind, params = "point", [""] * len(points)
    elif b.shape[1] == 1:
        kind, params = "segment", [";".join(map(_cell, v)) for v in b[:, 0]]
    else:
        kind = "polyline"
        params = [";".join(" ".join(map(_cell, vertex)) for vertex in (ai[0], *bi))
                  for ai, bi in zip(a, b)]
    header = [f"germ_{k}" for k in range(points.shape[1])] + ["kind", "params"]
    return header, [[*p, kind, ps] for p, ps in zip(points, params)]


def run_exact(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    grid = cfg.grid_points()
    field = density_grid(
        cfg.intensity, cfg.marks, grid,
        mark_draws=cfg.mark_draws, seed=seed, threads=threads,
    )
    header = [f"x{k + 1}" for k in range(cfg.d)] + ["value", "standard_error", "method"]
    _write_csv(out_dir, "exact.csv", header, [
        [*x, v, se, field.method] for x, v, se in zip(grid, field.values, field.standard_errors)
    ])


def run_estimate(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.n_samples is None:
        raise ConfigurationError("estimate needs N")
    radius = cfg.query_radius()
    xs = cfg.grid_points()
    ind, _ = accumulate_hits(
        cfg.intensity, cfg.marks, xs, [radius], cfg.n_samples, seed, 0, threads
    )
    lam, se = capacity_estimate(ind[:, 0], cfg.n_samples, cfg.d, cfg.n, radius)
    header = [f"x{k + 1}" for k in range(cfg.d)] + ["N", "R_N", "lambda_hat", "se"]
    _write_csv(out_dir, "estimate.csv", header, [
        [*x, cfg.n_samples, radius, v, e] for x, v, e in zip(xs, lam, se)
    ])


def run_study(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.n_grid is None or cfg.bandwidth is None:
        raise ConfigurationError("study needs N_grid and a bandwidth schedule")
    radii = [cfg.bandwidth_radius(n_samples) for n_samples in cfg.n_grid]
    rows = convergence_study(
        cfg.intensity, cfg.marks, cfg.grid_points(), radii, cfg.n_grid,
        cfg.replications, seed, region=cfg.region,
        mark_draws=cfg.mark_draws, threads=threads,
    )
    values = ("R_N", "lambda_hat", "se", "exact", "bias", "variance", "mse",
              "region_hat", "region_exact")
    header = ["scenario_id", *(f"x{k + 1}" for k in range(cfg.d)), "N", *values]
    _write_csv(out_dir, "study.csv", header, [
        [cfg.scenario_id, *row["x"], row["N"], *(row[k] for k in values)] for row in rows
    ])


def run_minkowski(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.marks.kind != "deterministic":
        raise ConfigurationError("minkowski needs a deterministic grain (marks.kind = deterministic)")
    if cfg.r_grid is None:
        raise ConfigurationError("minkowski needs r_grid")
    grain, cert, bound = cfg.marks.grain, RegularityCertificate(), ""
    checked = cfg.intensity.kind == "constant" and cfg.intensity.c > 0
    if checked:
        try:  # the bound extends the grain: refuse a degenerate one before any work
            bound = ratio_bound(grain, cert)
        except ConfigurationError as exc:
            key = "marks.grain.length" if len(grain.vertices) == 2 else "marks.grain.vertices"
            raise ConfigurationError(f"{key}: {exc}") from None
    run = content_limit(
        grain, cfg.intensity, cfg.r_grid, mc_points=cfg.mc_points, seed=seed, threads=threads,
    )
    if checked:
        ok, margin = bound_check(run, cert, constant_value=cfg.intensity.c)
        if not ok:
            raise NumericError(f"uniform ratio bound violated (margin {margin})")
    header = ["r", "ratio", "se", "bound", "target", "limit_estimate"]
    _write_csv(out_dir, "minkowski.csv", header, [
        [r, ratio, se, bound, run.target, run.limit_estimate]
        for r, ratio, se in zip(run.r_grid, run.ratios, run.ratio_ses)
    ])


def run_simulate(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    r_max = cfg.r_max if cfg.r_max is not None else (cfg.fixed_r or 0.0)
    # the germs and marks that simulate() draws, written from their arrays
    box = cfg.window.dilate(checked_guard_margin(cfg.marks, r_max))
    points, a, b, _ = sample_block(cfg.intensity, cfg.marks, box, seed, 0, 1)
    _write_csv(out_dir, "realization.csv", *_realization_csv(points, a, b, cfg.marks.n))


def _oracle_task(args):
    return capacity_probability(*args)


def run_oracle(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.r_grid is None:
        raise ConfigurationError("oracle needs r_grid")
    xs = cfg.grid_points()
    cells = [(x, float(r)) for x in xs for r in cfg.r_grid]
    keys = block_keys(seed, 0, len(cells))
    tasks = [(cfg.intensity, cfg.marks, x, r, cfg.mc_points, cfg.mark_draws, int(k))
             for (x, r), k in zip(cells, keys)]
    results = parallel_map(_oracle_task, tasks, threads)
    header = [f"x{k + 1}" for k in range(cfg.d)] + ["r", "prob", "se", "ratio"]
    _write_csv(out_dir, "oracle.csv", header, [
        [*x, r, prob, se, prob / ball_volume(cfg.d - cfg.n, r)]
        for (x, r), (prob, se) in zip(cells, results)
    ])


_RUNNERS = {
    "exact": run_exact,
    "estimate": run_estimate,
    "study": run_study,
    "minkowski": run_minkowski,
    "simulate": run_simulate,
    "oracle": run_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meandense")
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise ConfigurationError(f"--seed must lie in [0, 2^64), got {args.seed}")
        seed = args.seed if args.seed is not None else cfg.seed
        if args.threads is not None and args.threads < 1:
            raise ConfigurationError(f"--threads must be a positive integer, got {args.threads}")
        threads = args.threads if args.threads is not None else usable_cpus()
        out_dir = Path(args.out) if args.out is not None else Path(cfg.output)
        _RUNNERS[args.command](cfg, seed, threads, out_dir)
        _manifest(out_dir, args.command, cfg, seed, threads)
    except (ConfigurationError, QueryError) as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 1
    except NumericError as exc:
        error = {"error": "numeric", "message": str(exc)}
        if exc.point is not None:
            error["point"] = [float(c) for c in np.atleast_1d(exc.point)]
        print(json.dumps(error), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
