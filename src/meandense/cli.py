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
from .estimate import accumulate_hits, convergence_study, _report_from_hits
from .exact import capacity_probability, density_grid
from .grains import RegularityCertificate
from .minkowski import bound_check, content_limit, limit_diagnostics
from .parallel import default_threads, parallel_map
from .poisson import sample_germs
from .streams import derive_stream

SUBCOMMANDS = ("exact", "estimate", "study", "minkowski", "simulate", "oracle")


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


def _coord_header(d: int) -> str:
    return ",".join(f"x{k + 1}" for k in range(d))


def run_exact(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    grid = cfg.grid_points()
    fieldvals = density_grid(
        cfg.intensity, cfg.marks, grid,
        mark_draws=cfg.mark_draws, seed=seed, threads=threads,
    )
    _write(out_dir, "exact.csv", fieldvals.to_csv())


def run_estimate(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.n_samples is None:
        raise ConfigurationError("estimate needs N")
    radius = cfg.query_radius()
    xs = cfg.grid_points()
    ind, _ = accumulate_hits(
        cfg.intensity, cfg.marks, xs, [radius], cfg.n_samples, seed, 0, threads
    )
    lines = [f"{_coord_header(cfg.d)},N,R_N,lambda_hat,se"]
    for i in range(xs.shape[0]):
        rep = _report_from_hits(xs[i], int(ind[i, 0]), cfg.n_samples, cfg.d, cfg.n, radius)
        coords = ",".join(repr(float(c)) for c in xs[i])
        lines.append(
            f"{coords},{cfg.n_samples},{float(radius)!r},"
            f"{float(rep.lambda_hat)!r},{float(rep.standard_error)!r}"
        )
    _write(out_dir, "estimate.csv", "\n".join(lines) + "\n")


def run_study(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.n_grid is None or cfg.bandwidth is None:
        raise ConfigurationError("study needs N_grid and a bandwidth schedule")
    rows = convergence_study(
        cfg.intensity, cfg.marks, cfg.grid_points(), cfg.bandwidth, cfg.n_grid,
        cfg.replications, seed, region=cfg.region,
        mark_draws=cfg.mark_draws, threads=threads,
    )
    lines = [
        f"scenario_id,{_coord_header(cfg.d)},N,R_N,lambda_hat,se,exact,bias,variance,mse,"
        "region_hat,region_exact"
    ]
    sid = cfg.scenario_id
    for row in rows:
        coords = ",".join(repr(float(c)) for c in row["x"])
        cells = ",".join(
            repr(float(row[k]))
            for k in ("R_N", "lambda_hat", "se", "exact", "bias", "variance",
                      "mse", "region_hat", "region_exact")
        )
        lines.append(f"{sid},{coords},{row['N']},{cells}")
    _write(out_dir, "study.csv", "\n".join(lines) + "\n")


def run_minkowski(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.marks.kind != "deterministic":
        raise ConfigurationError("minkowski needs a deterministic grain (marks.kind = deterministic)")
    if cfg.r_grid is None:
        raise ConfigurationError("minkowski needs r_grid")
    run = content_limit(
        cfg.marks.grain, cfg.intensity, cfg.r_grid,
        mc_points=cfg.mc_points, seed=seed, threads=threads,
    )
    bound = None
    if cfg.intensity.kind == "constant" and cfg.intensity.c > 0:
        cert = RegularityCertificate()
        ok, margin = bound_check(run, cert, constant_value=cfg.intensity.c)
        if not ok:
            raise NumericError(f"uniform ratio bound violated (margin {margin})")
        from .minkowski import ratio_bound

        bound = ratio_bound(run.shape, cert)
    _write(out_dir, "minkowski.csv", run.to_csv(bound))


def run_simulate(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    r_max = cfg.r_max if cfg.r_max is not None else (cfg.fixed_r or 0.0)
    # the germs and marks that simulate() draws, written from their arrays
    box = cfg.window.dilate(checked_guard_margin(cfg.marks, r_max))
    sample = sample_germs(cfg.intensity, cfg.marks, box, derive_stream(seed, 0))
    _write(out_dir, "realization.csv", sample.to_csv())


def _oracle_task(args):
    f, q, x, r, mc_points, mark_draws, seed, index = args
    prob, se = capacity_probability(
        f, q, x, r, mc_points=mc_points, mark_draws=mark_draws,
        rng=derive_stream(seed, index),
    )
    return prob, se


def run_oracle(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.r_grid is None:
        raise ConfigurationError("oracle needs r_grid")
    from .geometry import ball_volume

    xs = cfg.grid_points()
    tasks = []
    coords = []
    index = 0
    for i in range(xs.shape[0]):
        for r in cfg.r_grid:
            tasks.append(
                (cfg.intensity, cfg.marks, xs[i], float(r),
                 cfg.mc_points, cfg.mark_draws, seed, index)
            )
            coords.append((xs[i], float(r)))
            index += 1
    results = parallel_map(_oracle_task, tasks, threads)
    norm = ball_volume(cfg.d - cfg.n)
    lines = [f"{_coord_header(cfg.d)},r,prob,se,ratio"]
    for (x, r), (prob, se) in zip(coords, results):
        cs = ",".join(repr(float(c)) for c in x)
        ratio = prob / (norm * r ** (cfg.d - cfg.n))
        lines.append(f"{cs},{float(r)!r},{float(prob)!r},{float(se)!r},{float(ratio)!r}")
    _write(out_dir, "oracle.csv", "\n".join(lines) + "\n")


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
    parser.add_argument("command", choices=SUBCOMMANDS)
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
        threads = args.threads if args.threads is not None else default_threads()
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
