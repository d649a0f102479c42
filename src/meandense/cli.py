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
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .boolean import checked_guard_margin
from .config import ScenarioConfig, parse_config
from .errors import ConfigurationError, NumericError, QueryError
from .estimate import accumulate_hits, capacity_estimate, convergence_study
from .exact import capacity_grid, density_grid
from .geometry import ball_volume
from .minkowski import content_limit, ratio_bound
from .parallel import keep_freed_memory, usable_cpus
from .poisson import sample_block


def _unwritable(path: Path, exc: OSError) -> ConfigurationError:
    return ConfigurationError(
        f"--out (or the config's output key): cannot write {path}: {exc.strerror or exc}"
    )


def _write(out_dir: Path, name: str, text: str) -> Path:
    """Write text to out_dir/name in place: open without O_TRUNC (following
    a symlink, keeping the inode), write every byte, then truncate to the
    written length.  On ext4 (auto_da_alloc) closing a file that O_TRUNC
    cut to 0 starts its writeback; cutting it to its new length does not.
    Not atomic, as O_TRUNC was not: a crash mid-write leaves a partial file.
    Only a longer old file is truncated, so a device such as /dev/null
    (behind a symlink), whose size reads 0, is written and left as it is.
    A failed open makes out_dir (mkdir -p, raising its error) and retries."""
    path, data = out_dir / name, text.encode()
    try:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        except OSError:
            out_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:  # os.write may write less than it is given
                view = view[os.write(fd, view):]
            if os.fstat(fd).st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    return path


def _manifest(out_dir: Path, command: str, cfg: ScenarioConfig, seed: int, threads: int):
    """manifest.json: the bytes of json.dumps(manifest, indent=2), whose
    indent takes the pure-Python encoder, from C-encoded values; no key
    needs escaping, and the two integers are their repr, as in json."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _write(out_dir, "manifest.json", (
        f'{{\n  "command": {json.dumps(command)},\n  "seed": {seed:d},\n'
        f'  "threads": {threads:d},\n  "scenario_id": {json.dumps(cfg.scenario_id)},\n'
        f'  "version": {json.dumps(__version__)},\n  "timestamp": {json.dumps(stamp)},\n'
        f'  "config": {json.dumps(cfg.raw_text)}\n}}\n'))


def _cell(v) -> str:
    """A float cell is its shortest round-trip repr; any other cell (an
    integer, a label, an empty bound) is its str.  A Python float, as the
    callers' .tolist() gives, needs no conversion."""
    if type(v) is float:
        return repr(v)
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _write_csv(out_dir: Path, name: str, header, rows) -> Path:
    """Every CSV of the CLI: the header and each row of cells joined with
    commas, one line each, ending with a newline."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
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
        kind, params = "segment", [";".join(map(_cell, v)) for v in b[:, 0].tolist()]
    else:
        kind = "polyline"
        params = [";".join(" ".join(map(_cell, vertex)) for vertex in (ai[0], *bi))
                  for ai, bi in zip(a.tolist(), b.tolist())]
    header = [f"germ_{k}" for k in range(points.shape[1])] + ["kind", "params"]
    return header, [[*p, kind, ps] for p, ps in zip(points.tolist(), params)]


def run_exact(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    grid = cfg.grid_points()
    values, ses, methods = density_grid(
        cfg.intensity, cfg.marks, grid,
        mark_draws=cfg.mark_draws, seed=seed, threads=threads,
    )
    header = [f"x{k + 1}" for k in range(cfg.d)] + ["value", "standard_error", "method"]
    _write_csv(out_dir, "exact.csv", header, [
        [*x, v, se, method] for x, v, se, method in zip(
            grid.tolist(), values.tolist(), ses.tolist(), methods.tolist())
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
        [*x, cfg.n_samples, radius, v, e]
        for x, v, e in zip(xs.tolist(), lam.tolist(), se.tolist())
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
        [cfg.scenario_id, *row["x"].tolist(), row["N"], *(row[k] for k in values)]
        for row in rows
    ])


def run_minkowski(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.marks.kind != "deterministic":
        raise ConfigurationError("minkowski needs a deterministic grain (marks.kind = deterministic)")
    if cfg.r_grid is None:
        raise ConfigurationError("minkowski needs r_grid")
    grain, bound = cfg.marks.grain, ""
    checked = cfg.intensity.kind == "constant" and cfg.intensity.c > 0
    if checked:
        try:  # the bound extends the grain: refuse a degenerate one before any work
            bound = ratio_bound(grain)
        except ConfigurationError as exc:
            key = "marks.grain.length" if len(grain.vertices) == 2 else "marks.grain.vertices"
            raise ConfigurationError(f"{key}: {exc}") from None
    run = content_limit(
        grain, cfg.intensity, cfg.r_grid, mc_points=cfg.mc_points, seed=seed, threads=threads,
    )
    if checked:
        scaled = run.ratios / cfg.intensity.c  # the ratios of f ≡ 1; NaN fails
        if not (scaled <= bound).all():
            margin = float((bound - scaled).min())
            raise NumericError(f"uniform ratio bound violated (margin {margin})")
    header = ["r", "ratio", "se", "bound", "target", "limit_estimate"]
    _write_csv(out_dir, "minkowski.csv", header, [
        [r, ratio, se, bound, run.target, run.limit_estimate]
        for r, ratio, se in zip(run.r_grid.tolist(), run.ratios.tolist(), run.ratio_ses.tolist())
    ])


def run_simulate(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    r_max = cfg.r_max if cfg.r_max is not None else (cfg.fixed_r or 0.0)
    # replicate 0 on the window guarded for r_max, written from its arrays
    box = cfg.window.dilate(checked_guard_margin(cfg.marks, r_max))
    points, a, b, _ = sample_block(cfg.intensity, cfg.marks, box, seed, 0, 1)
    _write_csv(out_dir, "realization.csv", *_realization_csv(points, a, b, cfg.marks.n))


def run_oracle(cfg: ScenarioConfig, seed: int, threads: int, out_dir: Path):
    if cfg.r_grid is None:
        raise ConfigurationError("oracle needs r_grid")
    xs = cfg.grid_points()
    probs, ses = capacity_grid(cfg.intensity, cfg.marks, xs, cfg.r_grid, cfg.mc_points,
                               cfg.mark_draws, seed, threads)
    header = [f"x{k + 1}" for k in range(cfg.d)] + ["r", "prob", "se", "ratio"]
    norms = [ball_volume(cfg.d - cfg.n, r) for r in cfg.r_grid]
    _write_csv(out_dir, "oracle.csv", header, [
        [*x, r, prob, se, prob / norm]
        for x, row_probs, row_ses in zip(xs.tolist(), probs.tolist(), ses.tolist())
        for r, norm, prob, se in zip(cfg.r_grid, norms, row_probs, row_ses)
    ])


_RUNNERS = {
    "exact": run_exact,
    "estimate": run_estimate,
    "study": run_study,
    "minkowski": run_minkowski,
    "simulate": run_simulate,
    "oracle": run_oracle,
}


# built once: parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(prog="meandense")
_PARSER.add_argument("command", choices=_RUNNERS)
_PARSER.add_argument("--config", required=True)
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--threads", type=int, default=None)
_PARSER.add_argument("--out", default=None)


def main(argv=None) -> int:
    keep_freed_memory()
    args = _PARSER.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a decode error does not name the file
        message = str(exc) if isinstance(exc, OSError) else f"{args.config}: {exc}"
        print(json.dumps({"error": "config", "message": message}), file=sys.stderr)
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
