"""Benchmark harness for meandense; README.md in this directory documents
the workloads and metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop of in-process calls to
``meandense.cli.main`` on configs generated from ``--seed``: one caller,
each invocation starts when the previous one returns, and every iteration
repeats the same inputs.  Every output CSV is checked against closed
forms.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The program is imported from ``src/`` of the checkout this file lives in;
without it the harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import calibration
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"
OUT_ROOT = ROOT / ".bench_out"

# Two-sided tail probability of a 4-SE normal deviation.  Each output row
# is tested at this level divided by the invocation's row count, so an
# invocation is falsely failed at most as often as one 4-SE test.
FOUR_SE_ALPHA = math.erfc(4.0 / math.sqrt(2.0))
SETUP_REPEATS = 5
# a timed phase of a traced run repeats at least this often, so that its
# counters can be compared between iterations
MIN_TRACED_ITERATIONS = 2

_SETUP_SNIPPET = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import calibration
before = calibration.loop_s()
t0 = time.perf_counter()
import meandense.cli
from meandense.config import parse_config
for path in sys.argv[3:]:
    with open(path) as fh:
        parse_config(fh.read()).grid_points()
elapsed = time.perf_counter() - t0
print(elapsed, calibration.scale(before, calibration.loop_s()))
"""


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import meandense from this checkout's src/, never from elsewhere."""
    if not (SRC / "meandense" / "__init__.py").is_file():
        raise HarnessError(f"no program source at {SRC / 'meandense'}")
    sys.path.insert(0, str(SRC))
    import meandense.cli

    if Path(meandense.cli.__file__).resolve().parent != SRC / "meandense":
        raise HarnessError(f"meandense was imported from {meandense.cli.__file__}")
    return meandense.cli


# ---------------------------------------------------------------------------
# workloads: generated configs and the checks of their outputs

SEGMENT_LAW = {
    "marks.kind": "segment_law",
    "marks.length.kind": "fixed",
    "marks.length.value": 1,
    "marks.orientation.kind": "uniform",
}
LENGTH = 1.0  # the fixed segment length above


def config_text(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def lattice(lo, hi, side) -> dict:
    return {
        "x_grid.kind": "lattice",
        "x_grid.lo": f"{lo}, {lo}",
        "x_grid.hi": f"{hi}, {hi}",
        "x_grid.shape": f"{side}, {side}",
    }


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def sausage_area(r: float) -> float:
    """Area of the r-sausage of a planar segment of length LENGTH."""
    return math.pi * r * r + 2.0 * r * LENGTH


def row_z(rows: int) -> float:
    """Normal quantile of the per-row test level (4 SE for a single row)."""
    from scipy.stats import norm

    return float(norm.isf(FOUR_SE_ALPHA / (2.0 * rows)))


def within(value: float, ref: float, se: float, z: float) -> bool:
    """|value - ref| <= z SE, with a round-off floor for rows whose
    standard error is exactly zero (a point where every mark gives the same
    integral)."""
    return abs(value - ref) <= z * se + 1e-9 * max(1.0, abs(ref))


def check_estimate(rows, *, c, r, n_samples, points):
    """Every lambda_hat matches the finite-r indicator mean
    (1 - exp(-c |sausage|)) / (2r): its hit count has a two-sided binomial
    tail probability of at least FOUR_SE_ALPHA / rows.  The exact tail keeps
    the test valid where the hit probability is close to 1."""
    from scipy.stats import binom

    if len(rows) != points:
        return [f"estimate.csv has {len(rows)} rows, expected {points}"]
    p = -math.expm1(-c * sausage_area(r))
    alpha = FOUR_SE_ALPHA / len(rows)
    problems = []
    for row in rows:
        n = int(row["N"])
        if n != n_samples or float(row["R_N"]) != r:
            problems.append(f"row {row}: N or R_N differs from the config")
            continue
        hits = float(row["lambda_hat"]) * 2.0 * r * n
        k = round(hits)
        if abs(hits - k) > 1e-6 * n:
            problems.append(f"row {row}: lambda_hat is not a hit fraction")
            continue
        tail = 2.0 * min(binom.cdf(k, n, p), binom.sf(k - 1, n, p))
        if tail < alpha:
            problems.append(
                f"x=({row['x1']}, {row['x2']}): lambda_hat {row['lambda_hat']} vs "
                f"{p / (2 * r)!r}, two-sided tail {tail:.3g} < {alpha:.3g}"
            )
    return problems


def check_exact(rows, *, points):
    """Every value is within 4 SE (per-row level as above) of the closed
    form (x1^2 + x2^2) E[L] + E[L^3]/3 for |y|^2 intensity."""
    if len(rows) != points:
        return [f"exact.csv has {len(rows)} rows, expected {points}"]
    z = row_z(len(rows))
    problems = []
    for row in rows:
        x1, x2 = float(row["x1"]), float(row["x2"])
        ref = (x1 * x1 + x2 * x2) * LENGTH + LENGTH ** 3 / 3.0
        if not within(float(row["value"]), ref, float(row["standard_error"]), z):
            problems.append(f"x=({x1}, {x2}): value {row['value']} vs {ref!r}")
    return problems


def check_oracle(rows, *, c, points):
    """Every hit probability is within 4 SE (per-row level as above) of the
    Poisson void probability 1 - exp(-c |sausage|)."""
    if len(rows) != points:
        return [f"oracle.csv has {len(rows)} rows, expected {points}"]
    z = row_z(len(rows))
    problems = []
    for row in rows:
        ref = -math.expm1(-c * sausage_area(float(row["r"])))
        if not within(float(row["prob"]), ref, float(row["se"]), z):
            problems.append(f"x=({row['x1']}, {row['x2']}), r={row['r']}: "
                            f"prob {row['prob']} vs {ref!r}")
    return problems


def check_minkowski(rows, *, c, radii):
    """limit_diagnostics(...)["within"] holds and the quadrature target is
    the closed form c * L."""
    from meandense.minkowski import limit_diagnostics

    if len(rows) != radii:
        return [f"minkowski.csv has {len(rows)} rows, expected {radii}"]
    target = float(rows[0]["target"])
    run = SimpleNamespace(
        r_grid=[float(row["r"]) for row in rows],
        ratio_ses=[float(row["se"]) for row in rows],
        limit_estimate=float(rows[0]["limit_estimate"]),
        target=target,
    )
    problems = []
    diag = limit_diagnostics(run)
    if not diag["within"]:
        problems.append(f"limit outside its band: {diag}")
    if abs(target - c * LENGTH) > 1e-9:
        problems.append(f"target {target!r} vs {c * LENGTH!r}")
    return problems


@dataclass(frozen=True)
class Command:
    """One CLI sub-command of a workload iteration."""

    sub: str
    config: dict        # config keys; "seed" is added per run
    check: object       # rows -> list of problems

    @property
    def csv_name(self) -> str:
        return f"{self.sub}.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    all_cores: bool     # --threads $(nproc) rather than 1
    commands: tuple
    replicates: int = 0  # realizations simulated per iteration


def _estimate(c, window, grid_lo, grid_hi, side, n_samples, r=0.1):
    keys = {
        "d": 2, "n": 1, "intensity.kind": "constant", "intensity.c": c,
        **SEGMENT_LAW,
        "window.lo": "0, 0", "window.hi": f"{window}, {window}",
        **lattice(grid_lo, grid_hi, side),
        "N": n_samples, "r": r,
    }
    check = lambda rows: check_estimate(rows, c=c, r=r, n_samples=n_samples,
                                        points=side * side)
    return Command("estimate", keys, check)


def _routes(exact_side, mark_draws, oracle_side, oracle_draws, oracle_points, mink_points):
    radii = (0.2, 0.1, 0.05)
    exact = {
        "d": 2, "n": 1, "intensity.kind": "quadratic", **SEGMENT_LAW,
        "window.lo": "-1, -1", "window.hi": "1, 1",
        **lattice(-1, 1, exact_side),
        "mark_draws": mark_draws,
    }
    oracle = {
        "d": 2, "n": 1, "intensity.kind": "constant", "intensity.c": 1.0,
        **SEGMENT_LAW,
        "window.lo": "0, 0", "window.hi": "1, 1",
        **lattice(0.1, 0.9, oracle_side),
        "r_grid": ", ".join(map(str, radii)),
        "mark_draws": oracle_draws, "mc_points": oracle_points,
    }
    mink_radii = (0.2, 0.1, 0.05, 0.02)
    minkowski = {
        "d": 2, "n": 1, "intensity.kind": "constant", "intensity.c": 1.0,
        "marks.kind": "deterministic", "marks.grain.kind": "segment",
        "marks.grain.length": LENGTH, "marks.grain.angle": 0,
        "window.lo": "-2, -2", "window.hi": "2, 2",
        "r_grid": ", ".join(map(str, mink_radii)), "mc_points": mink_points,
    }
    return (
        Command("exact", exact, lambda rows: check_exact(rows, points=exact_side ** 2)),
        Command("oracle", oracle, lambda rows: check_oracle(
            rows, c=1.0, points=oracle_side ** 2 * len(radii))),
        Command("minkowski", minkowski, lambda rows: check_minkowski(
            rows, c=1.0, radii=len(mink_radii))),
    )


def workloads(size: str = "full") -> dict[str, Workload]:
    """The benchmark's workloads; "smoke" is the self-test's smallest size."""
    full = size == "full"
    sparse_n = 250 if full else 20
    dense_n = 4 if full else 2
    dense_side = 10 if full else 2
    return {
        "sparse_estimate": Workload(
            "sparse_estimate", False,
            (_estimate(1.0, 1, 0.1, 0.9, 3, sparse_n),), sparse_n),
        "dense_estimate": Workload(
            "dense_estimate", True,
            (_estimate(50.0, dense_side, 0.5, dense_side - 0.5, dense_side, dense_n),),
            dense_n),
        "routes_parallel": Workload(
            "routes_parallel", True,
            _routes(5, 2000, 3, 150, 75_000, 500_000) if full
            else _routes(2, 50, 2, 20, 2_000, 20_000)),
    }


# ---------------------------------------------------------------------------
# running invocations


def derive_seed(workload: str, seed: int, sub: str) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{sub}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class Runner:
    """Runs a workload's iterations and checks every output.

    Iterations repeat identical inputs, so every output must be
    byte-identical to the first one of its sub-command, at any thread
    count; the first one is checked against the closed forms."""

    def __init__(self, cli, workload: Workload, seed: int, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.config_paths = {}
        for cmd in workload.commands:
            keys = dict(cmd.config, seed=derive_seed(workload.name, seed, cmd.sub))
            path = out_dir / f"{cmd.sub}.cfg"
            path.write_text(config_text(keys))
            self.config_paths[cmd.sub] = path
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first = {}  # sub -> (csv bytes, problems)

    def iteration(self, threads: int, call=None) -> dict[str, float]:
        """Run every sub-command once; returns seconds per sub-command."""
        call = call or self.cli.main
        times = {}
        for cmd in self.workload.commands:
            out = self.out_dir / cmd.sub
            argv = [cmd.sub, "--config", str(self.config_paths[cmd.sub]),
                    "--threads", str(threads), "--out", str(out)]
            t0 = time.perf_counter()
            try:
                code = call(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed invocation, not a harness error
                code = "exception: " + traceback.format_exc(limit=3)
            times[cmd.sub] = time.perf_counter() - t0
            self._verify(cmd, code, out / cmd.csv_name, threads)
        return times

    def _verify(self, cmd: Command, code, csv_path: Path, threads: int):
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        elif not csv_path.is_file():
            problems = [f"no {cmd.csv_name}"]
        else:
            data = csv_path.read_bytes()
            if cmd.sub not in self._first:
                self._first[cmd.sub] = (data, self._check(cmd, data))
            first, problems = self._first[cmd.sub]
            if data != first:
                problems = ["output differs from the first invocation's"]
        if problems:
            self.failed += 1
            self.problems.append(f"{cmd.sub} (threads={threads}): " + "; ".join(problems[:3]))

    @staticmethod
    def _check(cmd: Command, data: bytes) -> list[str]:
        try:
            return cmd.check(read_rows(data.decode()))
        except Exception as exc:  # malformed output fails the invocation
            return [f"unreadable {cmd.csv_name}: {exc!r}"]


@dataclass
class Sample:
    """One timed iteration."""

    wall_s: float       # raw wall time
    scale: float        # calibration factor to reference seconds
    times: dict         # raw seconds per sub-command
    layers: dict | None  # per-layer metrics, when traced

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


def timed_loop(runner: Runner, threads: int, seconds: float, min_iterations: int,
               tracer=None) -> list[Sample]:
    """Closed loop: iterations until `seconds` have passed.  At one thread
    each iteration runs between two calibration loops; with a pool the work
    runs in worker processes on CPUs the calibration does not measure (on
    the machine of calibration.py it made pooled times noisier), so pooled
    times stay raw."""
    samples = []
    call = None
    if tracer is not None:
        call = lambda argv: tracer.run("cli.self", runner.cli.main, argv)
    start = time.perf_counter()
    while len(samples) < min_iterations or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        before = calibration.loop_s() if threads == 1 else None
        times = runner.iteration(threads, call)
        scale = calibration.scale(before, calibration.loop_s()) if threads == 1 else 1.0
        samples.append(Sample(sum(times.values()), scale, times,
                              tracer.metrics() if tracer else None))
    return samples


def measure_setup(config_paths) -> list[tuple[float, float]]:
    """Fresh-process set-up: import of the program, config parsing and
    object construction, repeated SETUP_REPEATS times.  Returns (raw
    seconds, calibration factor) pairs."""
    argv = [sys.executable, "-c", _SETUP_SNIPPET, str(HERE), str(SRC),
            *map(str, config_paths)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise HarnessError(f"set-up failed: {done.stderr.strip()}")
        raw, scale = map(float, done.stdout.split()[-2:])
        samples.append((raw, scale))
    return samples


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak RSS among the pool
    workers it has waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(runner: Runner, threads: int, seconds: float, summary: list) -> dict:
    runner.iteration(threads)  # warm-up: checked, not timed
    samples = timed_loop(runner, threads, seconds, 1)
    rss = peak_rss_mb()  # before the set-up subprocesses become children
    setups = measure_setup(runner.config_paths.values())
    setup = statistics.median(raw * scale for raw, scale in setups)
    wall = statistics.median(s.ref_s for s in samples)
    raw = sorted(s.wall_s for s in samples)
    summary += [
        f"setup_s           {setup:.4f} s  (median of {len(setups)}; raw median "
        f"{statistics.median(raw for raw, _ in setups):.4f} s)",
        f"wall_s            {wall:.4f} s  (median of {len(samples)} iterations; raw median "
        f"{statistics.median(raw):.4f} s, min {raw[0]:.4f}, max {raw[-1]:.4f})",
    ]
    if threads == 1:
        summary.append(f"speed factor      {statistics.median(s.scale for s in samples):.3f}"
                       "  (reference seconds per raw second, median)")
    else:
        summary.append("speed factor      1 (pooled iterations are not calibrated)")
    if runner.workload.replicates:
        summary.append(f"replicates_per_s  {runner.workload.replicates / wall:.1f} 1/s")
    if len(runner.workload.commands) > 1:
        for cmd in runner.workload.commands:
            sub_s = statistics.median(s.times[cmd.sub] * s.scale for s in samples)
            summary.append(f"{cmd.sub + '_s':<18}{sub_s:.4f} s")
    summary.append(f"peak_rss_mb       {rss:.1f} MiB")
    return {"setup_s": setup, "wall_s": wall, "peak_rss_mb": rss}


def per_layer(runner: Runner, threads: int, seconds: float, summary: list, details: dict):
    """Three phases of seconds/3 each: untraced at one thread (the
    reference for the tracing overhead), every layer traced at one thread,
    and parallel_map traced at the workload's thread count, with worker
    counters shipped back to check thread invariance."""
    for t in sorted({1, threads}):  # warm-up of both thread counts: checked, not timed
        runner.iteration(t)
    phase = seconds / 3.0
    reference = timed_loop(runner, 1, phase, MIN_TRACED_ITERATIONS)
    traced = _traced_phase(runner, 1, phase, parallel=False)
    pooled = _traced_phase(runner, threads, phase, parallel=True)

    counters = [_counters(s.layers) for s in traced + pooled]
    details["counters_t1"] = counters[0]
    details["counters_tN"] = counters[-1]
    if any(c != counters[0] for c in counters[: len(traced)]):
        runner.problems.append("traced counters differ between iterations at threads=1")
    if any(c != counters[-1] for c in counters[len(traced):]):
        runner.problems.append(f"traced counters differ between iterations at threads={threads}")
    for key in tracing.THREAD_INVARIANT:
        if counters[0][key] != counters[-1][key]:
            runner.problems.append(f"{key}: {counters[0][key]} at threads=1, "
                                   f"{counters[-1][key]} at threads={threads}")

    def median_of(samples, key):
        return statistics.median(s.layers[key] * s.scale for s in samples)

    metrics = {k: (median_of(traced, k) if k.endswith("_s") else v)
               for k, v in traced[0].layers.items() if not k.startswith("parallel.")}
    metrics.update({k: (median_of(pooled, k) if k.endswith("_s") else v)
                    for k, v in pooled[0].layers.items() if k.startswith("parallel.")})
    metrics["trace.overhead_ratio"] = (statistics.median(s.ref_s for s in traced)
                                       / statistics.median(s.ref_s for s in reference))
    summary.append(f"traced iterations {len(traced)} at threads=1, {len(pooled)} at "
                   f"threads={threads}; untraced reference {len(reference)}")
    return metrics


def _traced_phase(runner, threads, seconds, parallel):
    tracer = tracing.Tracer()
    try:
        tracer.install(parallel=parallel)
        if tracer.missing:
            print(f"not traced, absent from the program: {tracer.missing}", file=sys.stderr)
        return timed_loop(runner, threads, seconds, MIN_TRACED_ITERATIONS, tracer)
    finally:
        tracer.uninstall()


def _counters(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


# ---------------------------------------------------------------------------
# machine, result and entry point


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    import numpy
    import scipy

    model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    return {
        "nproc": nproc(), "cpu_model": model,
        "l2_size": caches.get("l2"), "l3_size": caches.get("l3"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(DECLARATION.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload; returns (result, details).  The result is the JSON
    object the harness prints last; details holds the summary lines, the
    context and, for traced runs, the counters at both thread counts."""
    cli = import_program()
    workload = workloads(size)[name]
    threads = nproc() if workload.all_cores else 1
    out_dir = OUT_ROOT / f"{name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = [f"workload {name}  seed {seed}  threads {threads}  trace {int(trace)}"]
    details = {"summary": summary}
    try:
        runner = Runner(cli, workload, seed, out_dir)
        if trace:
            values = per_layer(runner, threads, seconds, summary, details)
        else:
            values = end_to_end(runner, threads, seconds, summary)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass
    units = declared_metrics(trace)
    if values.keys() != units.keys():
        raise HarnessError(f"metrics {sorted(values.keys() ^ units.keys())} are computed "
                           "or declared, not both")
    summary.append(f"fail_ratio        {runner.failed}/{runner.attempted} invocations")
    details["context"] = {
        "machine": machine(),
        "inputs": {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                   "threads": threads, "size": size,
                   "configs": {sub: p.name for sub, p in runner.config_paths.items()}},
    }
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    details["problems"] = runner.problems
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in dict.fromkeys(details["problems"]):
        print(f"check failed: {problem}", file=sys.stderr)
    print("\n".join(details["summary"]))
    print(json.dumps({"context": details["context"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
