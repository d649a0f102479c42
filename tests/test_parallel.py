"""Worker pools: thread requests are validated and clamped before any pool
starts, and a pool starts only where the tasks can pay for it."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from meandense import ConfigurationError, parallel
from meandense.parallel import parallel_map, pool_size, usable_cpus


def test_pool_size_is_clamped_to_tasks_and_cpus(two_cpus):
    assert usable_cpus() == 2
    assert pool_size(64, 100) == 2
    assert pool_size(64, 1) == 1
    assert pool_size(1, 100) == 1
    assert pool_size(2, 0) == 1


@pytest.mark.parametrize("threads", [0, -3])
def test_pool_size_rejects_nonpositive_threads(threads):
    with pytest.raises(ConfigurationError, match="threads must be a positive integer"):
        pool_size(threads, 4)
    with pytest.raises(ConfigurationError):
        parallel_map(abs, [1, -2], threads)


class FakeClock:
    """parallel's clock: it moves only when a task says it took time."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def task(self, seconds):
        """abs(x) that takes `seconds` on this clock."""
        def fn(x):
            self.now += seconds
            return abs(x)
        return fn


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(parallel, "perf_counter", fake)
    return fake


def test_parallel_map_starts_the_clamped_pool(two_cpus, clock, pools):
    """Heavy tasks and an oversized request start a pool of the computed
    size only; the pool here is a stand-in that runs in-process."""
    heavy = clock.task(2 * parallel.POOL_COST_S)
    assert parallel_map(heavy, [-1, 2, -3], threads=1000) == [1, 2, 3]
    assert parallel_map(heavy, [-4], threads=1000) == [4]
    started = [p["workers"] for p in pools]
    assert started == [2]


def test_light_tasks_never_start_a_pool(two_cpus, clock, pools):
    light = clock.task(parallel.POOL_COST_S / 40)
    assert parallel_map(light, range(-10, 10), threads=2) == [abs(x) for x in range(-10, 10)]
    assert pools == []
    assert clock.now < parallel.POOL_COST_S


def test_heavy_tasks_start_one_pool_for_the_rest(monkeypatch, clock, pools):
    """The head runs in-process until it has cost a pool's price; one pool
    of min(threads, rest, CPUs) workers takes the rest, and results come
    back in task order."""
    heavy = clock.task(parallel.POOL_COST_S * 0.4)
    tasks = [-5, 4, -3, 2, -1, 0, 7, -8, 9, -10]
    for cpus, threads, workers in ((2, 8, 2), (8, 3, 3), (8, 64, 7)):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        pools.clear()
        assert parallel_map(heavy, tasks, threads) == [abs(x) for x in tasks]
        assert pools == [{"workers": workers, "tasks": tasks[3:]}]


def test_a_rest_too_short_to_pay_stays_in_process(two_cpus, clock, pools):
    """Two heavy tasks after the head would save one task at two workers,
    less than the pool costs."""
    heavy = clock.task(parallel.POOL_COST_S * 0.6)
    assert parallel_map(heavy, [1, -2, 3, -4], threads=2) == [1, 2, 3, 4]
    assert pools == []


def test_an_error_in_the_head_propagates_unchanged(two_cpus, clock, pools):
    error = ValueError("task 1 failed")

    def fn(x):
        clock.now += parallel.POOL_COST_S / 10
        if x == 1:
            raise error
        return x

    with pytest.raises(ValueError) as raised:
        parallel_map(fn, range(10), threads=2)
    assert raised.value is error
    assert pools == []


def test_a_pool_start_returns_the_memory_the_head_kept(two_cpus, clock, pools, monkeypatch):
    """The workers draw the tasks left after the head, so the parent hands
    the heap that keep_freed_memory keeps back to the kernel once, before
    the pool's imports and workers would stack on it; a map with no pool
    trims nothing."""
    trims = []

    class Glibc:
        def malloc_trim(self, pad):
            trims.append((pad, len(pools)))
            return 1

    monkeypatch.setattr(parallel, "_glibc", Glibc)
    heavy = clock.task(2 * parallel.POOL_COST_S)
    assert parallel_map(heavy, [-1, 2, -3], threads=2) == [1, 2, 3]
    assert parallel_map(heavy, [-4], threads=2) == [4]
    assert trims == [(0, 0)] and len(pools) == 1


def _kept(_):
    """Pool task: how often keep_freed_memory's cache was filled in this
    process, 1 once it has run."""
    return parallel.keep_freed_memory.cache_info().currsize


def test_pool_workers_run_keep_freed_memory(two_cpus, always_pool):
    """A real pool: its workers run keep_freed_memory as their initializer,
    so spawned or forkserver workers keep freed memory too.  The parent's
    cache is cleared first, so a forked worker cannot inherit a call."""
    parallel.keep_freed_memory.cache_clear()
    try:
        assert parallel_map(_kept, range(4), threads=2) == [1, 1, 1, 1]
    finally:
        parallel.keep_freed_memory()


def _run(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports meandense from this tree."""
    src = str(Path(parallel.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


def test_cli_import_needs_no_ctypes():
    """keep_freed_memory imports ctypes only when called (numpy may load it
    anyway), so the CLI imports where ctypes cannot, and the call then does
    nothing."""
    done = _run("import sys\n"
                "sys.modules['ctypes'] = None  # every import of ctypes now fails\n"
                "import meandense.cli\n"
                "print(meandense.cli.keep_freed_memory())\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="mallopt's thresholds are glibc's")
def test_kept_memory_stops_block_page_faults():
    """Once keep_freed_memory has run, a dense replicate run (about 6.5k
    segments per realization) reuses the block temporaries the last run
    freed: a few minor faults per call, where glibc's default thresholds
    return them to the kernel and fault in about 900 fresh pages per call."""
    done = _run(
        "import resource\n"
        "import numpy as np\n"
        "from meandense import (Box, IntensityField, LengthLaw, MarkDistribution,"
        " OrientationLaw, accumulate_hits)\n"
        "from meandense.parallel import keep_freed_memory\n"
        "keep_freed_memory()\n"
        "q = MarkDistribution('segment', length=LengthLaw('fixed', value=1.0),"
        " orientation=OrientationLaw('uniform', dim=2))\n"
        "side = np.linspace(0.5, 9.5, 10)\n"
        "xs = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)\n"
        "faults = []\n"
        "for _ in range(5):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    accumulate_hits(IntensityField('constant', c=50.0), q, xs, [0.1], 4, seed=1,"
        " window=Box([0.0, 0.0], [10.0, 10.0]))\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(faults[1:])  # the first call warms up\n")
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout)
    assert len(faults) == 4 and max(faults) < 100, faults


def test_cli_import_loads_no_process_pool():
    """parallel_map imports concurrent.futures only when it starts a pool,
    so importing the CLI leaves multiprocessing and the modules it brings
    (socket, subprocess, logging) unloaded."""
    code = ("import sys, meandense.cli\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing', 'socket', 'subprocess',"
            " 'logging') if m in sys.modules])\n")
    done = _run(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
