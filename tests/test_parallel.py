"""Worker-pool sizing: thread requests are validated and clamped before any
pool starts."""

import os

import pytest

from meandense import ConfigurationError, parallel
from meandense.parallel import default_threads, parallel_map, pool_size, usable_cpus


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


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


def test_parallel_map_starts_the_clamped_pool(two_cpus, monkeypatch):
    """An oversized request starts a pool of the computed size only; the
    pool here is a stand-in that runs in-process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    assert parallel_map(abs, [-1, 2, -3], threads=1000) == [1, 2, 3]
    assert parallel_map(abs, [-4], threads=1000) == [4]
    assert started == [2]


def test_default_threads_reads_a_positive_environment_value(two_cpus, monkeypatch):
    monkeypatch.delenv("MEANDENSE_THREADS", raising=False)
    assert default_threads() == 2
    monkeypatch.setenv("MEANDENSE_THREADS", "3")
    assert default_threads() == 3
    for bad in ("0", "-1", "many"):
        monkeypatch.setenv("MEANDENSE_THREADS", bad)
        with pytest.raises(ConfigurationError, match="MEANDENSE_THREADS"):
            default_threads()
