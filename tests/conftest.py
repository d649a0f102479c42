import concurrent.futures
import os

import pytest

from meandense import parallel


@pytest.fixture
def always_pool(monkeypatch):
    """A pool costs nothing: every parallel_map with two or more tasks and
    threads forks its workers, however light the tasks."""
    monkeypatch.setattr(parallel, "POOL_COST_S", 0.0)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def pools(monkeypatch):
    """Stand-in for concurrent.futures.ProcessPoolExecutor, which
    parallel_map looks up when it starts a pool, that runs in-process;
    records the size of every pool started and the tasks it was given."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            self.record = {"workers": max_workers, "tasks": []}
            started.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            self.record["tasks"] = list(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started
