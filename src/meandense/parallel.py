"""Order-normalized parallel map over picklable tasks.

Workers receive immutable arguments and return value objects; results are
returned in task order, so output never depends on the worker count or on
scheduling.  The pool never has more workers than tasks or usable CPUs;
with one worker everything runs in-process.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import ConfigurationError


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_threads() -> int:
    """MEANDENSE_THREADS if set (a positive integer), else the usable CPUs."""
    env = os.environ.get("MEANDENSE_THREADS")
    if not env:
        return usable_cpus()
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigurationError(f"MEANDENSE_THREADS must be a positive integer, got {env!r}")
    return threads


def pool_size(threads: int, tasks: int) -> int:
    """Workers for `tasks` tasks: min(threads, tasks, usable CPUs), at least 1."""
    if threads < 1:
        raise ConfigurationError(f"threads must be a positive integer, got {threads}")
    return max(1, min(threads, tasks, usable_cpus()))


def parallel_map(fn, tasks, threads: int = 1) -> list:
    tasks = list(tasks)
    workers = pool_size(threads, len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
