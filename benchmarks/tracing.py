"""Per-layer timers and counters for the benchmark, installed by patching.

The tracer wraps the public entry points of the meandense modules inside
the benchmark process.  Each wrapper replaces the name its callers
resolve: ``simulate`` calls ``meandense.boolean.sample_germs``, so that
binding, and every other module binding of the same function, is swapped
for a timed wrapper.  No program file changes.

A layer's self time is the duration of its wrapped call minus the time
covered by wrapped calls beneath it.  Counting work done after a call
(for example summing segments over a realization) is tracing overhead: it
is excluded from every layer's self time.  Entry points that a later
version of the program no longer has are listed in ``Tracer.missing`` and
their metrics read 0.

Pool workers: when ``parallel_map`` is wrapped, every task runs through
``_ShippedTask``, which returns the worker's counters with the result, so
counters are complete at any thread count.  Worker self times are not
shipped; layer times come from runs at one thread, where every layer runs
in the benchmark process.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pickle
import sys
import time
import weakref
from collections import defaultdict

# span name -> reported as "<name>_s" (self time in seconds)
SPANS = (
    "streams.derive",
    "poisson.sample_germs",
    "grains.sample_marks",
    "grains.grain_distances",
    "boolean.simulate",
    "boolean.assembly",
    "boolean.first_query",
    "boolean.query",
    "geometry.segment_distances",
    "estimate.accumulate_hits",
    "exact.density_grid",
    "exact.capacity_probability",
    "exact.sausage",
    "minkowski.content_limit",
    "minkowski.sausage",
    "parallel.map",
    "config.parse",
    "cli.self",
)

# integer counters reported as they are
COUNTERS = (
    "streams.derive_calls",
    "poisson.proposals",
    "poisson.accepted",
    "grains.marks",
    "grains.grain_distance_rows",
    "boolean.queries",
    "geometry.segment_rows",
    "geometry.as_point_calls",
    "estimate.replicates",
    "exact.mark_integrals",
    "exact.sausage_calls",
    "exact.sausage_points",
    "exact.max_points_per_call",
    "minkowski.sausage_points",
    "parallel.tasks",
    "parallel.workers",
    "parallel.task_bytes",
)

# counters that must not depend on the thread count
THREAD_INVARIANT = ("poisson.proposals", "boolean.queries", "estimate.replicates")

_active = None  # the tracer whose wrappers are installed in this process


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Self-time and counter accumulator with patch install/uninstall."""

    def __init__(self):
        self._stack = []      # one [child_seconds] cell per open span
        self._patches = []    # (owner, attribute, original)
        self.missing = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._queried = weakref.WeakSet()  # realizations already queried

    def reset(self):
        """Forget what was recorded; installed wrappers keep recording."""
        self.self_s.clear()
        self.counts.clear()
        self._queried = weakref.WeakSet()

    # -- spans --------------------------------------------------------------

    def _open(self):
        cell = [0.0]
        self._stack.append(cell)
        return cell

    def _close(self, name, cell, call_s, outer_s):
        """Close a span whose wrapped call took call_s and whose whole
        wrapper, hooks included, took outer_s."""
        self._stack.pop()
        self.self_s[name] += call_s - cell[0]
        if self._stack:
            self._stack[-1][0] += outer_s

    def run(self, name, fn, /, *args, after=None, **kwargs):
        """Call fn as span `name`; after(result, args, kwargs) counts work."""
        cell = self._open()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = time.perf_counter()
            self._close(name, cell, t1 - t0, t1 - t0)
            raise
        t1 = time.perf_counter()
        if after is not None:
            after(result, args, kwargs)
        self._close(name, cell, t1 - t0, time.perf_counter() - t0)
        return result

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        c = self.counts
        out = {f"{name}_s": self.self_s.get(name, 0.0) for name in SPANS}
        out.update({name: c.get(name, 0) for name in COUNTERS})
        out["poisson.accept_ratio"] = _ratio(c["poisson.accepted"], c["poisson.proposals"])
        out["boolean.hit_ratio"] = _ratio(c["boolean.hits"], c["boolean.queries"])
        out["boolean.segments_per_realization"] = _ratio(
            c["boolean.segments"], c["boolean.realizations"]
        )
        return out

    # -- patching -----------------------------------------------------------

    def _swap(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _wrap_function(self, module_name, attribute, make_wrapper):
        """Replace every meandense module binding of module.attribute with
        make_wrapper(original)."""
        try:
            original = getattr(importlib.import_module(module_name), attribute)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attribute}")
            return
        wrapper = make_wrapper(original)
        wrapper.__wrapped__ = original
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "meandense" and getattr(module, attribute, None) is original:
                self._swap(module, attribute, wrapper)

    def _wrap_method(self, module_name, cls_name, method, make_wrapper):
        try:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = getattr(cls, method)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{cls_name}.{method}")
            return
        self._swap(cls, method, make_wrapper(original))

    def _timed(self, span, after=None, by_name=False):
        """Wrapper factory for span `span`.  after(result, args, kwargs)
        counts work; with by_name it is after(result, arguments), the call's
        arguments by parameter name with defaults applied."""
        def make(original):
            hook = after
            if by_name:
                sig = inspect.signature(original)

                def hook(result, args, kwargs):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(result, bound.arguments)

            def wrapper(*args, **kwargs):
                return self.run(span, original, *args, after=hook, **kwargs)
            return wrapper
        return make

    def _counted(self, counter):
        """Wrapper factory that only counts calls."""
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[counter] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def install(self, parallel: bool):
        """Wrap every layer; wrap parallel_map too when `parallel` is set."""
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed in this process")
        _active = self
        c = self.counts

        def on_germs(sample, args, kwargs):
            c["poisson.proposals"] += int(sample.proposed)
            c["poisson.accepted"] += len(sample)

        def on_simulate(real, args, kwargs):
            c["boolean.realizations"] += 1
            c["boolean.segments"] += sum(
                g.segment_arrays()[0].shape[0] for _, g in real.placed_grains
            )

        def on_sausage(result, arguments):
            points = int(arguments["mc_points"])
            c["exact.sausage_calls"] += 1
            c["exact.sausage_points"] += points
            c["exact.max_points_per_call"] = max(c["exact.max_points_per_call"], points)

        def on_density_grid(field, arguments):
            # computed: grid points times mark draws (one for a fixed mark law)
            per_point = 1 if arguments["q"].is_deterministic else int(arguments["mark_draws"])
            c["exact.mark_integrals"] += len(field.values) * per_point

        def on_accumulate(result, arguments):
            c["estimate.replicates"] += int(arguments["n_samples"])

        def on_minkowski_sausage(result, arguments):
            c["minkowski.sausage_points"] += int(arguments["mc_points"])

        def on_derive(result, args, kwargs):
            c["streams.derive_calls"] += 1

        def rows(counter):
            def after(result, args, kwargs):
                c[counter] += len(result)
            return after

        layers = (
            ("meandense.streams", "derive_stream", self._timed("streams.derive", on_derive)),
            ("meandense.poisson", "sample_germs", self._timed("poisson.sample_germs", on_germs)),
            ("meandense.grains", "sample_marks",
             self._timed("grains.sample_marks", rows("grains.marks"))),
            ("meandense.grains", "grain_distances",
             self._timed("grains.grain_distances", rows("grains.grain_distance_rows"))),
            ("meandense.boolean", "simulate", self._timed("boolean.simulate", on_simulate)),
            ("meandense.geometry", "segment_distances",
             self._timed("geometry.segment_distances", rows("geometry.segment_rows"))),
            ("meandense.geometry", "as_point", self._counted("geometry.as_point_calls")),
            ("meandense.estimate", "accumulate_hits",
             self._timed("estimate.accumulate_hits", on_accumulate, by_name=True)),
            ("meandense.exact", "density_grid",
             self._timed("exact.density_grid", on_density_grid, by_name=True)),
            ("meandense.exact", "capacity_probability",
             self._timed("exact.capacity_probability")),
            ("meandense.exact", "sausage_intensity_integral",
             self._timed("exact.sausage", on_sausage, by_name=True)),
            ("meandense.minkowski", "content_limit", self._timed("minkowski.content_limit")),
            ("meandense.minkowski", "sausage_integral",
             self._timed("minkowski.sausage", on_minkowski_sausage, by_name=True)),
            ("meandense.config", "parse_config", self._timed("config.parse")),
        )
        for module_name, attribute, make_wrapper in layers:
            self._wrap_function(module_name, attribute, make_wrapper)
        self._wrap_method("meandense.boolean", "BooleanRealization", "__post_init__",
                          lambda orig: lambda real: self.run("boolean.assembly", orig, real))
        for method in ("hits", "hit_count"):
            self._wrap_method("meandense.boolean", "BooleanRealization", method,
                              self._query_wrapper)
        if parallel:
            self._wrap_function("meandense.parallel", "parallel_map", self._parallel_wrapper)
            self._wrap_function("meandense.parallel", "ProcessPoolExecutor", self._pool_wrapper)

    def _query_wrapper(self, original):
        def on_query(result, args, kwargs):
            self.counts["boolean.queries"] += 1
            self.counts["boolean.hits"] += 1 if result else 0

        def wrapper(real, *args, **kwargs):
            first = real not in self._queried
            if first:
                self._queried.add(real)
            span = "boolean.first_query" if first else "boolean.query"
            return self.run(span, original, real, *args, after=on_query, **kwargs)
        return wrapper

    def _parallel_wrapper(self, original):
        """parallel_map that also counts tasks and their pickled size and
        merges the counters recorded in worker processes."""
        c = self.counts

        def parallel_map(fn, tasks, threads=1):
            tasks = list(tasks)
            cell = self._open()
            t_outer = time.perf_counter()
            c["parallel.tasks"] += len(tasks)
            c["parallel.task_bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
            t0 = time.perf_counter()
            try:
                results = original(_ShippedTask(fn, os.getpid()), tasks, threads)
            finally:
                t1 = time.perf_counter()
            for i, res in enumerate(results):
                if isinstance(res, _Shipped):
                    for key, value in res.counts.items():
                        if key == "exact.max_points_per_call":
                            c[key] = max(c[key], value)
                        else:
                            c[key] += value
                    results[i] = res.result
            self._close("parallel.map", cell, t1 - t0, time.perf_counter() - t_outer)
            return results
        return parallel_map

    def _pool_wrapper(self, original):
        """Process pool class that counts the workers each pool may start."""
        counts = self.counts

        class CountingPool(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counts["parallel.workers"] += self._max_workers
        return CountingPool

    def uninstall(self):
        global _active
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        self._stack.clear()
        if _active is self:
            _active = None


class _Shipped:
    """A pool task's result with the counters its worker recorded."""

    def __init__(self, result, counts):
        self.result = result
        self.counts = counts


class _ShippedTask:
    """Picklable task wrapper: in a worker process it runs the task under
    the worker's tracer and returns the counter increments with the result;
    in the calling process it is a plain call."""

    def __init__(self, fn, parent_pid):
        self.fn = fn
        self.parent_pid = parent_pid

    def __call__(self, task):
        if os.getpid() == self.parent_pid:
            return self.fn(task)
        tracer = _active
        if tracer is None:  # a worker that did not inherit the parent's memory
            tracer = Tracer()
            tracer.install(parallel=False)
        before = dict(tracer.counts)
        result = self.fn(task)
        delta = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        delta["exact.max_points_per_call"] = tracer.counts["exact.max_points_per_call"]
        return _Shipped(result, delta)
