"""Self-test of the benchmark harness at its smallest size.

    python3 -m pytest benchmarks

Every workload runs untraced and traced on the self-test's small configs:
its outputs pass their checks, it emits exactly the metrics BENCHMARK.json
declares, and its traced counters repeat between runs and do not depend on
the thread count.
"""

import pytest

import run
import tracing

SMOKE = sorted(run.workloads("smoke"))


@pytest.mark.parametrize("name", SMOKE)
def test_end_to_end_metrics_are_declared_and_outputs_pass(name):
    result, details = run.run_workload(name, seed=1, seconds=0.01, trace=False, size="smoke")
    assert result["failed"] == 0, details["problems"]
    assert result["correct"] and result["attempted"] >= 2
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == run.declared_metrics(trace=False)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", SMOKE)
def test_traced_counters_repeat_and_do_not_depend_on_threads(name):
    runs = [run.run_workload(name, seed=1, seconds=0.01, trace=True, size="smoke")
            for _ in range(2)]
    for result, details in runs:
        assert result["failed"] == 0 and result["correct"], details["problems"]
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        assert units == run.declared_metrics(trace=True)
    (_, first), (_, second) = runs
    assert first["counters_t1"] == second["counters_t1"]
    assert first["counters_tN"] == second["counters_tN"]
    for key in tracing.THREAD_INVARIANT:
        assert first["counters_t1"][key] == first["counters_tN"][key], key
    if name.endswith("_estimate"):
        assert all(first["counters_t1"][key] > 0 for key in tracing.THREAD_INVARIANT)
