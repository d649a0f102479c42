import pytest

from meandense import parallel


@pytest.fixture
def always_pool(monkeypatch):
    """A pool costs nothing: every parallel_map with two or more tasks and
    threads forks its workers, however light the tasks."""
    monkeypatch.setattr(parallel, "POOL_COST_S", 0.0)
