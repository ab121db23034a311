"""Fixtures shared by the tests of ops that run on the block pool."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from stnet import ops


@pytest.fixture
def pool(monkeypatch):
    """The block pool, counting its submitted tasks in ``pool.items`` and
    keeping their futures in ``pool.futures``. On one CPU, where the ops run
    no pool, a pool of two threads stands in for it."""
    real = ops._block_pool()
    p = real or ThreadPoolExecutor(2)
    submit = p.submit

    def counting_submit(*args):
        p.items += 1
        p.futures.append(future := submit(*args))
        return future
    monkeypatch.setattr(p, "items", 0, raising=False)
    monkeypatch.setattr(p, "futures", [], raising=False)
    monkeypatch.setattr(p, "submit", counting_submit, raising=False)
    monkeypatch.setattr(ops, "_block_pool", lambda: p)
    yield p
    monkeypatch.undo()
    if real is None:
        p.shutdown()
