"""`_pool.map_chunks`: the caller runs stripe 0, forked children or threads
run the others, and no child outlives the call."""

import atexit
import os
import time

import numpy as np
import pytest

from lil_lab._pool import map_chunks

EXECUTORS = ["process", "thread"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("chunks", [0, 1, 7])
def test_results_keep_their_order_at_any_worker_count(executor, chunks):
    # seven chunks split unevenly over two, three and four stripes
    args = [(i, np.arange(3.0) * i) for i in range(chunks)]
    want = [x + i for i, x in args]
    for workers in range(1, 5):
        got = map_chunks(lambda i, x: x + i, args, workers, executor)
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    assert_no_child_left()


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_lowest_failing_chunk_raises(executor, workers):
    # at three workers the caller's stripe fails at chunk 3 and stripe 1 at chunk 1
    def fn(i):
        if i in (1, 3):
            raise ValueError(f"chunk {i}")
        return i

    with pytest.raises(ValueError, match="^chunk 1$"):
        map_chunks(fn, [(i,) for i in range(6)], workers, executor)
    assert_no_child_left()


def test_a_child_that_dies_raises():
    def fn(i):
        if i == 1 and os.getpid() != parent:
            os._exit(3)
        return i

    parent = os.getpid()
    with pytest.raises(RuntimeError, match="^chunk stripe 1 of 2 ended without a result$"):
        map_chunks(fn, [(i,) for i in range(4)], 2, "process")
    assert_no_child_left()


def test_an_interrupted_caller_kills_its_children():
    def fn(i):
        if i == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_chunks(fn, [(i,) for i in range(3)], 3, "process")
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_child_runs_no_exit_hook(tmp_path):
    def fn(i):
        if os.getpid() != parent:
            atexit.register((tmp_path / str(i)).touch)
        return i

    parent = os.getpid()
    assert map_chunks(fn, [(i,) for i in range(4)], 2, "process") == [0, 1, 2, 3]
    assert_no_child_left()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fork", [True, False])
def test_the_caller_runs_stripe_0(monkeypatch, fork):
    # stripe 1 (chunks 1 and 3) runs in a child, or on a thread where there is no os.fork
    if not fork:
        monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    pids = map_chunks(lambda i: os.getpid(), [(i,) for i in range(4)], 2, "process")
    assert pids[0] == pids[2] == parent
    assert (pids[1] == pids[3] != parent) if fork else (pids[1] == pids[3] == parent)
    assert_no_child_left()
