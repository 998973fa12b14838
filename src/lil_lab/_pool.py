"""Chunked trial dispatch: a striped map run by the caller and W - 1 helpers.

The caller cuts the work into chunks; nothing here knows a chunk's size.
With W = min(workers, number of chunks) stripes, stripe w holds chunks
w, w + W, w + 2W, ...  The caller runs stripe 0 itself; stripes 1..W-1
run in forked children ("process") or on threads ("thread"), and a
platform without `os.fork` runs them on threads.  No executor pool
starts, so a run never imports `multiprocessing` or
`concurrent.futures`.  A child pickles its stripe's results to a pipe
and leaves through `os._exit`, running no exit hook and flushing no
inherited stdio buffer; a child that ends without writing them raises a
RuntimeError.

Each stripe runs its chunks in increasing order and stops at its first
failure, so the lowest failing chunk of any stripe is the first failing
chunk overall: that chunk's exception is the one raised, as a map in
chunk order would raise it.  No child outlives the call: whether the
call returns, raises or is interrupted, every child is killed if it
still runs and then reaped.  Results never depend on W or on which
stripe ran a chunk.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading


def map_chunks(fn, args_list, workers: int, executor: str = "process") -> list:
    """fn(*args) over args_list, preserving order, in min(workers, len(args_list))
    stripes: the first here, the others in forked children (`executor`
    "process") or on threads ("thread").  A failure raises the exception of
    the lowest failing chunk."""
    stripes = max(1, min(workers, len(args_list)))
    outcomes = (_forked if executor == "process" and hasattr(os, "fork") else _threaded)(fn, args_list, stripes)
    if None in outcomes:
        raise RuntimeError(f"chunk stripe {outcomes.index(None)} of {stripes} ended without a result")
    failures = [failure for failure, _ in outcomes if failure]
    if failures:
        raise min(failures)[1]
    return [outcomes[i % stripes][1][i // stripes] for i in range(len(args_list))]


def _stripe(fn, args_list, w: int, stripes: int) -> tuple:
    """(None, results) of chunks w, w + stripes, ... run in order, or
    ((i, exception), None) for the first chunk i that raises."""
    results = []
    for i in range(w, len(args_list), stripes):
        try:
            results.append(fn(*args_list[i]))
        except Exception as exc:
            return (i, exc), None
    return None, results


def _threaded(fn, args_list, stripes: int) -> list:
    """Every stripe's `_stripe` outcome, stripe 0 run here and the others on
    threads; None for a stripe whose thread ended without one."""
    outcomes = [None] * stripes

    def run(w):
        outcomes[w] = _stripe(fn, args_list, w, stripes)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, stripes)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    return outcomes


def _forked(fn, args_list, stripes: int) -> list:
    """Every stripe's `_stripe` outcome, stripe 0 run here and the others in
    forked children; None for a child that ended without writing one.
    Every child is killed, if it still runs, and reaped before this returns
    or raises."""
    with contextlib.ExitStack() as stack:
        pipes = []
        for w in range(1, stripes):
            read_fd, write_fd = os.pipe()
            pipes.append(stack.enter_context(open(read_fd, "rb")))
            with open(write_fd, "wb") as sink:  # the parent closes its copy once the child has one
                pid = os.fork()
                if pid == 0:  # the child leaves only through os._exit
                    try:
                        sink.write(pickle.dumps(_stripe(fn, args_list, w, stripes)))
                        sink.flush()
                    finally:
                        os._exit(0)
            # on the way out, last in first out: SIGKILL the child, which is
            # harmless once it has ended, then reap it
            stack.callback(os.waitpid, pid, 0)
            stack.callback(os.kill, pid, signal.SIGKILL)
        outcomes = [_stripe(fn, args_list, 0, stripes)]
        return outcomes + [pickle.loads(data) if (data := pipe.read()) else None for pipe in pipes]
