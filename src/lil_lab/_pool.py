"""Chunked trial dispatch, inline or on a pool of `workers` threads or processes.

The caller picks the executor kind; the worker count only sets how many
chunks run at once, so results never depend on it.  The executor class
is imported only when a pool starts, so a run that never starts a
process pool never imports `multiprocessing`.
"""
from __future__ import annotations

CHUNK = 1024


def chunk_ranges(total: int, size: int = CHUNK) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def map_chunks(fn, args_list, workers: int, executor: str = "process") -> list:
    """fn(*args) over args_list, preserving order; on one pool of `executor`
    ("process" or "thread") when workers > 1."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    if executor == "process":
        from concurrent.futures import ProcessPoolExecutor as pool_class
    else:
        from concurrent.futures import ThreadPoolExecutor as pool_class
    with pool_class(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*args_list)))
