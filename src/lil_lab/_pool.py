"""Chunked trial dispatch, inline or on a pool of `workers` threads or processes.

The caller picks the executor class; the worker count only sets how many
chunks run at once, so results never depend on it.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

CHUNK = 1024


def chunk_ranges(total: int, size: int = CHUNK) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def map_chunks(fn, args_list, workers: int, executor=ProcessPoolExecutor) -> list:
    """fn(*args) over args_list, preserving order; on `executor` when workers > 1."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    with executor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*args_list)))
