"""Machine speed reference: a fixed kernel timed next to the work it scales.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes: pass times move with CPU time, so the slowdown is in the
cycles themselves (other tenants on the same cores), not in waiting.
Raw wall times from two runs minutes apart then differ by more than any
useful regression bound.  The fix is to time a fixed reference kernel
next to the work and express the work's wall time in *seconds at
reference speed*:

    reference seconds = wall seconds * REF_S / (reference time)

A program change cannot move the kernel: it imports nothing from
lil_lab.  Its work mixes what the workloads do: interpreter dispatch,
dict and string handling, small numpy calls and one bulk numpy sample
with a cumulative sum.

The kernel runs once pinned to each CPU the process may use, and the
reference time is their mean, because the pool spreads a call over every
CPU and a single-process call may run on either.  Pinning acts on this
process only; its affinity is restored afterwards.
"""
from __future__ import annotations

import os
import time

import numpy as np

#: Nominal reference time, about the kernel's mean per-CPU time on a
#: 2-vCPU x86-64 host (Python 3.11, numpy 2.4).  It only sets the scale,
#: so that reference seconds read close to wall seconds there.
REF_S = 0.02


def _kernel() -> None:
    s = 0
    for i in range(75_000):
        s += (i * 7) % 13
    d: dict[int, int] = {}
    for i in range(10_000):
        d[i % 97] = d.get(i % 97, 0) + len(str(i))
    g = np.random.default_rng(1)
    for _ in range(300):
        x = g.standard_normal(200)
        np.cumsum(x, out=x)
        float(x.max())
    x = g.standard_normal(200_000)
    np.cumsum(x, out=x)
    float(x.max())


def reference_s() -> float:
    """Mean time of the kernel over the CPUs this process may run on."""
    cpus = os.sched_getaffinity(0)
    took = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            _kernel()
            took.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(took) / len(took)


class Sampler:
    """Reference times taken between calls, at most one per `every_s` seconds.

    Sampling on the clock rather than per call or per pass gives each run
    about the same number of reference times whatever the program's speed.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.times = [reference_s()]
        self.last = time.perf_counter()

    def between_calls(self) -> None:
        if time.perf_counter() - self.last >= self.every_s:
            self.times.append(reference_s())
            self.last = time.perf_counter()
