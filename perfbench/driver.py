"""One workload in one fresh process: timed passes, output checks, traces.

Started by run.py, never imported by it:

    python3 perfbench/driver.py --src SRC --workload NAME --seed N --seconds S
        --trace 0|1 --workers W --workdir DIR --result FILE

A pass runs every call of the workload once.  All passes use the same
seed and --out directory, so each call's output must be byte-identical
to its first run at the same --workers, traced or not (the determinism
digest).  Artifacts embed `workers` in `resolved_spec`, so outputs are
never compared across worker counts.

With --trace 0 the driver times passes at --workers W and reports the
time of every call, speed reference times taken between calls
(speed.py) and its own peak memory.  With --trace 1 it spends half of
--seconds on traced passes at --workers 1 (every span in the driver; the
layer metrics come from here) and half on alternating untraced and
traced passes at W (pool metrics and the tracing overhead).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

from speed import Sampler

#: Least time between two speed reference samples.
REF_EVERY_S = 0.5


def summary(values: list[float]) -> dict:
    """Median with quartiles and sample count."""
    vals = sorted(values)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


class Ledger:
    """Calls attempted and failed, and the reference digest of each call."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[tuple, str] = {}

    def record(self, key: tuple, problems: list[str], digest: str | None) -> None:
        if digest is not None and self.digests.setdefault(key, digest) != digest:
            problems = problems + ["output differs from the first run with the same seed, --out and --workers"]
        if problems:
            self.failures.append(f"{key[1]} at --workers {key[0]}: " + "; ".join(problems))


def run_pass(workload, seed: int, workers: int, workdir: str, ledger: Ledger,
             between_calls=lambda: None) -> tuple[list[float], int]:
    """Run each call once; return the time of each call and the artifact bytes.

    `between_calls()` runs after each call, outside its timing.
    """
    call_s, nbytes = [], 0
    for call in workload.calls:
        out_dir = os.path.join(workdir, call.label)
        ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call.run(seed, workers, out_dir)
        except (Exception, SystemExit) as exc:  # a failed call is counted, the pass goes on
            call_s.append(time.perf_counter() - t0)
            ledger.record((workers, call.label), [f"raised {type(exc).__name__}: {exc}"], None)
            continue
        call_s.append(time.perf_counter() - t0)
        problems, digest, size = call.inspect(result, out_dir)
        nbytes += size
        ledger.record((workers, call.label), problems, digest)
        between_calls()
    return call_s, nbytes


def repeat(step, budget_s: float, min_steps: int) -> tuple[list, float]:
    """Call step() until the budget is spent; return its results and the wall time.

    A new step starts only while it is expected to end no more than half a
    step after the budget, so a loop overruns by half a step on average.
    """
    out, took = [], []
    start = last = time.perf_counter()
    while len(out) < min_steps or last + 0.5 * statistics.median(took) < start + budget_s:
        out.append(step())
        now = time.perf_counter()
        took.append(now - last)
        last = now
    return out, last - start


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def metadata() -> dict:
    import numpy
    import lil_lab
    from lil_lab import rng

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lil_lab": lil_lab.__version__,
        "rng_stream": rng._TAG.decode(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import lil_lab

    if os.path.dirname(os.path.abspath(lil_lab.__file__)) != os.path.join(args.src, "lil_lab"):
        print(f"lil_lab imported from {lil_lab.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    doc: dict = {"meta": metadata(), "work_per_pass": workload.work_per_pass,
                 "work_unit": workload.work_unit}

    def untraced_pass(workers: int) -> tuple[list[float], int]:
        return run_pass(workload, args.seed, workers, args.workdir, ledger)

    if args.trace == 0:
        sampler = Sampler(REF_EVERY_S)

        def measured_pass() -> list[float]:
            call_s, _ = run_pass(workload, args.seed, args.workers, args.workdir, ledger, sampler.between_calls)
            return call_s

        doc["call_s"], _ = repeat(measured_pass, args.seconds, min_steps=3)
        doc["ref_s"] = sampler.times
        doc["peak_rss_mb"] = peak_rss_mb()
    else:
        from tracer import Tracer

        tracer = Tracer()

        def traced_pass(workers: int) -> tuple[list[float], int]:
            tracer.begin_pass()
            tracer.install()
            try:
                return untraced_pass(workers)
            finally:
                tracer.uninstall()

        half = args.seconds / 2
        one, one_wall = repeat(lambda: traced_pass(1), half, min_steps=1)
        # Untraced and traced passes at W alternate, so that a change in
        # machine speed during the run hits both sides of the overhead alike.
        pairs, _ = repeat(lambda: (untraced_pass(args.workers), traced_pass(args.workers)), half, min_steps=1)
        tracer.dump(os.path.splitext(args.result)[0] + ".spans.jsonl")
        per_pass = [tracer.pass_metrics(p) for p in range(len(tracer.counts))]
        w1, wn = per_pass[:len(one)], per_pass[len(one):]
        layers = {k: summary([m[k] for m in w1]) for k in w1[0] if k != "trace.root_s"}
        for k in ("pool.map.calls", "pool.map.s"):
            layers[k] = summary([m[k] for m in wn])
        layers["cli.artifact_bytes"] = summary([b for _, b in one])
        layers["trace.overhead_frac"] = summary([sum(t[0]) / sum(u[0]) - 1.0 for u, t in pairs])
        layers["trace.coverage_frac"] = summary([sum(m["trace.root_s"] for m in w1) / one_wall])
        doc["layers"] = layers
        doc["call_s"] = [call_s for call_s, _ in one]
    doc["attempted"] = ledger.attempted
    doc["failures"] = ledger.failures
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
