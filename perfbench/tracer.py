"""Per-layer tracing from outside the library.

The tracer swaps public lil_lab functions for wrappers; the library
source is untouched.  Layer boundaries get spans (name, start, end,
parent, pass id), kept in memory and written out at exit.  Hot leaves,
called thousands of times per pass, only bump a counter and, where the
metric needs it, add their elapsed time to the enclosing span: a span
per call would inflate the traced pass.

A wrapped function is replaced under every name that a lil_lab module
binds it to, so functions imported by name (`constants` imports
`psi_inv_log` and `dual_ball_sup`, `bounds` imports `map_chunks` as
`_map_chunks`) are traced where their callers actually look them up.

Pool workers fork from the traced driver and inherit the wrappers, but
what they record stays in the worker; at `--workers 1` every span lands
in the driver.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from lil_lab import _pool, bounds, cli, constants, distributions, rng, simulate, slowvary, spaces

# (span name, module, attribute).  Both series classifiers are probes of
# one bisection, so they share a name.
SPANS = (
    ("cli.main", cli, "main"),
    ("constants.parse_tsm", constants, "parse_tsm"),
    ("constants.constants_report", constants, "constants_report"),
    ("constants.c0_compute", constants, "c0_compute"),
    ("constants.alpha0_compute", constants, "alpha0_compute"),
    ("constants.lambda_compute", constants, "lambda_compute"),
    ("constants.sigma_compute", constants, "sigma_compute"),
    ("constants.lil_ratio_check", constants, "lil_ratio_check"),
    ("constants.series_classify", constants, "series_classify"),
    ("constants.series_classify", constants, "alpha_series_classify"),
    ("slowvary.hq_classify", slowvary, "hq_classify"),
    ("simulate.run_path", simulate, "run_path"),
    ("simulate.truncated_path", simulate, "truncated_path"),
    ("simulate.limsup_estimate", simulate, "limsup_estimate"),
    ("bounds.mc_verify", bounds, "mc_verify"),
    ("pool.map", _pool, "map_chunks"),
)

# Hot leaves that are timed: (counter name, module, attribute).
TIMED_LEAVES = (
    ("rng.substream", rng, "substream"),
    ("slowvary.psi_inv", slowvary, "psi_inv_log"),
    ("spaces.dual_ball_sup", spaces, "dual_ball_sup"),
)

# Families that draw their own samples.  ScalarEmbedded delegates to its
# inner law, whose draws are counted there.
SAMPLERS = (distributions.Gaussian, distributions.RademacherProduct,
            distributions.RadialPareto, distributions.PointMass)

# Hot leaves that are only counted: (counter name, class, method).
COUNTED = (
    ("slowvary.log_value", slowvary.SlowVaryFn, "log_value_from_log"),
    ("spaces.empirical_tsm", spaces.EmpiricalTSM, "__call__"),
    *(("constants.H", cls, "__call__") for cls in (
        constants.ConstTSM, constants.LogLogPowTSM, constants.DistTSM, constants.EmpiricalWrapTSM)),
)

# Counter metrics reported as they are.
COUNTERS = (
    "rng.substream.calls", "rng.substream.s",
    "distributions.sample.calls", "distributions.sample.rows", "distributions.sample.s",
    "distributions.sample.bytes",
    "slowvary.log_value.calls", "slowvary.psi_inv.calls", "slowvary.psi_inv.s",
    "spaces.dual_ball_sup.calls", "spaces.dual_ball_sup.s", "spaces.empirical_tsm.calls",
    "constants.H.calls",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "leaf_s")

    def __init__(self, name: str, start: float, parent: int, pass_id: int):
        self.name, self.start, self.end = name, start, start
        self.parent, self.pass_id, self.leaf_s = parent, pass_id, 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: list[dict[str, float]] = []  # counters of each pass
        self.cur: dict[str, float] = defaultdict(float)  # counters of the pass in progress
        self._undo: list[tuple[object, str, object]] = []

    def begin_pass(self) -> None:
        self.cur = defaultdict(float)
        self.counts.append(self.cur)

    # -- instrumentation ------------------------------------------------

    def _add_leaf(self, calls_key: str, s_key: str, dt: float) -> None:
        cur = self.cur
        cur[calls_key] += 1
        cur[s_key] += dt
        if self.stack:
            self.spans[self.stack[-1]].leaf_s += dt

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), self.stack[-1] if self.stack else -1, len(self.counts) - 1)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if name == "constants.series_classify" and result.verdict == constants.INCONCLUSIVE:
                self.cur["constants.series_classify.inconclusive"] += 1
            return result
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        calls_key, s_key = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add_leaf(calls_key, s_key, time.perf_counter() - t0)
        return wrapper

    def _sample_wrapper(self, fn):
        @functools.wraps(fn)
        def sample(dist, gen, n):
            t0 = time.perf_counter()
            try:
                return fn(dist, gen, n)
            finally:
                self._add_leaf("distributions.sample.calls", "distributions.sample.s", time.perf_counter() - t0)
                self.cur["distributions.sample.rows"] += n
                self.cur["distributions.sample.bytes"] += n * dist.dim * 8
        return sample

    def _count_wrapper(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.cur[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _swap(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, module, attr: str, make) -> None:
        orig = getattr(module, attr)
        wrapped = make(orig)
        for mod in [m for n, m in sys.modules.items() if n == "lil_lab" or n.startswith("lil_lab.")]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._swap(mod, key, wrapped)

    def install(self) -> None:
        """Swap in the wrappers; `uninstall` puts the originals back."""
        for name, module, attr in SPANS:
            self._patch_everywhere(module, attr, functools.partial(self._span_wrapper, name))
        for name, module, attr in TIMED_LEAVES:
            self._patch_everywhere(module, attr, functools.partial(self._leaf_wrapper, name))
        for cls in SAMPLERS:
            self._swap(cls, "sample", self._sample_wrapper(cls.__dict__["sample"]))
        for name, cls, attr in COUNTED:
            self._swap(cls, attr, self._count_wrapper(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "pass": s.pass_id}) + "\n")

    # -- per-pass layer metrics ----------------------------------------

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Layer metrics of one pass; times in seconds, counts per pass."""
        ids = [i for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        children: dict[int, list[int]] = defaultdict(list)
        for i in ids:
            children[self.spans[i].parent].append(i)

        def subtree_leaf(i: int) -> float:
            return self.spans[i].leaf_s + sum(subtree_leaf(c) for c in children[i])

        def self_time(i: int) -> float:
            # duration minus child spans and leaves timed directly inside it
            return self.spans[i].dur - sum(self.spans[c].dur for c in children[i]) - self.spans[i].leaf_s

        def named(name: str) -> list[int]:
            return [i for i in ids if self.spans[i].name == name]

        def total(name: str) -> float:
            return sum(self.spans[i].dur for i in named(name))

        c = self.counts[pass_id]
        m: dict[str, float] = {k: c[k] for k in COUNTERS}
        # self time of the Monte Carlo drivers: the streaming kernel and the
        # reducers, i.e. the span minus the sample and substream time below it
        for fn in ("run_path", "truncated_path"):
            m[f"simulate.{fn}.s"] = total(f"simulate.{fn}")
            m[f"simulate.{fn}.self_s"] = sum(self.spans[i].dur - subtree_leaf(i) for i in named(f"simulate.{fn}"))
        m["simulate.limsup_estimate.s"] = total("simulate.limsup_estimate")
        m["bounds.mc_verify.s"] = total("bounds.mc_verify")
        maps = [sorted((self.spans[k].start, k) for k in children[i] if self.spans[k].name == "pool.map")
                for i in named("bounds.mc_verify")]
        m["bounds.pilot_s"] = sum(self.spans[pm[0][1]].dur for pm in maps if len(pm) > 0)
        m["bounds.main_s"] = sum(self.spans[pm[1][1]].dur for pm in maps if len(pm) > 1)
        m["pool.map.calls"] = len(named("pool.map"))
        m["pool.map.s"] = total("pool.map")
        m["slowvary.hq_classify.s"] = total("slowvary.hq_classify")
        probes = len(named("constants.series_classify"))
        m["constants.series_classify.calls"] = probes
        m["constants.series_classify.s"] = total("constants.series_classify")
        m["constants.inconclusive_frac"] = c["constants.series_classify.inconclusive"] / probes if probes else 0.0
        for fn in ("c0_compute", "alpha0_compute", "lambda_compute", "sigma_compute", "lil_ratio_check"):
            m[f"constants.{fn}.s"] = total(f"constants.{fn}")
        m["constants.constants_report.self_s"] = sum(self_time(i) for i in named("constants.constants_report"))
        m["cli.main.s"] = total("cli.main")
        m["cli.overhead_s"] = sum(self_time(i) for i in named("cli.main"))
        m["trace.root_s"] = sum(self.spans[i].dur for i in children[-1])
        return m
