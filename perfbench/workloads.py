"""The calls each workload makes in one pass, their work units and output checks.

Every call goes through a public entry point: `lil_lab.cli.main(argv)`,
exactly as `lil-lab <subcommand>` would run it, or an exported library
function.  Both are looked up on their module at call time, so the
tracer's wrappers see them.  Check bands are the acceptance suite's,
unchanged.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lil_lab import cli, simulate
from lil_lab.distributions import Gaussian
from lil_lab.slowvary import parse_cseq
from lil_lab.spaces import SpaceSpec


@dataclass(frozen=True)
class Call:
    """One call of a pass.

    `run(seed, workers, out_dir)` is the timed part.  `inspect(result,
    out_dir)` returns the check failures, a digest of the output for the
    determinism check, and the artifact size in bytes.
    """

    label: str
    work: int
    run: Callable[[int, int, str], object]
    inspect: Callable[[object, str], tuple[list[str], str, int]]


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    calls: tuple[Call, ...]

    @property
    def work_per_pass(self) -> int:
        return sum(c.work for c in self.calls)


def _nonfinite(node, path: str = "$") -> list[str]:
    """Paths of numbers that are not finite; "inf"/"nan" strings are allowed."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _nonfinite(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _nonfinite(v, f"{path}[{i}]")]
    if isinstance(node, float) and not math.isfinite(node):
        return [path]
    return []


def _in_band(label: str, lo, hi, band: tuple[float, float]) -> list[str]:
    if not all(isinstance(v, (int, float)) for v in (lo, hi)) or not (band[0] <= lo and hi <= band[1]):
        return [f"{label} [{lo}, {hi}] escapes [{band[0]}, {band[1]}]"]
    return []


def cli_call(label: str, argv: list[str], artifact: str, check: Callable[[dict], list[str]], work: int = 1) -> Call:
    def run(seed: int, workers: int, out_dir: str) -> int:
        return cli.main([*argv, "--seed", str(seed), "--workers", str(workers), "--out", out_dir])

    def inspect(code, out_dir: str) -> tuple[list[str], str, int]:
        if code != 0:
            return [f"exit code {code}"], "", 0
        with open(os.path.join(out_dir, artifact), "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
        problems = check(doc) + [f"non-finite number at {p}" for p in _nonfinite(doc)]
        return problems, hashlib.sha256(data).hexdigest(), len(data)

    return Call(label, work, run, inspect)


def _no_check(doc: dict) -> list[str]:
    return []


def _c0_band(band: tuple[float, float]) -> Callable[[dict], list[str]]:
    def check(doc: dict) -> list[str]:
        rep = doc["report"]
        return _in_band("c0 bracket", rep["c0_lo"], rep["c0_hi"], band)
    return check


def _verdict(expected: str) -> Callable[[dict], list[str]]:
    def check(doc: dict) -> list[str]:
        got = doc["report"]["verdict"]
        return [] if got == expected else [f"hclass verdict {got}, expected {expected}"]
    return check


def _limsup_band(doc: dict) -> list[str]:
    med = doc["limsup"]["median"]
    return _in_band("limsup median", med, med, (0.75, 1.15))


def _verify_rows(doc: dict) -> list[str]:
    rows = doc["report"]["rows"]
    bad = sum(bool(r["violation"]) for r in rows)
    out = [] if len(rows) == 50 else [f"{len(rows)} verify rows, expected 50"]
    return out + ([f"{bad} bound violations"] if bad else [])


# -- mc-long-paths ----------------------------------------------------------

# The acceptance band on the limsup median is fixed, so the trial count sets
# how often a correct run falls outside it by chance.  From 1,280 per-trial
# tail maxima, the median of 32 trials lands below 0.75 for about 3% of
# seeds, the median of 128 for about 1 in 8,000.  128 trials still fit in
# one chunk, so the pool never starts.
SIM_N, SIM_TRIALS = 1_000_000, 128
TRUNC_N, TRUNC_TRIALS = 1_000_000, 8


def _truncated_run(seed: int, workers: int, out_dir: str):
    # The library call keeps its default worker count, as the acceptance
    # suite calls it.
    return simulate.truncated_path(
        Gaussian(1.0), SpaceSpec(1, 2.0), parse_cseq("psi:2*(LL)^1"),
        simulate.PathConfig(N=TRUNC_N, trials=TRUNC_TRIALS, seed=seed),
    )


def _truncated_inspect(res, out_dir: str) -> tuple[list[str], str, int]:
    arrays = (res.gap_curve, res.last_trunc, res.trunc_count, res.gap_sup)
    digest = hashlib.sha256()
    problems = []
    for name, arr in zip(("gap_curve", "last_trunc", "trunc_count", "gap_sup"), arrays):
        if not np.all(np.isfinite(arr)):
            problems.append(f"truncated_path {name} is not finite")
        digest.update(np.ascontiguousarray(arr).tobytes())
    return problems, digest.hexdigest(), 0


MC_LONG_PATHS = Workload(
    "mc-long-paths", "increments",
    (
        cli_call(
            "lil-sim",
            ["lil-sim", "--dist", "gauss:dim=1,var=1", "--space", "1,2", "--h", "2*(LL)^1",
             "--N", str(SIM_N), "--trials", str(SIM_TRIALS)],
            "sim.json", _limsup_band, work=SIM_N * SIM_TRIALS,
        ),
        Call("truncated_path", TRUNC_N * TRUNC_TRIALS, _truncated_run, _truncated_inspect),
    ),
)

# -- mc-many-short ----------------------------------------------------------

VERIFY_N, VERIFY_TRIALS = 200, 20480

MC_MANY_SHORT = Workload(
    "mc-many-short", "increments",
    (
        cli_call(
            "fn-verify",
            ["fn-verify", "--dist", "rademacher:dim=5", "--space", "5,inf",
             "--n", str(VERIFY_N), "--trials", str(VERIFY_TRIALS)],
            # pilot pass plus main pass, each trials x n increments
            "verify.json", _verify_rows, work=2 * VERIFY_N * VERIFY_TRIALS,
        ),
    ),
)

# -- analytic-sweep ---------------------------------------------------------

_H = ["--h", "2*(LL)^1"]

ANALYTIC_SWEEP = Workload(
    "analytic-sweep", "scenarios",
    (
        cli_call("c1-const", ["constants", *_H, "--H", "const:1"], "constants.json", _c0_band((0.9, 1.1))),
        cli_call("c2-const-cseq", ["constants", *_H, "--H", "const:1", "--c-seq", "psi:2*(LL)^1"],
                 "constants.json", _c0_band((0.9, 1.1))),
        cli_call("c3-llpow", ["constants", "--h", "2*(LL)^1.5", "--H", "llpow:0.5"],
                 "constants.json", _c0_band((0.95, 1.05))),
        cli_call("c4-llpow", ["constants", "--h", "2*(LL)^3", "--H", "llpow:2"],
                 "constants.json", _c0_band((0.95, 1.05))),
        # analytic truncated covariance
        cli_call("c5-dist-gauss1", ["constants", *_H, "--H", "dist", "--dist", "gauss:dim=1,var=1",
                                    "--space", "1,2", "--c-seq", "psi:2*(LL)^1"], "constants.json", _no_check),
        # empirical fallback; its H is extrapolated past the sample range, so
        # only finiteness is checked
        cli_call("c6-dist-gauss2", ["constants", *_H, "--H", "dist", "--dist", "gauss:dim=2,var=1",
                                    "--space", "2,2"], "constants.json", _no_check),
        # p = 1: 2^(d-1) sign-vertex enumeration
        cli_call("c7-dist-rademacher", ["constants", *_H, "--H", "dist", "--dist", "rademacher:dim=5",
                                        "--space", "5,1", "--c-seq", "pow:0.5"], "constants.json", _no_check),
        cli_call("c8-explog", ["constants", "--h", "exp((L)^0.5)", "--H", "const:1"], "constants.json", _no_check),
        cli_call("h9-explog", ["hclass", "--h", "exp((L)^0.5)", "--q", "0.2"], "hclass.json", _verdict("NON_MEMBER")),
        cli_call("h10-llpow", ["hclass", "--h", "(LL)^2", "--q", "0"], "hclass.json", _verdict("MEMBER")),
    ),
)

WORKLOADS = {w.name: w for w in (MC_LONG_PATHS, MC_MANY_SHORT, ANALYTIC_SWEEP)}
