"""Golden digests of the v1 random streams.

Each case runs a Monte Carlo entry point at a fixed seed and hashes its
output arrays (or its report JSON).  The digests were recorded from the
per-trial loops that preceded the tiled kernel, so any change to the
draws, to their order, or to the order of a float accumulation shows
up here.  Trial counts span more than one chunk (1024 trials) and more
than one tile, and one case runs past a single streaming block.
Identity covariances keep the Gaussian draws free of BLAS rounding.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from lil_lab import rng
from lil_lab.bounds import BoundParams, _FinalAndMax, _PilotMoments, mc_verify
from lil_lab.distributions import Gaussian, RademacherProduct, RadialPareto
from lil_lab.simulate import (
    BLOCK,
    CheckpointNorms,
    PathConfig,
    TruncatedTwin,
    mean_norm_curve,
    run_path,
    stream_trials,
    truncated_path,
)
from lil_lab.slowvary import parse_cseq, parse_slow_vary
from lil_lab.spaces import SpaceSpec

INF = math.inf
H = parse_slow_vary("2*(LL)^1")
PARAMS = BoundParams(eta=1.0, delta=1.0, s=3.0)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _path(dist, space, N, trials, seed):
    def run(workers):
        res = run_path(dist, space, H, PathConfig(N=N, seed=seed, trials=trials), workers=workers)
        return _digest(np.asarray(res.checkpoints), res.ratios, res.a_values)
    return run


def _trunc(dist, space, cseq, N, trials, seed):
    def run(workers):
        res = truncated_path(dist, space, parse_cseq(cseq), PathConfig(N=N, seed=seed, trials=trials),
                             workers=workers)
        return _digest(res.gap_curve, res.last_trunc, res.trunc_count, res.gap_sup)
    return run


def _curve(dist, space, cseq, grid, trials, seed):
    def run(workers):
        c = mean_norm_curve(dist, space, parse_cseq(cseq), np.array(grid), trials, seed=seed, workers=workers)
        return _digest(c.mean, c.se, c.ci_lo, c.ci_hi)
    return run


def _verify(dist, space, n, trials, seed):
    def run(workers):
        rep = mc_verify(dist, space, n, trials, np.geomspace(0.5, 5.0, 6) * math.sqrt(n), PARAMS,
                        seed=seed, kr_points=4, workers=workers)
        return _digest(json.dumps(rep.to_json_dict(), sort_keys=True))
    return run


CASES = {
    "path-gauss1-l2": _path(Gaussian(1.0), SpaceSpec(1, 2.0), 2048, 1100, 11),
    "path-gauss3-l2": _path(Gaussian(np.ones(3)), SpaceSpec(3, 2.0), 700, 1030, 12),
    "path-gauss3-l1-long": _path(Gaussian(np.ones(3)), SpaceSpec(3, 1.0), 2 * BLOCK + 4000, 3, 13),
    "path-rademacher5-linf": _path(RademacherProduct(np.ones(5)), SpaceSpec(5, INF), 300, 1100, 14),
    "path-pareto2-l2": _path(RadialPareto(2.5, 2), SpaceSpec(2, 2.0), 500, 1040, 15),
    "trunc-gauss1-l2": _trunc(Gaussian(1.0), SpaceSpec(1, 2.0), "psi:2*(LL)^1", 3000, 1030, 21),
    "trunc-gauss3-l1": _trunc(Gaussian(np.ones(3)), SpaceSpec(3, 1.0), "pow:0.5", 400, 1100, 22),
    "trunc-pareto2-l2-long": _trunc(RadialPareto(1.5, 2), SpaceSpec(2, 2.0), "pow:0.7", BLOCK + 5000, 3, 23),
    "curve-gauss3-l2": _curve(Gaussian(np.ones(3)), SpaceSpec(3, 2.0), "pow:0.5", [10, 100, 1000], 1100, 31),
    "curve-rademacher5-linf": _curve(RademacherProduct(np.ones(5)), SpaceSpec(5, INF), "psi:2*(LL)^1",
                                     [3, 30, 300], 1050, 32),
    "verify-rademacher5-linf": _verify(RademacherProduct(np.ones(5)), SpaceSpec(5, INF), 200, 2100, 41),
    "verify-gauss1-l2": _verify(Gaussian(1.0), SpaceSpec(1, 2.0), 100, 1100, 42),
    "verify-gauss3-l2": _verify(Gaussian(np.ones(3)), SpaceSpec(3, 2.0), 50, 1500, 43),
    "verify-gauss3-l1": _verify(Gaussian(np.ones(3)), SpaceSpec(3, 1.0), 50, 1500, 44),
    "verify-pareto2-l2": _verify(RadialPareto(3.5, 2), SpaceSpec(2, 2.0), 80, 1100, 45),
}

GOLDEN = {
    "curve-gauss3-l2": "ad269e5008f73a56d4751a53edafe7d361d4ceab68b8dca95461de0c0ba2dc63",
    "curve-rademacher5-linf": "09fc965e58e66b3136090c78a2d8fe1aa91a4e7b00c649a6ba41157ec784199b",
    "path-gauss1-l2": "dcb65992b2d0b2a52ae0d6880b59593c78fad82ca62143b187e7b69088ef599b",
    "path-gauss3-l1-long": "fcc375078c61ef38341729a29089976fc68803fd77dc2836075fccc8a792c221",
    "path-gauss3-l2": "da1807c12ebba355c5dc9994396958eb6b2e785ad1772c0e58fd90d638c7b96e",
    "path-pareto2-l2": "2043981f9f70b18d610a3ccfba6edcd786dd4be01932751bc89c0d925523d8f2",
    "path-rademacher5-linf": "693964a7ccc39ba6cd62c084552b798436e03e610c33bda3764ba07bab1c1d64",
    "trunc-gauss1-l2": "2f7c2ebf2e5749ab0cb6b6fa82efe617ac633d1e42a816833b6ad0d1f15a9406",
    "trunc-gauss3-l1": "7ce8a5f451a2dce3e6e6d61fdb688ed21304ed950a4d35c43b3963664e380fdb",
    "trunc-pareto2-l2-long": "7b9e4e1699b6043d7de579184c11ad69f0173faf429b6d9c5cc62a8e59c35520",
    "verify-gauss1-l2": "a1b71a83a4ee70c7df850beedd44a34ac6e6ee39b65d50664969788d4c14ae7b",
    "verify-gauss3-l1": "775367cad64ab6bf2af4a5a8241d91cbb68e754ab783618b679cb40e87403fd8",
    "verify-gauss3-l2": "43b0df0e8c1040fe17d9f8abc0c89173009c422fc5fb005697c959b08c7651ba",
    "verify-pareto2-l2": "8ef8be36e5c1cff6d4d91570cfa5d338113452ba1e5d7d83aafd2dd5a3ade326",
    "verify-rademacher5-linf": "cb3a2e0c6e882e231bb10214b4ba97d8fd9f587e5c1dd10bbb0c9bed1994555a",
}


def test_stream_tag_is_v1():
    assert rng._TAG == b"lil-lab-stream-v1"


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, workers):
    assert CASES[name](workers) == GOLDEN[name]


def test_trial_streams_match_substream():
    streams = rng.TrialStreams(5, rng.PILOT)
    for trial in (0, 1, 1023, 2**40):
        want = rng.substream(5, rng.PILOT, trial)
        ref = (want.integers(0, 2, size=7), want.standard_normal(3), want.random(2))
        for gen in (streams.fresh(trial), streams.reused(trial)):
            got = (gen.integers(0, 2, size=7), gen.standard_normal(3), gen.random(2))
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("reducer, n, block", [
    (CheckpointNorms(SpaceSpec(2, 2.0), (1, 5, 40, 999, 1000)), 1000, BLOCK),
    (CheckpointNorms(SpaceSpec(2, 1.0), (1, 7, 150, 230)), 230, 100),
    (TruncatedTwin(SpaceSpec(2, 2.0), parse_cseq("pow:0.6"), (3, 50, 1000)), 1000, BLOCK),
    (TruncatedTwin(SpaceSpec(2, 2.0), parse_cseq("pow:0.6"), (3, 50, 230)), 230, 100),
    (_FinalAndMax(SpaceSpec(2, INF)), 1000, 1000),
    (_PilotMoments(SpaceSpec(2, 2.0), 3.0), 1000, 1000),
])
def test_tiling_does_not_change_results(reducer, n, block):
    # One chunk of 40 trials against 40 one-trial chunks: with n = 1000 the
    # chunk is three tiles of at most 16 trials; with block < n every trial
    # streams block by block.
    dist = RadialPareto(1.5, 2)
    tiled = stream_trials(dist, n, block, 7, rng.MAIN, 0, 40, reducer)
    singles = [stream_trials(dist, n, block, 7, rng.MAIN, t, t + 1, reducer) for t in range(40)]
    if isinstance(reducer, _PilotMoments):
        # chunk results are summed left to right, as mc_verify does
        for j, part in enumerate(tiled):
            assert np.array_equal(part, sum(p[j] for p in singles))
        return
    parts = tiled if isinstance(tiled, tuple) else (tiled,)
    for j, part in enumerate(parts):
        one = [p[j] if isinstance(p, tuple) else p for p in singles]
        np.testing.assert_array_equal(part, np.concatenate(one))
