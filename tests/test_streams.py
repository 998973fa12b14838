"""Golden digests of the v3 random streams, checked against a reference loop.

Each case runs a Monte Carlo entry point at a fixed seed and hashes its
output arrays (or its report JSON).  The digests are those of
`reference_stream_trials`, a plain loop over the v3 rule -- one stream
group at a time through `rng.substream(seed, purpose, group)`, fed to
the reducer one trial at a time -- and the tiled kernel must give the
same, so any change to the draws, to their order, or to the order of a
float accumulation shows up here.  A v3 stream is SFC64 seeded from
the SHA-256 hash of (tag, seed, purpose, group), and
`test_streams_are_numpy_sfc64_seeded_from_the_hash` checks that seeding
against numpy's own SFC64 seeding from the digest's first three words.
Trial counts span more than one chunk (1024 trials) and end in a
partial stream group, and one case runs past a single streaming block.  Identity covariances keep the
Gaussian draws free of BLAS rounding.

The Rademacher digests are those of the int8 sign rule, sign =
2 * `rng.integers(0, 2, dtype=np.int8)` - 1.  `RademacherProduct.sample`
reads the same signs from the stream's 32-bit words (bit 7 of each
byte, low byte first), and `test_int8_sign_rule_gives_golden_digest`
runs those cases with the int8 rule itself.
"""

import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from lil_lab import rng, simulate
from lil_lab.bounds import BoundParams, mc_verify
from lil_lab.distributions import Gaussian, RademacherProduct, RadialPareto
from lil_lab.simulate import (
    BLOCK,
    CHUNK,
    TILE,
    CheckpointNorms,
    PathConfig,
    TruncatedTwin,
    _FinalAndMax,
    _PilotMoments,
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


def reference_stream_trials(dist, n, block, seed, purpose, lo, hi, reducer):
    """`simulate.stream_trials` written as a plain loop over trials, with
    `block` in place of `simulate.BLOCK`.

    Paths longer than `block` go block by block, each block through every
    trial in order before the next: the order in which the kernel hands
    over tiles, which a fold across trials (the pilot's x^T x) follows.
    """
    reducer.start(hi - lo, dist.dim)
    if n <= block:
        # groups of the largest power of two <= max(1, TILE // n), at most CHUNK
        size = 1
        while 2 * size <= min(CHUNK, max(1, TILE // n)):
            size *= 2
        for t in range(lo, hi):
            g, k = divmod(t, size)
            if t == lo or k == 0:
                group = dist.sample(rng.substream(seed, purpose, g), size * n).reshape(size, n, dist.dim)
            reducer.tile(group[k : k + 1], t - lo, 0)
    else:
        gens = [rng.substream(seed, purpose, t) for t in range(lo, hi)]
        for s0 in range(0, n, block):
            for t in range(lo, hi):
                reducer.tile(dist.sample(gens[t - lo], min(block, n - s0))[None], t - lo, s0)
    return reducer.result()


def _reference_kernel(dist, n, seed, purpose, lo, hi, reducer):
    """`reference_stream_trials` with the kernel's signature and BLOCK."""
    return reference_stream_trials(dist, n, simulate.BLOCK, seed, purpose, lo, hi, reducer)


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
    # 3 * 4001 sign bytes: the last block draws an odd count of 32-bit words
    "path-rademacher3-l1-long": _path(RademacherProduct(np.ones(3)), SpaceSpec(3, 1.0), 2 * BLOCK + 4001, 3, 16),
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
    "curve-gauss3-l2": "6cd775ec75ba6174ca6fa00ab7fd3d52d753d652950b28c093c834c363b67c69",
    "curve-rademacher5-linf": "57e3271b0a4b4e0b9961104e0e96fcda5a80e796ad206f31bd44e363c79036ce",
    "path-gauss1-l2": "9d38a0baff20e6b69152f78fe184b211091623956d8762d31f63e8c28deb88b8",
    "path-gauss3-l1-long": "8623cc44aa35e77af31d345c5847a92e2d09ecdc0e980f2f1def3c3c0269e04d",
    "path-gauss3-l2": "a03b8ce2c1969cae1b09330fcb1b9249e4051a6b93caecee784366ce06f1cd51",
    "path-pareto2-l2": "99337cade24b3b62b89cf2f903f82b73bc250adb898573c8f03976e4cefc39df",
    "path-rademacher3-l1-long": "d36a7513577565ea4be66b5ebee76843f3df0350c44a2939f1fc7b2500abf685",
    "path-rademacher5-linf": "a4d21450695e77af006689faf426b5afd56505a4f9457021b0fadd7292867d7f",
    "trunc-gauss1-l2": "9f0d5d665345a4a6f65392aaa98b658808f7142f53e94a694b327be070934238",
    "trunc-gauss3-l1": "a7e979624bc029477f484ea49420c4a42571c9754bcabd46bd1ef06efdecace1",
    "trunc-pareto2-l2-long": "ab75da3dc3f169e4e96b03099bd036f08a30a5907d4298959fdfc7091feea544",
    "verify-gauss1-l2": "0330f301a709061558740ac4264fc8c7d8e371c446164f9ae8050edc678050d7",
    "verify-gauss3-l1": "c1071b2fca18517688228e60c7179e3cefe8c62ee6b3ef3db8296661e29118cf",
    "verify-gauss3-l2": "4c5e1e4f9122c11b8f3b547f4dac6691f4c74a655fd3760bbd83a0705877a3a0",
    "verify-pareto2-l2": "2295e1b7baf5b74afe0c07d8e60ba4e3b1804de06c23c1ca7939e06ca2f44f7f",
    "verify-rademacher5-linf": "9108136a25b10933477eaf3a9b9d1732102fc25c4ba2e533d6d860a8a07339b7",
}


def test_stream_tag_is_v3():
    assert rng._TAG == b"lil-lab-stream-v3"


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, workers):
    assert CASES[name](workers) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_gives_golden_digest(name, monkeypatch):
    monkeypatch.setattr(simulate, "stream_trials", _reference_kernel)
    assert CASES[name](1) == GOLDEN[name]


def _int8_signs(self, gen, n):
    return (gen.integers(0, 2, size=(n, self.dim), dtype=np.int8) * 2 - 1) * self.scales


@pytest.mark.parametrize("name", sorted(k for k in CASES if "rademacher" in k))
def test_int8_sign_rule_gives_golden_digest(name, monkeypatch):
    monkeypatch.setattr(RademacherProduct, "sample", _int8_signs)
    assert CASES[name](1) == GOLDEN[name]


def _same_result(a, b):
    a, b = (a, b) if isinstance(a, tuple) else ((a,), (b,))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("reducer, n, block", [
    (CheckpointNorms(SpaceSpec(2, 1.0), (1, 9, 300)), 300, BLOCK),
    (TruncatedTwin(SpaceSpec(2, 2.0), parse_cseq("pow:0.6"), (3, 50, 300)), 300, BLOCK),
    (TruncatedTwin(SpaceSpec(2, 2.0), parse_cseq("pow:0.6"), (3, 50, 230)), 230, 100),
    (_FinalAndMax(SpaceSpec(2, INF)), 300, 300),
    (_PilotMoments(SpaceSpec(2, 2.0), 3.0), 300, 300),
    # _PilotMoments sums each path pairwise at d = 1, over a step-major copy at d > 1
    (_PilotMoments(SpaceSpec(1, 2.0), 3.0), 300, 300),
    (_PilotMoments(SpaceSpec(5, 2.0), 3.0), 300, 300),
    # paths cut into blocks of 300, 300, 300 and 100 steps
    (_FinalAndMax(SpaceSpec(2, INF)), 1000, 300),
    (_FinalAndMax(SpaceSpec(3, 2.0)), 1000, 300),
    (_PilotMoments(SpaceSpec(1, 2.0), 3.0), 1000, 300),
    (_PilotMoments(SpaceSpec(5, 2.0), 3.0), 1000, 300),
])
@pytest.mark.parametrize("lo, hi", [(0, 100), (37, 150), (1024, 1030)])
def test_kernel_matches_reference(reducer, n, block, lo, hi, monkeypatch):
    # groups of 32 trials; the chunks start and end inside a group
    monkeypatch.setattr(simulate, "BLOCK", block)
    dist = RadialPareto(1.5, reducer.space.dim)
    _same_result(stream_trials(dist, n, 9, rng.MAIN, lo, hi, reducer),
                 reference_stream_trials(dist, n, block, 9, rng.MAIN, lo, hi, reducer))


@pytest.mark.parametrize("p", [1.0, 2.0, INF], ids=["l1", "l2", "linf"])
@pytest.mark.parametrize("n, block", [(300, BLOCK), (230, 100)], ids=["grouped", "block-streamed"])
def test_final_norms_are_the_last_checkpoint_norms(p, n, block, monkeypatch):
    # _FinalAndMax takes ||S_n|| off its carried sums, CheckpointNorms off
    # the last step of a tile: the same S_n, and a row's norm does not
    # depend on the rows taken with it, so the two have the same bits.
    monkeypatch.setattr(simulate, "BLOCK", block)
    space, dist = SpaceSpec(3, p), RadialPareto(1.5, 3)
    finals, _ = stream_trials(dist, n, 5, rng.MAIN, 37, 150, _FinalAndMax(space))
    (norms_at_n,) = stream_trials(dist, n, 5, rng.MAIN, 37, 150, CheckpointNorms(space, (n,)))
    assert finals.tobytes() == np.ascontiguousarray(norms_at_n[:, 0]).tobytes()


@pytest.mark.parametrize("dim", [2, 5])
def test_pilot_sums_are_the_direct_sums(dim):
    # the step-major copy folds the steps in the order x.sum(axis=1) does
    x = RadialPareto(1.5, dim).sample(rng.substream(3, rng.PILOT, 0), 64 * 200).reshape(64, 200, dim)
    reducer = _PilotMoments(SpaceSpec(dim, 2.0), 3.0)
    reducer.start(64, dim)
    reducer.tile(x, 0, 0)
    whole = reducer.result()
    assert np.array_equal(whole[0], simulate.fold(x.sum(axis=1), np.zeros(dim))[-1])
    # one (d, d) second-moment matrix; its diagonal holds the coordinate sums of squares
    assert np.array_equal(whole[1], simulate.fold(np.matmul(x.transpose(0, 2, 1), x), np.zeros((dim, dim)))[-1])
    np.testing.assert_allclose(np.diagonal(whole[1]), (x**2).sum(axis=(0, 1)), rtol=1e-12)
    # one-trial tiles, whose step-major copy is a view of x itself
    reducer.start(64, dim)
    for k in range(64):
        reducer.tile(x[k : k + 1], k, 0)
    _same_result(reducer.result(), whole)


def test_pilot_memory_is_per_trial_rows_and_one_matrix():
    # per-trial sums and moment rows plus one (d, d) matrix, never a (trials, d, d) stack
    reducer = _PilotMoments(SpaceSpec(64, 2.0), 3.0)
    reducer.start(1024, 64)
    held = sum(v.nbytes for v in vars(reducer).values() if isinstance(v, np.ndarray))
    assert held <= 8 * (1024 * 65 + 64**2)
    # the folded matrix owns its memory rather than viewing a tile's stack of partial sums
    reducer.tile(np.ones((8, 3, 64)), 0, 0)
    assert reducer.m2.base is None and reducer.m2.shape == (64, 64)
    # a tile's x^T x is folded inside its one (b, d, d) stack of products:
    # 16.0 MiB here, where a copy of the stack would take it to 32 MiB
    x = np.ones((512, 20, 64))
    tracemalloc.start()
    try:
        reducer.tile(x, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 512 * 64 * 64 * 8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("reducer", [
    CheckpointNorms(SpaceSpec(2, 2.0), (3, 10)),
    _FinalAndMax(SpaceSpec(2, 2.0)),
    _PilotMoments(SpaceSpec(2, 2.0), 3.0),
    _PilotMoments(SpaceSpec(1, 2.0), 3.0),
], ids=["checkpoint-norms", "final-and-max", "pilot-d2", "pilot-d1"])
def test_every_summing_reducer_checks_its_carry_with_the_one_helper(reducer, monkeypatch):
    # a finite tile is checked once; an overflowing one raises before any
    # norm or product of the sums is formed, so numpy never warns
    checked, check = [], simulate.finite_sums

    def recording(sums, step):
        checked.append(step)
        return check(sums, step)

    monkeypatch.setattr(simulate, "finite_sums", recording)
    d = reducer.space.dim
    reducer.start(3, d)
    reducer.tile(np.ones((3, 5, d)), 0, 0)
    assert checked == [5]
    with pytest.raises(ArithmeticError, match=r"^partial sum overflowed near step 10$"):
        reducer.tile(np.full((3, 5, d), 1e308), 0, 5)
    assert checked == [5, 10]


@pytest.mark.parametrize("n, block", [(300, BLOCK), (230, 100)])
def test_reducer_passed_in_is_left_unmodified(n, block, monkeypatch):
    # chunks on threads run at once, so each must work on its own copy
    monkeypatch.setattr(simulate, "BLOCK", block)
    reducer = TruncatedTwin(SpaceSpec(2, 2.0), parse_cseq("pow:0.6"), (3, 50, n))
    reducer.start(4, 2)
    before = {k: (v, v.copy() if isinstance(v, np.ndarray) else v) for k, v in vars(reducer).items()}
    stream_trials(RadialPareto(1.5, 2), n, 9, rng.MAIN, 0, 20, reducer)
    assert vars(reducer).keys() == before.keys()
    for k, (obj, value) in before.items():
        assert vars(reducer)[k] is obj
        if isinstance(obj, np.ndarray):
            assert np.array_equal(obj, value)


def test_trial_count_does_not_change_a_trial():
    # paths of 1000 steps come in groups of 16, so 100 trials end mid-group
    def ratios(trials):
        config = PathConfig(N=1000, seed=17, trials=trials)
        return run_path(Gaussian(np.ones(2)), SpaceSpec(2, 2.0), H, config).ratios

    assert np.array_equal(ratios(100), ratios(1100)[:100])


@pytest.mark.parametrize("block, trials, groups, rows", [
    # two passes of 20480 trials in 320 groups of 64 paths of 200 steps
    (BLOCK, 20480, 320, [64 * 200] * 640),
    # two passes of 100 trials, each its own group, in blocks of 150 and 50 steps
    (150, 100, 100, ([150] * 100 + [50] * 100) * 2),
], ids=["grouped", "block-streamed"])
def test_mc_verify_samples_a_group_per_call(block, trials, groups, rows, monkeypatch):
    # and makes each group's generator once, through rng.substream alone
    monkeypatch.setattr(simulate, "BLOCK", block)
    dist = RademacherProduct(np.ones(5))
    sample, substream, got, keys = dist.sample, rng.substream, [], []

    def counted(gen, n):
        got.append(n)
        return sample(gen, n)

    def keyed(*key):
        keys.append(key)
        return substream(*key)

    dist.sample = counted
    monkeypatch.setattr(rng, "substream", keyed)
    mc_verify(dist, SpaceSpec(5, INF), 200, trials, [10.0, 40.0], PARAMS, seed=3, kr_points=2)
    assert got == rows
    assert keys == [(3, purpose, g) for purpose in (rng.PILOT, rng.MAIN) for g in range(groups)]


@pytest.mark.parametrize("dist, space", [
    (Gaussian(np.ones(3)), SpaceSpec(3, 2.0)),
    (RademacherProduct(np.ones(5)), SpaceSpec(5, INF)),
], ids=["gauss3-l2", "rademacher5-linf"])
def test_mc_verify_cut_into_blocks_keeps_finals_and_maxima(dist, space, monkeypatch):
    # Paths of more than TILE steps are groups of one trial, drawn from the
    # trial's own stream uncut or cut into blocks.  The carry continues the
    # sequential cumulative sum, and a Gaussian or Rademacher stream splits
    # into blocks draw for draw (Rademacher signs while each block fills
    # whole 32-bit words), so cutting the path leaves the main pass bit for
    # bit as it was.
    main, rows = [], []

    def spy(*args, map_trials=simulate.map_trials):
        parts = map_trials(*args)
        main.append((np.concatenate([p[0] for p in parts[1]]), np.concatenate([p[1] for p in parts[1]])))
        return parts

    def counted(gen, n, sample=dist.sample):
        rows.append(n)
        return sample(gen, n)

    monkeypatch.setattr(simulate, "map_trials", spy)
    monkeypatch.setattr(dist, "sample", counted)
    n = 20000  # > TILE
    run = functools.partial(mc_verify, dist, space, n, 100, [100.0, 300.0], PARAMS, seed=6, kr_points=2)
    run()
    assert set(rows) == {n}
    rows.clear()
    monkeypatch.setattr(simulate, "BLOCK", 6000)
    run()
    assert set(rows) == {6000, 2000}
    (finals, maxes), (cut_finals, cut_maxes) = main
    assert np.array_equal(finals, cut_finals) and np.array_equal(maxes, cut_maxes)


@pytest.mark.parametrize("dim", [1, 3], ids=["gauss1-l2", "gauss3-l2"])
def test_path_estimators_cut_into_blocks_keep_every_array(dim, monkeypatch):
    # As above for checkpoint norms, the truncated twin and the mean-norm
    # curve: every reducer continues S_k through `path_sums`, so checkpoints
    # inside a later block have the bits of the uncut path.
    dist, space, n = Gaussian(np.ones(dim)), SpaceSpec(dim, 2.0), 20000  # > TILE
    config = PathConfig(N=n, seed=8, trials=30)

    def arrays():
        path = run_path(dist, space, H, config)
        trunc = truncated_path(dist, space, parse_cseq("pow:0.1"), config)
        curve = mean_norm_curve(dist, space, parse_cseq("pow:0.5"), [5, 5999, 6001, 13000, n], 30, seed=8)
        return (path.ratios, trunc.gap_curve, trunc.last_trunc, trunc.trunc_count, trunc.gap_sup,
                curve.mean, curve.se)

    whole = arrays()
    monkeypatch.setattr(simulate, "BLOCK", 6000)
    for a, b in zip(whole, arrays()):
        assert np.array_equal(a, b)


class _HashWords(ISeedSequence):
    """numpy's SFC64 seeding, fed the SHA-256 digest of (tag, seed, *path) as its words."""

    def __init__(self, seed, *path):
        h = hashlib.sha256(b"lil-lab-stream-v3")
        for part in (seed, *path):
            h.update(np.uint64(part).tobytes())
        self.words = np.frombuffer(h.digest(), "<u8", 3).astype(np.uint64)

    def generate_state(self, n_words, dtype=np.uint64):
        assert (n_words, np.dtype(dtype)) == (3, np.uint64)
        return self.words


def test_streams_are_numpy_sfc64_seeded_from_the_hash():
    for path in ((5, rng.PILOT, 0), (5, rng.PILOT, 1), (5, rng.PILOT, 1023), (5, rng.PILOT, 2**40), (7,)):
        want = np.random.SFC64(_HashWords(*path)).state
        state = rng.substream(*path).bit_generator.state
        assert state["bit_generator"] == want["bit_generator"] == "SFC64"
        assert np.array_equal(state["state"]["state"], want["state"]["state"])
        assert (state["has_uint32"], state["uinteger"]) == (want["has_uint32"], want["uinteger"]) == (0, 0)


@pytest.mark.parametrize("reducer, n, block", [
    (CheckpointNorms(SpaceSpec(2, 2.0), (1, 5, 40, 999, 1000)), 1000, BLOCK),
    (CheckpointNorms(SpaceSpec(2, 1.0), (1, 7, 150, 230)), 230, 100),
    (TruncatedTwin(SpaceSpec(2, 2.0), parse_cseq("pow:0.6"), (3, 50, 1000)), 1000, BLOCK),
    (TruncatedTwin(SpaceSpec(2, 2.0), parse_cseq("pow:0.6"), (3, 50, 230)), 230, 100),
    (_FinalAndMax(SpaceSpec(2, INF)), 1000, 1000),
    (_PilotMoments(SpaceSpec(2, 2.0), 3.0), 1000, 1000),
    (_PilotMoments(SpaceSpec(1, 2.0), 3.0), 1000, 1000),
    (_PilotMoments(SpaceSpec(5, 2.0), 3.0), 1000, 1000),
])
def test_tiling_does_not_change_results(reducer, n, block, monkeypatch):
    # One chunk of 40 trials against 40 one-trial chunks: with n = 1000 the
    # chunk is three tiles of at most 16 trials; with BLOCK < n every trial
    # streams block by block.
    monkeypatch.setattr(simulate, "BLOCK", block)
    dist = RadialPareto(1.5, reducer.space.dim)
    tiled = stream_trials(dist, n, 7, rng.MAIN, 0, 40, reducer)
    singles = [stream_trials(dist, n, 7, rng.MAIN, t, t + 1, reducer) for t in range(40)]
    if isinstance(reducer, _PilotMoments):
        # chunk results are summed left to right, as mc_verify does
        for j, part in enumerate(tiled):
            assert np.array_equal(part, sum(p[j] for p in singles))
        return
    parts = tiled if isinstance(tiled, tuple) else (tiled,)
    for j, part in enumerate(parts):
        one = [p[j] if isinstance(p, tuple) else p for p in singles]
        np.testing.assert_array_equal(part, np.concatenate(one))
