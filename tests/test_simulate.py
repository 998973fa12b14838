"""Streaming partial-sum paths, truncated twins, and mean-norm curves."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lil_lab
from lil_lab import simulate
from lil_lab.bounds import BoundParams, mc_verify
from lil_lab.distributions import Gaussian, PointMass, RadialPareto
from lil_lab.simulate import (
    BLOCK,
    PathConfig,
    TruncatedTwin,
    geometric_checkpoints,
    limsup_estimate,
    mean_norm_curve,
    run_path,
    truncated_path,
)
from lil_lab.slowvary import NormalizerSeq, parse_cseq, parse_slow_vary
from lil_lab.spaces import SpaceSpec, norms


class TestCheckpoints:
    def test_grid_shape(self):
        pts = geometric_checkpoints(1000)
        assert pts[0] == 1 and pts[-1] == 1000
        assert all(b > a for a, b in zip(pts, pts[1:]))
        # geometric spacing once past the integer-crowded start
        tail_ratios = [b / a for a, b in zip(pts, pts[1:]) if a >= 100]
        assert all(r <= 1.31 for r in tail_ratios)

    def test_small_and_invalid(self):
        assert geometric_checkpoints(1) == (1,)
        with pytest.raises(ValueError):
            geometric_checkpoints(0)
        with pytest.raises(ValueError):
            geometric_checkpoints(10, ratio=1.0)

    def test_config_fills_checkpoints(self):
        cfg = PathConfig(N=500, seed=1, trials=2)
        assert cfg.checkpoints[-1] == 500
        with pytest.raises(ValueError):
            PathConfig(N=100, checkpoints=(1, 200), seed=1, trials=1)
        with pytest.raises(ValueError):
            PathConfig(N=100, seed=1, trials=0)


class TestRunPath:
    def test_deterministic_and_partition_invariant(self):
        h = parse_slow_vary("2*(LL)^1")
        cfg = PathConfig(N=2048, seed=11, trials=2500)
        space = SpaceSpec(1, 2.0)
        a = run_path(Gaussian(1.0), space, h, cfg, workers=1)
        b = run_path(Gaussian(1.0), space, h, cfg, workers=3)
        np.testing.assert_array_equal(a.ratios, b.ratios)
        c = run_path(Gaussian(1.0), space, h, cfg, workers=1)
        np.testing.assert_array_equal(a.ratios, c.ratios)

    def test_ratio_normalization(self):
        # a point mass at 1 makes S_n = n exactly, so the ratio is n/a_n
        h = parse_slow_vary("2*(LL)^1")
        cfg = PathConfig(N=100, seed=0, trials=1)
        res = run_path(PointMass(np.array([1.0])), SpaceSpec(1, 2.0), h, cfg)
        pts = np.asarray(res.checkpoints, dtype=float)
        np.testing.assert_allclose(res.ratios[0], pts / NormalizerSeq(h).values(pts), rtol=1e-12)

    def test_seed_changes_draws(self):
        h = parse_slow_vary("2*(LL)^1")
        space = SpaceSpec(1, 2.0)
        a = run_path(Gaussian(1.0), space, h, PathConfig(N=256, seed=1, trials=3))
        b = run_path(Gaussian(1.0), space, h, PathConfig(N=256, seed=2, trials=3))
        assert not np.array_equal(a.ratios, b.ratios)

    def test_csv_header_and_rows(self):
        h = parse_slow_vary("2*(LL)^1")
        res = run_path(Gaussian(1.0), SpaceSpec(1, 2.0), h, PathConfig(N=64, seed=5, trials=2))
        lines = res.to_csv_text().strip().splitlines()
        assert lines[0] == "# seed=5"
        assert lines[1] == "trial,n,ratio"
        assert len(lines) == 2 + 2 * len(res.checkpoints)

    def test_paths_have_n_steps_whatever_the_checkpoints(self):
        # the path length, not the last checkpoint, fixes the stream groups
        h, space = parse_slow_vary("2*(LL)^1"), SpaceSpec(1, 2.0)
        short = run_path(Gaussian(1.0), space, h, PathConfig(N=1000, checkpoints=(10, 100), seed=4, trials=40))
        full = run_path(Gaussian(1.0), space, h, PathConfig(N=1000, checkpoints=(10, 100, 1000), seed=4, trials=40))
        np.testing.assert_array_equal(short.ratios, full.ratios[:, :2])


class TestTruncatedPath:
    def test_drops_are_counted_over_n_steps(self):
        # 1e5 steps, of which the checkpoints read only the first 100
        dist, space, c_seq = RadialPareto(1.2, 1), SpaceSpec(1, 2.0), parse_cseq("pow:0.7")
        short = truncated_path(dist, space, c_seq, PathConfig(N=100000, checkpoints=(10, 100), trials=4, seed=1))
        full = truncated_path(dist, space, c_seq,
                              PathConfig(N=100000, checkpoints=(10, 100, 100000), trials=4, seed=1))
        np.testing.assert_array_equal(short.trunc_count, full.trunc_count)
        np.testing.assert_array_equal(short.last_trunc, full.last_trunc)
        np.testing.assert_array_equal(short.gap_sup, full.gap_sup)
        np.testing.assert_array_equal(short.gap_curve, full.gap_curve[:, :2])

    def test_twin_agrees_when_nothing_is_truncated(self):
        # a bounded law under a growing threshold never loses a draw
        cfg = PathConfig(N=512, seed=3, trials=20)
        res = truncated_path(
            PointMass(np.array([0.5])), SpaceSpec(1, 2.0), parse_cseq("pow:0.5,2.0"), cfg
        )
        assert np.all(res.trunc_count == 0)
        assert np.all(res.last_trunc == 0)
        np.testing.assert_allclose(res.gap_sup, 0.0)
        np.testing.assert_allclose(res.gap_curve, 0.0)

    def test_heavy_tail_shows_persistent_gap(self):
        cfg = PathConfig(N=4096, seed=5, trials=100)
        res = truncated_path(RadialPareto(1.2, 2, 1.0), SpaceSpec(2, 2.0), parse_cseq("pow:0.7"), cfg)
        assert float(np.mean(res.trunc_count)) > 1.0
        assert float(np.median(res.gap_sup)) > 0.0

    def test_gap_is_the_dropped_draw_exactly(self):
        # S_n - S'_n is the one dropped draw; subtracting the two paths would
        # leave a rounding error of the 0.1 steps in it
        points = (1, 2, 10, 100, 1000)
        x = np.full((1, 1000, 1), 0.1)
        x[0, 0, 0] = 3e7
        c_seq = parse_cseq("pow:1,1e7")
        twin = TruncatedTwin(SpaceSpec(1, 2.0), c_seq, points)
        twin.start(1, 1)
        twin.tile(x, 0, 0)
        gap_norms, last, count, gap_sup = twin.result()
        assert gap_norms.tolist() == [[3e7] * len(points)]
        assert last.tolist() == [1] and count.tolist() == [1]
        assert gap_sup.tolist() == [3e7 / c_seq.values(2.0)]

    def test_checkpoints_in_a_block_without_drops_match_a_plain_loop(self):
        # Blocks of 100 steps.  Trial 0 drops its draw at step 150 only, so
        # blocks 1 and 3 drop nothing: checkpoint 50 comes before any drop,
        # where the kept negative draws times 0 are -0.0, and checkpoints 250
        # and 300 read a nonzero carry.  Trial 1 drops nothing.
        space, c_seq, points = SpaceSpec(2, 2.0), parse_cseq("pow:0.5"), (50, 120, 180, 250, 300)
        x = np.full((2, 300, 2), -0.25)
        x[0, 149] = [30.0, -40.0]
        twin = TruncatedTwin(space, c_seq, points)
        twin.start(2, 2)
        for s0 in range(0, 300, 100):
            twin.tile(x[:, s0 : s0 + 100].copy(), 0, s0)
        gap_norms, last, count, gap_sup = twin.result()

        want = np.empty((2, len(points)))
        for t in range(2):
            dropped = np.zeros(2)
            for k in range(300):
                if not np.linalg.norm(x[t, k]) <= c_seq.values(float(k + 1)):
                    dropped = dropped + x[t, k]
                if k + 1 in points:
                    want[t, points.index(k + 1)] = norms(dropped[None], space)[0]
        np.testing.assert_array_equal(gap_norms, want)
        assert gap_norms[0, 0] == 0.0 and gap_norms[0, -1] == 50.0
        assert last.tolist() == [150, 0] and count.tolist() == [1, 0]
        assert gap_sup.tolist() == [50.0 / c_seq.values(151.0), 0.0]

    def test_light_tail_rarely_truncates(self):
        cfg = PathConfig(N=4096, seed=5, trials=100)
        res = truncated_path(
            Gaussian(1.0), SpaceSpec(1, 2.0), parse_cseq("psi:2*(LL)^1"), cfg
        )
        # the threshold passes every late draw; only the first steps can clip
        assert float(np.median(res.gap_sup)) == 0.0
        assert int(np.max(res.last_trunc)) < 50


class TestMeanNormCurve:
    def test_folded_normal_target(self):
        curve = mean_norm_curve(
            Gaussian(1.0),
            SpaceSpec(1, 2.0),
            parse_cseq("pow:0.5"),
            np.array([100, 1000, 10000]),
            trials=400,
            seed=20260819,
        )
        target = math.sqrt(2.0 / math.pi)
        for m, lo, hi in zip(curve.mean, curve.ci_lo, curve.ci_hi):
            assert abs(m - target) <= 3 * (hi - lo)
        assert np.all(curve.ci_lo < curve.mean) and np.all(curve.mean < curve.ci_hi)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            mean_norm_curve(
                Gaussian(1.0), SpaceSpec(1, 2.0), parse_cseq("pow:0.5"), np.array([10, 20]), trials=5
            )

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            mean_norm_curve(
                Gaussian(1.0),
                SpaceSpec(1, 2.0),
                parse_cseq("pow:0.5"),
                np.array([100, 100]),
                trials=40,
            )

    def test_csv_columns(self):
        curve = mean_norm_curve(
            Gaussian(1.0), SpaceSpec(1, 2.0), parse_cseq("pow:0.5"), np.array([32, 64]), trials=30, seed=8
        )
        lines = curve.to_csv_text().strip().splitlines()
        assert lines[0] == "# seed=8 trials=30"
        assert lines[1] == "n,mean,ci_lo,ci_hi"
        assert len(lines) == 4


class TestCheckpointRatioRule:
    """`run_path`, `truncated_path` and `mean_norm_curve` check the grid and
    c_n at the checkpoints before they sample any path."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled paths that cannot be normalized")

        monkeypatch.setattr(simulate, "map_trials", refuse)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("run, message", [
        # c_n = 1e300 n^2 passes the float ceiling between 8192 and 16384
        (lambda: truncated_path(Gaussian(1.0), SpaceSpec(1, 2.0), parse_cseq("pow:2,1e300"),
                                PathConfig(N=20000, checkpoints=(1, 8192, 16384, 20000), trials=2)),
         r"^c_n = pow:2,1e\+300 is not finite at checkpoint n = 16384, so no checkpoint ratio can be formed$"),
        (lambda: mean_norm_curve(Gaussian(1.0), SpaceSpec(1, 2.0), parse_cseq("pow:2,1e300"), [64, 8192, 16384],
                                 trials=30),
         r"^c_n = pow:2,1e\+300 is not finite at checkpoint n = 16384, so no checkpoint ratio can be formed$"),
        # a_n = sqrt(n (log n)^1000) passes the float ceiling from n = 62 on
        (lambda: run_path(Gaussian(1.0), SpaceSpec(1, 2.0), parse_slow_vary("(L)^1000"),
                          PathConfig(N=100, checkpoints=(10, 61, 62), trials=2)),
         r"^a_n = psi\(n\) for h = \(L\)\^1000 is not finite at checkpoint n = 62, so no checkpoint ratio"),
    ], ids=["truncated_path", "mean_norm_curve", "run_path"])
    def test_c_n_past_the_float_range(self, run, message):
        with pytest.raises(ValueError, match=message):
            run()

    def test_nonpositive_c_n(self):
        class Zero:
            def values(self, n):
                return np.zeros_like(n)

            def describe(self):
                return "zero"

        with pytest.raises(ValueError, match=r"^c_n = zero is not positive at checkpoint n = 4"):
            mean_norm_curve(Gaussian(1.0), SpaceSpec(1, 2.0), Zero(), [4, 8], trials=30)

    @pytest.mark.parametrize("checkpoints", [(5, 3), (0, 5), (4, 4), (2.7, 5), (2, float("nan"))])
    def test_grid(self, checkpoints):
        h = parse_slow_vary("2*(LL)^1")
        with pytest.raises(ValueError, match="^checkpoints must be strictly increasing positive integers$"):
            run_path(Gaussian(1.0), SpaceSpec(1, 2.0), h, PathConfig(N=10, checkpoints=checkpoints))

    def test_a_grid_point_that_is_not_an_integer(self):
        # refused, where it used to be cut to (10, 20)
        with pytest.raises(ValueError, match="^checkpoints must be strictly increasing positive integers$"):
            mean_norm_curve(Gaussian(1.0), SpaceSpec(1, 2.0), parse_cseq("pow:0.5"), [10.7, 20.9], trials=30)
        with pytest.raises(ValueError, match="^checkpoints must be strictly increasing positive integers$"):
            PathConfig(N=100, checkpoints=(10.7, 20))
        cps = PathConfig(N=100, checkpoints=(10.0, np.float64(20))).checkpoints
        assert cps == (10, 20) and all(type(c) is int for c in cps)


class TestLongPathChunks:
    """Paths longer than BLOCK, cut into chunks of 2 trials run on threads."""

    N = BLOCK + 100

    @pytest.fixture
    def same_at_every_chunking(self, monkeypatch):
        def check(run, unpack):
            whole = unpack(run(1))  # one chunk: LONG_CHUNK // N is 255 trials
            monkeypatch.setattr(simulate, "LONG_CHUNK", 2 * self.N)
            for workers in (1, 3):
                for a, b in zip(whole, unpack(run(workers))):
                    np.testing.assert_array_equal(a, b)
        return check

    def test_run_path(self, same_at_every_chunking):
        cfg = PathConfig(N=self.N, seed=4, trials=5)
        same_at_every_chunking(
            lambda w: run_path(Gaussian(np.ones(2)), SpaceSpec(2, 2.0), parse_slow_vary("2*(LL)^1"), cfg, w),
            lambda res: (res.ratios,),
        )

    def test_truncated_path(self, same_at_every_chunking):
        cfg = PathConfig(N=self.N, seed=5, trials=5)
        same_at_every_chunking(
            lambda w: truncated_path(RadialPareto(1.5, 2), SpaceSpec(2, 2.0), parse_cseq("pow:0.7"), cfg, w),
            lambda res: (res.gap_curve, res.last_trunc, res.trunc_count, res.gap_sup),
        )

    def test_mean_norm_curve(self, same_at_every_chunking):
        grid = np.array([10, 1000, self.N])
        same_at_every_chunking(
            lambda w: mean_norm_curve(Gaussian(1.0), SpaceSpec(1, 2.0), parse_cseq("pow:0.5"), grid,
                                      trials=30, seed=6, workers=w),
            lambda c: (c.mean, c.se, c.ci_lo, c.ci_hi),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_a_worker_thread_raises(self, monkeypatch):
        monkeypatch.setattr(simulate, "LONG_CHUNK", self.N)
        cfg = PathConfig(N=BLOCK + 10, seed=0, trials=3)
        with pytest.raises(ArithmeticError, match="overflowed near step 65536"):
            run_path(PointMass(np.array([1e305])), SpaceSpec(1, 2.0), parse_slow_vary("2*(LL)^1"), cfg,
                     workers=2)


@st.composite
def _tile_views(draw):
    """(b, m, d) of a pilot tile of at most BLOCK draws, with a view's slicing:
    the trials it skips, its step over the steps, and the coordinates it skips."""
    d = draw(st.integers(2, 20))
    m = draw(st.integers(1, BLOCK))
    b = draw(st.integers(1, BLOCK // m))
    step = draw(st.integers(1, 2)) if 2 * b * m <= BLOCK else 1
    return b, m, d, draw(st.integers(0, 1)), step, draw(st.integers(0, 1))


class TestPilotSums:
    """The pilot's per-trial coordinate sums keep the bits of the step-by-step
    fold over a transposed copy of the tile, kept here as the reference."""

    @staticmethod
    def reference(x: np.ndarray) -> np.ndarray:
        b, m, d = x.shape
        return np.ascontiguousarray(x.reshape(b, m * d).T).reshape(m, d, b).sum(axis=0).T

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(view=_tile_views(), decades=st.sampled_from([0, 3, 300]), seed=st.integers(0, 2**32 - 1))
    @example(view=(1, BLOCK, 20, 0, 1, 0), decades=0, seed=0)
    def test_two_tiles_sum_as_the_transposed_fold(self, view, decades, seed):
        b, m, d, lead, step, extra = view
        gen = np.random.default_rng(seed)
        shape = (lead + b, step * m, d + extra)
        pilot = simulate._PilotMoments(SpaceSpec(d, 2.0), 3.0)
        pilot.start(b, d)
        want = np.zeros((b, d))
        for s0 in (0, m):
            draws = np.power(10.0, gen.uniform(-decades, decades, shape))
            draws *= gen.standard_normal(shape)
            x = draws[lead:, ::step, extra:]
            with np.errstate(over="ignore", invalid="ignore"):
                pilot.tile(x, 0, s0)
                want += self.reference(x)
        assert pilot.sums.tobytes() == want.tobytes()


class TestBoundedMemory:
    """A block-streamed path holds a few block-sized arrays, whatever N is."""

    @pytest.mark.parametrize("run", [
        lambda dist, space, cfg: truncated_path(dist, space, parse_cseq("psi:2*(LL)^1"), cfg),
        lambda dist, space, cfg: run_path(dist, space, parse_slow_vary("2*(LL)^1"), cfg),
    ], ids=["truncated_path", "run_path"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_path_peak(self, run, d):
        cfg = PathConfig(N=2 * BLOCK + 1, seed=9, trials=2)
        dist = Gaussian(1.0) if d == 1 else Gaussian(np.ones(d))
        assert self.peak_blocks(lambda: run(dist, SpaceSpec(d, 2.0), cfg), d) <= 4

    def test_mc_verify_peak(self):
        params = BoundParams(eta=1.0, delta=1.0, s=3.0)
        verify = lambda n: mc_verify(Gaussian(1.0), SpaceSpec(1, 2.0), n=n, trials=100,
                                     t_grid=np.array([3.0]), params=params, workers=1)
        # a short run warms up the same modules in a fraction of the time
        assert self.peak_blocks(lambda: verify(BLOCK + 1), 1, warm=lambda: verify(200)) <= 4

    # One 4,096 x 200 `mc_verify` at workers 1 in a fresh interpreter, after
    # its modules are loaded: the minor page faults of the call alone.
    _FAULTS = (
        "import resource, sys; import numpy as np; "
        "from lil_lab import bounds, cli, distributions, rng, simulate; "
        "dist, space = distributions.parse_dist(sys.argv[1]), cli.parse_space(sys.argv[2]); "
        "params = bounds.BoundParams(1.0, 1.0, 3.0); "
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        "bounds.mc_verify(dist, space, 200, 4096, np.geomspace(7.0, 70.0, 20), params, workers=1); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )

    @pytest.mark.skipif(sys.platform != "linux", reason="glibc's heap trimming is what the budget guards against")
    @pytest.mark.parametrize("dist", ["rademacher:dim=5", "rademacher:scales=1;2;3;4;5"])
    def test_mc_verify_faults(self, dist):
        # A second tile-sized array freed beside each tile lets glibc trim the
        # heap top, which every next draw faults back in: about 14,000 faults
        # (26,000 scaled) where the reused heap takes a few hundred.
        src = str(Path(lil_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", self._FAULTS, dist, "5,inf"], env=env, capture_output=True,
                             text=True, check=True)
        assert int(out.stdout) <= 4000

    @staticmethod
    def peak_blocks(run, d: int, warm=None) -> float:
        """The tracemalloc peak of `run` after a first call of `warm` (or of
        `run`), in arrays of BLOCK x d floats."""
        (warm or run)()  # loads modules and fills caches, which the peak should not count
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (BLOCK * d * 8)

    @pytest.mark.parametrize("spec", ["psi:2*(LL)^1", "pow:0.7"])
    @pytest.mark.parametrize("step", [8192, 4096, 1000])
    def test_sliced_levels_have_the_bits_of_one_call(self, monkeypatch, spec, step):
        monkeypatch.setattr(simulate, "LEVEL_SLICE", step)
        c_seq = parse_cseq(spec)
        twin = TruncatedTwin(SpaceSpec(1, 2.0), c_seq, (1,))
        twin.start(1, 1)
        # a whole block, then a last block that is no whole number of slices
        for s0, m in ((BLOCK, BLOCK), (2 * BLOCK, 12345)):
            want = c_seq.values(np.arange(s0 + 1, s0 + m + 1, dtype=float))
            np.testing.assert_array_equal(twin.levels(s0, m), want)


class TestLimsupEstimate:
    def test_window_math_on_known_ratios(self):
        h = parse_slow_vary("2*(LL)^1")
        res = run_path(Gaussian(1.0), SpaceSpec(1, 2.0), h, PathConfig(N=1024, seed=2, trials=40))
        est = limsup_estimate(res, tail_fraction=0.5)
        k = len(res.checkpoints)
        window = res.ratios[:, k - math.ceil(0.5 * k):]
        np.testing.assert_allclose(est.per_trial, window.max(axis=1))
        assert est.median == pytest.approx(float(np.median(est.per_trial)))
        assert est.q10 <= est.median <= est.q90

    def test_fraction_validation(self):
        h = parse_slow_vary("2*(LL)^1")
        res = run_path(Gaussian(1.0), SpaceSpec(1, 2.0), h, PathConfig(N=64, seed=2, trials=30))
        with pytest.raises(ValueError):
            limsup_estimate(res, tail_fraction=0.0)
        with pytest.raises(ValueError):
            limsup_estimate(res, tail_fraction=1.5)
