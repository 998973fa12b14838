"""Norms, covariance containers, and dual-ball maximization."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lil_lab.distributions import Gaussian, RademacherProduct, RadialPareto, parse_dist
from lil_lab.spaces import (
    DistTSM,
    EmpiricalTSM,
    SpaceSpec,
    TruncatedCov,
    dual_ball_sup,
    norm,
    norms,
    trunc_cov_empirical,
    truncated_second_moment,
)


def brute_force_sup(cov: np.ndarray, p: float) -> float:
    """Reference maximization of f' cov f over the dual unit ball."""
    d = cov.shape[0]
    if p == 1.0:
        # dual ball is the l-inf cube; a PSD quadratic peaks at a vertex
        best = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=d):
            f = np.asarray(signs)
            best = max(best, float(f @ cov @ f))
        return best
    if p == 2.0:
        return float(np.max(np.linalg.eigvalsh(cov)))
    # dual ball is the l1 cross-polytope; extreme points are +-e_i
    return float(np.max(np.diag(cov)))


class TestNorms:
    def test_scalar_vector_agreement(self):
        space = SpaceSpec(3, 2.0)
        x = np.array([3.0, 4.0, 0.0])
        assert norm(x, space) == pytest.approx(5.0)
        batch = np.stack([x, 2 * x])
        np.testing.assert_allclose(norms(batch, space), [5.0, 10.0])

    @pytest.mark.parametrize("p,expected", [(1.0, 6.0), (2.0, math.sqrt(14.0)), (math.inf, 3.0)])
    def test_p_norms(self, p, expected):
        x = np.array([1.0, -2.0, 3.0])
        assert norm(x, SpaceSpec(3, p)) == pytest.approx(expected)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            norm(np.ones(4), SpaceSpec(3, 2.0))

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=20)
                      .filter(lambda s: s[1] >= 1)))
    @settings(max_examples=100, deadline=None)
    def test_sup_norms_match_reduction_bit_for_bit(self, x):
        out = norms(x, SpaceSpec(x.shape[1], math.inf))
        ref = np.abs(x).max(axis=1)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        np.testing.assert_array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @given(rows=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=20),
                           elements=st.floats() | st.sampled_from([3e200, -1e308])))
    @settings(max_examples=100, deadline=None)
    def test_norm_is_its_row_of_norms_bit_for_bit(self, p, rows):
        # huge rows, whose squares overflow, and inf and NaN entries included
        space = SpaceSpec(rows.shape[1], p)
        np.testing.assert_array_equal([norm(v, space) for v in rows], norms(rows, space))

    def test_unsupported_exponent_rejected(self):
        with pytest.raises(ValueError):
            SpaceSpec(3, 1.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_l2_norms_of_huge_finite_rows_do_not_overflow(self, d):
        space = SpaceSpec(d, 2.0)
        rows = np.full((4, d), 3e200)
        rows[1, 0], rows[2] = -1e308, 1.0
        rows[3, 0] = math.inf
        want = [3e200 * math.sqrt(d), 1e308, math.sqrt(d), math.inf]
        for got in (norms(rows, space), [norm(v, space) for v in rows]):
            assert list(got) == pytest.approx(want, rel=1e-15)
        # a norm past the float range stays inf
        assert norms(np.full((1, 4), 1e308), SpaceSpec(4, 2.0))[0] == math.inf
        assert RademacherProduct([1e200] * d).norm_bound(space) == pytest.approx(1e200 * math.sqrt(d))

    @pytest.mark.parametrize("d", [1, 3, 20])
    def test_rescue_leaves_finite_norms_bit_for_bit(self, d):
        rows = np.random.default_rng(d).standard_normal((300, d)) * np.geomspace(1e-150, 1e150, 300)[:, None]
        rows[::7] *= 1e150  # rows whose squares overflow ride along
        space = SpaceSpec(d, 2.0)
        finite = np.abs(rows).max(axis=1) < 1e150
        assert np.array_equal(norms(rows, space)[finite], np.sqrt(np.einsum("ij,ij->i", rows, rows))[finite])


class TestTruncatedCov:
    def test_requires_symmetric_psd(self):
        with pytest.raises(ValueError):
            TruncatedCov(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)
        with pytest.raises(ValueError):
            TruncatedCov(np.array([[1.0, 0.0], [0.0, -1.0]]), 1.0)

    def test_entry_near_the_float_max_keeps_its_bits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = TruncatedCov(np.array([[1e308]]), 1.0)
        assert cov.matrix[0, 0] == 1e308

    def test_empirical_matches_hand_count(self):
        space = SpaceSpec(2, 2.0)
        draws = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        cov = trunc_cov_empirical(draws, 2.5, space)
        # only the first two rows survive the norm cut
        kept = draws[:2]
        np.testing.assert_allclose(cov.matrix, kept.T @ kept / 3.0)
        assert cov.threshold == 2.5

    def test_empirical_threshold_monotone(self):
        rng = np.random.default_rng(314)
        draws = rng.normal(size=(500, 3))
        space = SpaceSpec(3, 2.0)
        small = trunc_cov_empirical(draws, 0.5, space).matrix
        large = trunc_cov_empirical(draws, 50.0, space).matrix
        # adding mass can only grow the quadratic form in the PSD order
        eigs = np.linalg.eigvalsh(large - small)
        assert eigs.min() >= -1e-12

    @pytest.mark.parametrize("t", [0.05, 0.5, 2.0, 50.0])
    def test_empirical_is_the_empirical_tsm_bit_for_bit(self, t):
        draws = np.random.default_rng(10).normal(size=(400, 2))
        space = SpaceSpec(2, 2.0)
        assert dual_ball_sup(trunc_cov_empirical(draws, t, space), space) == EmpiricalTSM(draws, space)(t)


class TestDualBallSup:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_matches_brute_force(self, d, p):
        rng = np.random.default_rng(1000 + d)
        a = rng.normal(size=(d, d))
        cov = a @ a.T
        mine = dual_ball_sup(TruncatedCov(cov, math.inf), SpaceSpec(d, p))
        ref = brute_force_sup(cov, p)
        assert mine == pytest.approx(ref, abs=1e-8, rel=1e-8)

    def test_dominates_random_directions(self):
        rng = np.random.default_rng(77)
        d = 6
        a = rng.normal(size=(d, d))
        cov = a @ a.T
        top = dual_ball_sup(TruncatedCov(cov, math.inf), SpaceSpec(d, 2.0))
        f = rng.normal(size=(4000, d))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        rand = np.einsum("ij,jk,ik->i", f, cov, f)
        assert top >= rand.max() - 1e-12

    def test_identity_cov(self):
        cov = TruncatedCov(np.eye(4), math.inf)
        assert dual_ball_sup(cov, SpaceSpec(4, 2.0)) == pytest.approx(1.0)
        assert dual_ball_sup(cov, SpaceSpec(4, math.inf)) == pytest.approx(1.0)
        # l1 primal: the dual cube vertex sums all coordinates
        assert dual_ball_sup(cov, SpaceSpec(4, 1.0)) == pytest.approx(4.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_entry_near_the_float_max_does_not_overflow(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dual_ball_sup(np.array([[1e308]]), SpaceSpec(1, p)) == 1e308

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_nan_entry_is_refused(self, p):
        with pytest.raises(ValueError, match="has an entry that is not finite"):
            dual_ball_sup(np.array([[1.0, math.nan], [math.nan, 1.0]]), SpaceSpec(2, p))


def _gram_with_repeat(a: np.ndarray) -> np.ndarray:
    a = np.concatenate([a, a[:1]])
    return a @ np.swapaxes(a, 1, 2)


def psd_stacks(max_d: int = 6):
    """(k, d, d) stacks of PSD matrices a a^T whose last one repeats the first."""
    return st.tuples(st.integers(1, 6), st.integers(1, max_d)).flatmap(
        lambda kd: hnp.arrays(np.float64, (kd[0], kd[1], kd[1]), elements=st.floats(-10, 10))
    ).map(_gram_with_repeat)


class TestDualBallSupStack:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @given(stack=psd_stacks())
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_per_matrix_calls_bit_for_bit(self, p, stack):
        space = SpaceSpec(stack.shape[1], p)
        got = dual_ball_sup(stack, space)
        assert got.shape == (stack.shape[0],) and got.dtype == np.float64
        ref = np.array([dual_ball_sup(m, space) for m in stack])
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("bad", ["asymmetric", "indefinite"])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_one_bad_matrix_fails_the_stack(self, bad, p):
        stack = np.stack([np.eye(3), 2.0 * np.eye(3), np.eye(3)])
        if bad == "asymmetric":
            stack[1, 0, 2] += 1.0
        else:
            stack[1] = np.diag([1.0, -0.5, 1.0])
        with pytest.raises(ValueError):
            dual_ball_sup(stack, SpaceSpec(3, p))

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_infinite_variance_gives_inf_unchecked(self, p):
        # the inf entries would fail the symmetry and PSD checks as inf - inf
        bad = np.diag([1.0, math.inf, 2.0])
        bad[1, 0] = math.inf
        stack = np.stack([np.eye(3), bad, 2.0 * np.eye(3)])
        space = SpaceSpec(3, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dual_ball_sup(stack, space)
            assert dual_ball_sup(bad, space) == math.inf
        np.testing.assert_array_equal(got, [dual_ball_sup(np.eye(3), space), math.inf,
                                            dual_ball_sup(2.0 * np.eye(3), space)])

    def test_single_matrix_still_returns_float(self):
        assert type(dual_ball_sup(np.eye(2), SpaceSpec(2, 1.0))) is float

    def test_truncated_cov_rejects_a_stack(self):
        with pytest.raises(ValueError):
            TruncatedCov(np.stack([np.eye(2), np.eye(2)]), 1.0)


class TestEmpiricalTSM:
    def test_monotone_and_flagged_extrapolation(self):
        rng = np.random.default_rng(9)
        draws = rng.normal(size=(800, 2))
        space = SpaceSpec(2, 2.0)
        tsm = EmpiricalTSM(draws, space)
        ts = np.array([0.1, 0.5, 1.0, 2.0, tsm.max_norm, 10 * tsm.max_norm])
        vals = [tsm(float(t)) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert not tsm.extrapolated(tsm.max_norm)
        assert tsm.extrapolated(10 * tsm.max_norm)
        # frozen at the last value beyond the sample range
        assert tsm(10 * tsm.max_norm) == pytest.approx(tsm(tsm.max_norm))

    @settings(max_examples=60, deadline=None)
    @given(
        # every entry at least 0.5 away from 0, so the smallest norm is positive;
        # a few fixed values make ties between sample norms likely
        rows=st.integers(1, 3).flatmap(lambda d: hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(d)),
            elements=st.sampled_from([-2.0, -0.5, 1.0, 3.0]) | st.floats(0.5, 100.0) | st.floats(-100.0, -0.5))),
        p=st.sampled_from([1.0, 2.0, math.inf]),
    )
    def test_values_are_the_sup_of_the_truncated_covariance(self, rows, p):
        """One pipeline for every t: below the smallest norm (where H is
        +0.0), at each sample norm and past the largest."""
        space = SpaceSpec(rows.shape[1], p)
        sample_norms = norms(rows, space)
        ts = np.concatenate([[0.0, sample_norms.min() / 2], sample_norms, [2 * sample_norms.max()]])
        got = EmpiricalTSM(rows, space).values(ts)
        want = [dual_ball_sup(trunc_cov_empirical(rows, t, space), space) for t in ts]
        assert got.tobytes() == np.array(want).tobytes()
        assert got[:2].tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_sums_past_the_float_range_keep_the_scaled_bits(self, p):
        # at 2^510 x the prefix sums pass the float range and the means do not:
        # they are summed over a power of two, so H's matrices are 2^1020 times x's
        rows = np.random.default_rng(3).normal(size=(64, 2))
        space = SpaceSpec(2, p)
        ts = np.concatenate([[0.0], norms(rows, space)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = EmpiricalTSM(np.ldexp(rows, 510), space).matrices(np.ldexp(ts, 510))
        assert big.tobytes() == np.ldexp(EmpiricalTSM(rows, space).matrices(ts), 1020).tobytes()

    def test_dispatcher_accepts_samples_and_analytic_sources(self):
        rng = np.random.default_rng(10)
        draws = rng.normal(size=(400, 2))
        space = SpaceSpec(2, 2.0)
        direct = truncated_second_moment(draws, 2.0, space)
        assert direct > 0
        via_tsm = truncated_second_moment(EmpiricalTSM(draws, space), 2.0, space)
        assert via_tsm == pytest.approx(direct)

    @pytest.mark.parametrize("law,space", [
        (Gaussian(1.0), SpaceSpec(1, 2.0)),
        (RademacherProduct(np.ones(3)), SpaceSpec(3, 1.0)),
    ], ids=["gauss-d1-l2", "rademacher-d3-l1"])
    def test_analytic_law_is_its_dist_tsm(self, law, space):
        H = DistTSM(law, space)
        for t in (0.0, 0.3, 1.0, 1.7, 2.5, 40.0):
            got = truncated_second_moment(law, t, space)
            assert np.float64(got).view(np.uint64) == np.float64(H(t)).view(np.uint64)

    # H at 0.5 and 10, pinned bit for bit: a point at inf must not move them
    @pytest.mark.parametrize("d,finite", [
        (1, [0.0, 4.605170185988092]),
        (2, [0.0, 2.302585092994046]),
        (3, [0.0, 1.5350567286626973]),
    ])
    def test_infinite_covariance_gives_inf_without_a_warning(self, d, finite):
        H = DistTSM(RadialPareto(2.0, dim=d), SpaceSpec(d, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = H.values([0.5, 10.0, math.inf])
        assert got.tobytes() == np.array(finite + [math.inf]).tobytes()

    def test_law_without_closed_form_refused(self):
        with pytest.raises(ValueError, match="no analytic truncated covariance"):
            truncated_second_moment(parse_dist("gauss:dim=2"), 1.0, SpaceSpec(2, 2.0))
