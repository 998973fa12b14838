"""Tail-bound evaluators, assembled constants, and the falsification harness."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lil_lab.bounds import (
    BoundParams,
    MomentData,
    VerifyRow,
    d_const,
    eps_from_delta,
    fn_constants,
    fuk_nagaev_bound,
    k_const,
    klein_rio_mgf_bound,
    maximal_tail_bound,
    mc_verify,
    split_tail_bound,
)
from lil_lab.distributions import Gaussian, PointMass, RadialPareto, RademacherProduct
from lil_lab.spaces import SpaceSpec


class TestMomentData:
    def test_weak_variance_cap(self):
        with pytest.raises(ValueError):
            MomentData(n=4, M=1.0, lambda_n=4.5, mean_norm=0.0)
        MomentData(n=4, M=1.0, lambda_n=4.0, mean_norm=0.0)  # boundary is fine

    def test_moment_fields_travel_together(self):
        with pytest.raises(ValueError):
            MomentData(n=4, M=1.0, lambda_n=1.0, mean_norm=0.0, moment_s=3.0)
        with pytest.raises(ValueError):
            MomentData(n=4, M=1.0, lambda_n=1.0, mean_norm=0.0, s=3.0)

    def test_exponent_must_exceed_two(self):
        with pytest.raises(ValueError):
            MomentData(n=4, M=1.0, lambda_n=1.0, mean_norm=0.0, moment_s=1.0, s=2.0)


class TestEpsilonSolver:
    @pytest.mark.parametrize("delta", [0.1, 0.25, 1.0, 4.0, 25.0])
    def test_largest_feasible_root(self, delta):
        eps = eps_from_delta(delta)
        residual = (2 + eps) * (1 + 9 * eps) ** 2 - (2 + delta)
        assert residual <= 1e-10
        bumped = eps * (1 + 1e-6)
        assert (2 + bumped) * (1 + 9 * bumped) ** 2 > 2 + delta

    def test_monotone_in_delta(self):
        es = [eps_from_delta(d) for d in (0.1, 0.5, 1.0, 2.0, 8.0)]
        assert all(a < b for a, b in zip(es, es[1:]))


class TestAssembledConstants:
    def test_split_denominator_values(self):
        assert d_const(1.0, 1.0) == pytest.approx(21.0)
        assert d_const(2.0, 0.5) == pytest.approx(22.0)

    @pytest.mark.parametrize("s", [2.5, 3.0, 4.0])
    def test_log_power_envelope_matches_numerical_max(self, s):
        grid = np.geomspace(1.0001, math.exp(2 * s) * 100, 4_000_001)
        numeric = float(np.max(np.log(grid) ** (2 * s) / grid))
        assert k_const(s) == pytest.approx(numeric, rel=1e-9)

    def test_assembly_formulas(self):
        fc = fn_constants(1.0, 1.0, 3.0)
        assert fc.epsilon == pytest.approx(0.02415718, abs=1e-7)
        assert fc.D == pytest.approx((1 + 2 / fc.epsilon) * 7.0)
        assert fc.C_prime == pytest.approx(fc.K_s * (2 * fc.D) ** 6.0, rel=1e-12)
        assert fc.C_dprime == pytest.approx(1 + fc.C_prime + fc.epsilon**-3.0, rel=1e-12)
        assert fc.C == pytest.approx(fc.C_dprime * (1 + 9 * fc.epsilon) ** 3.0, rel=1e-12)
        assert fc.C_dprime >= 1 + fc.epsilon**-3.0


class TestBoundEvaluators:
    def test_mgf_bound_substitution(self):
        data = MomentData(n=4, M=1.0, lambda_n=2.0, mean_norm=3.0)
        assert klein_rio_mgf_bound(0.5, data) == pytest.approx(math.exp(5.5))

    def test_mgf_bound_tends_to_one(self):
        data = MomentData(n=4, M=1.0, lambda_n=2.0, mean_norm=3.0)
        assert klein_rio_mgf_bound(1e-12, data) == pytest.approx(1.0, abs=1e-9)

    def test_mgf_bound_domain(self):
        data = MomentData(n=4, M=1.0, lambda_n=2.0, mean_norm=3.0)
        with pytest.raises(ValueError):
            klein_rio_mgf_bound(2.0 / 3.0, data)
        with pytest.raises(ValueError):
            klein_rio_mgf_bound(-0.1, data)

    def test_mgf_bound_past_the_float_range_is_inf(self):
        # lambda_n near n puts the exponent past the float ceiling: the bound is vacuous
        data = MomentData(n=400, M=1.0, lambda_n=400.0, mean_norm=40.0)
        assert klein_rio_mgf_bound(0.606, data) == math.inf

    def test_maximal_tail_substitution(self):
        data = MomentData(n=4, M=1.0, lambda_n=1.0, mean_norm=0.0)
        assert maximal_tail_bound(2.0, data) == pytest.approx(math.exp(-0.5))

    def test_maximal_tail_strictly_decreasing(self):
        data = MomentData(n=4, M=1.0, lambda_n=1.0, mean_norm=0.5)
        xs = np.linspace(0.5, 30, 40)
        vals = [maximal_tail_bound(float(x), data) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # once the bounded term dominates the decay is only exp(-x/(3M))
        assert vals[-1] < 1e-4

    @pytest.mark.parametrize("x, M, want", [(1.7e308, 1.0, 0.0), (1e200, 1e200, math.exp(-1 / 3))])
    def test_maximal_tail_where_x_squared_and_denominator_overflow(self, x, M, want):
        # x^2 / denom would be inf / inf; it is x / (3M) there, up to terms far below one ulp
        data = MomentData(n=5, M=M, lambda_n=1.0, mean_norm=2.0)
        assert maximal_tail_bound(x, data) == pytest.approx(want, rel=1e-15)

    def test_split_bound_terms(self):
        params = BoundParams(eta=1.0, delta=1.0, s=3.0)
        data = MomentData(n=4, M=1.0, lambda_n=1.0, mean_norm=0.0)
        eps = params.epsilon
        y = 3.0
        expected = math.exp(-y * y / ((2 + eps) * 1.0)) + math.exp(-y / (d_const(eps, 1.0) * 1.0))
        assert split_tail_bound(y, params, data) == pytest.approx(expected, rel=1e-12)

    def test_split_bound_drops_second_term_for_bounded_zero(self):
        params = BoundParams(eta=1.0, delta=1.0, s=3.0)
        data = MomentData(n=4, M=0.0, lambda_n=0.0, mean_norm=0.0)
        assert split_tail_bound(5.0, params, data) == 0.0

    def test_mixed_bound_gaussian_term(self):
        params = BoundParams(eta=1.0, delta=1.0, s=3.0)
        data = MomentData(n=100, M=1.0, lambda_n=100.0, mean_norm=8.0, moment_s=100.0, s=3.0)
        # at huge t the polynomial term is negligible and the gaussian term rules
        t = 1e9
        expected = 0.0 + fn_constants(1.0, 1.0, 3.0).C * 100.0 / t**3
        assert fuk_nagaev_bound(t, params, data) == pytest.approx(expected, rel=1e-9)
        # at moderate t the cap keeps it a probability
        assert fuk_nagaev_bound(50.0, params, data) == 1.0

    def test_mixed_bound_needs_matching_exponent(self):
        params = BoundParams(eta=1.0, delta=1.0, s=3.0)
        data = MomentData(n=10, M=1.0, lambda_n=10.0, mean_norm=1.0, moment_s=10.0, s=4.0)
        with pytest.raises(ValueError):
            fuk_nagaev_bound(5.0, params, data)

    @given(st.floats(0.5, 40.0), st.floats(0.5, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_mixed_bound_monotone_nonincreasing(self, t1, t2):
        params = BoundParams(eta=0.5, delta=2.0, s=3.0)
        data = MomentData(n=50, M=1.0, lambda_n=50.0, mean_norm=4.0, moment_s=50.0, s=3.0)
        lo, hi = sorted((t1, t2))
        assert fuk_nagaev_bound(lo, params, data) >= fuk_nagaev_bound(hi, params, data)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0),
           st.sampled_from([(1.0, 50.0, 4.0), (0.0, 0.0, 0.0), (math.inf, 50.0, 4.0)]))
    @settings(max_examples=60, deadline=None)
    def test_maximal_tail_monotone_nonincreasing(self, x1, x2, moments):
        m, lam, mean = moments
        data = MomentData(n=50, M=m, lambda_n=lam, mean_norm=mean)
        lo, hi = sorted((x1, x2))
        assert maximal_tail_bound(lo, data) >= maximal_tail_bound(hi, data)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0),
           st.sampled_from([(1.0, 50.0, 4.0), (0.0, 0.0, 0.0), (math.inf, 50.0, 4.0)]))
    @settings(max_examples=60, deadline=None)
    def test_split_tail_monotone_nonincreasing(self, y1, y2, moments):
        m, lam, mean = moments
        params = BoundParams(eta=0.5, delta=2.0, s=3.0)
        data = MomentData(n=50, M=m, lambda_n=lam, mean_norm=mean)
        lo, hi = sorted((y1, y2))
        assert split_tail_bound(lo, params, data) >= split_tail_bound(hi, params, data)

    @pytest.mark.parametrize("s", [50.0, 200.0])
    def test_overflowing_constant_names_s(self, s):
        # C is inf at s = 50; at s = 200 K_s itself overflows
        with pytest.raises(ValueError, match=f"^s = {s:g} is too large"):
            fn_constants(1.0, 1.0, s)
        data = MomentData(n=10, M=1.0, lambda_n=10.0, mean_norm=1.0, moment_s=0.0, s=s)
        with pytest.raises(ValueError, match=f"^s = {s:g} is too large"):
            fuk_nagaev_bound(1.0, BoundParams(eta=1.0, delta=1.0, s=s), data)

    def test_gaussian_term_grows_with_delta(self):
        data = MomentData(n=50, M=1.0, lambda_n=50.0, mean_norm=4.0, moment_s=50.0, s=3.0)
        t = 40.0
        loose = fuk_nagaev_bound(t, BoundParams(eta=1.0, delta=4.0, s=3.0), data)
        tight = fuk_nagaev_bound(t, BoundParams(eta=1.0, delta=0.1, s=3.0), data)
        g_loose = math.exp(-t * t / (6.0 * 50.0))
        g_tight = math.exp(-t * t / (2.1 * 50.0))
        assert g_loose > g_tight
        assert loose >= tight - 1e-15  # the widened exponent dominates the C shift here

    def test_explicit_epsilon_taken_as_given(self):
        # epsilon is always derived from delta, and the derived value is feasible
        derived = BoundParams(eta=1.0, delta=1.0, s=3.0)
        assert (2 + derived.epsilon) * (1 + 9 * derived.epsilon) ** 2 <= 3.0 + 1e-10


class _OffCenter:
    """Claims to be centered, but coordinate 1 has mean 0.5."""

    dim = 2
    is_centered = True

    def sample(self, rng, n):
        return Gaussian(np.ones(2)).sample(rng, n) + [0.0, 0.5]


class TestVerifyRow:
    def test_violation_is_three_standard_errors_above_the_bound(self):
        assert VerifyRow("fn", 1.0, 0.5, 0.1, 0.2).violation is False
        assert VerifyRow("fn", 1.0, 0.5, 0.1, 0.19).violation is True

    def test_violation_is_not_an_argument(self):
        with pytest.raises(TypeError):
            VerifyRow("fn", 1.0, 0.5, 0.1, 0.2, violation=True)

    def test_json_row_writes_an_infinite_bound_as_text(self):
        assert VerifyRow("kr", 0.5, 2.0, 0.1, math.inf).to_json_dict() == {
            "kind": "kr", "x": 0.5, "p_hat": 2.0, "se": 0.1, "bound": "inf", "violation": False,
        }


class TestHarness:
    def test_zero_law_never_violates(self):
        rep = mc_verify(
            PointMass(np.zeros(2)),
            SpaceSpec(2, 2.0),
            n=20,
            trials=200,
            t_grid=np.array([1.0, 2.0]),
            params=BoundParams(eta=1.0, delta=1.0, s=3.0),
            seed=1,
        )
        assert not rep.any_violation
        assert all(row.p_hat == 0.0 for row in rep.rows if row.kind != "kr")

    def test_small_rademacher_run_is_clean(self):
        rep = mc_verify(
            RademacherProduct(np.ones(2)),
            SpaceSpec(2, math.inf),
            n=50,
            trials=400,
            t_grid=np.geomspace(3.0, 40.0, 6),
            params=BoundParams(eta=1.0, delta=1.0, s=3.0),
            seed=3,
        )
        assert not rep.any_violation
        assert rep.pilot["M"] == 1.0
        assert rep.pilot["lambda_n"] == pytest.approx(50.0)
        assert {row.kind for row in rep.rows} == {"fn", "kr1", "kr"}

    def test_partition_invariance(self):
        kwargs = dict(
            n=30,
            trials=2200,  # spans multiple worker chunks
            t_grid=np.array([5.0, 10.0]),
            params=BoundParams(eta=1.0, delta=1.0, s=3.0),
            seed=9,
        )
        a = mc_verify(RademacherProduct(np.ones(2)), SpaceSpec(2, math.inf), workers=1, **kwargs)
        b = mc_verify(RademacherProduct(np.ones(2)), SpaceSpec(2, math.inf), workers=3, **kwargs)
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.kind, ra.x, ra.p_hat, ra.se, ra.bound) == (rb.kind, rb.x, rb.p_hat, rb.se, rb.bound)

    @pytest.mark.parametrize("trials, one_chunk", [(400, True), (1100, False)], ids=["one-chunk", "two-chunks"])
    def test_weak_variance_se_needs_two_pilot_chunks(self, trials, one_chunk):
        # the batch standard error of lambda_n is taken over pilot chunks of 1,024 trials
        rep = mc_verify(Gaussian(np.ones(2)), SpaceSpec(2, 2.0), n=20, trials=trials,
                        t_grid=np.array([5.0]), params=BoundParams(eta=1.0, delta=1.0, s=3.0), seed=3)
        note = "lambda_n_se is null: its batch standard error needs at least two pilot chunks"
        assert (note in rep.notes) == one_chunk
        if one_chunk:
            assert rep.pilot["lambda_n_se"] is None
            assert '"lambda_n_se": null' in json.dumps(rep.to_json_dict())
        else:
            assert rep.pilot["lambda_n_se"] > 0

    def test_off_center_law_rejected(self):
        with pytest.raises(ValueError):
            mc_verify(
                PointMass(np.array([1.0, 0.0])),
                SpaceSpec(2, 2.0),
                n=20,
                trials=200,
                t_grid=np.array([1.0]),
                params=BoundParams(eta=1.0, delta=1.0, s=3.0),
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pilot_rejects_an_off_center_sample_mean(self, workers):
        # both passes are sampled before the pilot's check raises
        with pytest.raises(ValueError) as err:
            mc_verify(_OffCenter(), SpaceSpec(2, 2.0), n=20, trials=1100, t_grid=np.array([1.0]),
                      params=BoundParams(eta=1.0, delta=1.0, s=3.0), seed=6, workers=workers)
        assert str(err.value) == (
            "pilot sample mean is not centered: coordinate 1 has mean 0.49 with standard error 0.00676"
        )

    @pytest.mark.parametrize("workers, forks", [(1, 0), (2, 1)])
    def test_one_pool_serves_both_passes(self, monkeypatch, workers, forks):
        # the caller runs one stripe of the six chunks (three per pass), so
        # two workers fork one child, which serves the pilot and the main pass
        real_fork, forked = os.fork, []

        def counting():
            forked.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting)
        mc_verify(RademacherProduct(np.ones(2)), SpaceSpec(2, math.inf), n=30, trials=2200,
                  t_grid=np.array([5.0]), params=BoundParams(eta=1.0, delta=1.0, s=3.0), seed=9,
                  kr_points=2, workers=workers)
        assert forked == [os.getpid()] * forks

    def test_unbounded_law_skips_mgf_rows(self):
        rep = mc_verify(
            Gaussian(1.0),
            SpaceSpec(1, 2.0),
            n=50,
            trials=300,
            t_grid=np.array([10.0, 20.0]),
            params=BoundParams(eta=1.0, delta=1.0, s=3.0),
            seed=4,
        )
        kinds = {row.kind for row in rep.rows}
        assert "fn" in kinds and "kr" not in kinds and "kr1" not in kinds
        assert any("unbounded" in note or "infinite" in note for note in rep.notes)

    @pytest.mark.parametrize("a, flagged", [(1.5, True), (3.0, False)])
    def test_law_without_second_moment_is_noted(self, a, flagged):
        rep = mc_verify(
            RadialPareto(a, 1),
            SpaceSpec(1, 2.0),
            n=20,
            trials=200,
            t_grid=np.array([5.0]),
            params=BoundParams(eta=1.0, delta=1.0, s=3.0),
            seed=5,
        )
        assert any("no finite second moment" in note for note in rep.notes) is flagged

    def test_overflowing_constant_fails_before_sampling(self, monkeypatch):
        dist = RademacherProduct(np.ones(2))

        def no_sampling(gen, n):
            raise AssertionError("sampled before the constants were checked")

        monkeypatch.setattr(dist, "sample", no_sampling)
        with pytest.raises(ValueError, match="^s = 50 is too large"):
            mc_verify(dist, SpaceSpec(2, math.inf), n=20, trials=200, t_grid=np.array([4.0]),
                      params=BoundParams(eta=1.0, delta=1.0, s=50.0))

    def test_l1_space_past_the_vertex_limit_fails_before_sampling(self, monkeypatch):
        dist = RademacherProduct(np.ones(21))

        def no_sampling(gen, n):
            raise AssertionError("sampled before the space was checked")

        monkeypatch.setattr(dist, "sample", no_sampling)
        with pytest.raises(ValueError, match=r"^p=1 vertex enumeration limited to dim <= 20, got 21$"):
            mc_verify(dist, SpaceSpec(21, 1.0), n=20, trials=200, t_grid=np.array([4.0]),
                      params=BoundParams(eta=1.0, delta=1.0, s=3.0))

    def test_csv_text_shape(self):
        rep = mc_verify(
            RademacherProduct(np.ones(2)),
            SpaceSpec(2, math.inf),
            n=20,
            trials=150,
            t_grid=np.array([4.0]),
            params=BoundParams(eta=1.0, delta=1.0, s=3.0),
            seed=2,
        )
        text = rep.to_csv_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# seed=2")
        assert lines[1] == "kind,x,p_hat,se,bound,violation"
        assert len(lines) == 2 + len(rep.rows)
