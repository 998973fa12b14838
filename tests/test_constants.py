"""Series classifier, threshold brackets, and the limit-constant report."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lil_lab import constants
from lil_lab.constants import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    ConstTSM,
    DistTSM,
    EmpiricalWrapTSM,
    H_values,
    LogLogPowTSM,
    SigmaResult,
    agreement_gap,
    alpha0_compute,
    alpha_series_classify,
    beta0_estimate,
    c0_compute,
    constants_report,
    lambda_compute,
    lil_ratio_check,
    parse_tsm,
    sandwich_bounds,
    series_classify,
    sigma_compute,
)
from lil_lab.distributions import Gaussian, PointMass, RademacherProduct, RadialPareto, parse_dist
from lil_lab.slowvary import MEMBER, SlowVaryFn, hq_classify, parse_cseq, parse_slow_vary
from lil_lab.spaces import EmpiricalTSM, SpaceSpec, dual_ball_sup


def log_tail_oracle(a: float) -> SlowVaryFn:
    """h, H making the probed series equal sum 1/(n (Ln)^a) at c=1."""
    # exponent c^2 h(n) / (2 H(a_n)) = a LLn when h = 2a LL and H = 1
    return SlowVaryFn.constant(2.0 * a) * SlowVaryFn.loglog_power(1.0)


class TestSeriesClassifier:
    @pytest.mark.parametrize("a,expected", [(0.5, DIVERGES), (0.9, DIVERGES), (1.1, CONVERGES), (2.0, CONVERGES)])
    def test_log_power_series_oracle(self, a, expected):
        verdict = series_classify(1.0, log_tail_oracle(a), ConstTSM(1.0))
        assert verdict.verdict == expected
        # the fitted slope recovers the analytic exponent
        assert verdict.slope == pytest.approx(a, abs=0.02)

    def test_zero_rate_diverges_by_convention(self):
        v = series_classify(0.0, parse_slow_vary("2*(LL)^1"), ConstTSM(1.0))
        assert v.verdict == DIVERGES

    def test_vanishing_h_over_capital_h_converges(self):
        # H identically 0 drives every exponent to +inf
        v = series_classify(1.0, parse_slow_vary("2*(LL)^1"), ConstTSM(0.0))
        assert v.verdict == CONVERGES

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-170, 1e-300, 1.0, 1e170])
    @pytest.mark.parametrize("classify", [
        lambda c, H: series_classify(c, parse_slow_vary("2*(LL)^1"), H),
        lambda c, H: alpha_series_classify(c, parse_cseq("pow:0.5"), H),
    ], ids=["c0", "alpha0"])
    def test_zero_h_converges_at_any_constant_without_a_warning(self, classify, c):
        # c^2 underflows to 0 below c = 1e-162, where 0 / 0 or 0 * inf would be NaN
        v = classify(c, ConstTSM(0.0))
        assert v.verdict == CONVERGES and v.note == "tail terms vanish (H = 0 there)"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-170, 0.3, 1.0, 7.5])
    @pytest.mark.parametrize("c_seq", [
        parse_cseq("psi:2*(LL)^1"), parse_cseq("pow:0.5"), parse_cseq("psi:exp(30*(L)^0.9)"),
    ], ids=["psi", "pow", "psi-past-float-range"])
    def test_probe_exponents_are_inf_where_h_is_zero_and_keep_their_bits_elsewhere(self, c, c_seq):
        log_n = np.log(constants._PROBE_N)
        log_h = c_seq.log_h(log_n)
        cn = np.exp(np.minimum(0.5 * (log_n + log_h), 709.0))

        # H vanishes on the first four probes only, and H(inf) > 0
        def H(t):
            return 0.0 if t < cn[4] else 1.0 + 1.0 / math.log(t)

        hv = H_values(H, cn)
        with np.errstate(over="ignore"):  # h_c(n) = c_n^2 / n past the float range is inf
            base = np.exp(log_h) / (2.0 * np.where(hv > 0, hv, 1.0))
        pos = (hv > 0) & (base < math.inf)
        x = constants._ProbeGrid(c_seq, H).exponents(c)
        assert np.count_nonzero(hv == 0) == 4
        # a probe below where the law starts says nothing; a term past the float range vanishes
        assert np.isnan(x[hv == 0]).all()
        assert np.all(x[(hv > 0) & ~pos] == math.inf)
        np.testing.assert_array_equal(x[pos], c * c * base[pos])

    @pytest.mark.parametrize("H", [ConstTSM(1.0), ConstTSM(3.0), LogLogPowTSM(2.0)], ids=["const1", "const3", "llpow2"])
    def test_root_n_base_is_exactly_one_over_twice_h(self, H):
        # c_n = sqrt(n) has log(c_n^2 / n) = 0 at every probe: no rounding from c_n^2 / n
        grid = constants._ProbeGrid(parse_cseq("pow:0.5"), H)
        np.testing.assert_array_equal(grid.base, 1.0 / (2.0 * H_values(H, np.sqrt(constants._PROBE_N))))

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            series_classify(1.0, parse_slow_vary("2*(LL)^1"), lambda t: -1.0)

    @pytest.mark.parametrize("classify", [
        lambda c, H: series_classify(c, parse_slow_vary("2*(LL)^1"), H),
        lambda c, H: alpha_series_classify(c, parse_cseq("psi:2*(LL)^1"), H),
    ], ids=["c0", "alpha0"])
    def test_zero_is_decided_before_h_is_read_and_nan_is_refused(self, classify):
        # 0 is DIVERGES by convention, so even a negative H is never read
        assert classify(0.0, lambda t: -1.0).verdict == DIVERGES
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="must be nonnegative"):
                classify(bad, ConstTSM(1.0))

    @pytest.mark.parametrize("stage", [
        lambda H: c0_compute(parse_slow_vary("2*(LL)^1"), H),
        lambda H: alpha0_compute(parse_cseq("psi:2*(LL)^1"), H),
        lambda H: lambda_compute(parse_slow_vary("2*(LL)^1"), H),
        lambda H: lil_ratio_check(parse_slow_vary("2*(LL)^1"), H),
        sigma_compute,
    ], ids=["c0", "alpha0", "lambda", "ratio", "sigma"])
    def test_negative_h_rejected_by_every_stage(self, stage):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                stage(lambda t: bad)

    def test_verdict_monotone_in_rate(self):
        h = parse_slow_vary("2*(LL)^1")
        H = ConstTSM(1.0)
        rank = {DIVERGES: 0, INCONCLUSIVE: 1, CONVERGES: 2}
        ranks = [rank[series_classify(c, h, H).verdict] for c in (0.2, 0.6, 0.9, 1.0, 1.1, 1.5, 3.0)]
        assert ranks == sorted(ranks)

    def test_json_shape(self):
        d = series_classify(1.5, parse_slow_vary("2*(LL)^1"), ConstTSM(1.0)).to_json_dict()
        assert d["verdict"] == CONVERGES
        assert set(d) == {"verdict", "slope", "accel", "c", "note"}


# the two bracket searches, each as a function of its tolerance
_BOTH_SEARCHES = pytest.mark.parametrize("search", [
    lambda tol: c0_compute(parse_slow_vary("2*(LL)^1"), ConstTSM(1.0), tol=tol),
    lambda tol: alpha0_compute(parse_cseq("psi:2*(LL)^1"), ConstTSM(1.0), tol=tol),
], ids=["c0", "alpha0"])


class TestThresholdBrackets:
    def test_loglog_model_brackets_one(self):
        br = c0_compute(parse_slow_vary("2*(LL)^1"), ConstTSM(1.0))
        assert br.lo == pytest.approx(1.0, abs=1e-12)
        assert br.hi == pytest.approx(1.015625, abs=1e-12)
        assert br.width <= 0.02

    def test_fast_growth_pushes_threshold_to_zero(self):
        br = c0_compute(parse_slow_vary("2*(LL)^2"), ConstTSM(1.0))
        assert br.lo == 0.0
        assert br.hi <= 0.02

    def test_tolerance_is_respected(self):
        br = c0_compute(parse_slow_vary("2*(LL)^1"), ConstTSM(1.0), tol=0.1)
        assert br.width <= 0.1

    @_BOTH_SEARCHES
    def test_nonpositive_or_nan_tolerance_is_refused(self, search):
        for bad in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                search(bad)

    @_BOTH_SEARCHES
    def test_tolerance_below_float_spacing_stops_at_adjacent_floats(self, search):
        # once lo and hi are adjacent floats the midpoint equals one of them
        for tol in (1e-17, 1e-300):
            br = search(tol)
            assert br.hi == math.nextafter(br.lo, math.inf)

    def test_threshold_below_float_spacing_lies_within_1e15_of_the_truth(self):
        # the exponents h(n) / (2 H) of the c0 series keep their bits: both ends sit at the true 1
        br = c0_compute(parse_slow_vary("2*(LL)^1"), ConstTSM(1.0), tol=1e-17)
        assert abs(br.lo - 1.0) <= 1e-15 and abs(br.hi - 1.0) <= 1e-15

    def test_probes_are_recorded(self):
        br = c0_compute(parse_slow_vary("2*(LL)^1"), ConstTSM(1.0))
        assert len(br.probes) >= 4
        cs = [p[0] for p in br.probes]
        assert all(c >= 0 for c in cs)

    def test_h_evaluated_once_per_probe_point(self):
        seen = []

        def H(t):
            seen.append(t)
            return 1.0

        br = c0_compute(parse_slow_vary("2*(LL)^1"), H)
        assert len(br.probes) >= 4
        # the j_max probe points, then t = inf
        assert len(seen) == len(set(seen)) == 121 and seen[-1] == math.inf
        assert br == c0_compute(parse_slow_vary("2*(LL)^1"), ConstTSM(1.0))
        seen.clear()
        br = alpha0_compute(parse_cseq("psi:2*(LL)^1"), H)
        assert len(seen) == len(set(seen)) == 121 and seen[-1] == math.inf
        assert br == alpha0_compute(parse_cseq("psi:2*(LL)^1"), ConstTSM(1.0))

    @pytest.mark.parametrize("H", [ConstTSM(1.0), DistTSM(RademacherProduct(np.ones(3)), SpaceSpec(3, 1.0))],
                             ids=["const", "rademacher"])
    def test_probes_on_the_search_grid_equal_standalone_calls(self, H):
        h, c_seq = parse_slow_vary("2*(LL)^1"), parse_cseq("pow:0.5")
        for br, classify in [
            (c0_compute(h, H), lambda c: series_classify(c, h, H)),
            (alpha0_compute(c_seq, H), lambda a: alpha_series_classify(a, c_seq, H)),
        ]:
            for c, verdict, slope in br.probes:
                v = classify(c)
                assert (v.verdict, _bits(v.slope)) == (verdict, _bits(slope))

    def test_alpha_threshold_matches_scalar_variance(self):
        H = DistTSM(Gaussian(1.0), SpaceSpec(1, 2.0))
        br = alpha0_compute(parse_cseq("psi:2*(LL)^1"), H)
        assert 0.95 <= br.lo and br.hi <= 1.05

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("H", [
        ConstTSM(0.0), DistTSM(PointMass([0.0]), SpaceSpec(1, 2.0)), DistTSM(Gaussian(0.0), SpaceSpec(1, 2.0)),
    ], ids=["const", "point", "gauss"])
    def test_h_zero_everywhere_puts_both_thresholds_at_zero(self, H):
        for br in (c0_compute(parse_slow_vary("2*(LL)^1"), H), alpha0_compute(parse_cseq("pow:0.5"), H)):
            assert (br.lo, br.hi, br.lo_verdict, br.hi_verdict) == (0.0, 0.00390625, DIVERGES, CONVERGES)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1e19, 1e40])
    def test_a_law_past_the_grids_is_bracketed_not_read_as_zero(self, s):
        # H is 0 at every series probe, and for s = 1e40 up to the sigma cap 2^100 too
        H = DistTSM(RademacherProduct([s]), SpaceSpec(1, 2.0))
        for br in (c0_compute(parse_slow_vary("2*(LL)^1"), H), alpha0_compute(parse_cseq("pow:0.5"), H)):
            assert br.lo <= s <= br.hi
        assert sigma_compute(H).sigma2 == s * s

    def test_alpha_threshold_zero_cases(self):
        br = alpha0_compute(parse_cseq("psi:2*(LL)^1"), ConstTSM(0.0))
        assert br.lo == 0.0 and br.hi <= 0.02
        br2 = alpha0_compute(parse_cseq("psi:2*(LL)^2"), ConstTSM(1.0))
        assert br2.lo == 0.0 and br2.hi <= 0.02


class TestLimitConstants:
    def test_loglog_scenario_value(self):
        res = lambda_compute(parse_slow_vary("2*(LL)^1"), ConstTSM(1.0))
        assert res.lam == pytest.approx(0.950812, abs=1e-4)
        assert not res.diverging
        assert res.tail_max >= res.last_value - 1e-12

    def test_growing_weak_variance_diverges(self):
        res = lambda_compute(parse_slow_vary("2*(LL)^1"), LogLogPowTSM(2.0))
        assert res.diverging
        assert math.isinf(res.lam)

    def test_ratio_check_flat_model(self):
        curve = lil_ratio_check(parse_slow_vary("2*(LL)^1"), ConstTSM(1.0))
        assert curve.tail_max == pytest.approx(0.5, abs=1e-9)

    def test_ratio_check_zero_model(self):
        curve = lil_ratio_check(parse_slow_vary("2*(LL)^1"), ConstTSM(0.0))
        assert curve.tail_max == 0.0

    @pytest.mark.parametrize("q,lam,expected", [(0.0, 1.0, (1.0, 1.0)), (1.0, 5.0, (0.0, 5.0)), (0.75, 2.0, (1.0, 2.0))])
    def test_band_arithmetic(self, q, lam, expected):
        lo, hi = sandwich_bounds(q, lam)
        assert (lo, hi) == pytest.approx(expected)

    def test_band_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sandwich_bounds(-0.1, 1.0)
        with pytest.raises(ValueError):
            sandwich_bounds(0.5, -1.0)

    def test_agreement_gap_conventions(self):
        assert agreement_gap(0.0, 0.0) == 0.0
        assert agreement_gap(1.0, 0.9) == pytest.approx(0.1)
        assert agreement_gap(math.inf, math.inf) == 0.0
        assert math.isinf(agreement_gap(math.inf, 1.0))


class TestSigma:
    def test_constant_model(self):
        res = sigma_compute(ConstTSM(1.0))
        assert res.sigma2 == 1.0 and res.converged

    def test_scalar_gaussian_converges_to_variance(self):
        res = sigma_compute(DistTSM(Gaussian(2.0), SpaceSpec(1, 2.0)))
        assert res.sigma2 == pytest.approx(2.0, rel=1e-5)

    def test_bounded_law_saturates(self):
        res = sigma_compute(DistTSM(RademacherProduct(np.ones(2)), SpaceSpec(2, math.inf)))
        assert res.sigma2 == pytest.approx(1.0)

    def test_unbounded_model_reports_infinite(self):
        res = sigma_compute(LogLogPowTSM(1.0))
        assert math.isinf(res.sigma2)
        assert "cap" in res.note

    @pytest.mark.parametrize("var", [1e80, 1e308])
    def test_a_law_whose_scale_is_past_the_walk_reads_h_at_inf(self, var):
        # H grows like t^3 / sd all the way up the walk (t <= 2^100 << sd), and
        # H(inf) is the variance: still growing is not divergence here
        res = sigma_compute(DistTSM(Gaussian(var), SpaceSpec(1, 2.0)))
        assert res == SigmaResult(var, False, "still growing at the cap 2^100; sigma^2 is H(inf)")

    def test_slow_growth_below_the_divergence_test_reads_the_cap(self):
        # (LLt)^0.1 grows 1.6% across the last half of the log range
        res = sigma_compute(LogLogPowTSM(0.1))
        assert res == SigmaResult(math.log(math.log(2.0**100)) ** 0.1, False,
                                  "cap reached before the increment test settled")

    def test_a_decrease_anywhere_on_the_walk_is_refused(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            sigma_compute(lambda t: 1.0 if t < 2.0**90 else 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("law,space,sigma2", [
        ("gauss:dim=1,var=1", SpaceSpec(1, 2.0), 1.0),
        ("embed:dim=3,axis=1,inner=(gauss:var=2)", SpaceSpec(3, 1.0), 2.0),
        ("pareto:a=3", SpaceSpec(1, 2.0), 3.0),
        ("rademacher:dim=5", SpaceSpec(5, 1.0), 5.0),
        ("point:v=1;-2", SpaceSpec(2, 2.0), 5.0),
    ], ids=["gauss", "embed-gauss", "pareto3", "rademacher", "point"])
    def test_h_at_infinity_is_sigma2(self, law, space, sigma2):
        # a Gaussian's tail term u exp(-u^2/2) is inf * 0 at u = inf
        H = DistTSM(parse_dist(law), space)
        assert H.values([math.inf]).tolist() == [sigma2] == [sigma_compute(H).sigma2]


class TestTsmParsing:
    def test_const_and_power_forms(self):
        assert parse_tsm("const:2.5")(10.0) == 2.5
        H = parse_tsm("llpow:2")
        assert H(1e8) == pytest.approx(math.log(math.log(1e8)) ** 2)

    def test_dist_form_uses_analytic_shortcut(self):
        H = parse_tsm("dist", dist=Gaussian(1.0), space=SpaceSpec(1, 2.0))
        assert H(50.0) == pytest.approx(1.0, rel=1e-6)

    def test_empirical_form_needs_a_distribution(self):
        with pytest.raises(ValueError):
            parse_tsm("empirical:512")
        H = parse_tsm(
            "empirical:512",
            dist=Gaussian(1.0),
            space=SpaceSpec(1, 2.0),
            seed=1,
        )
        assert 0.5 < H(100.0) < 1.5

    def test_dist_without_a_closed_form_is_refused(self):
        with pytest.raises(ValueError, match="parse_tsm"):
            DistTSM(parse_dist("gauss:dim=2"), SpaceSpec(2, 2.0))

    def test_dist_without_a_closed_form_is_the_empirical_form(self):
        dist, space = parse_dist("gauss:dim=2"), SpaceSpec(2, 2.0)
        by_dist = parse_tsm("dist", dist=dist, space=space, seed=3)
        by_count = parse_tsm("empirical:4096", dist=dist, space=space, seed=3)
        default = parse_tsm("dist", dist=dist, space=space)
        assert by_dist.route == by_count.route == default.route == "empirical"
        ts = np.geomspace(1e-2, 1e3, 60)
        np.testing.assert_array_equal(_bits(by_dist.values(ts)), _bits(by_count.values(ts)))
        np.testing.assert_array_equal(
            _bits(default.values(ts)),
            _bits(parse_tsm("dist", dist=dist, space=space, seed=0).values(ts)),
        )

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            parse_tsm("mystery:1")


class TestReport:
    def test_wire_format_and_consistency(self):
        rep = constants_report(parse_slow_vary("2*(LL)^1"), ConstTSM(1.0))
        doc = rep.to_json_dict()
        assert {
            "c0_lo",
            "c0_hi",
            "lambda",
            "alpha0_lo",
            "alpha0_hi",
            "sigma2",
            "beta0",
            "beta0_ci",
            "q_used",
            "verdict_diagnostics",
        } <= set(doc)
        assert doc["c0_lo"] == pytest.approx(1.0)
        assert doc["q_used"] == 0.0
        diag = doc["verdict_diagnostics"]
        assert diag["sandwich_consistent"] is True
        assert diag["ratio_vs_half_lambda2"] < 0.10
        json.dumps(doc)  # must be serializable as-is

    @pytest.mark.parametrize("text", ["2*(LL)^1", "exp((L)^0.5)", "(LL)^2", "exp((L)^0.9)"])
    def test_q_used_is_the_first_member_q(self, text):
        h = parse_slow_vary(text)
        qs = [round(0.1 * k, 2) for k in range(0, 11)]
        first = next((q for q in qs if hq_classify(h, q).verdict == MEMBER), 1.0)
        assert constants_report(h, ConstTSM(1.0)).q_used == first

    def test_sandwich_flag_does_not_depend_on_the_unit_of_x(self):
        # c0 and lambda both scale with X; so must the flag's margin
        h, space = parse_slow_vary("2*(LL)^1"), SpaceSpec(1, 2.0)
        flags = {
            s: constants_report(h, DistTSM(parse_dist(f"rademacher:scales={s}"), space))
            .verdict_diagnostics["sandwich_consistent"]
            for s in (0.25, 1, 3, 10)
        }
        assert set(flags.values()) == {True}, flags

    def test_report_with_sequence_and_distribution(self):
        rep = constants_report(
            parse_slow_vary("2*(LL)^1"),
            DistTSM(Gaussian(1.0), SpaceSpec(1, 2.0)),
            c_seq=parse_cseq("psi:2*(LL)^1"),
            dist=Gaussian(1.0),
            space=SpaceSpec(1, 2.0),
            trials=40,
            seed=5,
        )
        doc = rep.to_json_dict()
        assert doc["alpha0_lo"] is not None and doc["alpha0_lo"] >= 0.9
        assert doc["beta0"] is not None and 0.0 < doc["beta0"] < 1.0
        lo, hi = doc["beta0_ci"]
        assert lo <= doc["beta0"] <= hi


class TestBeta0:
    def test_gaussian_under_lil_scale_is_small(self):
        res = beta0_estimate(
            Gaussian(1.0),
            parse_cseq("psi:2*(LL)^1"),
            np.array([64, 256, 1024, 4096]),
            trials=60,
            space=SpaceSpec(1, 2.0),
            seed=3,
        )
        assert 0.0 < res.value < 0.7
        assert res.ci[0] <= res.value <= res.ci[1]

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            beta0_estimate(
                Gaussian(1.0),
                parse_cseq("pow:0.5"),
                np.array([64, 128]),
                trials=5,
                space=SpaceSpec(1, 2.0),
            )


# --------------------------------------------------------------------------
# The H protocol: values(ts) over a grid equals point-by-point evaluation.
# --------------------------------------------------------------------------

_SPACE1 = SpaceSpec(1, 2.0)
_GAUSS2 = parse_dist("gauss:dim=2,var=1")

H_SOURCES = {
    "const": ConstTSM(1.5),
    "llpow": LogLogPowTSM(0.7),
    "dist-gauss1": DistTSM(Gaussian(1.0), _SPACE1),
    "dist-rademacher-l1": DistTSM(RademacherProduct(np.array([1.0, 2.0, 0.5])), SpaceSpec(3, 1.0)),
    "dist-rademacher-l2": DistTSM(RademacherProduct(np.array([1.0, 2.0, 0.5])), SpaceSpec(3, 2.0)),
    "dist-rademacher-linf": DistTSM(RademacherProduct(np.array([1.0, 2.0, 0.5])), SpaceSpec(3, math.inf)),
    "dist-pareto": DistTSM(RadialPareto(1.5, dim=2), SpaceSpec(2, 2.0)),
    "dist-empirical-fallback": parse_tsm("dist", dist=_GAUSS2, space=SpaceSpec(2, 2.0), n_samples=300,
                                         seed=4),
    "empirical-wrap": EmpiricalWrapTSM(_GAUSS2.sample(np.random.default_rng(5), 300), SpaceSpec(2, 2.0)),
}


def _pointwise(H, t: float) -> float:
    """H(t) the way each source computed it one point at a time before `values`."""
    if isinstance(H, EmpiricalTSM):
        k = int(np.searchsorted(H._norms, t, side="right"))
        if k == 0:
            return 0.0
        m = np.ldexp(H._prefix[k] / H.n_samples, 2 * H._exp)
        return dual_ball_sup(0.5 * (m + m.T), H.space)
    if isinstance(H, DistTSM):
        return dual_ball_sup(H.dist.truncated_cov(float(t), H.space), H.space)
    return H(t)


# Unsorted grids with zeros, repeats, points inside the sample range of the
# empirical sources (largest norm about 3-4) and points far beyond it.
grids = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0, 2.5]),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=8.0, max_value=1e300),
    ),
    min_size=1,
    max_size=30,
).map(lambda xs: np.array(xs + xs[: len(xs) // 2]))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestHProtocol:
    @pytest.mark.parametrize("name", sorted(H_SOURCES))
    @given(ts=grids)
    @settings(max_examples=40, deadline=None)
    def test_values_equal_pointwise_bit_for_bit(self, name, ts):
        H = H_SOURCES[name]
        got = H.values(ts)
        assert got.shape == ts.shape
        np.testing.assert_array_equal(_bits(got), _bits([H(t) for t in ts]))
        np.testing.assert_array_equal(_bits(got), _bits([_pointwise(H, t) for t in ts]))
        np.testing.assert_array_equal(_bits(H_values(H, ts)), _bits(got))

    @given(ts=grids)
    @settings(max_examples=40, deadline=None)
    def test_plain_callable(self, ts):
        def H(t):
            return 0.0 if t <= 0 else math.log1p(t) ** 0.5

        np.testing.assert_array_equal(_bits(H_values(H, ts)), _bits([H(t) for t in ts]))

    def test_empty_grid(self):
        for H in H_SOURCES.values():
            assert H.values(np.zeros(0)).shape == (0,)

    def test_routes_and_extrapolation_mask(self):
        assert H_SOURCES["const"].route == H_SOURCES["llpow"].route == "model"
        assert H_SOURCES["dist-gauss1"].route == "analytic"
        for name in ("dist-empirical-fallback", "empirical-wrap"):
            H = H_SOURCES[name]
            assert H.route == "empirical" and H.n_samples == 300
            ts = np.array([0.0, H.max_norm, 2 * H.max_norm])
            np.testing.assert_array_equal(H.extrapolated(ts), [False, False, True])

    def test_analytic_source_evaluates_its_grid_in_one_call(self, monkeypatch):
        H = DistTSM(RademacherProduct(np.ones(2)), SpaceSpec(2, 1.0))
        seen = []
        orig = H.dist.truncated_cov
        monkeypatch.setattr(H.dist, "truncated_cov", lambda ts, space: seen.append(np.copy(ts)) or orig(ts, space))
        H.values(np.array([3.0, 0.5, 3.0, 0.5, 3.0]))
        # one grid call, holding the grid as given
        assert len(seen) == 1 and seen[0].tolist() == [3.0, 0.5, 3.0, 0.5, 3.0]
