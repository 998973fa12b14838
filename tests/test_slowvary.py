"""Slowly varying factors, the growth scale, and its inverse."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lil_lab import slowvary
from lil_lab.constants import DEFAULT_X_GRID
from lil_lab.slowvary import (
    DEFAULT_TAU_GRID,
    DEFAULT_T_GRID,
    INCONCLUSIVE,
    LOG_BISECT_TOL,
    MEMBER,
    NON_MEMBER,
    NormalizerSeq,
    PowerSeq,
    SlowVaryFn,
    check_normalizing_conditions,
    hq_classify,
    log_psi,
    parse_cseq,
    parse_slow_vary,
    psi,
    psi_inv,
    psi_inv_log,
    psi_inv_moment,
)


class _Jump:
    """sqrt(n), six times larger from n = 100 on: a sequence of neither known kind."""

    def values(self, n):
        n = np.asarray(n, dtype=float)
        return np.sqrt(n) * np.where(n >= 100, 6.0, 1.0)


class _Wiggle:
    """n (2 + cos n): a sequence of neither known kind."""

    def values(self, n):
        n = np.asarray(n, dtype=float)
        return n * (2.0 + np.cos(n))


class TestParserAndAlgebra:
    @pytest.mark.parametrize(
        "text,t,expected",
        [
            ("2*(LL)^1", math.e**math.e, 2.0),
            ("(L)^2", math.e**3, 9.0),
            ("3", 50.0, 3.0),
            ("exp((L)^0.5)", math.e**4, math.exp(2.0)),
            ("2*(L)^1*(LL)^1", math.e**math.e, 2.0 * math.e),
        ],
    )
    def test_known_values(self, text, t, expected):
        assert parse_slow_vary(text)(t) == pytest.approx(expected, rel=1e-12)

    def test_text_round_trip(self):
        for text in ("2*(LL)^1", "0.5*(L)^2*(LL)^1", "exp((L)^0.5)", "2*exp(0.5*(L)^0.25)"):
            fn = parse_slow_vary(text)
            again = parse_slow_vary(fn.to_text())
            ts = np.geomspace(10, 1e12, 7)
            np.testing.assert_allclose(fn(ts), again(ts), rtol=1e-12)

    @pytest.mark.parametrize("text", ["2*(LL)^1", "(L)^1", "exp((L)^0.5)", "3"])
    def test_infinity_maps_to_infinity(self, text):
        # an absent factor adds no 0 * log(inf) = NaN
        h = parse_slow_vary(text)
        assert psi(h, math.inf) == math.inf
        assert h(math.inf) == (h(1.0) if text == "3" else math.inf)
        got = h.log_value_from_log(np.array([0.0, 1e300, math.inf]))
        assert isinstance(got, np.ndarray) and got.shape == (3,) and not np.isnan(got).any()

    @pytest.mark.parametrize("bad", ["", "(L", "foo", "2**(LL)^1", "exp(L^)", "(LL)^x"])
    def test_rejects_malformed_text(self, bad):
        with pytest.raises(ValueError):
            parse_slow_vary(bad)

    def test_product_matches_pointwise(self):
        a = parse_slow_vary("2*(LL)^1")
        b = parse_slow_vary("(L)^0.5")
        ts = np.geomspace(5, 1e10, 9)
        np.testing.assert_allclose((a * b)(ts), a(ts) * b(ts), rtol=1e-12)

    def test_power_matches_pointwise(self):
        a = parse_slow_vary("2*(L)^1*(LL)^2")
        ts = np.geomspace(5, 1e10, 9)
        np.testing.assert_allclose((a**0.3)(ts), a(ts) ** 0.3, rtol=1e-12)

    @given(
        c=st.floats(0.25, 8.0),
        r=st.floats(0.1, 2.0),
        p=st.floats(0.1, 2.0),
        q=st.floats(0.1, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_pow_then_eval_agrees_with_eval_then_pow(self, c, r, p, q):
        fn = SlowVaryFn.constant(c) * SlowVaryFn.log_power(r) * SlowVaryFn.loglog_power(p)
        t = 1.0e8
        assert (fn**q)(t) == pytest.approx(fn(t) ** q, rel=1e-10)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            SlowVaryFn.constant(0.0)
        with pytest.raises(ValueError):
            parse_slow_vary("-2*(LL)^1")


@st.composite
def normal_forms(draw):
    """Random members of the normal form c (Lt)^r (LLt)^p prod exp(a (Lt)^b)."""
    terms = draw(st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 0.95)), max_size=2))
    return SlowVaryFn(
        const=draw(st.floats(0.1, 10.0)),
        log_pow=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        loglog_pow=draw(st.floats(0.0, 3.0)),
        exp_terms=tuple(terms),
    )


@st.composite
def cseq_specs(draw):
    """Random `--c-seq` texts: pow:e,C around the rules' edges, or psi:h
    for a normal form whose every exponent is 0 or well above it."""
    if draw(st.booleans()):
        e = draw(st.one_of(st.sampled_from([0.5, 1.0, 0.5 + 1e-9, 1.0 + 1e-9]), st.floats(0.05, 3.0)))
        return f"pow:{e!r},{draw(st.floats(0.1, 10.0))!r}"
    terms = draw(st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 0.95)), max_size=2))
    h = SlowVaryFn(const=draw(st.floats(0.1, 10.0)), log_pow=draw(st.sampled_from([0.0, 0.5, 2.5])),
                   loglog_pow=draw(st.sampled_from([0.0, 0.1, 1.0])), exp_terms=tuple(terms))
    return f"psi:{h.to_text()}"


class TestPsiAndInverse:
    def test_round_trip_across_scales(self):
        h = parse_slow_vary("2*(LL)^1")
        for x in (10.0, 1e4, 1e10, 1e100, 1e250):
            y = psi(h, x)
            assert psi_inv(h, y) == pytest.approx(x, rel=1e-10)

    @given(h=normal_forms(), w=st.floats(-30.0, 690.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, h, w):
        log_x = psi_inv_log(h, w)
        assert log_psi(h, log_x) == pytest.approx(w, abs=1e-9)
        x = psi_inv(h, math.exp(w))
        if x < math.inf:
            assert psi(h, x) == pytest.approx(math.exp(w), rel=1e-9)

    @given(h=normal_forms(), ys=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=12))
    @example(h=parse_slow_vary("0.5*(L)^1*(LL)^2"), ys=list(np.geomspace(10.0, 1e140, 13)))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_matches_scalar(self, h, ys):
        assert np.array_equal(psi_inv(h, ys), [psi_inv(h, float(y)) for y in ys])

    @given(h=normal_forms(), ws=st.lists(st.floats(-30.0, 690.0), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_matches_sequential_bisection(self, h, ws):
        def phi(u):
            return 0.5 * (u + h.log_value_from_log(np.array([u]))[0])

        def sequential(w):
            hi, lo = 1.0, -1.0
            while phi(hi) < w:
                hi *= 2.0
            while phi(lo) > w:
                lo *= 2.0
            while hi - lo > LOG_BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if phi(mid) < w:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        assert np.array_equal(psi_inv_log(h, np.array(ws)), [sequential(w) for w in ws])

    def test_nan_raises(self):
        h = parse_slow_vary("2*(LL)^1")
        with pytest.raises(ValueError):
            psi_inv(h, math.nan)
        with pytest.raises(ValueError):
            psi_inv_log(h, math.nan)
        with pytest.raises(ValueError):
            psi_inv(h, [1.0, math.nan])

    def test_infinite_arguments_map_to_infinity(self):
        h = parse_slow_vary("2*(LL)^1")
        assert psi_inv(h, math.inf) == math.inf
        assert np.array_equal(psi_inv(h, [math.inf, 0.0, 4.0]), [math.inf, 0.0, psi_inv(h, 4.0)])
        assert psi_inv_log(h, math.inf) == math.inf
        assert psi_inv_log(h, -math.inf) == -math.inf
        assert psi_inv(h, 0.0) == 0.0

    def test_bracket_cap_raises_for_any_element(self):
        h = parse_slow_vary("2*(LL)^1")
        with pytest.raises(ArithmeticError):
            psi_inv_log(h, 1e300)
        with pytest.raises(ArithmeticError):
            psi_inv_log(h, np.array([1.0, 1e300]))

    @given(h=normal_forms(), xs=st.lists(st.floats(-10.0, 1e6), min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_log_value_scalar_matches_array(self, h, xs):
        # a scalar must round exactly as the same value inside an array
        scalars = [h.log_value_from_log(x) for x in xs]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(scalars, h.log_value_from_log(np.array(xs)))

    def test_roots_past_the_tolerance_spacing_finish(self):
        # past 2^13 adjacent floats lie more than LOG_BISECT_TOL apart, so the
        # search stops when its midpoint equals an end; with h = 1, psi(x) = sqrt(x)
        h = SlowVaryFn()
        ws = [3000.0, 4500.0, 1e6]
        got = [psi_inv_log(h, w) for w in ws]
        assert got == [6000.0, 9000.0, 2e6]
        assert np.array_equal(psi_inv_log(h, np.array(ws)), got)
        with pytest.raises(ArithmeticError):
            psi_inv_log(h, 6e8)

    def test_scalar_in_scalar_out(self):
        h = parse_slow_vary("2*(LL)^1")
        assert type(psi_inv_log(h, 3.0)) is float
        assert type(psi_inv(h, 3.0)) is float
        out = psi_inv_log(h, np.array([[3.0, 4.0]]))
        assert out.shape == (1, 2)
        assert out[0, 1] == psi_inv_log(h, 4.0)

    def test_log_form_reaches_beyond_overflow(self):
        h = parse_slow_vary("2*(LL)^1")
        # the inverse of psi at y = 1e300 is far beyond double range;
        # its log must still be finite and consistent
        log_x = psi_inv_log(h, math.log(1e300) * 2.2)
        assert math.isfinite(log_x) and log_x > 709.0
        assert log_psi(h, log_x) == pytest.approx(math.log(1e300) * 2.2, abs=1e-9)

    def test_quadratic_growth_of_inverse(self):
        # psi grows like sqrt(x) times slow variation, so the inverse
        # doubles twice when the argument doubles once
        h = parse_slow_vary("2*(LL)^1")
        for y in (1e6, 1e10, 1e14):
            ratio = psi_inv(h, 2.0 * y) / psi_inv(h, y)
            assert ratio == pytest.approx(4.0, rel=0.03)

    def test_monotone(self):
        h = parse_slow_vary("(L)^1")
        ys = np.geomspace(1.0, 1e50, 40)
        xs = psi_inv(h, ys)
        assert np.all(np.diff(xs) > 0)


class TestSequences:
    def test_normalizer_matches_formula(self):
        h = parse_slow_vary("2*(LL)^1")
        seq = NormalizerSeq(h)
        ns = np.array([1.0, 2.0, 10.0, 1000.0])
        np.testing.assert_allclose(seq.values(ns), np.sqrt(ns * h(ns)), rtol=1e-12)

    def test_power_seq_and_text_forms(self):
        seq = parse_cseq("pow:0.6,2.0")
        np.testing.assert_allclose(seq.values(np.array([1.0, 32.0])), [2.0, 2.0 * 32.0**0.6])
        assert parse_cseq(seq.describe()).values(np.array([7.0]))[0] == pytest.approx(
            seq.values(np.array([7.0]))[0]
        )
        psi_seq = parse_cseq("psi:2*(LL)^1")
        assert psi_seq.describe() == "psi:2*(LL)^1"

    @pytest.mark.parametrize("text", ["2*(LL)^1", "2*(LL)^3", "exp((L)^0.5)", "exp(30*(L)^0.9)"])
    def test_normalizer_log_h_is_log_h_of_n(self, text):
        # log(c_n^2 / n) of psi(n) = sqrt(n h(n)) is log h(n), bit for bit, past the float range too
        h = parse_slow_vary(text)
        log_n = np.array([math.log(2.0), math.log(1e3), math.log(1e30), 1e4])  # n = e^1e4 is no float
        np.testing.assert_array_equal(NormalizerSeq(h).log_h(log_n), h.log_value_from_log(log_n))
        np.testing.assert_allclose(NormalizerSeq(h).log_h(log_n), 2.0 * log_psi(h, log_n) - log_n, rtol=1e-9)

    @pytest.mark.parametrize("exponent, coeff", [(0.5, 1.0), (0.5, 3.0), (0.25, 1.0), (1.0, 0.5), (10.0, 2.0)])
    def test_power_log_h_is_its_closed_form(self, exponent, coeff):
        seq = PowerSeq(exponent, coeff)
        log_n = np.log(np.array([2.0, 7.0, 1e6, 2.0**120]))
        np.testing.assert_array_equal(seq.log_h(log_n), (2 * exponent - 1) * log_n + 2 * math.log(coeff))
        ns = np.array([2.0, 7.0, 1e6])
        np.testing.assert_allclose(np.exp(seq.log_h(np.log(ns))), seq.values(ns) ** 2 / ns, rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_values_past_the_float_range_are_inf(self):
        seq = PowerSeq(2.0, 1e300)
        assert seq.values(np.array([8192.0, 16384.0, 1e200])).tolist() == [1e300 * 8192.0**2, math.inf, math.inf]
        assert seq.values(1e200) == math.inf

    @pytest.mark.parametrize("bad", ["", "pow:", "psi:", "psi:junk(", "lin:2", "pow:a"])
    def test_bad_sequence_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_cseq(bad)

    @pytest.mark.parametrize("spec, want", [
        ("psi:2*(LL)^1", (True, True, True)),
        ("psi:(LL)^0.1", (True, True, True)),  # the million-point scan saw too little growth
        ("psi:1", (False, True, True)),
        ("pow:0.4", (False, False, True)),
        ("pow:0.5", (False, True, True)),
        ("pow:0.6", (True, True, True)),
        ("pow:1.2", (True, True, False)),
    ])
    def test_normalizing_conditions_verdict_table(self, spec, want):
        check = check_normalizing_conditions(parse_cseq(spec))
        assert (check.re_pass, check.re_monotone, check.ratio_regular) == want

    @given(spec=cseq_specs())
    @example(spec="psi:2*(LL)^1")
    @example(spec="pow:0.4")
    @example(spec="pow:0.5")
    @settings(max_examples=80, deadline=None)
    def test_normalizing_conditions_are_the_far_behaviour_of_log_h(self, spec):
        # at log n = u < v far out, c_n / sqrt(n) = exp(log_h / 2) grows iff
        # log_h does, and c_n / c_m <= n / m reads log_h(v) - log_h(u) <= v - u
        seq = parse_cseq(spec)
        u, v = 1e200, 2e200
        lo, hi = seq.log_h(u), seq.log_h(v)
        check = check_normalizing_conditions(seq)
        assert (check.re_pass, check.re_monotone, check.ratio_regular) == (hi > lo, hi >= lo, hi - lo <= v - u)
        assert check.rule.startswith("c_n = sqrt(n h(n))" if spec.startswith("psi:") else "c_n = C n^e")

    @pytest.mark.parametrize("seq", [_Jump(), _Wiggle()], ids=["jump", "wiggle"])
    def test_normalizing_conditions_refuse_other_sequences(self, seq):
        with pytest.raises(ValueError, match="known for NormalizerSeq and PowerSeq, got _"):
            check_normalizing_conditions(seq)


class TestHqClassification:
    def test_very_slow_examples_are_members_at_zero(self):
        for text in ("(LL)^1", "(LL)^2.5", "(L)^0.5", "(L)^2"):
            assert hq_classify(parse_slow_vary(text), 0.0).verdict == MEMBER

    def test_stretched_exponential_boundary(self):
        h = parse_slow_vary("exp((L)^0.5)")
        assert hq_classify(h, 0.5).verdict == MEMBER
        assert hq_classify(h, 0.2).verdict == NON_MEMBER

    def test_vacuous_at_q_one(self):
        rep = hq_classify(parse_slow_vary("exp((L)^0.9)"), 1.0)
        assert rep.verdict == MEMBER
        assert rep.per_tau == ()

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hq_classify(parse_slow_vary("(LL)^1"), -0.1)
        with pytest.raises(ValueError):
            hq_classify(parse_slow_vary("(LL)^1"), 1.5)

    def test_json_shape(self):
        rep = hq_classify(parse_slow_vary("(LL)^1"), 0.0)
        d = rep.to_json_dict()
        assert d["verdict"] == MEMBER
        assert d["heuristic"] is True
        assert all({"tau", "verdict", "reason"} <= set(row) for row in d["per_tau"])


class TestMomentDiagnostic:
    def test_light_tail_not_flagged(self):
        from lil_lab.distributions import Gaussian
        from lil_lab.spaces import SpaceSpec

        h = parse_slow_vary("2*(LL)^1")
        est = psi_inv_moment(Gaussian(1.0), h, SpaceSpec(1, 2.0), rng=np.random.default_rng(7))
        assert not est.heavy
        assert est.mean > 0 and est.stderr > 0

    def test_heavy_tail_flagged(self):
        from lil_lab.distributions import RadialPareto
        from lil_lab.spaces import SpaceSpec

        h = parse_slow_vary("2*(LL)^1")
        # infinite second moment makes the growth-scale inverse non-integrable
        dist = RadialPareto(1.05, 2, 1.0)
        est = psi_inv_moment(dist, h, SpaceSpec(2, 2.0), rng=np.random.default_rng(3))
        assert est.heavy


def plain_root(phi, ws):
    """The doubling-then-halving loop of `psi_inv_log` on finite targets,
    with nothing speculated: the reference for its bits."""
    wf = np.array(ws, dtype=float)
    hi = np.ones_like(wf)
    while (need := phi(hi) < wf).any():
        hi[need] *= 2.0
        if hi.max() > 1e9:
            raise ArithmeticError("bracket")
    lo = -np.ones_like(wf)
    while (need := phi(lo) > wf).any():
        lo[need] *= 2.0
        if lo.min() < -1e9:
            raise ArithmeticError("bracket")
    active = np.nonzero(hi - lo > LOG_BISECT_TOL)[0]
    while active.size:
        left, right = lo[active], hi[active]
        mid = 0.5 * (left + right)
        moves = (left < mid) & (mid < right)
        below = phi(mid) < wf[active]
        left, right = np.where(below, mid, left), np.where(below, right, mid)
        lo[active], hi[active] = left, right
        active = active[(right - left > LOG_BISECT_TOL) & moves]
    return 0.5 * (lo + hi)


def _phi(h):
    return lambda u: 0.5 * (u + h.log_value_from_log(u))


#: Root guesses from useless to nearly right; none may change a result.
BAD_GUESSES = {
    "nan": lambda phi, w, lo, hi: np.full_like(w, math.nan),
    "+inf": lambda phi, w, lo, hi: np.full_like(w, math.inf),
    "-inf": lambda phi, w, lo, hi: np.full_like(w, -math.inf),
    "lo": lambda phi, w, lo, hi: lo.copy(),
    "hi": lambda phi, w, lo, hi: hi.copy(),
    "root+1e-3": lambda phi, w, lo, hi: plain_root(phi, w) + 1e-3,
    "root-1e-3": lambda phi, w, lo, hi: plain_root(phi, w) - 1e-3,
}

#: The targets `lambda_compute` inverts: log(x LLx) on its x grid.
LAMBDA_TARGETS = np.array([math.log(x) + math.log(max(math.log(x), math.e)) for x in DEFAULT_X_GRID])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSpeculativeInverse:
    """`psi_inv_log` speculates its bisection toward a guessed root and
    checks every step; the guess may change its speed, never its bits
    (nor print a warning)."""

    @pytest.mark.parametrize("guess", sorted(BAD_GUESSES))
    @pytest.mark.parametrize("text", ["2*(LL)^1", "exp((L)^0.5)", "0.5*(L)^1*(LL)^2", "3"])
    def test_any_guess_keeps_the_bits_on_the_lambda_grid(self, monkeypatch, guess, text):
        h = parse_slow_vary(text)
        want = plain_root(_phi(h), LAMBDA_TARGETS)
        assert np.array_equal(psi_inv_log(h, LAMBDA_TARGETS), want)
        monkeypatch.setattr(slowvary, "_root_guess", BAD_GUESSES[guess])
        assert np.array_equal(psi_inv_log(h, LAMBDA_TARGETS), want)

    @given(h=normal_forms(), ws=st.lists(st.floats(-700.0, 1e6), min_size=1, max_size=10),
           guess=st.sampled_from(sorted(BAD_GUESSES)))
    @settings(max_examples=60, deadline=None)
    def test_any_guess_keeps_the_bits_property(self, h, ws, guess):
        want = plain_root(_phi(h), ws)
        assert np.array_equal(psi_inv_log(h, np.array(ws)), want)
        real = slowvary._root_guess
        slowvary._root_guess = BAD_GUESSES[guess]
        try:
            assert np.array_equal(psi_inv_log(h, np.array(ws)), want)
        finally:
            slowvary._root_guess = real

    @pytest.mark.parametrize("guess", ["real", *sorted(BAD_GUESSES)])
    def test_edge_behaviour_does_not_depend_on_the_guess(self, monkeypatch, guess):
        if guess != "real":
            monkeypatch.setattr(slowvary, "_root_guess", BAD_GUESSES[guess])
        # deep enough to reach the steps whose midpoint no longer moves
        monkeypatch.setattr(slowvary, "_SPEC_STEPS", 64)
        h = SlowVaryFn()  # psi(x) = sqrt(x): past 2^13 the midpoint stops moving
        assert np.array_equal(psi_inv_log(h, np.array([3000.0, 4500.0, 1e6])), [6000.0, 9000.0, 2e6])
        with pytest.raises(ArithmeticError):
            psi_inv_log(h, 6e8)  # root past 2^30
        with pytest.raises(ArithmeticError):
            psi_inv_log(h, np.array([1.0, -6e8]))
        assert np.array_equal(psi_inv_log(h, np.array([math.inf, -math.inf])), [math.inf, -math.inf])
        assert psi_inv(h, 0.0) == 0.0 and np.array_equal(psi_inv(h, [0.0]), [0.0])
        got = psi_inv_log(h, 3.0)
        assert type(got) is float and got == plain_root(_phi(h), [3.0])[0]

    def test_large_calls_match_too(self):
        h = parse_slow_vary("2*(LL)^1")
        ws = np.linspace(-40.0, 700.0, 4096)
        assert np.array_equal(psi_inv_log(h, ws), plain_root(_phi(h), ws))


def _counting(monkeypatch):
    calls = []
    real = SlowVaryFn.log_value_from_log

    def counted(self, log_t):
        calls.append(np.shape(log_t))
        return real(self, log_t)

    monkeypatch.setattr(SlowVaryFn, "log_value_from_log", counted)
    return calls


class TestRoundTripBudget:
    """Perf guards: log h is evaluated in few calls (64 and 18 before the
    speculative inverse and the batched membership pass)."""

    @pytest.mark.parametrize("text", ["2*(LL)^1", "exp((L)^0.5)", "2*(LL)^3"])
    def test_psi_inv_log_on_the_lambda_grid(self, monkeypatch, text):
        h = parse_slow_vary(text)
        calls = _counting(monkeypatch)
        psi_inv_log(h, LAMBDA_TARGETS)
        assert len(calls) <= 20

    @pytest.mark.parametrize("q", [0.0, 0.2, 0.85])
    def test_hq_classify(self, monkeypatch, q):
        h = parse_slow_vary("exp((L)^0.5)")
        calls = _counting(monkeypatch)
        assert hq_classify(h, q).per_tau
        assert len(calls) == 2


def reference_classify_tau(h, tau, tol):
    """The membership check for one tau, one tau at a time, as it was
    before the taus shared their log-h calls."""
    u = np.log(DEFAULT_T_GRID)
    lt = np.maximum(u, 1.0)
    delta = h.log_value_from_log(u + lt**tau) - h.log_value_from_log(u)
    with np.errstate(over="ignore"):
        ratios = np.exp(delta)
    tail = delta[-max(4, len(delta) // 4):]
    if float(np.max(np.abs(tail))) <= math.log1p(tol):
        return tau, ratios, MEMBER, "within band", None
    half = len(delta) // 2
    mask = delta[half:] > 1e-300
    if mask.sum() < 4:
        return tau, ratios, MEMBER, "ratio collapsed to 1", None
    xs, ys = np.log(lt[half:][mask]), np.log(delta[half:][mask])
    xc = xs - xs.mean()
    denom = float((xc * xc).sum())
    gamma = 0.0 if denom == 0.0 else float((xc * (ys - ys.mean())).sum() / denom)
    if gamma <= -0.02:
        return tau, ratios, MEMBER, "log-ratio decaying to 0", gamma
    if gamma >= 0.02 and bool(np.all(np.diff(delta[half:]) >= -1e-12)):
        return tau, ratios, NON_MEMBER, "monotone drift away from 1", gamma
    return tau, ratios, INCONCLUSIVE, "no clear trend", gamma


class TestBatchedMembership:
    @given(h=normal_forms(), q=st.sampled_from([0.0, 0.1, 0.35, 0.9, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_tau_loop(self, h, q):
        got = hq_classify(h, q).per_tau
        want = [reference_classify_tau(h, tau, 0.02) for tau in DEFAULT_TAU_GRID if 0 < tau < 1 - q - 1e-12]
        assert len(got) == len(want)
        assert q < 1.0 or not got
        for d, (tau, ratios, verdict, reason, gamma) in zip(got, want):
            assert (d.tau, d.verdict, d.reason, d.decay_exponent) == (tau, verdict, reason, gamma)
            assert d.ratios.tobytes() == ratios.tobytes()
