"""Sample laws: moments, truncation formulas, and the text grammar."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lil_lab.distributions import (
    GAUSS_SERIES_U,
    Gaussian,
    PointMass,
    RadialPareto,
    RademacherProduct,
    ScalarEmbedded,
    parse_dist,
)
from lil_lab.rng import MAIN, substream
from lil_lab.spaces import SpaceSpec, norms


class TestGaussian:
    def test_covariance_recovered_from_samples(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        dist = Gaussian(cov)
        rng = np.random.default_rng(4)
        x = dist.sample(rng, 200_000)
        np.testing.assert_allclose(x.T @ x / len(x), cov, atol=0.02)

    def test_scalar_truncated_second_moment_matches_monte_carlo(self):
        dist = Gaussian(1.0)
        space = SpaceSpec(1, 2.0)
        rng = np.random.default_rng(5)
        x = dist.sample(rng, 400_000)[:, 0]
        for t in (0.5, 1.0, 2.0):
            analytic = float(dist.truncated_cov(t, space)[0, 0])
            kept = np.where(np.abs(x) <= t, x * x, 0.0)
            se = float(np.std(kept)) / math.sqrt(len(x))
            assert analytic == pytest.approx(float(np.mean(kept)), abs=4 * se)

    def test_small_u_series_is_continuous_at_the_switch(self):
        dist, space = Gaussian(1.0), SpaceSpec(1, 2.0)
        below = float(dist.truncated_cov(np.nextafter(GAUSS_SERIES_U, 0.0), space)[0, 0])
        at = float(dist.truncated_cov(GAUSS_SERIES_U, space)[0, 0])
        assert below == pytest.approx(at, rel=3e-12)

    @pytest.mark.parametrize("var", [1.0, 1e-6, 1e300])
    def test_small_u_keeps_h_positive(self, var):
        # the closed form cancels to 0 at u = t / sd = 1e-8; the series does not
        u = 1e-8
        got = float(Gaussian(var).truncated_cov(u * math.sqrt(var), SpaceSpec(1, 2.0))[0, 0])
        assert got > 0 and got == pytest.approx(var * math.sqrt(2 / math.pi) * u**3 / 3, rel=1e-12)

    def test_truncated_second_moment_saturates_at_variance(self):
        dist = Gaussian(2.5)
        space = SpaceSpec(1, 2.0)
        assert float(dist.truncated_cov(100.0, space)[0, 0]) == pytest.approx(2.5, rel=1e-9)

    @pytest.mark.parametrize("cov", [
        1.0, [1.0, 1.0, 1.0],                      # identity root: the matmul is skipped
        2.5, [0.5, 3.0, 7.0], [1e-3, 7.0], [4.0] * 6,  # diagonal roots
        0.0, [0.0, 2.0], [[2.0, 0.5], [0.5, 1.0]],
    ])
    def test_sample_has_the_bits_of_the_matmul(self, cov):
        dist = Gaussian(cov)
        want = np.random.default_rng(6).standard_normal((5000, dist.dim)) @ dist._root.T
        got = dist.sample(np.random.default_rng(6), 5000)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_variance_coordinate_is_positive_zero(self):
        # z * 0.0 would keep the sign of a negative z as -0.0
        x = Gaussian([0.0, 2.0]).sample(np.random.default_rng(7), 1000)
        assert np.all(x[:, 0].view(np.uint64) == 0)

    @pytest.mark.parametrize("text", ["gauss:dim=2,var=1e+308", "gauss:dim=1,var=5e-324",
                                      "gauss:cov=1e+308;1e+308/1e+308;1e+308"])
    def test_extreme_covariance_keeps_its_entries(self, text):
        # halves are summed, so 1e308 does not overflow, and an entry equal to
        # its transpose is kept whole, so a subnormal variance is not halved to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_dist(text).describe() == text

    @pytest.mark.parametrize("cov", [[math.inf, 1.0], [[1.0, math.nan], [math.nan, 1.0]]])
    def test_rejects_a_non_finite_entry(self, cov):
        with pytest.raises(ValueError, match="covariance has an entry that is not finite"):
            Gaussian(cov)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            Gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestRademacherProduct:
    def test_norm_is_constant(self):
        dist = RademacherProduct(np.array([1.0, 2.0, 0.5]))
        rng = np.random.default_rng(6)
        x = dist.sample(rng, 1000)
        space = SpaceSpec(3, math.inf)
        np.testing.assert_allclose(norms(x, space), dist.norm_bound(space))
        assert dist.norm_bound(space) == 2.0
        assert dist.norm_bound(SpaceSpec(3, 1.0)) == pytest.approx(3.5)

    def test_truncated_cov_is_all_or_nothing(self):
        dist = RademacherProduct(np.ones(2))
        space = SpaceSpec(2, math.inf)
        np.testing.assert_allclose(dist.truncated_cov(0.5, space), np.zeros((2, 2)))
        np.testing.assert_allclose(dist.truncated_cov(1.5, space), np.eye(2))

    @given(
        seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 2**64 - 1),
        scales=st.lists(st.sampled_from([0.0, 1.0, 2.5, 1e-300]), min_size=1, max_size=6),
        calls=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2)), min_size=1, max_size=4),
    )
    # two words each call: the second call starts with a half-word buffered
    @example(seed=0, index=0, scales=[1.0], calls=[(8, 0), (8, 0)])
    @settings(max_examples=200, deadline=None)
    def test_sample_is_the_int8_sign_rule(self, seed, index, scales, calls):
        # the signs of an int8 integers draw, read from the stream's 32-bit words
        dist = RademacherProduct(np.array(scales))
        gen = substream(seed, MAIN, index)
        ref = substream(seed, MAIN, index)
        for n, pairs in calls:
            want = (ref.integers(0, 2, size=(n, dist.dim), dtype=np.int8) * 2 - 1) * dist.scales
            got = dist.sample(gen, n)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            # an odd count of uint32 draws leaves half a 64-bit SFC64 word buffered
            k = 2 * pairs + 1
            np.testing.assert_array_equal(gen.integers(0, 2**32, size=k, dtype=np.uint32),
                                          ref.integers(0, 2**32, size=k, dtype=np.uint32))
        assert gen.random() == ref.random()

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.Philox, np.random.MT19937])
    def test_sample_is_the_int8_sign_rule_on_other_generators(self, bits):
        # MT19937 has no half-word buffer: its 32-bit words are not halves of random_raw
        dist = RademacherProduct(np.ones(3))
        gen, ref = np.random.Generator(bits(5)), np.random.Generator(bits(5))
        for n in (8, 8, 3, 8):
            want = ref.integers(0, 2, size=(n, 3), dtype=np.int8) * 2.0 - 1.0
            assert dist.sample(gen, n).tobytes() == want.tobytes()
        assert gen.random() == ref.random()


class TestRadialPareto:
    def test_norm_tail_matches_power_law(self):
        dist = RadialPareto(1.5, 3, 1.0)
        rng = np.random.default_rng(8)
        space = SpaceSpec(3, 2.0)
        r = norms(dist.sample(rng, 200_000), space)
        for t in (2.0, 5.0):
            assert float(np.mean(r > t)) == pytest.approx(t**-1.5, rel=0.05)

    def test_truncated_cov_matches_monte_carlo(self):
        dist = RadialPareto(1.5, 2, 1.0)
        space = SpaceSpec(2, 2.0)
        rng = np.random.default_rng(9)
        x = dist.sample(rng, 400_000)
        r = norms(x, space)
        t = 4.0
        kept = x[r <= t]
        emp = kept.T @ kept / len(x)
        np.testing.assert_allclose(dist.truncated_cov(t, space), emp, atol=0.02)

    def test_draw_past_the_float_range_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = RadialPareto(2.5, 3, 1e308).sample(np.random.default_rng(10), 200)
        assert np.isinf(huge).any()
        # a scale of 1 draws the same R, U and signs: each finite draw is that one times 1e308
        unit = RadialPareto(2.5, 3, 1.0).sample(np.random.default_rng(10), 200)
        finite = np.isfinite(huge)
        np.testing.assert_allclose(huge[finite] / 1e308, unit[finite], rtol=1e-15)

    def test_centering_depends_on_tail_index(self):
        assert RadialPareto(1.5, 1).is_centered
        assert not RadialPareto(0.9, 1).is_centered

    @pytest.mark.parametrize("a, finite", [(1.5, False), (3.0, True)])
    def test_second_moment_depends_on_tail_index(self, a, finite):
        assert RadialPareto(a, 2).finite_second_moment is finite
        assert ScalarEmbedded(RadialPareto(a, 1), 0, 3).finite_second_moment is finite


class TestPointMassAndEmbedding:
    def test_point_mass_centering(self):
        assert PointMass(np.zeros(2)).is_centered
        assert not PointMass(np.array([0.0, 1.0])).is_centered

    @pytest.mark.parametrize("text", ["point:v=nan", "point:v=1;inf", "embed:dim=2,axis=0,inner=(point:v=nan)"])
    def test_point_mass_refuses_a_non_finite_entry(self, text):
        with pytest.raises(ValueError, match="point must be a finite vector"):
            parse_dist(text)

    def test_bounded_and_gaussian_laws_have_a_second_moment(self):
        for dist in (Gaussian(1.0), RademacherProduct(np.ones(2)), PointMass(np.ones(2)),
                     ScalarEmbedded(Gaussian(1.0), 1, 2)):
            assert dist.finite_second_moment is True

    def test_embedding_puts_mass_on_one_axis(self):
        inner = Gaussian(1.0)
        dist = ScalarEmbedded(inner, 2, 4)
        rng = np.random.default_rng(11)
        x = dist.sample(rng, 500)
        assert x.shape == (500, 4)
        other = np.delete(x, 2, axis=1)
        assert np.all(other == 0.0)
        assert np.std(x[:, 2]) > 0.5


class TestParseGrammar:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("gauss:dim=2,var=1", Gaussian),
            ("gauss:diag=1;2;3", Gaussian),
            ("gauss:cov=2;0.5/0.5;1", Gaussian),
            ("rademacher:dim=5", RademacherProduct),
            ("rademacher:scales=1;2", RademacherProduct),
            ("pareto:a=1.5,dim=3", RadialPareto),
            ("point:v=0;0", PointMass),
            ("embed:dim=4,axis=1,inner=(gauss:var=2)", ScalarEmbedded),
        ],
    )
    def test_families_parse(self, text, cls):
        assert isinstance(parse_dist(text), cls)

    def test_round_trip_through_describe(self):
        for text in ("gauss:dim=2,var=1", "rademacher:dim=3", "rademacher:scales=1;2",
                     "pareto:a=1.5,dim=3,scale=2", "point:v=1;-2", "embed:dim=4,axis=1,inner=(gauss:var=2)"):
            dist = parse_dist(text)
            again = parse_dist(dist.describe())
            assert type(again) is type(dist) and again.describe() == dist.describe()
            rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
            np.testing.assert_allclose(dist.sample(rng1, 50), again.sample(rng2, 50))
            assert again.is_centered == dist.is_centered
            assert again.finite_second_moment == dist.finite_second_moment
            for p in (1.0, 2.0, math.inf):
                assert again.norm_bound(SpaceSpec(dist.dim, p)) == dist.norm_bound(SpaceSpec(dist.dim, p))

    @pytest.mark.parametrize("dist, text", [
        (RademacherProduct([2.5e-10, 1]), "rademacher:scales=2.5e-10;1"),
        (Gaussian([1.5e20, 2]), "gauss:diag=1.5e+20;2"),
        (Gaussian([[2.0, 1e-12], [1e-12, 1.0]]), "gauss:cov=2;1e-12/1e-12;1"),
        (PointMass([1e-300, 0.5]), "point:v=1e-300;0.5"),
    ], ids=["exponent-ends-in-0", "positive-exponent", "tiny-off-diagonal", "point"])
    def test_describe_writes_every_digit(self, dist, text):
        assert dist.describe() == text

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["rademacher", "diag", "cov", "point"]),
        values=st.lists(st.floats(min_value=5e-324, max_value=sys.float_info.max), min_size=3, max_size=3),
        r=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_describe_round_trips_bit_for_bit(self, kind, values, r):
        a, b, c = values
        if kind == "rademacher":
            dist, field = RademacherProduct([a, b, c]), "scales"
        elif kind == "diag":
            dist, field = Gaussian([a, b, c]), "cov"
        elif kind == "cov":
            # positive definite: |off-diagonal| <= 0.9 sqrt(a c)
            off = r * math.sqrt(a) * math.sqrt(c)
            dist, field = Gaussian([[a, off], [off, c]]), "cov"
        else:
            dist, field = PointMass([a, b, c]), "vector"
        again = parse_dist(dist.describe())
        assert type(again) is type(dist)
        assert getattr(again, field).tobytes() == getattr(dist, field).tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            "gauss",
            "gauss:bogus=1",
            "mystery:dim=1",
            "pareto:a=-1",
            "rademacher:dim=0",
            "embed:dim=2,axis=5,inner=(gauss:var=1)",
            "gauss:cov=1;2/2",
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_dist(bad)

    def test_sampling_is_deterministic_in_the_generator(self):
        dist = parse_dist("pareto:a=2,dim=2")
        a = dist.sample(np.random.default_rng(42), 100)
        b = dist.sample(np.random.default_rng(42), 100)
        np.testing.assert_array_equal(a, b)


# Every family and the branches of its formula: zero variance, no closed
# form (d = 2 Gaussian, Pareto off l^2), a zero scale, the log (a = 2) and
# power (a != 2) Pareto forms, and a one-dimensional law embedded in R^3.
GRID_LAWS = {
    "gauss-var0": (Gaussian(0.0), SpaceSpec(1, 2.0)),
    "gauss-var2.5": (Gaussian(2.5), SpaceSpec(1, 2.0)),
    "gauss-d2": (Gaussian(np.eye(2)), SpaceSpec(2, 2.0)),
    "rademacher-zero-scale-l1": (RademacherProduct(np.array([1.0, 0.0, 2.0])), SpaceSpec(3, 1.0)),
    "rademacher-linf": (RademacherProduct(np.array([0.5, 3.0])), SpaceSpec(2, math.inf)),
    "pareto-a2": (RadialPareto(2.0, dim=2, scale=0.5), SpaceSpec(2, 2.0)),
    "pareto-a1.5": (RadialPareto(1.5, dim=1), SpaceSpec(1, 2.0)),
    "pareto-a3": (RadialPareto(3.0, dim=3, scale=2.0), SpaceSpec(3, 2.0)),
    "pareto-l1": (RadialPareto(2.5, dim=2), SpaceSpec(2, 1.0)),
    "point": (PointMass(np.array([1.0, -2.0])), SpaceSpec(2, 1.0)),
    "embed-gauss": (ScalarEmbedded(Gaussian(1.5), axis=1, dim=3), SpaceSpec(3, math.inf)),
    "embed-pareto": (ScalarEmbedded(RadialPareto(2.0), axis=0, dim=2), SpaceSpec(2, 2.0)),
}

# Unsorted grids with repeats, zeros, the jump points of the step laws
# (||v||_1 = 3, ||scales||_1 = 3, r = 1) and points far out in the tail.
t_grids = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=10.0, max_value=1e300),
    ),
    max_size=20,
).map(lambda xs: np.array(xs + xs[: len(xs) // 2], dtype=float))


class TestTruncatedCovGrid:
    @pytest.mark.parametrize("name", sorted(GRID_LAWS))
    @given(ts=t_grids)
    @settings(max_examples=40, deadline=None)
    def test_grid_is_the_stack_of_scalar_calls_bit_for_bit(self, name, ts):
        dist, space = GRID_LAWS[name]
        got = dist.truncated_cov(ts, space)
        scalar = [dist.truncated_cov(t, space) for t in ts.tolist()]
        if dist.truncated_cov(1.0, space) is None:
            assert got is None and all(m is None for m in scalar)
            return
        assert got.shape == (ts.size, dist.dim, dist.dim) and got.dtype == np.float64
        want = np.stack(scalar) if scalar else np.zeros((0, dist.dim, dist.dim))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("name", sorted(GRID_LAWS))
    def test_scalar_call_gives_one_matrix(self, name):
        dist, space = GRID_LAWS[name]
        m = dist.truncated_cov(2.5, space)
        assert m is None or m.shape == (dist.dim, dist.dim)
