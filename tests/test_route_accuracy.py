"""Route accuracy: each analytic-route figure against its closed-form truth.

Every row has h = C (LL)^1 and an H that settles at sigma^2, so the
series threshold is c0 = sqrt(2 sigma^2 / C), lambda equals c0, and
alpha0 of c_n = sqrt(n) is infinite: with H bounded, its probe exponents
x_j = alpha^2 / (2 H(sqrt n_j)) are constant.  For h = 2 (LL)^1 that is
c0 = lambda = sqrt(sigma^2).  One row has an unbounded H and sigma^2 =
inf: there c0, lambda and sigma^2 must all read infinite.  Every row
must also read `sandwich_consistent`.

An empirical H brackets its own sigma^2, so on an empirical row the
bracket must contain sqrt(2 sigma^2 / C) for the reported sigma^2, and
its distance from the true value is a ceiling of its own.  lambda reads
low on every row: on this class its curve is about 1 - log 2 / (2 LLx),
and LLx is only 6.5 at the end of its grid, x = 1e300.

Each row prints one line straight to the terminal, as the acceptance
suite does.  A ceiling here is today's error: lowering one tightens the
test, raising one needs a reason.
"""

import math

import pytest

from lil_lab.cli import parse_space
from lil_lab.constants import alpha0_compute, c0_compute, constants_report, parse_tsm
from lil_lab.distributions import parse_dist
from lil_lab.slowvary import NormalizerSeq, parse_cseq, parse_slow_vary

#: Largest relative error of lambda against its truth, today -4.925% (`0.5*(LL)^1`).
LAMBDA_CEILING = 0.0493
#: Largest relative distance of an empirical sigma's square root from the
#: true sigma, today +2.48% (gauss d = 5 in l2).
EMPIRICAL_SIGMA_CEILING = 0.025

# (C, H source, law, space, true sigma^2, relative tolerance on the reported sigma^2)
ROWS = {
    "gauss1-l2": (2, "dist", "gauss:dim=1,var=1", "1,2", 1.0, 0.0),
    "rademacher5-l1": (2, "dist", "rademacher:dim=5", "5,1", 5.0, 0.0),
    "rademacher5-linf": (2, "dist", "rademacher:dim=5", "5,inf", 1.0, 0.0),
    "rademacher-scales10-l2": (2, "dist", "rademacher:scales=10", "1,2", 100.0, 0.0),
    "pareto3-l2": (2, "dist", "pareto:a=3", "1,2", 3.0, 0.0),
    # H(t) = 5 (1 - t^-1/2): sigma^2 is read at the cap, H(2^100) = 5 (1 - 2^-50)
    "pareto2.5-l2": (2, "dist", "pareto:a=2.5", "1,2", 5.0, 1e-15),
    # H(t) grows like 2 log t: c0, lambda and sigma^2 are all infinite
    "pareto2-l2": (2, "dist", "pareto:a=2", "1,2", math.inf, None),
    "const5": (2, "const:5", None, "1,2", 5.0, 0.0),
    "3LL-const2": (3, "const:2", None, "1,2", 2.0, 0.0),
    "LL-const2": (1, "const:2", None, "1,2", 2.0, 0.0),
    "halfLL-const2": (0.5, "const:2", None, "1,2", 2.0, 0.0),
    # no closed form in l2 at d > 1: the H route is empirical
    "gauss5-l2-empirical": (2, "dist", "gauss:dim=5,var=1", "5,2", 1.0, None),
}


def _inputs(name):
    C, H_text, dist_text, space_text, *_ = ROWS[name]
    space = parse_space(space_text)
    dist = parse_dist(dist_text) if dist_text else None
    return parse_slow_vary(f"{C:g}*(LL)^1"), parse_tsm(H_text, dist=dist, space=space)


@pytest.mark.parametrize("name", ROWS)
def test_c0_is_alpha0_along_psi(name):
    h, H_fn = _inputs(name)
    assert c0_compute(h, H_fn).to_json_dict() == alpha0_compute(NormalizerSeq(h), H_fn).to_json_dict()


@pytest.mark.parametrize("name", ROWS)
def test_route_matches_its_closed_form(name, capsys):
    C, _, _, _, sigma2, sigma2_tol = ROWS[name]
    rep = constants_report(*_inputs(name), c_seq=parse_cseq("pow:0.5"))
    route = rep.verdict_diagnostics["h_route"]
    assert rep.verdict_diagnostics["sandwich_consistent"]
    assert rep.alpha0.hi == math.inf
    if math.isinf(sigma2):
        with capsys.disabled():
            print(f"\nROUTE {name}: {route}, c0 [{rep.c0.lo:.4g}, {rep.c0.hi:.4g}], lambda {rep.lam:.4g}, "
                  f"sigma^2 {rep.sigma2:.6g}")
        assert rep.c0.hi == rep.lam == rep.sigma2 == math.inf
        return
    truth = math.sqrt(2.0 * (rep.sigma2 if route == "empirical" else sigma2) / C)
    lam_err = rep.lam / truth - 1.0
    sigma_gap = math.sqrt(rep.sigma2 / sigma2) - 1.0
    with capsys.disabled():
        print(f"\nROUTE {name}: {route}, c0 [{rep.c0.lo:.4g}, {rep.c0.hi:.4g}] vs {truth:.4g}, "
              f"lambda {rep.lam:.4g} ({lam_err:+.2%}), sigma^2 {rep.sigma2:.6g} vs {sigma2:g} "
              f"({sigma_gap:+.2%} in sigma), alpha0 [{rep.alpha0.lo:g}, {rep.alpha0.hi:g}]")
    assert rep.c0.lo <= truth <= rep.c0.hi
    assert abs(lam_err) <= LAMBDA_CEILING
    if route == "empirical":
        assert 0.0 <= sigma_gap <= EMPIRICAL_SIGMA_CEILING
    else:
        assert rep.sigma2 == pytest.approx(sigma2, rel=sigma2_tol, abs=0.0)
