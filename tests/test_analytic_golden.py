"""Golden digests of the analytic route.

Each case builds the inputs of one `lil-lab constants` scenario of the
benchmark's analytic sweep the way the CLI does (seed 0, default tol,
no Monte Carlo) and hashes the sorted-key JSON of `constants_report`.
Three cases also hash the raw `lambda_compute` curve.  The digests were
recorded from the scalar per-point psi-inverse, the uncached bracket
searches and the point-by-point H evaluation that preceded the
vectorised code, so any change to a bracket, a probe verdict or the last
bit of a curve value shows up here.

`HQ_DIGESTS` pin `hq_classify`, its JSON plus every tau's raw ratios,
for the q = 0 scan of each scenario's h and for the two `hclass` calls
of the sweep.  They were recorded from the membership check that took
one tau at a time, before the taus shared their log-h calls.

`PRE_ROUTE_DIGESTS` hash each report without the H route keys that
`verdict_diagnostics` gained later; they are the digests recorded before
those keys existed, so no older field can move unnoticed.

c6's H is empirical.  Both of its digests were recorded again when its
sample moved from numpy's PCG64 to the versioned stream
`substream(seed, H_SAMPLE)`, which the CLI also draws from, and again
when that stream moved from v2 (Philox) to v3 (SFC64).
"""

import hashlib
import json

import numpy as np
import pytest

from lil_lab.cli import parse_space
from lil_lab.constants import constants_report, lambda_compute, parse_tsm
from lil_lab.distributions import parse_dist
from lil_lab.slowvary import hq_classify, parse_cseq, parse_slow_vary

# name: (h, H, dist, space, c_seq)
SCENARIOS = {
    "c1-const": ("2*(LL)^1", "const:1", None, "1,2", None),
    "c2-const-cseq": ("2*(LL)^1", "const:1", None, "1,2", "psi:2*(LL)^1"),
    "c3-llpow": ("2*(LL)^1.5", "llpow:0.5", None, "1,2", None),
    "c4-llpow": ("2*(LL)^3", "llpow:2", None, "1,2", None),
    "c5-dist-gauss1": ("2*(LL)^1", "dist", "gauss:dim=1,var=1", "1,2", "psi:2*(LL)^1"),
    "c6-dist-gauss2": ("2*(LL)^1", "dist", "gauss:dim=2,var=1", "2,2", None),
    "c7-dist-rademacher": ("2*(LL)^1", "dist", "rademacher:dim=5", "5,1", "pow:0.5"),
    "c8-explog": ("exp((L)^0.5)", "const:1", None, "1,2", None),
}

REPORT_DIGESTS = {
    "c1-const": "9d37bd59f90674f3e6113ec7c53f3c84733d5b29fa9cced7ddf446dee2548ede",
    "c2-const-cseq": "b3b809f47b3321cfa223b4de9c8a10d8f1d78ea7610a7d80779893f720d95755",
    "c3-llpow": "519bb2854e8d9ec6436f063ecf85aede6bb5beab15a08f0fc6ca6170ec6e05cd",
    "c4-llpow": "0d5aae6041f8589da5c3a1a41ea624a8cd716f34dc1cff6da30a9e400b31c5fb",
    "c5-dist-gauss1": "0985b643161a336707ac2060e68025c563b0430f0780433b8b416d50911c8e0e",
    "c6-dist-gauss2": "18d50b294ba6349130a705c5a6b57b2db8c31e9d27632b826c6029810d3e3ddc",
    "c7-dist-rademacher": "1ac65952fcb2df4ceff0747bc95fa442334fc4799e3469f6abcca4bfc99a9b53",
    "c8-explog": "3acae49d609d4ae672ee9b71edce673412a36d6338b43d78dc6488cc136d58b9",
}

ROUTE_KEYS = ("h_route", "h_samples", "h_max_norm", "h_extrapolated_frac")

PRE_ROUTE_DIGESTS = {
    "c1-const": "e2da8634105f05f430d8ae3bf36679ede4b2ea7c580c5a48ff06392e6ffc8b8e",
    "c2-const-cseq": "cb8a7ff1de54d49337a71900b26e1d9d1b8e22d8d6858f2c499ccd7f80a255e4",
    "c3-llpow": "e80d4198af6445e3adfb6d0be04ca64fb838b2e044b2791885b9ccd7ed517d8f",
    "c4-llpow": "32875cf0808f17a8335920c831530615b7c80cebf2be38d3c71631b7a54dcbfc",
    "c5-dist-gauss1": "cb8a7ff1de54d49337a71900b26e1d9d1b8e22d8d6858f2c499ccd7f80a255e4",
    "c6-dist-gauss2": "742f0c955b60d905ccc66fcca7ceb7fd39dc58d4c93ce4a1a2739abdfc746868",
    "c7-dist-rademacher": "221fb6277661e44da5427aed0cbd22cf960cf791f579401217944015da46637d",
    "c8-explog": "e5f6c24428e03d67ae3b0fa9d68a2992b70c6e3e58d1601e9a0f58a49537c4fe",
}

CURVE_DIGESTS = {
    "c3-llpow": "df6df506021ee359c0c69f7e93c8a7815fdebc840e3dc8dddb3a5cf5c33f569a",
    "c7-dist-rademacher": "2dc3bbef1b60d44ab3e66536a87e08baf1416a1fc902f35b1924db384584309e",
    "c8-explog": "f1881e5a29f5dafb3fe52bc6575ea6403fc69e27d3662f317a12dfa4bebb2a69",
}

_HQ_BY_H = {
    "2*(LL)^1": "a1aba77c4425aba2f48c791774e6c510b9ff6252761156ce862a819d7ff187ef",
    "2*(LL)^1.5": "372808d37965f25d5d856ba63e43d7350904783ded9b8bac530ce4e6214ee0e1",
    "2*(LL)^3": "dbcef9b7e7d40fd1773dccc123694016ddffe34104f81f1b9c990251eaa81b36",
    "exp((L)^0.5)": "8b73f9c76f94340a654c78ea0b2f5ffd8c8a4e917ad9f54dc7ddec611f64283a",
}

# (h, q): the q = 0 scan of every scenario's h, then h9 and h10 of the sweep
HQ_DIGESTS = {
    **{(SCENARIOS[name][0], 0.0): _HQ_BY_H[SCENARIOS[name][0]] for name in SCENARIOS},
    ("exp((L)^0.5)", 0.2): "a8557141b4844a3abe90a50904f3ae4fc48d4589b00013d2f3a8f0882b74db9f",
    ("(LL)^2", 0.0): "51467a58209c56d2d736319ef2d8be4366188a07002b6a0e48e21ec92707f1cb",
}


def _inputs(name):
    h_text, H_text, dist_text, space_text, cseq_text = SCENARIOS[name]
    space = parse_space(space_text)
    dist = parse_dist(dist_text) if dist_text else None
    H_fn = parse_tsm(H_text, dist=dist, space=space, seed=0)
    c_seq = parse_cseq(cseq_text) if cseq_text else None
    return parse_slow_vary(h_text), H_fn, dist, space, c_seq


def _report(name):
    h, H_fn, dist, space, c_seq = _inputs(name)
    return constants_report(h, H_fn, c_seq=c_seq, dist=dist, space=space).to_json_dict()


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_constants_report_digest(name):
    assert _digest(_report(name)) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PRE_ROUTE_DIGESTS))
def test_constants_report_without_route_keys_digest(name):
    doc = _report(name)
    diag = doc["verdict_diagnostics"]
    assert set(ROUTE_KEYS) <= set(diag)
    for key in ROUTE_KEYS:
        del diag[key]
    assert _digest(doc) == PRE_ROUTE_DIGESTS[name]


def test_route_keys_name_the_empirical_fallback():
    routes = {name: _report(name)["verdict_diagnostics"] for name in ("c1-const", "c5-dist-gauss1", "c6-dist-gauss2")}
    assert [d["h_route"] for d in routes.values()] == ["model", "analytic", "empirical"]
    assert routes["c1-const"]["h_samples"] is None and routes["c5-dist-gauss1"]["h_max_norm"] is None
    c6 = routes["c6-dist-gauss2"]
    assert c6["h_samples"] == 4096 and c6["h_max_norm"] > 0
    # most c0 probes of the empirical fallback lie past the largest sample norm
    assert c6["h_extrapolated_frac"]["c0"] == 0.975
    assert c6["h_extrapolated_frac"]["alpha0"] is None


@pytest.mark.parametrize("name", sorted(CURVE_DIGESTS))
def test_lambda_curve_digest(name):
    h, H_fn, *_ = _inputs(name)
    curve = lambda_compute(h, H_fn).curve
    assert curve.dtype == np.float64
    assert hashlib.sha256(curve.tobytes()).hexdigest() == CURVE_DIGESTS[name]


@pytest.mark.parametrize("h_text,q", sorted(HQ_DIGESTS))
def test_hq_classify_digest(h_text, q):
    report = hq_classify(parse_slow_vary(h_text), q)
    digest = hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    for d in report.per_tau:
        digest.update(d.ratios.tobytes())
    assert digest.hexdigest() == HQ_DIGESTS[(h_text, q)]
