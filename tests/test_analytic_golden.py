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

c7's two report digests were recorded again when the series classifier
began to fit each probe at its own j: its H is 0 at the first probes,
which used to be fitted at the wrong j, and its c0 bracket moved from
[2.266, 2.281] to [2.234, 2.250], around sqrt 5 = 2.236.

c4's and c7's two report digests were recorded again when the margin of
`sandwich_consistent` became relative: c7's flag went from false to
true, c4's from true to false (its c0 lo 0.953 and lambda 0.860 differ
by 10.8%).  No other key moved.

All sixteen report digests were recorded again when c0's series became
alpha0's along a_n = psi(n), read off one probe grid: its exponents are
c^2 a_n^2 / (2 n H(a_n)), no longer c^2 h(n) / (2 H(a_n)).  Only the
fitted slopes of the c0 probes moved, by at most 6.9e-14 relative;
`DECISION_DIGESTS`, recorded before that change, pin everything the
brackets decide.
"""

import hashlib
import json

import numpy as np
import pytest

from lil_lab.cli import parse_space
from lil_lab.constants import alpha0_compute, c0_compute, constants_report, lambda_compute, parse_tsm
from lil_lab.distributions import parse_dist
from lil_lab.slowvary import NormalizerSeq, hq_classify, parse_cseq, parse_slow_vary

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
    "c1-const": "0ae5395c144123419e6bbf62c315348e43bad6ab490bfbbb7754bc79efba29cc",
    "c2-const-cseq": "f41f06ecca806c0945307fe484de61688dc647d6caccada21f490cbeeb8fc93b",
    "c3-llpow": "dc2419f291bbcb48a2b3befa24091fe324dfa3dc4dbe921cc6b9e7c4c67af6fc",
    "c4-llpow": "9589ee33e5cd43533757da280a1a5be5e364a05ccaea1dd2c89dc35891584fbe",
    "c5-dist-gauss1": "4e1bec5b635725918b18f5a8b9a332c5544330c985962509208f6e8392d52970",
    "c6-dist-gauss2": "fc7ce52a4ba8a5edf484b46d73ef5e9df5815f9c9ccc9a8db1403ef786c3bfcd",
    "c7-dist-rademacher": "4ba3f524720826041d214eadcc2f55fc3a7e75e985c224ef6e5a7b75d23c403f",
    "c8-explog": "dae6defd1218b54cc0624b8d4598e002651d0468f9097afd9f79c874704dd77c",
}

ROUTE_KEYS = ("h_route", "h_samples", "h_max_norm", "h_extrapolated_frac")

PRE_ROUTE_DIGESTS = {
    "c1-const": "30bcb882f57cb3c72c439c13aca9864f7f0b30fb7ca4dacde329e01022fbb7ff",
    "c2-const-cseq": "f3387cceab5ebff36f5c7ecf57c17918a78e68768a7447dac492889b3e1f0fe2",
    "c3-llpow": "ea460bfd5c6a83b8dbeeec174f8caf69408202320027c520825d6c162bc4b384",
    "c4-llpow": "a6115ba5201d58f314b552082356bd5bacb7fdf6fb72cdaef0ae2ca11f7b2e93",
    "c5-dist-gauss1": "f3387cceab5ebff36f5c7ecf57c17918a78e68768a7447dac492889b3e1f0fe2",
    "c6-dist-gauss2": "3fc38e047b111e4a044c30383a30e00ab40b8be0eeaefc681b821c793e89e427",
    "c7-dist-rademacher": "952ceb9202673236aa3e6de83ea2aa3e11e9cb19b8e7831856ee021edb8995ab",
    "c8-explog": "f8d617b9a9ab1fe09b3d3930fedde01c2a685129835ec25a079bc65fcafcf50e",
}

# The decisions of the two series brackets alone: lo, hi, their verdicts,
# the note and every probe's (c, verdict), without the fitted slopes.
# Recorded before c0 and alpha0 shared one probe grid; that change moved
# only slope bits, so these stayed.
DECISION_DIGESTS = {
    "c1-const": "1c4158ea26865077d817a659bcb9fcab2bec3d9130cad850fc97ae01db409b0e",
    "c2-const-cseq": "09cfb8a04d8993208f7c60e502ded22706380e734965b545b45de8ca130e9e6b",
    "c3-llpow": "6006daf6764e3d0831fbd9ab33e1fb44a2c7f821575d89375fe1eef909565b25",
    "c4-llpow": "226d5cd007eab592bbe34db283833775e04c31fafd29c1aa455be882fb09ac01",
    "c5-dist-gauss1": "09cfb8a04d8993208f7c60e502ded22706380e734965b545b45de8ca130e9e6b",
    "c6-dist-gauss2": "1c4158ea26865077d817a659bcb9fcab2bec3d9130cad850fc97ae01db409b0e",
    "c7-dist-rademacher": "5fd984dd0008ba7301fb1f5c3fe7286b5a9f71526e96fae9c64ff7f5f57b7102",
    "c8-explog": "802269e5151c784a1439f1fd19dabe8dfe90497828de265ec8420d08f193b1a0",
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


@pytest.mark.parametrize("name", sorted(DECISION_DIGESTS))
def test_series_bracket_decisions_digest(name):
    diag = _report(name)["verdict_diagnostics"]
    decisions = {
        stage: {key: diag[stage][key] for key in ("lo", "hi", "lo_verdict", "hi_verdict", "note")}
        | {"probes": [[p["c"], p["verdict"]] for p in diag[stage]["probes"]]}
        for stage in ("c0", "alpha0") if stage in diag
    }
    assert _digest(decisions) == DECISION_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_c0_is_alpha0_along_psi(name):
    # one series: a_n^2 / n = h(n) for a_n = psi(n)
    h, H_fn, *_ = _inputs(name)
    assert c0_compute(h, H_fn).to_json_dict() == alpha0_compute(NormalizerSeq(h), H_fn).to_json_dict()
    if SCENARIOS[name][4] == f"psi:{SCENARIOS[name][0]}":
        diag = _report(name)["verdict_diagnostics"]
        assert diag["c0"] == diag["alpha0"]


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
