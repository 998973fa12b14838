"""The CLI contract on extreme inputs, one in-process `cli.main` row per argv.

Each run either exits 0 and writes an artifact with no stray "nan", or
exits 2 with exactly one `{code, message, context}` JSON line on stderr
whose code is not `internal_error`.  A RuntimeWarning is an error here,
so a run that warns on its way to either exit fails its row.
"""

import json

import pytest

from lil_lab import cli

_ROWS = {
    # a symmetric covariance near the float max: its halves are summed, so nothing overflows
    "gauss-var-1e308": (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "gauss:dim=1,var=1e308",
                         "--space", "1,2"], 0, None),
    # var * eye(2) would be inf * 0 = NaN off the diagonal
    "gauss-var-inf": (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "gauss:dim=2,var=inf",
                       "--space", "2,2"], 2, "covariance has an entry that is not finite"),
    # H = inf and h(x) = inf at the same points: the ratio is taken in logs there
    "ratio-tail-past-float-range": (["constants", "--h", "(L)^1e3", "--H", "dist", "--dist", "point:v=1e200",
                                     "--space", "1,2"], 0, None),
    # the series exponents pass the float range near c0: those probes fit nothing and say INCONCLUSIVE
    "h-exponents-past-float-range": (["constants", "--h", "1e300*(LL)^0.1", "--H", "const:1"], 0, None),
    "pareto-draws-overflow": (["fn-verify", "--dist", "pareto:a=2.5,dim=3,scale=1e308", "--space", "3,inf",
                               "--n", "50", "--trials", "100"], 2, "partial sum overflowed near step 50"),
    "argparse-value-like-a-flag": (["hclass", "--h", "-1*(LL)^1"], 2, "argument --h: expected one argument"),
    "argparse-bad-float": (["hclass", "--h", "(LL)^1", "--q", "abc"], 2, "argument --q: invalid float value: 'abc'"),
    "point-nan": (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "point:v=nan", "--space", "1,2"],
                  2, "point must be a finite vector"),
    "embedded-point-nan": (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist",
                            "embed:dim=2,axis=0,inner=(point:v=nan)", "--space", "2,2"],
                           2, "point must be a finite vector"),
    # scale * scale underflows to 0 while m2 is inf at t = inf: H is inf there, not 0 * inf = NaN
    "pareto-scale-1e-300": (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "pareto:a=2,dim=1,scale=1e-300",
                             "--space", "1,2"], 0, None),
    "t-grid-inf": (["fn-verify", "--n", "5", "--trials", "100", "--t-grid", "1:inf:3"],
                   2, "grid needs 0 < lo < hi < inf and points >= 2, got '1:inf:3'"),
    "t-grid-not-a-number": (["fn-verify", "--n", "5", "--trials", "100", "--t-grid", "a:b:3"],
                            2, "could not convert string to float: 'a'"),
    "empirical-count-negative": (["constants", "--h", "2*(LL)^1", "--H", "empirical:-5", "--dist", "gauss:dim=1,var=1"],
                                 2, "an empirical H needs at least one sample"),
    # the grid's top point is the float max's neighbourhood: geomspace builds it without overflow
    "t-grid-near-float-max": (["fn-verify", "--n", "5", "--trials", "100", "--t-grid", "1:1.7e308:3"], 0, None),
    # squared ratios near 1e307 pass the float range, their std does not
    "beta0-se-past-float-range": (["constants", "--h", "(LL)^0.9", "--H", "const:1", "--dist",
                                   "gauss:dim=1,var=1e308", "--space", "1,inf", "--trials", "40"], 0, None),
    # with c_n = 1e-153 sqrt(n) the ratios near 1e307 also sum past it
    "beta0-mean-past-float-range": (["constants", "--h", "(LL)^0.9", "--H", "const:1", "--dist",
                                     "gauss:dim=1,var=1e308", "--space", "1,inf", "--trials", "40",
                                     "--c-seq", "pow:0.5,1e-153"], 0, None),
    # N max_norm^2 passes the float range, the means of the outer products do not
    "empirical-prefix-past-float-range": (["constants", "--h", "2*(LL)^1", "--H", "empirical:8", "--dist",
                                           "point:v=1e154", "--space", "1,2"], 0, None),
    "empirical-rademacher-1e154": (["constants", "--h", "2*(LL)^1", "--H", "empirical:64", "--dist",
                                    "rademacher:scales=1e154;1e154", "--space", "2,2"], 0, None),
    # an l1 space's dual ball is the cube, whose sign vertices are enumerated: refused past
    # d = 20, by fn-verify before it samples
    "fn-verify-l1-past-vertex-limit": (["fn-verify", "--dist", "rademacher:dim=21", "--space", "21,1"],
                                       2, "p=1 vertex enumeration limited to dim <= 20, got 21"),
    "constants-l1-past-vertex-limit": (["constants", "--h", "2*(LL)^1", "--H", "empirical:64", "--dist",
                                        "gauss:dim=21,var=1", "--space", "21,1"],
                                       2, "p=1 vertex enumeration limited to dim <= 20, got 21"),
}


def _stray_nans(doc, path=()):
    """Paths of "nan" strings, leaving out the two places a NaN is the answer:
    the slope of a series probe that made no fit (an INCONCLUSIVE verdict),
    and `ratio_vs_half_lambda2` when lambda is infinite."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            if key == "slope" and doc.get("verdict") == "INCONCLUSIVE":
                continue
            yield from _stray_nans(val, (*path, key))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            yield from _stray_nans(val, (*path, i))
    elif doc == "nan":
        yield path


@pytest.mark.parametrize("argv, exit_code, message", _ROWS.values(), ids=_ROWS.keys())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_input_exits_by_the_contract(tmp_path, capfd, argv, exit_code, message):
    out = tmp_path / "runs"
    assert cli.main([*argv, "--out", str(out)]) == exit_code
    err = capfd.readouterr().err
    if exit_code == 2:
        assert "Traceback" not in err and len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["code"] == "invalid_spec"
        assert doc["message"] == message
        assert not out.exists()
        return
    assert err == ""
    (artifact,) = out.glob("*.json")
    report = json.loads(artifact.read_text())["report"]
    stray = list(_stray_nans(report))
    if report.get("lambda") == "inf":
        stray.remove(("verdict_diagnostics", "ratio_vs_half_lambda2"))
    assert stray == []


def test_ratio_tail_past_the_float_range_is_inf(tmp_path):
    argv, _, _ = _ROWS["ratio-tail-past-float-range"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "constants.json").read_text())["report"]
    assert report["verdict_diagnostics"]["ratio_tail_max"] == "inf"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exponents_past_the_float_range_keep_the_c0_bracket(tmp_path):
    argv, _, _ = _ROWS["h-exponents-past-float-range"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "constants.json").read_text())["report"]
    c0 = report["verdict_diagnostics"]["c0"]
    assert (report["c0_lo"], report["c0_hi"]) == (17660.375, 17660.390625)
    assert (c0["lo_verdict"], c0["hi_verdict"]) == ("INCONCLUSIVE", "CONVERGES")


@pytest.mark.parametrize("row, lo_bound, hi_bound", [
    ("beta0-se-past-float-range", 4e153, 8e153),
    ("beta0-mean-past-float-range", 6e306, 1.1e307),
])
def test_beta0_and_its_interval_past_the_float_range_are_finite(tmp_path, row, lo_bound, hi_bound):
    argv, _, _ = _ROWS[row]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "constants.json").read_text())["report"]
    lo, hi = report["beta0_ci"]
    assert lo_bound < lo < report["beta0"] < hi < hi_bound


def test_empirical_h_past_the_float_range_is_the_laws_h(tmp_path):
    argv, _, _ = _ROWS["empirical-prefix-past-float-range"]
    got = []
    for H in ("empirical:8", "dist"):
        argv = [*argv[:4], H, *argv[5:]]
        assert cli.main([*argv, "--out", str(tmp_path / H)]) == 0
        report = json.loads((tmp_path / H / "constants.json").read_text())["report"]
        got.append((report["sigma2"], report["lambda"]))
    assert got == [(1e308, 9.508121560968832e153)] * 2


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hclass", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lil-lab hclass")
