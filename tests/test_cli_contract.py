"""The CLI contract on extreme inputs, one in-process `cli.main` row per argv.

Each run either exits 0 and writes an artifact with no stray "nan", or
exits 2 with exactly one `{code, message, context}` JSON line on stderr
whose code is not `internal_error` and whose context names the refused
key, if any.  A RuntimeWarning is an error here,
so a run that warns on its way to either exit fails its row.
"""

import json

import pytest

from lil_lab import cli, simulate

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
    "t-grid-past-float-range": (["fn-verify", "--n", "5", "--trials", "100", "--t-grid", "1:1e309:3"],
                                2, "grid needs 0 < lo < hi < inf and points >= 2, got '1:1e309:3'"),
    "t-grid-fractional-points": (["fn-verify", "--n", "5", "--trials", "100", "--t-grid", "1:10:2.5"],
                                 2, "invalid literal for int() with base 10: '2.5'"),
    # p is read by `float` alone, so "oo" is no exponent
    "space-p-not-a-number": (["fn-verify", "--space", "2,oo"], 2, "could not convert string to float: 'oo'"),
    "space-without-p": (["fn-verify", "--space", "5"], 2, "space must be 'dim,p', got '5'"),
    # a normal form or power sequence holds only finite numbers: refused by name before any stage
    "h-log-power-past-float-range": (["constants", "--h", "(L)^1e400", "--H", "const:1"],
                                     2, "exponents of (Lt)^r and (LLt)^p must be nonnegative and finite"),
    "h-loglog-power-past-float-range": (["hclass", "--h", "(LL)^1e400"],
                                        2, "exponents of (Lt)^r and (LLt)^p must be nonnegative and finite"),
    "h-exp-coeff-past-float-range": (["constants", "--h", "exp(1e400*(L)^0.5)", "--H", "const:1"],
                                     2, "exp factor needs coeff > 0, 0 < beta < 1 and a finite sum of coeffs "
                                        "per beta, got (inf, 0.5)"),
    "c-seq-exponent-nan": (["constants", "--h", "2*(LL)^1", "--H", "const:1", "--c-seq", "pow:nan"],
                           2, "PowerSeq needs a positive finite exponent and coeff, got nan and 1.0"),
    "c-seq-coeff-inf": (["constants", "--h", "2*(LL)^1", "--H", "const:1", "--c-seq", "pow:0.5,inf"],
                        2, "PowerSeq needs a positive finite exponent and coeff, got 0.5 and inf"),
    # the epsilon bisection stops at an absolute width of 1e-13
    "fn-bound-delta-too-small": (["fn-bound", "--t", "10", "--delta", "1e-12", "--lambda-n", "1", "--m-bound", "1",
                                  "--moment-s", "1"], 2, "delta 1e-12 is too small: its epsilon bisects to 0"),
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
    # a scalar flag out of range, refused by the library parameter it fills
    "fn-bound-eta-above-1": (["fn-bound", "--t", "10", "--eta", "2"], 2, "eta must lie in (0, 1]"),
    "fn-verify-eta-above-1": (["fn-verify", "--eta", "2"], 2, "eta must lie in (0, 1]"),
    "lil-sim-ratio-below-1": (["lil-sim", "--ratio", "0.5"], 2, "ratio must exceed 1"),
    "lil-sim-tail-fraction-above-1": (["lil-sim", "--tail-fraction", "2"], 2, "tail_fraction must lie in (0, 1]"),
    "fn-verify-kr-points-negative": (["fn-verify", "--kr-points", "-1"], 2, "kr_points must be nonnegative, got -1"),
    "hclass-q-above-1": (["hclass", "--h", "2*(LL)^1", "--q", "1.5"], 2, "q must lie in [0, 1]"),
    "constants-tol-0": (["constants", "--h", "2*(LL)^1", "--tol", "0"], 2, "tol must be positive"),
    # refused before the default t grid is built from sqrt(n)
    "fn-verify-n-0": (["fn-verify", "--n", "0"], 2, "n must be positive"),
}

# The `context` of each exit-2 row's error: the key it names, or none for
# a failure of the run itself and for argparse's refusals.
_CONTEXTS = {
    "gauss-var-inf": {"dist": "gauss:dim=2,var=inf"},
    "pareto-draws-overflow": {},
    "argparse-value-like-a-flag": {},
    "argparse-bad-float": {},
    "point-nan": {"dist": "point:v=nan"},
    "embedded-point-nan": {"dist": "embed:dim=2,axis=0,inner=(point:v=nan)"},
    "t-grid-inf": {"t_grid": "1:inf:3"},
    "t-grid-not-a-number": {"t_grid": "a:b:3"},
    "t-grid-past-float-range": {"t_grid": "1:1e309:3"},
    "t-grid-fractional-points": {"t_grid": "1:10:2.5"},
    "space-p-not-a-number": {"space": "2,oo"},
    "space-without-p": {"space": "5"},
    "h-log-power-past-float-range": {"h": "(L)^1e400"},
    "h-loglog-power-past-float-range": {"h": "(LL)^1e400"},
    "h-exp-coeff-past-float-range": {"h": "exp(1e400*(L)^0.5)"},
    "c-seq-exponent-nan": {"c_seq": "pow:nan"},
    "c-seq-coeff-inf": {"c_seq": "pow:0.5,inf"},
    "fn-bound-delta-too-small": {"delta": 1e-12},
    "empirical-count-negative": {"H": "empirical:-5"},
    "fn-verify-l1-past-vertex-limit": {"space": "21,1"},
    "constants-l1-past-vertex-limit": {"space": "21,1"},
    "fn-bound-eta-above-1": {"eta": 2.0},
    "fn-verify-eta-above-1": {"eta": 2.0},
    "lil-sim-ratio-below-1": {"ratio": 0.5},
    "lil-sim-tail-fraction-above-1": {"tail_fraction": 2.0},
    "fn-verify-kr-points-negative": {"kr_points": -1},
    "hclass-q-above-1": {"q": 1.5},
    "constants-tol-0": {"tol": 0.0},
    "fn-verify-n-0": {"n": 0},
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


@pytest.mark.parametrize("row", _ROWS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_input_exits_by_the_contract(tmp_path, capfd, row):
    argv, exit_code, message = _ROWS[row]
    out = tmp_path / "runs"
    assert cli.main([*argv, "--out", str(out)]) == exit_code
    err = capfd.readouterr().err
    if exit_code == 2:
        assert "Traceback" not in err and len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["code"] == "invalid_spec"
        assert doc["message"] == message
        assert doc["context"] == _CONTEXTS[row]
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


def test_tail_fraction_is_refused_before_any_sampling(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(simulate, "run_path", lambda *args, **kwargs: pytest.fail("lil-sim sampled its paths"))
    argv, _, _ = _ROWS["lil-sim-tail-fraction-above-1"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert json.loads(capfd.readouterr().err)["context"] == {"tail_fraction": 2.0}


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hclass", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lil-lab hclass")
