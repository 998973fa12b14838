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
    if report["lambda"] == "inf":
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


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hclass", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lil-lab hclass")
