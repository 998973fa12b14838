"""Batch runner checks: spec validation, artifact round trips, exit codes."""

import argparse
import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import lil_lab
from lil_lab import bounds, cli, constants, rng, simulate, slowvary
from lil_lab._pool import map_chunks
from lil_lab.distributions import parse_dist
from lil_lab.simulate import BLOCK
from lil_lab.slowvary import parse_slow_vary
from lil_lab.spaces import SpaceSpec


def _float_key_params():
    """(kind, key) for every float key of every kind in `cli.SPECS`.

    A key's first kind has the bare key as its id, later kinds
    `kind.key`, so the ids stay unique.
    """
    seen = set()
    for kind, row in cli.SPECS.items():
        for key, k in row.keys.items():
            if k.type is float:
                yield pytest.param(kind, key, id=f"{kind}.{key}" if key in seen else key)
                seen.add(key)


class TestValidateSpec:
    def test_defaults_filled(self):
        spec = cli.validate_spec({"kind": "hclass", "h": "2*(LL)^1"})
        assert spec["q"] == 0.0
        assert spec["tol"] == 0.02
        assert spec["seed"] == 0
        assert spec["workers"] is None
        assert spec["format"] == "json"
        assert spec["out"] == "."

    def test_unknown_keys_rejected(self):
        with pytest.raises(cli.SpecError) as err:
            cli.validate_spec({"kind": "hclass", "h": "2*(LL)^1", "bogus": 1})
        assert err.value.context == {"unknown": ["bogus"]}

    def test_bad_kind(self):
        with pytest.raises(cli.SpecError):
            cli.validate_spec({"kind": "frobnicate"})
        with pytest.raises(cli.SpecError):
            cli.validate_spec([1, 2])

    def test_type_checks(self):
        with pytest.raises(cli.SpecError):
            cli.validate_spec({"kind": "hclass", "h": "2*(LL)^1", "seed": 1.5})
        with pytest.raises(cli.SpecError):
            cli.validate_spec({"kind": "hclass", "h": "2*(LL)^1", "seed": True})
        with pytest.raises(cli.SpecError):
            cli.validate_spec({"kind": "hclass", "h": 7})
        with pytest.raises(cli.SpecError):
            cli.validate_spec({"kind": "hclass", "h": "2*(LL)^1", "q": "zero"})

    def test_format_gate(self):
        with pytest.raises(cli.SpecError):
            cli.validate_spec({"kind": "hclass", "h": "2*(LL)^1", "format": "xml"})

    def test_int_accepted_for_float_key(self):
        spec = cli.validate_spec({"kind": "hclass", "h": "2*(LL)^1", "q": 0})
        assert spec["q"] == 0.0 and isinstance(spec["q"], float)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind, key", _float_key_params())
    def test_non_finite_float_rejected_naming_the_key(self, kind, key, value):
        with pytest.raises(cli.SpecError) as err:
            cli.validate_spec({"kind": kind, key: value})
        assert err.value.code == "invalid_spec"
        assert list(err.value.context) == [key]
        json.dumps(err.value.context, allow_nan=False)

    def test_every_float_key_of_every_kind_is_checked(self):
        pairs = [p.values for p in _float_key_params()]
        assert len(pairs) == 16
        assert {key for _, key in pairs} == {
            "q", "tol", "delta", "eta", "s", "t", "lambda_n", "moment_s",
            "mean_norm", "m_bound", "tail_fraction", "ratio",
        }


def _subparsers() -> dict:
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# The CLI contract as literals: every subcommand's flags (option string,
# dest, type, choices) in order, then its positionals (dest, nargs).
_COMMON_FLAGS = [
    ("--seed", "seed", int, None), ("--workers", "workers", int, None),
    ("--out", "out", None, None), ("--format", "format", None, ("json", "csv")),
    ("--spec", "spec", None, None),
]
_SUBCOMMANDS = {
    "hclass": ([("--h", "h", None, None), ("--q", "q", float, None), ("--tol", "tol", float, None)], []),
    "constants": ([
        ("--h", "h", None, None), ("--H", "H", None, None), ("--space", "space", None, None),
        ("--dist", "dist", None, None), ("--c-seq", "c_seq", None, None),
        ("--tol", "tol", float, None), ("--trials", "trials", int, None),
    ], []),
    "fn-bound": ([
        ("--delta", "delta", float, None), ("--eta", "eta", float, None), ("--s", "s", float, None),
        ("--t", "t", float, None), ("--lambda-n", "lambda_n", float, None), ("--n", "n", int, None),
        ("--moment-s", "moment_s", float, None), ("--mean-norm", "mean_norm", float, None),
        ("--m-bound", "m_bound", float, None),
    ], []),
    "fn-verify": ([
        ("--dist", "dist", None, None), ("--space", "space", None, None), ("--n", "n", int, None),
        ("--trials", "trials", int, None), ("--t-grid", "t_grid", None, None),
        ("--delta", "delta", float, None), ("--eta", "eta", float, None), ("--s", "s", float, None),
        ("--kr-points", "kr_points", int, None),
    ], []),
    "lil-sim": ([
        ("--dist", "dist", None, None), ("--space", "space", None, None), ("--h", "h", None, None),
        ("--N", "N", int, None), ("--trials", "trials", int, None),
        ("--tail-fraction", "tail_fraction", float, None), ("--ratio", "ratio", float, None),
    ], []),
    "report": ([], [("run_dir", "?")]),
    "run": ([], [("spec_file", None)]),
}
_VALIDATED_DEFAULTS = {
    "hclass": {"h": None, "q": 0.0, "tol": 0.02},
    "constants": {"h": None, "H": "const:1", "space": "1,2", "dist": None, "c_seq": None,
                  "tol": 0.02, "trials": 0},
    "fn-bound": {"delta": 1.0, "eta": 1.0, "s": 3.0, "t": None, "lambda_n": 0.0, "n": 1,
                 "moment_s": 0.0, "mean_norm": 0.0, "m_bound": 0.0},
    "fn-verify": {"dist": "rademacher:dim=5", "space": "5,inf", "n": 200, "trials": 10000,
                  "t_grid": None, "delta": 1.0, "eta": 1.0, "s": 3.0, "kr_points": 10},
    "lil-sim": {"dist": "gauss:dim=1,var=1", "space": "1,2", "h": "2*(LL)^1", "N": 100000,
                "trials": 50, "tail_fraction": 0.5, "ratio": 1.3},
    "report": {"run_dir": None},
}


class TestContract:
    def test_subcommand_names(self):
        assert list(_subparsers()) == list(_SUBCOMMANDS)

    @pytest.mark.parametrize("name", list(_SUBCOMMANDS))
    def test_flags_and_positionals(self, name):
        actions = [a for a in _subparsers()[name]._actions if not isinstance(a, argparse._HelpAction)]
        flags = [(*a.option_strings, a.dest, a.type, a.choices) for a in actions if a.option_strings]
        positionals = [(a.dest, a.nargs) for a in actions if not a.option_strings]
        assert flags == _COMMON_FLAGS + _SUBCOMMANDS[name][0]
        assert positionals == _SUBCOMMANDS[name][1]
        assert all(a.default is None for a in actions)

    def test_help_texts(self):
        subs = _subparsers()
        helps = {a.dest: a.help for a in subs["fn-verify"]._actions if a.help and a.dest != "help"}
        assert helps == {"spec": "spec or artifact JSON to load; flags override",
                         "t_grid": "lo:hi:points, geometric"}

    @pytest.mark.parametrize("kind", list(_VALIDATED_DEFAULTS))
    def test_validated_defaults(self, kind):
        common = {"kind": kind, "seed": 0, "workers": None, "format": "json", "out": "."}
        assert cli.validate_spec({"kind": kind}) == {**common, **_VALIDATED_DEFAULTS[kind]}

    def test_package_exports(self):
        pinned = {
            "bounds": {"BoundParams", "FnConstants", "MomentData", "VerifyReport", "fn_constants",
                       "fuk_nagaev_bound", "klein_rio_mgf_bound", "maximal_tail_bound", "mc_verify",
                       "split_tail_bound"},
            "constants": {"Bracket", "ConstantsReport", "SeriesProbe", "SeriesVerdict", "alpha0_compute",
                          "beta0_estimate", "c0_compute", "constants_report", "lambda_compute",
                          "lil_ratio_check", "parse_tsm", "sandwich_bounds", "series_classify", "sigma_compute"},
            "distributions": {"Gaussian", "PointMass", "RademacherProduct", "RadialPareto", "ScalarEmbedded",
                              "parse_dist"},
            "simulate": {"PathConfig", "PathResult", "geometric_checkpoints", "limsup_estimate",
                         "mean_norm_curve", "run_path", "truncated_path"},
            "slowvary": {"NormalizerSeq", "PowerSeq", "SlowVaryFn", "check_normalizing_conditions",
                         "hq_classify", "parse_cseq", "parse_slow_vary", "psi", "psi_inv", "psi_inv_moment"},
            "spaces": {"EmpiricalTSM", "SpaceSpec", "TruncatedCov", "dual_ball_sup", "norm", "norms",
                       "trunc_cov_empirical", "truncated_second_moment"},
        }
        exported = set().union(*pinned.values())
        public = {n for n in dir(lil_lab) if not n.startswith("_")
                  and not isinstance(getattr(lil_lab, n), types.ModuleType)}
        assert set(lil_lab.__all__) == public == exported
        # each export is its module's own object, looked up there on every access
        for module, names in pinned.items():
            owner = importlib.import_module(f"lil_lab.{module}")
            assert [n for n in names if getattr(lil_lab, n) is not getattr(owner, n)] == [], module
        star: dict = {}
        exec("from lil_lab import *", star)
        assert set(star) - {"__builtins__"} == exported
        # a submodule resolves too, loaded or not; anything else is an AttributeError
        assert lil_lab.__getattr__("rng") is rng
        with pytest.raises(AttributeError, match="no_such_name"):
            lil_lab.no_such_name
        assert lil_lab.__version__ == "0.1.0"

    def test_analytic_signatures(self):
        # every grid and classifier setting is a module constant; only these parameters remain
        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert {fn.__name__: params(fn) for fn in (
            constants.series_classify, constants.alpha_series_classify, constants.c0_compute,
            constants.alpha0_compute, constants.constants_report, constants.lambda_compute,
            constants.lil_ratio_check, constants.sigma_compute, slowvary.hq_classify,
        )} == {
            "series_classify": ["c", "h", "H_fn"],
            "alpha_series_classify": ["alpha", "c_seq", "H_fn"],
            "c0_compute": ["h", "H_fn", "tol"],
            "alpha0_compute": ["c_seq", "H_fn", "tol"],
            "constants_report": ["h", "H_fn", "c_seq", "dist", "space", "tol", "trials", "seed", "workers"],
            "lambda_compute": ["h", "H_fn"],
            "lil_ratio_check": ["h", "H_fn"],
            "sigma_compute": ["H_fn"],
            "hq_classify": ["h", "q", "tol"],
        }
        assert [f.name for f in dataclasses.fields(bounds.BoundParams)] == ["eta", "delta", "s", "epsilon"]
        assert [f.name for f in dataclasses.fields(bounds.BoundParams) if f.init] == ["eta", "delta", "s"]
        # result types keep only the fields some caller reads
        assert {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in (
            constants.SeriesVerdict, constants.LambdaResult, constants.RatioCurve, constants.SigmaResult,
            slowvary.TauDiagnostic, simulate.TruncResult,
        )} == {
            "SeriesVerdict": ["verdict", "slope", "accel", "c", "note"],
            "LambdaResult": ["lam", "lam2", "tail_max", "last_value", "curve", "diverging", "note"],
            "RatioCurve": ["values", "tail_max", "last_value"],
            "SigmaResult": ["sigma2", "converged", "note"],
            "TauDiagnostic": ["tau", "ratios", "verdict", "reason", "decay_exponent"],
            "TruncResult": ["checkpoints", "gap_curve", "last_trunc", "trunc_count", "gap_sup", "seed"],
        }


class TestParsers:
    def test_space(self):
        sp = cli.parse_space("5,inf")
        assert sp.dim == 5 and sp.norm_p == math.inf
        assert cli.parse_space("2,1").norm_p == 1.0
        with pytest.raises(ValueError):
            cli.parse_space("2")
        with pytest.raises(ValueError):
            cli.parse_space("0,2")
        # p is read by `float` alone, so " inf" is l-inf and "oo" is no exponent
        assert cli.parse_space("2, inf").norm_p == math.inf
        with pytest.raises(ValueError):
            cli.parse_space("2,oo")

    def test_grid(self):
        np.testing.assert_allclose(cli.parse_grid("1:100:5"), np.geomspace(1, 100, 5))
        for text in ("1:100", "100:1:5", "0:1:5", "1:inf:3", "1:1e309:3", "a:b:3", "1:10:2.5"):
            with pytest.raises(ValueError):
                cli.parse_grid(text)


_VERIFY = ["fn-verify", "--dist", "rademacher:dim=2", "--space", "2,inf", "--n", "30", "--trials", "200"]
_CONSTANTS = ["constants", "--h", "2*(LL)^1", "--H", "const:1", "--c-seq", "psi:2*(LL)^1"]
_BRACKET = {"lo", "hi", "lo_verdict", "hi_verdict", "note", "probes"}


class TestArtifacts:
    # Each of these blocks is written from its dataclass's own fields, so
    # a field added to the dataclass would enter the artifact unnoticed.
    @pytest.mark.parametrize("argv, artifact, path, keys", [
        (["fn-bound", "--t", "10"], "fn_bound.json", ("constants",),
         {"epsilon", "D", "K_s", "C_prime", "C_dprime", "C", "rho_formula"}),
        (["lil-sim", "--N", "400", "--trials", "3"], "sim.json", ("limsup",),
         {"median", "q10", "q90", "tail_fraction", "finite_second_moment", "per_trial"}),
        (_VERIFY, "verify.json", ("report",),
         {"n", "trials", "seed", "params", "data", "pilot", "rows", "any_violation", "notes"}),
        (_VERIFY, "verify.json", ("report", "data"), {"M", "lambda_n", "mean_norm", "moment_s", "s"}),
        (_VERIFY, "verify.json", ("report", "pilot"),
         {"mean_norm", "mean_norm_se", "lambda_n", "lambda_n_se", "moment_s", "M", "pilot_trials"}),
        (_VERIFY, "verify.json", ("report", "params"), {"eta", "delta", "s", "epsilon"}),
        (_VERIFY, "verify.json", ("report", "rows", 0), {"kind", "x", "p_hat", "se", "bound", "violation"}),
        (["hclass", "--h", "2*(LL)^1"], "hclass.json", ("report",), {"q", "verdict", "tol", "heuristic", "per_tau"}),
        (["hclass", "--h", "2*(LL)^1"], "hclass.json", ("report", "per_tau", 0),
         {"tau", "verdict", "reason", "decay_exponent", "final_ratio"}),
        (_CONSTANTS, "constants.json", ("report", "verdict_diagnostics", "c0"), _BRACKET),
        (_CONSTANTS, "constants.json", ("report", "verdict_diagnostics", "c0", "probes", 0), {"c", "verdict", "slope"}),
        (_CONSTANTS, "constants.json", ("report", "verdict_diagnostics", "alpha0"),
         _BRACKET | {"normalizing_conditions"}),
        (_CONSTANTS, "constants.json", ("report", "verdict_diagnostics", "alpha0", "probes", 0),
         {"c", "verdict", "slope"}),
        (_CONSTANTS, "constants.json", ("report", "verdict_diagnostics", "alpha0", "normalizing_conditions"),
         {"root_growth", "ratio_regular", "rule"}),
    ], ids=["fn-bound-constants", "sim-limsup", "verify", "verify-data", "verify-pilot", "verify-params",
            "verify-row", "hclass", "hclass-per-tau", "c0", "c0-probe", "alpha0", "alpha0-probe",
            "alpha0-normalizing-conditions"])
    def test_block_key_sets(self, tmp_path, argv, artifact, path, keys):
        assert cli.main([*argv, "--workers", "1", "--out", str(tmp_path)]) == 0
        node = json.loads((tmp_path / artifact).read_text())
        for key in path:
            node = node[key]
        assert set(node) == keys

    def test_hclass_artifact_shape(self, tmp_path):
        rc = cli.execute({"kind": "hclass", "h": "2*(LL)^1", "q": 0.0, "out": str(tmp_path)})
        assert rc == 0
        with open(tmp_path / "hclass.json") as fh:
            doc = json.load(fh)
        # resolved spec, seed, provenance and the body, nothing volatile
        assert set(doc) == {"resolved_spec", "seed", "provenance", "report"}
        assert doc["seed"] == 0
        assert doc["resolved_spec"]["kind"] == "hclass"
        assert doc["report"]["verdict"] == "MEMBER"
        assert doc["report"]["heuristic"] is True

    def test_vacuous_membership_has_empty_witnesses(self, tmp_path):
        cli.execute({"kind": "hclass", "h": "2*(LL)^1", "q": 1.0, "out": str(tmp_path)})
        with open(tmp_path / "hclass.json") as fh:
            doc = json.load(fh)
        assert doc["report"]["per_tau"] == []

    def test_constants_round_trip_is_byte_identical(self, tmp_path):
        spec = {
            "kind": "constants", "h": "2*(LL)^1", "H": "const:1",
            "out": str(tmp_path), "seed": 4,
        }
        assert cli.execute(spec) == 0
        path = tmp_path / "constants.json"
        first = path.read_bytes()
        assert cli.run(str(path)) == 0
        assert path.read_bytes() == first

    def test_rerun_of_another_stream_version_is_noted(self, tmp_path, capsys):
        argv = ["fn-verify", "--dist", "rademacher:dim=2", "--space", "2,inf", "--n", "30",
                "--trials", "200", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        path = tmp_path / "verify.json"
        fresh = path.read_bytes()
        capsys.readouterr()
        assert cli.main(["run", str(path)]) == 0
        assert "note" not in capsys.readouterr().out
        doc = json.loads(fresh)
        doc["provenance"]["rng_stream"] = "lil-lab-stream-v2"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert cli.main(["run", str(path)]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
        assert len(notes) == 1
        assert "lil-lab-stream-v2" in notes[0] and "lil-lab-stream-v3" in notes[0]
        # the re-run writes what a fresh run writes
        assert path.read_bytes() == fresh

    def test_provenance_block(self, tmp_path):
        argv = ["fn-verify", "--dist", "rademacher:dim=2", "--space", "2,inf", "--n", "30",
                "--trials", "200", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        path = tmp_path / "verify.json"
        first = path.read_bytes()
        doc = json.loads(first)
        assert doc["provenance"] == {
            "lil_lab": lil_lab.__version__, "numpy": np.__version__, "rng_stream": "lil-lab-stream-v3",
        }
        assert "provenance" not in doc["resolved_spec"]
        assert cli.main(["run", str(path)]) == 0
        assert path.read_bytes() == first

    def test_empirical_h_sample_is_the_h_sample_stream(self, tmp_path):
        # the benchmark's c6: a law with no closed form, so H is empirical
        argv = ["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "gauss:dim=2,var=1", "--space", "2,2"]
        assert cli.main([*argv, "--seed", "5", "--out", str(tmp_path)]) == 0
        got = json.loads((tmp_path / "constants.json").read_text())["report"]
        assert len({rng.PILOT, rng.MAIN, rng.CURVE, rng.H_SAMPLE}) == 4
        dist, space = parse_dist("gauss:dim=2,var=1"), SpaceSpec(2, 2.0)
        H = constants.EmpiricalWrapTSM(dist.sample(rng.substream(5, rng.H_SAMPLE), 4096), space)
        want = constants.constants_report(parse_slow_vary("2*(LL)^1"), H, dist=dist, space=space)
        assert got == json.loads(json.dumps(want.to_json_dict()))
        assert got["verdict_diagnostics"]["h_route"] == "empirical"

    def test_run_override_changes_seed(self, tmp_path):
        cli.execute({"kind": "hclass", "h": "2*(LL)^1", "out": str(tmp_path)})
        path = str(tmp_path / "hclass.json")
        assert cli.main(["run", path, "--seed", "9"]) == 0
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["seed"] == 9 and doc["resolved_spec"]["seed"] == 9

    def test_fn_bound_artifact(self, tmp_path):
        rc = cli.main([
            "fn-bound", "--t", "10", "--lambda-n", "4.0", "--n", "100",
            "--m-bound", "1", "--moment-s", "0", "--out", str(tmp_path),
        ])
        assert rc == 0
        with open(tmp_path / "fn_bound.json") as fh:
            doc = json.load(fh)
        assert doc["bound"] == pytest.approx(math.exp(-100.0 / 12.0))
        assert doc["poly_term"] == 0.0
        assert set(doc["constants"]) == {
            "epsilon", "D", "K_s", "C_prime", "C_dprime", "C", "rho_formula",
        }

    @pytest.mark.parametrize("argv, artifact", [
        (["fn-verify", "--dist", "rademacher:dim=2", "--space", "2,inf", "--n", "30", "--trials", "200"],
         "verify.json"),
        (["lil-sim", "--N", "400", "--trials", "3"], "sim.json"),
    ])
    def test_json_format_writes_no_csv_file(self, tmp_path, argv, artifact):
        assert cli.main([*argv, "--format", "json", "--out", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [artifact]

    def test_sim_csv_side_file(self, tmp_path):
        rc = cli.main([
            "lil-sim", "--dist", "gauss:dim=1,var=1", "--space", "1,2",
            "--h", "2*(LL)^1", "--N", "400", "--trials", "3",
            "--format", "csv", "--out", str(tmp_path), "--seed", "2",
        ])
        assert rc == 0
        with open(tmp_path / "sim.json") as fh:
            doc = json.load(fh)
        assert set(doc) >= {"resolved_spec", "seed", "checkpoints", "a_values", "ratios", "limsup"}
        lines = (tmp_path / "sim_paths.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# seed=2")
        assert lines[1] == "trial,n,ratio"

    @pytest.mark.parametrize("a, finite", [("1.5", False), ("3", True)])
    def test_sim_records_whether_the_law_has_a_second_moment(self, tmp_path, a, finite):
        rc = cli.main([
            "lil-sim", "--dist", f"pareto:a={a}", "--space", "1,2",
            "--h", "2*(LL)^1", "--N", "400", "--trials", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "sim.json").read_text())
        assert doc["limsup"]["finite_second_moment"] is finite

    def test_report_merges_and_writes_plot_script(self, tmp_path):
        cli.execute({"kind": "hclass", "h": "2*(LL)^1", "out": str(tmp_path)})
        cli.main([
            "lil-sim", "--dist", "gauss:dim=1,var=1", "--space", "1,2",
            "--h", "2*(LL)^1", "--N", "400", "--trials", "3", "--out", str(tmp_path),
        ])
        assert cli.main(["report", str(tmp_path)]) == 0
        with open(tmp_path / "summary.json") as fh:
            doc = json.load(fh)
        assert doc["present"] == ["hclass", "lil-sim"]
        assert "constants.json" in doc["missing"]
        assert "median" in doc["simulation"]
        assert (tmp_path / "plot_script.py").exists()

    def test_report_summarises_all_five_artifact_kinds(self, tmp_path):
        out = ["--workers", "1", "--out", str(tmp_path)]
        for argv in (
            ["hclass", "--h", "2*(LL)^1"],
            ["constants", "--h", "2*(LL)^1", "--H", "const:1"],
            ["fn-bound", "--t", "10", "--lambda-n", "4.0", "--n", "100", "--m-bound", "1", "--moment-s", "0"],
            ["fn-verify", "--dist", "gauss:dim=1,var=0", "--space", "1,2", "--n", "50", "--trials", "200"],
            ["lil-sim", "--dist", "gauss:dim=1,var=1", "--space", "1,2", "--N", "400", "--trials", "3"],
        ):
            assert cli.main([*argv, *out]) == 0
        assert cli.main(["report", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["present"] == ["constants", "fn-bound", "fn-verify", "hclass", "lil-sim"]
        assert doc["missing"] == []

        def artifact(name):
            return json.loads((tmp_path / name).read_text())

        assert doc["constants"] == artifact("constants.json")["report"]
        verify = artifact("verify.json")["report"]
        assert doc["verification"] == {
            "any_violation": verify["any_violation"],
            "rows": len(verify["rows"]),
            "violations": [r for r in verify["rows"] if r["violation"]],
        }
        assert doc["verification"]["rows"] > 0
        bound = artifact("fn_bound.json")
        assert doc["fn_bound"] == {k: bound[k] for k in ("bound", "gauss_term", "poly_term")}
        assert doc["fn_bound"]["bound"] is not None

    def test_report_missing_dir(self, tmp_path, capsys):
        rc = cli.main(["report", str(tmp_path / "nope")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "io_error"

    @pytest.mark.parametrize("name, text, message", [
        ("constants.json", '{"report": {"c0_lo": 1.0, "c0', "artifact is not valid JSON: "),
        ("constants.json", "[1, 2]", "artifact is not the JSON object a constants run writes"),
        ("verify.json", '{"report": {"rows": 3}}', "artifact is not the JSON object a fn-verify run writes"),
        ("constants.json", '{"report": [1, 2]}', "artifact is not the JSON object a constants run writes"),
        ("hclass.json", '{"report": "hclass"}', "artifact is not the JSON object a hclass run writes"),
        ("sim.json", '{"limsup": null}', "artifact is not the JSON object a lil-sim run writes"),
        ("verify.json", '{"report": {"rows": [], "any_violation": [1]}}',
         "artifact is not the JSON object a fn-verify run writes"),
        ("verify.json", '{"report": {"rows": [{"violation": "yes"}], "any_violation": false}}',
         "artifact is not the JSON object a fn-verify run writes"),
        ("fn_bound.json", '{"bound": "x"}', "artifact is not the JSON object a fn-bound run writes"),
        ("fn_bound.json", '{"bound": 1.0, "gauss_term": [1]}', "artifact is not the JSON object a fn-bound run writes"),
    ], ids=["truncated", "a-list", "rows-not-a-list", "report-a-list", "report-a-string", "limsup-null",
            "any-violation-a-list", "row-violation-a-string", "bound-a-string", "gauss-term-a-list"])
    def test_report_names_a_bad_artifact(self, tmp_path, capsys, name, text, message):
        cli.execute({"kind": "hclass", "h": "2*(LL)^1", "out": str(tmp_path)})
        (tmp_path / name).write_text(text)
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec" and err["message"].startswith(message)
        assert err["context"] == {"path": str(tmp_path / name)}
        assert not (tmp_path / "summary.json").exists()

    def test_report_keeps_absent_and_non_finite_scalars(self, tmp_path):
        (tmp_path / "fn_bound.json").write_text('{"bound": "inf", "poly_term": -2}')
        (tmp_path / "verify.json").write_text('{"report": {"rows": [{"violation": true}, {}]}}')
        assert cli.main(["report", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["fn_bound"] == {"bound": "inf", "gauss_term": None, "poly_term": -2}
        assert doc["verification"] == {"any_violation": None, "rows": 2, "violations": [{"violation": True}]}

    def test_report_round_trip_is_byte_identical(self, tmp_path):
        for argv in (["hclass", "--h", "2*(LL)^1"], ["fn-bound", "--t", "10"]):
            assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert cli.main(["report", str(tmp_path)]) == 0
        path = tmp_path / "summary.json"
        first = path.read_bytes()
        assert cli.main(["run", str(path)]) == 0
        assert path.read_bytes() == first

    def test_report_empty_dir(self, tmp_path, capsys):
        rc = cli.main(["report", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "missing_artifacts"


class TestParserReuse:
    def test_cached_parser_leaks_nothing_between_calls(self, tmp_path):
        out = tmp_path / "run"
        base = ["constants", "--h", "2*(LL)^1", "--H", "const:1", "--out", str(out)]
        with_tol = [*base, "--tol", "0.1"]

        def artifact(argv, fresh_parser):
            if fresh_parser:
                cli._build_parser.cache_clear()
            assert cli.main(argv) == 0
            return (out / "constants.json").read_bytes()

        cli._build_parser.cache_clear()
        one_process = [artifact(with_tol, False), artifact(base, False)]
        assert cli._build_parser.cache_info().misses == 1
        assert json.loads(one_process[0])["resolved_spec"]["tol"] == 0.1
        assert json.loads(one_process[1])["resolved_spec"]["tol"] == 0.02
        assert one_process == [artifact(with_tol, True), artifact(base, True)]


class TestExitCodes:
    def test_validation_error_json(self, tmp_path, capsys):
        rc = cli.main(["constants", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert set(err) == {"code", "message", "context"}
        assert "needs --h" in err["message"]

    def test_dimension_mismatch_is_exit_2(self, tmp_path, capsys):
        rc = cli.main([
            "constants", "--h", "2*(LL)^1", "--dist", "gauss:dim=2,var=1",
            "--space", "1,2", "--out", str(tmp_path),
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["context"] == {"dist_dim": 2, "space_dim": 1}

    def test_nan_in_spec_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "constants", "h": "2*(LL)^1", "tol": NaN}')
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec" and err["context"] == {"tol": "nan"}
        assert not (tmp_path / "constants.json").exists()

    def test_overflowing_flag_is_exit_2(self, tmp_path, capsys):
        assert cli.main(["fn-bound", "--t", "1e400", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec" and err["context"] == {"t": "inf"}
        assert not (tmp_path / "fn_bound.json").exists()

    @pytest.mark.parametrize("dist,space", [("pareto:a=2", "1,2"), ("pareto:a=1.5,dim=2", "2,2")])
    def test_infinite_c0_is_written(self, tmp_path, capsys, dist, space):
        rc = cli.main(["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", dist,
                       "--space", space, "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "constants.json").read_text())["report"]
        assert rep["c0_hi"] == "inf" and rep["lambda"] == "inf"
        assert "c0 in [" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "3", '"constants"'], ids=["list", "null", "number", "string"])
    @pytest.mark.parametrize("how", ["run-with-flag", "spec-flag"])
    def test_spec_file_that_is_not_an_object_is_exit_2(self, tmp_path, capsys, text, how):
        path = tmp_path / "spec.json"
        path.write_text(text)
        argv = ["run", str(path), "--seed", "3"] if how == "run-with-flag" else ["constants", "--spec", str(path)]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"code": "invalid_spec", "message": "spec must be a JSON object", "context": {}}

    def test_infinite_bound_term_is_written_as_a_string(self, tmp_path):
        assert cli.main(["fn-bound", "--t", "1", "--moment-s", "1e300", "--out", str(tmp_path)]) == 0

        def no_literal(name):
            raise AssertionError(f"non-JSON literal {name} in the artifact")

        doc = json.loads((tmp_path / "fn_bound.json").read_text(), parse_constant=no_literal)
        assert doc["poly_term"] == "inf" and doc["bound"] == 1.0

    @pytest.mark.parametrize("argv,poly,bound", [
        (["--t", "1e-200"], 0.0, 0.0),
        (["--t", "1e-120", "--s", "3", "--moment-s", "0"], 0.0, 0.0),
        (["--t", "1e-200", "--moment-s", "2"], "inf", 1.0),
    ], ids=["default-moment", "zero-moment", "positive-moment"])
    def test_underflowing_t_power_is_exit_0(self, tmp_path, argv, poly, bound):
        # t**s underflows to 0: C * moment_s / 0+ is inf, or 0 for a zero moment
        assert cli.main(["fn-bound", *argv, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "fn_bound.json").read_text())
        assert doc["poly_term"] == poly and doc["bound"] == bound

    def test_non_finite_artifact_value_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # s = 50 overflows the assembled constant C to inf
        assert cli.main(["fn-bound", "--t", "1", "--s", "50", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec" and "JSON compliant" in err["message"]
        assert not (tmp_path / "fn_bound.json").exists()

    @pytest.mark.parametrize("argv", [
        ["fn-bound", "--t", "1", "--s", "50"],
        ["fn-bound", "--t", "1", "--s", "200"],
        ["fn-verify", "--dist", "rademacher:dim=2", "--space", "2,inf", "--n", "30", "--trials", "200",
         "--s", "50"],
    ], ids=["bound-inf-C", "bound-overflow", "verify"])
    def test_overflowing_constant_names_s(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec"
        assert err["message"].startswith(f"s = {argv[argv.index('--s') + 1]} is too large")
        assert list(tmp_path.iterdir()) == []

    def test_nan_in_an_artifact_body_is_exit_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        row = cli.SPECS["hclass"]
        monkeypatch.setitem(cli.SPECS, "hclass", row._replace(execute=lambda spec: ({"x": math.nan}, {}, 0)))
        assert cli.main(["hclass", "--h", "2*(LL)^1", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec" and "JSON compliant" in err["message"]
        assert not (tmp_path / "hclass.json").exists()

    @pytest.mark.parametrize("argv,artifact,path,expected", [
        (["constants", "--h", "2*(LL)^1", "--H", "const:0"], "constants.json", ("report", "c0_lo"), 0.0),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "gauss:dim=1,var=0"], "constants.json",
         ("report", "lambda"), 0.0),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "pareto:a=2"], "constants.json",
         ("report", "c0_hi"), "inf"),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "pareto:a=1.5,dim=2", "--space", "2,2"],
         "constants.json", ("report", "c0_hi"), "inf"),
        (["constants", "--h", "1e300*(LL)^1", "--H", "const:1"], "constants.json",
         ("report", "verdict_diagnostics", "h_route"), "model"),
        (["constants", "--h", "exp(1e2*(L)^0.99)", "--H", "const:1"], "constants.json",
         ("report", "verdict_diagnostics", "h_route"), "model"),
        (["fn-bound", "--t", "1e200"], "fn_bound.json", ("poly_term",), 0.0),
        (["fn-bound", "--t", "1", "--m-bound", "1e200"], "fn_bound.json", ("bound",), 0.0),
        (["fn-verify", "--dist", "gauss:dim=1,var=0", "--space", "1,2", "--n", "50", "--trials", "200"],
         "verify.json", ("report", "any_violation"), False),
        (["lil-sim", "--dist", "pareto:a=1.5", "--space", "1,2", "--N", "2000", "--trials", "10"], "sim.json",
         ("limsup", "finite_second_moment"), False),
        (["hclass", "--h", "exp(1e3*(L)^0.9)", "--q", "0"], "hclass.json",
         ("report", "per_tau", -1, "final_ratio"), "inf"),
        (["fn-verify", "--n", "400", "--trials", "200"], "verify.json", ("report", "rows", -1, "bound"), "inf"),
        (["fn-verify", "--dist", "rademacher:dim=1", "--space", "1,2", "--n", "150000", "--trials", "100"],
         "verify.json", ("report", "notes", -1),
         "5 kr rows skipped: the empirical mgf or its standard error overflows from s = 0.363636"),
        # here the mgf's standard deviation meets inf - inf
        (["fn-verify", "--dist", "rademacher:dim=1", "--space", "1,2", "--n", "150000", "--trials", "100",
          "--seed", "2"], "verify.json", ("report", "notes", -1),
         "7 kr rows skipped: the empirical mgf or its standard error overflows from s = 0.242424"),
        # the adjacent-float bracket of c0's probe exponents c^2 h(n) / (2 H), around the truth 1
        (["constants", "--h", "2*(LL)^1", "--tol", "1e-17"], "constants.json", ("report", "c0_hi"),
         1.0000000000000007),
        # H = 0 at all but the last 11 probes, then at all but the last 4
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "rademacher:scales=1e17", "--space", "1,2"],
         "constants.json", ("report", "verdict_diagnostics", "c0", "note"), "no converging c up to 1e+06"),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "rademacher:scales=1e18", "--space", "1,2"],
         "constants.json", ("report", "verdict_diagnostics", "c0", "note"), "no converging c up to 1e+06"),
        # H = 0 at every probe, but H(inf) = 1e38: no probe decides, so the threshold is not 0
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "rademacher:scales=1e19", "--space", "1,2"],
         "constants.json", ("report", "verdict_diagnostics", "c0", "note"), "no converging c up to 1e+06"),
        (["constants", "--h", "2*(LL)^1", "--c-seq", "psi:2*(LL)^1", "--H", "dist",
          "--dist", "rademacher:scales=1e19", "--space", "1,2"], "constants.json",
         ("report", "verdict_diagnostics", "alpha0", "note"), "no converging c up to 1e+06"),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "rademacher:scales=1e19", "--space", "1,2"],
         "constants.json", ("report", "c0_hi"), "inf"),
        # H = 0 up to the sigma cap 2^100 too: sigma^2 is H(inf), not converged
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "rademacher:scales=1e40", "--space", "1,2"],
         "constants.json", ("report", "sigma2"), 1e80),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "rademacher:scales=1e40", "--space", "1,2"],
         "constants.json", ("report", "verdict_diagnostics", "sigma_converged"), False),
        # a square past the float range is inf, never a warning, a bare error or NaN
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "rademacher:scales=1e200", "--space", "1,2"],
         "constants.json", ("report", "c0_hi"), "inf"),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "rademacher:scales=1e200", "--space", "1,2"],
         "constants.json", ("report", "sigma2"), "inf"),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "point:v=1e200", "--space", "1,2"],
         "constants.json", ("report", "c0_hi"), "inf"),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "point:v=1e200", "--space", "1,2"],
         "constants.json", ("report", "sigma2"), "inf"),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "pareto:a=3,scale=1e200", "--space", "1,2"],
         "constants.json", ("report", "c0_hi"), "inf"),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "pareto:a=3,scale=1e200", "--space", "1,2"],
         "constants.json", ("report", "sigma2"), "inf"),
        # H = 0 everywhere, so sigma^2 = 0 and the threshold is 0
        (["constants", "--h", "2*(LL)^1", "--H", "const:0"], "constants.json",
         ("report", "verdict_diagnostics", "c0", "note"), "threshold is 0 within tolerance"),
        # H = 0 up to t = 1e17, past 2^56: sigma^2 is read at the cap of its walk
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "rademacher:scales=1e17", "--space", "1,2"],
         "constants.json", ("report", "sigma2"), 1e34),
        # LLn H overflows in the ratio curve
        (["constants", "--h", "2*(LL)^1", "--H", "const:1e308"], "constants.json", ("report", "sigma2"), 1e308),
        # c_n^2 / (2 n H) overflows in the probe exponents
        (["constants", "--h", "2*(LL)^1", "--H", "const:1e-320"], "constants.json", ("report", "sigma2"), 1e-320),
        # c_n passes the float ceiling: its H arguments are capped as psi(n)'s are
        (["constants", "--h", "2*(LL)^1", "--c-seq", "psi:exp(30*(L)^0.9)", "--H", "dist",
          "--dist", "gauss:dim=1,var=1", "--space", "1,2"], "constants.json", ("report", "alpha0_hi"), 0.00390625),
        # c_n = n^10 passes the float range at n = 2^103; only its log(c_n^2 / n) is read
        (["constants", "--h", "2*(LL)^1", "--c-seq", "pow:10"], "constants.json", ("report", "alpha0_hi"),
         0.00390625),
        # Pareto a < 2 in l2: the truncated second moment overflows the float range to inf
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "pareto:a=0.5", "--space", "1,2"],
         "constants.json", ("report", "c0_hi"), "inf"),
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "pareto:a=0.5", "--space", "1,2"],
         "constants.json", ("report", "sigma2"), "inf"),
        # lambda_n is finite, the squared deviations of its batch estimates are not
        (["fn-verify", "--dist", "rademacher:scales=1e100", "--space", "1,2", "--n", "200", "--trials", "2100"],
         "verify.json", ("report", "pilot", "lambda_n_se"), None),
    ], ids=["const-zero", "gauss-var-zero", "pareto-a2", "pareto-a1.5-dim2", "h-const-1e300",
            "h-exp-1e2", "fn-bound-t-1e200", "fn-bound-m-1e200", "fn-verify-var-zero", "lil-sim-pareto",
            "hclass-inf-ratio",
            "fn-verify-mgf-bound-past-float-range", "fn-verify-empirical-mgf-past-float-range",
            "fn-verify-empirical-mgf-std-past-float-range", "constants-tol-below-float-spacing",
            "constants-h-zero-below-1e17", "constants-h-zero-below-1e18", "constants-h-zero-at-every-probe",
            "constants-alpha0-h-zero-at-every-probe", "constants-h-zero-at-every-probe-c0-hi",
            "constants-h-zero-past-the-sigma-cap", "constants-h-zero-past-the-sigma-cap-not-converged",
            "constants-rademacher-1e200-c0-hi", "constants-rademacher-1e200-sigma2",
            "constants-point-1e200-c0-hi", "constants-point-1e200-sigma2",
            "constants-pareto-scale-1e200-c0-hi", "constants-pareto-scale-1e200-sigma2",
            "constants-h-zero-everywhere",
            "constants-sigma2-past-2-to-the-40",
            "constants-h-1e308", "constants-h-1e-320", "constants-cseq-past-float-range",
            "constants-pow-cseq-past-float-range", "constants-pareto-a0.5-c0-hi", "constants-pareto-a0.5-sigma2",
            "fn-verify-lambda-se-past-float-range"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_input_exits_0_with_finite_or_flagged_values(self, tmp_path, argv, artifact, path, expected):
        # t**s overflowing (t = 1e200), M**2 overflowing (M = 1e200), an h ratio, a
        # Klein-Rio mgf bound or an empirical mgf past the float ceiling once failed
        # here; every case must now write a strict-JSON artifact
        assert cli.main([*argv, "--workers", "1", "--out", str(tmp_path)]) == 0

        def no_literal(name):
            raise AssertionError(f"non-JSON literal {name} in the artifact")

        doc = json.loads((tmp_path / artifact).read_text(), parse_constant=no_literal)
        node = doc
        for key in path:
            node = node[key]
        assert node == expected

    def test_a_log_ratio_below_the_float_floor_collapses_to_member(self, tmp_path):
        # h = (LL)^1e-305 moves log h by about 1e-305 from t to t f_tau(t),
        # under the 1e-300 floor of the trend fit, so with no band around 1
        # every tau reads the collapsed-ratio branch
        assert cli.main(["hclass", "--h", "(LL)^1e-305", "--tol", "0", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "hclass.json").read_text())["report"]
        assert report["verdict"] == "MEMBER" and report["per_tau"]
        assert {(d["verdict"], d["reason"]) for d in report["per_tau"]} == {("MEMBER", "ratio collapsed to 1")}

    def test_nan_h_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # NaN passes a plain `< 0` check, so a NaN H must be refused on its own
        assert cli.main(["constants", "--h", "2*(LL)^1", "--H", "const:nan", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec" and err["context"] == {"H": "const:nan"}
        assert not (tmp_path / "constants.json").exists()

    def test_overflowing_llpow_h_is_exit_2_and_says_why(self, tmp_path, capsys):
        # (LLt)^400 passes the float ceiling inside the H grid
        assert cli.main(["constants", "--h", "2*(LL)^1", "--H", "llpow:400", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec"
        assert err["message"].startswith("H source llpow:400 overflows: (LLt)^400 exceeds the float range at t = ")
        assert list(tmp_path.iterdir()) == []

    def test_nonfinite_normalizer_is_refused_before_sampling(self, tmp_path, monkeypatch, capsys):
        # a_n = sqrt(n (log n)^1000) passes the float ceiling from n = 62 on; the
        # checkpoints go 59, 77, ...
        def no_sampling(*args):
            raise AssertionError("sampled paths that cannot be normalized")

        monkeypatch.setattr(simulate, "map_trials", no_sampling)
        rc = cli.main(["lil-sim", "--h", "(L)^1000", "--N", "1000", "--trials", "2", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec"
        assert err["message"].startswith("a_n = psi(n) for h = (L)^1000 is not finite at checkpoint n = 77")
        assert list(tmp_path.iterdir()) == []

    def test_bad_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "hclass", "h": "2*(LL')
        assert cli.main(["run", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "invalid_spec" and err["message"].startswith("spec is not valid JSON: ")
        assert err["context"] == {"path": str(path)}
        assert cli.main(["run", str(tmp_path / "absent.json")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "io_error"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_on_a_worker_thread_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # three one-trial chunks of block-streamed paths on two threads
        monkeypatch.setattr(simulate, "LONG_CHUNK", BLOCK + 10)
        rc = cli.main([
            "lil-sim", "--dist", "point:v=1e305", "--space", "1,2", "--h", "2*(LL)^1",
            "--N", str(BLOCK + 10), "--trials", "3", "--workers", "2", "--out", str(tmp_path),
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "overflowed" in err["message"]

    @pytest.mark.parametrize("argv, code, context, message", [
        (["fn-verify", "--dist", "rademacher:scales=1e307", "--space", "1,2", "--n", "200", "--trials", "100",
          "--workers", "1"], "invalid_spec", {}, "partial sum overflowed near step 200"),
        (["fn-verify", "--dist", "rademacher:scales=1e307", "--space", "1,2", "--n", "200", "--trials", "100",
          "--workers", "2"], "invalid_spec", {}, "partial sum overflowed near step 200"),
        (["fn-verify", "--dist", "rademacher:scales=1e200", "--space", "1,2", "--n", "200", "--trials", "100",
          "--workers", "1"], "invalid_spec", {}, "pilot x^T x sum overflowed by step 200"),
        (["fn-verify", "--dist", "rademacher:scales=1e200", "--space", "1,2", "--n", "200", "--trials", "100",
          "--workers", "2"], "invalid_spec", {}, "pilot x^T x sum overflowed by step 200"),
        (["hclass", "--h", "2*(LL)^1", "--out", "{tmp}/file/sub"], "io_error", {"path": "{tmp}/file/sub"},
         "Not a directory"),
        (["lil-sim", "--N", "100", "--trials", "2", "--workers", "0"], "invalid_spec", {"workers": 0},
         "workers must be at least 1"),
        (["lil-sim", "--N", "100", "--trials", "2", "--workers", "-3"], "invalid_spec", {"workers": -3},
         "workers must be at least 1"),
        (["constants", "--h", "2*(LL)^1", "--dist", "gauss:dim=1,var=1", "--trials", "10"], "invalid_spec", {"trials": 10},
         "need at least 30 trials for a CI, got 10"),
        (["constants", "--h", "2*(LL)^1", "--dist", "gauss:dim=1,var=1", "--trials", "-5"], "invalid_spec", {"trials": -5},
         "need at least 30 trials for a CI, got -5"),
        (["constants", "--h", "2*(LL)^1", "--trials", "100"], "invalid_spec", {},
         "trials = 100 asks for beta0, which needs a distribution and a space"),
        (["fn-verify", "--n", "20", "--trials", "200", "--kr-points", "-3"], "invalid_spec", {"kr_points": -3},
         "kr_points must be nonnegative, got -3"),
        # beta0's grid reaches n = 16383, where c_n = 1e300 n^2 is past the float range
        (["constants", "--h", "2*(LL)^1", "--H", "const:1", "--c-seq", "pow:2,1e300", "--dist", "gauss:dim=1,var=1",
          "--space", "1,2", "--trials", "30"], "invalid_spec", {},
         "c_n = pow:2,1e+300 is not finite at checkpoint n = 16383, so no checkpoint ratio can be formed"),
        (["hclass", "--h", "2*(LL)^1", "--tol", "-1"], "invalid_spec", {"tol": -1.0}, "tol must be nonnegative, got -1"),
        (["constants", "--H", "const:1"], "invalid_spec", {}, "constants needs --h"),
        (["fn-bound", "--n", "10"], "invalid_spec", {}, "fn-bound needs --t"),
        (["hclass", "--h", ""], "invalid_spec", {}, "hclass needs --h"),
        *((argv + ["--format", "csv"], "invalid_spec", {"format": "csv"},
           "format 'csv' is written only by fn-verify and lil-sim") for argv in (
            ["hclass", "--h", "2*(LL)^1"], ["constants", "--h", "2*(LL)^1"], ["fn-bound", "--t", "5"], ["report"])),
    ], ids=["overflow-workers-1", "overflow-workers-2", "pilot-overflow-workers-1", "pilot-overflow-workers-2",
            "out-below-a-file", "workers-0", "workers-negative", "constants-trials-below-30",
            "constants-trials-negative", "constants-trials-without-a-law", "fn-verify-kr-points-negative",
            "constants-beta0-c-n-overflows",
            "hclass-tol-negative", "constants-without-h", "fn-bound-without-t", "hclass-empty-h",
            "hclass-csv", "constants-csv", "fn-bound-csv", "report-csv"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failure_is_exit_2_one_json_line_and_no_artifact(self, tmp_path, capfd, argv, code, context, message):
        # captured at the file descriptors, so a pool worker's output counts too
        (tmp_path / "file").write_text("a regular file")
        argv = [a.format(tmp=tmp_path) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "runs")]
        assert cli.main(argv) == 2
        err = capfd.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["code"] == code and message in doc["message"]
        assert doc["context"] == {k: v.format(tmp=tmp_path) if isinstance(v, str) else v for k, v in context.items()}
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_run_of_a_spec_without_a_required_key_is_exit_2(self, tmp_path, capfd):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "hclass", "q": 0.5, "out": str(tmp_path / "runs")}))
        assert cli.main(["run", str(spec)]) == 2
        err = capfd.readouterr().err
        assert json.loads(err) == {"code": "invalid_spec", "message": "hclass needs --h", "context": {}}
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_run_refuses_a_second_spec_file(self, tmp_path, capfd):
        # which of the two specs was meant is not known, so neither runs
        files = []
        for name, h in (("a.json", "2*(LL)^1"), ("b.json", "(LL)^2")):
            files.append(str(tmp_path / name))
            (tmp_path / name).write_text(json.dumps({"kind": "hclass", "h": h}))
        assert cli.main(["run", files[0], "--spec", files[1], "--out", str(tmp_path / "c")]) == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["code"] == "invalid_spec"
        assert doc["context"] == {"spec_file": files[0], "spec": files[1]}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    @pytest.mark.parametrize("how", ["main", "run"])
    def test_unexpected_exception_is_an_internal_error(self, tmp_path, monkeypatch, capfd, how):
        def broken(spec):
            raise KeyError("h")

        monkeypatch.setitem(cli.SPECS, "hclass", cli.SPECS["hclass"]._replace(execute=broken))
        out = str(tmp_path / "runs")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "hclass", "h": "2*(LL)^1", "out": out}))
        rc = cli.run(str(spec)) if how == "run" else cli.main(["hclass", "--h", "2*(LL)^1", "--out", out])
        assert rc == 2
        err = capfd.readouterr().err
        assert json.loads(err) == {"code": "internal_error", "message": "'h'", "context": {"type": "KeyError"}}
        assert len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_unusable_out_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        def never(spec):
            raise AssertionError("the run started")

        monkeypatch.setitem(cli.SPECS, "hclass", cli.SPECS["hclass"]._replace(execute=never))
        (tmp_path / "file").write_text("a regular file")
        assert cli.main(["hclass", "--h", "2*(LL)^1", "--out", str(tmp_path / "file" / "sub")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["code"] == "io_error"

    def test_a_failed_run_removes_the_directories_made_for_it(self, tmp_path, monkeypatch):
        out = tmp_path / "a" / "b"

        def late_failure(spec):
            assert os.path.isdir(out)
            raise ArithmeticError("late failure")

        monkeypatch.setitem(cli.SPECS, "hclass", cli.SPECS["hclass"]._replace(execute=late_failure))
        assert cli.main(["hclass", "--h", "2*(LL)^1", "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []
        assert cli.main(["hclass", "--h", "2*(LL)^1", "--out", str(tmp_path)]) == 2
        assert tmp_path.is_dir()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_paths_keep_finite_norms(self, tmp_path):
        argv = ["lil-sim", "--dist", "point:v=1e200", "--space", "1,2", "--N", "200", "--trials", "2"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "sim.json").read_text())
        assert np.isfinite(np.asarray(doc["ratios"], dtype=float)).all()

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        def fake_verify(*args, **kwargs):
            row = types.SimpleNamespace(violation=True)
            return types.SimpleNamespace(
                rows=[row],
                any_violation=True,
                to_json_dict=lambda: {"any_violation": True, "rows": [
                    {"kind": "fn", "x": 1.0, "p_hat": 1.0, "se": 0.0,
                     "bound": 0.5, "violation": True},
                ]},
            )

        monkeypatch.setattr(bounds, "mc_verify", fake_verify)
        rc = cli.main([
            "fn-verify", "--dist", "rademacher:dim=2", "--space", "2,inf",
            "--n", "50", "--trials", "100", "--out", str(tmp_path),
        ])
        assert rc == 3
        with open(tmp_path / "verify.json") as fh:
            doc = json.load(fh)
        assert doc["report"]["any_violation"] is True

    @pytest.mark.parametrize("argv, artifact", [
        (["lil-sim", "--dist", "gauss:dim=1,var=1", "--space", "1,2", "--h", "2*(LL)^1",
          "--N", "200", "--trials", "1100"], "sim.json"),
        (["fn-verify", "--dist", "rademacher:dim=3", "--space", "3,inf", "--n", "20",
          "--trials", "1100"], "verify.json"),
        # paths of BLOCK + 1 steps stream block by block in chunks of 255 trials
        (["lil-sim", "--dist", "gauss:dim=1,var=1", "--space", "1,2", "--h", "2*(LL)^1",
          "--N", str(BLOCK + 1), "--trials", "257"], "sim.json"),
        # an empirical H, whose sample is drawn in the driver
        (["constants", "--h", "2*(LL)^1", "--H", "dist", "--dist", "gauss:dim=2,var=1",
          "--space", "2,2"], "constants.json"),
    ])
    def test_workers_flag_does_not_change_artifact_bytes(self, tmp_path, argv, artifact):
        # more than one chunk of trials, so --workers 2 really starts a pool
        written = []
        for workers in ("1", "2"):
            assert cli.main(argv + ["--seed", "3", "--workers", workers, "--out", str(tmp_path)]) == 0
            written.append((tmp_path / artifact).read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["resolved_spec"]["workers"] is None

    def test_fn_verify_cut_into_blocks_is_the_same_at_any_workers(self, tmp_path, monkeypatch):
        # paths of 1000 steps cut into blocks of 300, in four chunks of 64
        # trials per pass on threads
        monkeypatch.setattr(simulate, "BLOCK", 300)
        monkeypatch.setattr(simulate, "LONG_CHUNK", 64 * 1000)
        executors = []

        def recording(fn, args_list, workers, executor):
            executors.append(executor)
            return map_chunks(fn, args_list, workers, executor)

        monkeypatch.setattr(simulate, "map_chunks", recording)
        argv = ["fn-verify", "--dist", "gauss:dim=2,var=1", "--space", "2,2", "--n", "1000",
                "--trials", "200", "--kr-points", "3", "--format", "csv", "--seed", "4", "--out", str(tmp_path)]
        written = []
        for workers in ("1", "2"):
            assert cli.main(argv + ["--workers", workers]) == 0
            written.append([(tmp_path / name).read_bytes() for name in ("verify.json", "verify.csv")])
        assert written[0] == written[1]
        assert executors == ["thread", "thread"]

    @pytest.mark.parametrize("argv, artifact", [
        # 1100 trials: two chunks, and a last stream group of 12 trials
        # (groups of 16 paths of 1000 steps, of 64 paths of 200 steps)
        (["lil-sim", "--dist", "gauss:dim=2,var=1", "--space", "2,2", "--h", "2*(LL)^1",
          "--N", "1000", "--trials", "1100"], "sim.json"),
        (["fn-verify", "--dist", "rademacher:dim=3", "--space", "3,inf", "--n", "200",
          "--trials", "1100"], "verify.json"),
    ])
    def test_run_at_other_workers_is_byte_identical(self, tmp_path, argv, artifact):
        assert cli.main(argv + ["--seed", "8", "--workers", "1", "--out", str(tmp_path)]) == 0
        path = tmp_path / artifact
        first = path.read_bytes()
        assert cli.main(["run", str(path), "--workers", "2"]) == 0
        assert path.read_bytes() == first

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_a_workers_variable_in_the_environment_is_not_read(self, tmp_path, monkeypatch, value):
        # the worker count is --workers or the CPU count, nothing else
        argv = ["lil-sim", "--dist", "gauss:dim=1,var=1", "--space", "1,2", "--h", "2*(LL)^1",
                "--N", "400", "--trials", "4", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        first = (tmp_path / "sim.json").read_bytes()
        monkeypatch.setenv("LIL_LAB_WORKERS", value)
        assert cli.main(argv) == 0
        assert (tmp_path / "sim.json").read_bytes() == first


def test_cli_import_leaves_the_process_pool_out(tmp_path):
    # No run loads an executor pool: Monte Carlo chunks run in the caller
    # and in forked children.  A subcommand loads only the lil_lab modules
    # it runs.  Each case runs in a fresh interpreter, so nothing else has
    # loaded them.
    src = str(Path(lil_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys, lil_lab.cli; "
            "rc = lil_lab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(json.dumps(sorted(sys.modules))); sys.exit(rc)")

    def loaded(*argv: str) -> set[str]:
        argv = (*argv, "--out", str(tmp_path)) if argv else ()
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
        return set(json.loads(out.stdout.splitlines()[-1]))

    imported = loaded()
    assert {"numpy", "argparse"} <= imported
    assert not imported & {"multiprocessing", "concurrent.futures.process"}
    assert {m for m in imported if m.split(".")[0] == "lil_lab"} == {"lil_lab", "lil_lab.cli"}
    assert not loaded("hclass", "--h", "2*(LL)^1") & {
        f"lil_lab.{m}" for m in ("constants", "bounds", "simulate", "distributions", "_pool")}
    assert not loaded("constants", "--h", "2*(LL)^1", "--H", "const:1") & {
        f"lil_lab.{m}" for m in ("bounds", "simulate", "_pool", "rng")}
    assert not loaded("fn-bound", "--t", "5") & {f"lil_lab.{m}" for m in ("simulate", "_pool", "rng", "spaces")}
    # two chunks per pass at two workers: one forked child
    assert not loaded("fn-verify", "--trials", "2048", "--n", "50", "--workers", "2") & {
        "multiprocessing", "concurrent.futures"}
    # the summary readers live in `SPECS` and import nothing
    assert {m for m in loaded("report", str(tmp_path)) if m.split(".")[0] == "lil_lab"} == {"lil_lab", "lil_lab.cli"}
