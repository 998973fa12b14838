"""Batch experiment runner.

Subcommands: hclass, constants, fn-bound, fn-verify, lil-sim, report.
Every run resolves its inputs into a flat spec dict (unknown keys are
rejected), executes, and writes a JSON artifact that embeds the resolved
spec and seed, so any artifact can be re-run byte-identically, plus a
`provenance` block (library, numpy and random-stream versions) that a
re-run ignores:

    lil-lab constants --h "2*(LL)^1" --H const:1 --out runs/demo
    lil-lab run runs/demo/constants.json

Exit codes: 0 success, 2 validation error (machine-readable error JSON
on stderr), 3 when a verification scenario records a violation.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, bounds, constants, simulate, slowvary
from . import rng as _rng
from .distributions import parse_dist
from .spaces import SpaceSpec

KINDS = ("hclass", "constants", "fn-bound", "fn-verify", "lil-sim", "report")

_COMMON_KEYS = {"kind", "seed", "workers", "format", "out"}
_KIND_KEYS = {
    "hclass": {"h", "q", "tol"},
    "constants": {"h", "H", "space", "dist", "c_seq", "tol", "trials"},
    "fn-bound": {"delta", "eta", "s", "t", "lambda_n", "n", "moment_s", "mean_norm", "m_bound"},
    "fn-verify": {"dist", "space", "n", "trials", "t_grid", "delta", "eta", "s", "kr_points"},
    "lil-sim": {"dist", "space", "h", "N", "trials", "tail_fraction", "ratio"},
    "report": {"run_dir"},
}

_DEFAULTS = {
    "seed": 0,
    "workers": None,
    "format": "json",
    "out": ".",
    "hclass": {"h": None, "q": 0.0, "tol": 0.02},
    "constants": {
        "h": None, "H": "const:1", "space": "1,2", "dist": None,
        "c_seq": None, "tol": 0.02, "trials": 0,
    },
    "fn-bound": {
        "delta": 1.0, "eta": 1.0, "s": 3.0, "t": None, "lambda_n": 0.0,
        "n": 1, "moment_s": 0.0, "mean_norm": 0.0, "m_bound": 0.0,
    },
    "fn-verify": {
        "dist": "rademacher:dim=5", "space": "5,inf", "n": 200, "trials": 10000,
        "t_grid": None, "delta": 1.0, "eta": 1.0, "s": 3.0, "kr_points": 10,
    },
    "lil-sim": {
        "dist": "gauss:dim=1,var=1", "space": "1,2", "h": "2*(LL)^1",
        "N": 100000, "trials": 50, "tail_fraction": 0.5, "ratio": 1.3,
    },
    "report": {"run_dir": None},
}

_ARTIFACT_NAMES = {
    "hclass": "hclass.json",
    "constants": "constants.json",
    "fn-bound": "fn_bound.json",
    "fn-verify": "verify.json",
    "lil-sim": "sim.json",
}

_INT_KEYS = {"seed", "workers", "trials", "n", "N", "kr_points"}
_FLOAT_KEYS = {
    "q", "tol", "delta", "eta", "s", "t", "lambda_n", "moment_s",
    "mean_norm", "m_bound", "tail_fraction", "ratio",
}
_STR_KEYS = {"kind", "format", "out", "h", "H", "space", "dist", "c_seq", "t_grid", "run_dir"}


class SpecError(Exception):
    def __init__(self, message: str, context: dict | None = None, code: str = "invalid_spec"):
        super().__init__(message)
        self.code = code
        self.context = context or {}


def _emit_error(err: SpecError) -> None:
    doc = {"code": err.code, "message": str(err), "context": err.context}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def parse_space(text: str) -> SpaceSpec:
    bits = text.split(",")
    if len(bits) != 2:
        raise SpecError(f"space must be 'dim,p', got {text!r}")
    p = math.inf if bits[1].strip() in ("inf", "oo") else float(bits[1])
    try:
        return SpaceSpec(int(bits[0]), p)
    except ValueError as exc:
        raise SpecError(str(exc), {"space": text}) from None


def parse_grid(text: str) -> np.ndarray:
    bits = text.split(":")
    if len(bits) != 3:
        raise SpecError(f"grid must be 'lo:hi:points', got {text!r}")
    lo, hi, k = float(bits[0]), float(bits[1]), int(bits[2])
    if not (0 < lo < hi and k >= 2):
        raise SpecError(f"grid needs 0 < lo < hi and points >= 2, got {text!r}")
    return np.geomspace(lo, hi, k)


def validate_spec(raw: dict) -> dict:
    """Check keys and types against the schema and fill defaults."""
    if not isinstance(raw, dict):
        raise SpecError("spec must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise SpecError(f"kind must be one of {list(KINDS)}", {"kind": kind})
    allowed = _COMMON_KEYS | _KIND_KEYS[kind]
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise SpecError(f"unknown spec keys for kind {kind!r}", {"unknown": unknown})
    spec = {"kind": kind, "seed": _DEFAULTS["seed"], "workers": _DEFAULTS["workers"],
            "format": _DEFAULTS["format"], "out": _DEFAULTS["out"]}
    spec.update(_DEFAULTS[kind])
    for key, val in raw.items():
        if key == "kind" or val is None:
            continue
        if key in _INT_KEYS:
            if not isinstance(val, int) or isinstance(val, bool):
                raise SpecError(f"{key} must be an integer", {key: val})
        elif key in _FLOAT_KEYS:
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise SpecError(f"{key} must be a number", {key: val})
            val = float(val)
            if not math.isfinite(val):
                raise SpecError(f"{key} must be finite", {key: constants._json_real(val)})
        elif key in _STR_KEYS:
            if not isinstance(val, str):
                raise SpecError(f"{key} must be a string", {key: val})
        spec[key] = val
    if spec["format"] not in ("json", "csv"):
        raise SpecError("format must be 'json' or 'csv'", {"format": spec["format"]})
    return spec


def _resolve_workers(spec: dict) -> int:
    if spec.get("workers"):
        return int(spec["workers"])
    env = os.environ.get("LIL_LAB_WORKERS")
    if env:
        return int(env)
    return os.cpu_count() or 1


def _parse_h(text: str) -> slowvary.SlowVaryFn:
    try:
        return slowvary.parse_slow_vary(text)
    except ValueError as exc:
        raise SpecError(str(exc), {"h": text}) from None


# ---------------------------------------------------------------------------
# Scenario executors.  Each returns (artifact dict, extra files, exit code).
# ---------------------------------------------------------------------------


def _exec_hclass(spec: dict) -> tuple[dict, dict, int]:
    if not spec.get("h"):
        raise SpecError("hclass needs --h")
    report = slowvary.hq_classify(_parse_h(spec["h"]), spec["q"], tol=spec["tol"])
    print(f"hclass: h={spec['h']} q={spec['q']:g} -> {report.verdict}")
    return {"report": report.to_json_dict()}, {}, 0


def _exec_constants(spec: dict) -> tuple[dict, dict, int]:
    if not spec.get("h"):
        raise SpecError("constants needs --h")
    h = _parse_h(spec["h"])
    space = parse_space(spec["space"])
    dist = None
    if spec.get("dist"):
        try:
            dist = parse_dist(spec["dist"])
        except ValueError as exc:
            raise SpecError(str(exc), {"dist": spec["dist"]}) from None
        if dist.dim != space.dim:
            raise SpecError("distribution and space dimensions disagree",
                            {"dist_dim": dist.dim, "space_dim": space.dim})
    rng = np.random.default_rng(spec["seed"])
    try:
        H_fn = constants.parse_tsm(spec["H"], dist=dist, space=space, rng=rng)
    except ValueError as exc:
        raise SpecError(str(exc), {"H": spec["H"]}) from None
    c_seq = None
    if spec.get("c_seq"):
        try:
            c_seq = slowvary.parse_cseq(spec["c_seq"])
        except ValueError as exc:
            raise SpecError(str(exc), {"c_seq": spec["c_seq"]}) from None
    report = constants.constants_report(
        h, H_fn, c_seq=c_seq, dist=dist, space=space, tol=spec["tol"],
        trials=spec["trials"], seed=spec["seed"], workers=_resolve_workers(spec),
    )
    # from the numbers, not the JSON document, where inf is the string "inf"
    print(f"constants: c0 in [{report.c0.lo:.4g}, {report.c0.hi:.4g}], lambda={report.lam:.4g}")
    return {"report": report.to_json_dict()}, {}, 0


def _exec_fn_bound(spec: dict) -> tuple[dict, dict, int]:
    if spec.get("t") is None:
        raise SpecError("fn-bound needs --t")
    try:
        params = bounds.BoundParams(eta=spec["eta"], delta=spec["delta"], s=spec["s"])
        data = bounds.MomentData(
            n=spec["n"], M=spec["m_bound"], lambda_n=spec["lambda_n"],
            mean_norm=spec["mean_norm"], moment_s=spec["moment_s"], s=spec["s"],
        )
        consts = bounds.fn_constants(spec["delta"], spec["eta"], spec["s"])
        value = bounds.fuk_nagaev_bound(spec["t"], params, data)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    gauss = 0.0 if spec["lambda_n"] == 0 else math.exp(
        -spec["t"] ** 2 / ((2 + spec["delta"]) * spec["lambda_n"])
    )
    poly = consts.C * spec["moment_s"] / spec["t"] ** spec["s"]
    print(f"fn-bound: t={spec['t']:g} -> {value:.6g} "
          f"(gaussian term {gauss:.6g}, polynomial term {poly:.6g}, C={consts.C:.6g})")
    doc = {
        "bound": value,
        "gauss_term": gauss,
        "poly_term": poly,
        "constants": {
            "epsilon": consts.epsilon, "D": consts.D, "K_s": consts.K_s,
            "C_prime": consts.C_prime, "C_dprime": consts.C_dprime, "C": consts.C,
            "rho_formula": consts.rho_formula,
        },
    }
    return doc, {}, 0


def _exec_fn_verify(spec: dict) -> tuple[dict, dict, int]:
    try:
        dist = parse_dist(spec["dist"])
    except ValueError as exc:
        raise SpecError(str(exc), {"dist": spec["dist"]}) from None
    space = parse_space(spec["space"])
    if dist.dim != space.dim:
        raise SpecError("distribution and space dimensions disagree",
                        {"dist_dim": dist.dim, "space_dim": space.dim})
    n = spec["n"]
    grid = parse_grid(spec["t_grid"]) if spec.get("t_grid") else np.geomspace(0.5 * math.sqrt(n), 5 * math.sqrt(n), 20)
    try:
        params = bounds.BoundParams(eta=spec["eta"], delta=spec["delta"], s=spec["s"])
        report = bounds.mc_verify(
            dist, space, n, spec["trials"], grid, params,
            seed=spec["seed"], kr_points=spec["kr_points"], workers=_resolve_workers(spec),
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    n_viol = sum(r.violation for r in report.rows)
    print(f"fn-verify: {len(report.rows)} rows, {n_viol} violations")
    extra = {}
    if spec["format"] == "csv":
        extra["verify.csv"] = report.to_csv_text()
    return {"report": report.to_json_dict()}, extra, 3 if report.any_violation else 0


def _exec_lil_sim(spec: dict) -> tuple[dict, dict, int]:
    try:
        dist = parse_dist(spec["dist"])
    except ValueError as exc:
        raise SpecError(str(exc), {"dist": spec["dist"]}) from None
    space = parse_space(spec["space"])
    if dist.dim != space.dim:
        raise SpecError("distribution and space dimensions disagree",
                        {"dist_dim": dist.dim, "space_dim": space.dim})
    h = _parse_h(spec["h"])
    try:
        config = simulate.PathConfig(
            N=spec["N"], checkpoints=simulate.geometric_checkpoints(spec["N"], spec["ratio"]),
            seed=spec["seed"], trials=spec["trials"],
        )
        paths = simulate.run_path(dist, space, h, config, workers=_resolve_workers(spec))
        est = simulate.limsup_estimate(paths, spec["tail_fraction"])
    except (ValueError, ArithmeticError) as exc:
        raise SpecError(str(exc)) from None
    print(f"lil-sim: tail-max median {est.median:.4g}, q10 {est.q10:.4g}, q90 {est.q90:.4g}")
    doc = {
        "checkpoints": list(paths.checkpoints),
        "a_values": [float(a) for a in paths.a_values],
        "ratios": [[float(r) for r in row] for row in paths.ratios],
        "limsup": {
            "median": est.median, "q10": est.q10, "q90": est.q90,
            "tail_fraction": est.tail_fraction,
            "per_trial": [float(v) for v in est.per_trial],
        },
    }
    extra = {}
    if spec["format"] == "csv":
        extra["sim_paths.csv"] = paths.to_csv_text()
    return doc, extra, 0


def _exec_report(spec: dict) -> tuple[dict, dict, int]:
    run_dir = spec.get("run_dir") or spec["out"]
    if not os.path.isdir(run_dir):
        raise SpecError(f"run directory not found: {run_dir}", {"run_dir": run_dir}, code="io_error")
    found, missing = {}, []
    for kind, name in _ARTIFACT_NAMES.items():
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            with open(path) as fh:
                found[kind] = json.load(fh)
        else:
            missing.append(name)
    if not found:
        raise SpecError("no artifacts found in run directory",
                        {"run_dir": run_dir, "missing": missing}, code="missing_artifacts")
    summary: dict = {"present": sorted(found), "missing": missing}
    if "constants" in found:
        summary["constants"] = found["constants"].get("report", {})
    if "fn-verify" in found:
        rep = found["fn-verify"].get("report", {})
        summary["verification"] = {
            "any_violation": rep.get("any_violation"),
            "rows": len(rep.get("rows", [])),
            "violations": [r for r in rep.get("rows", []) if r.get("violation")],
        }
    if "lil-sim" in found:
        summary["simulation"] = found["lil-sim"].get("limsup", {})
    if "hclass" in found:
        summary["hclass"] = found["hclass"].get("report", {})
    if "fn-bound" in found:
        summary["fn_bound"] = {k: found["fn-bound"].get(k) for k in ("bound", "gauss_term", "poly_term")}
    print(f"report: merged {len(found)} artifacts from {run_dir}"
          + (f", {len(missing)} kinds absent" if missing else ""))
    return summary, {"plot_script.py": _plot_script()}, 0


def _plot_script() -> str:
    return """\
# Rough plotting helper for lil-lab run directories.  Needs matplotlib.
# Usage: python plot_script.py [run_dir]
import json
import os
import sys

import matplotlib.pyplot as plt

run_dir = sys.argv[1] if len(sys.argv) > 1 else "."

sim_path = os.path.join(run_dir, "sim.json")
if os.path.exists(sim_path):
    with open(sim_path) as fh:
        sim = json.load(fh)
    fig, ax = plt.subplots()
    for row in sim["ratios"]:
        ax.plot(sim["checkpoints"], row, alpha=0.3, lw=0.7)
    ax.set_xscale("log")
    ax.set_xlabel("n")
    ax.set_ylabel("|S_n| / a_n")
    fig.savefig(os.path.join(run_dir, "sim_ratios.png"), dpi=150)

verify_path = os.path.join(run_dir, "verify.json")
if os.path.exists(verify_path):
    with open(verify_path) as fh:
        rep = json.load(fh)["report"]
    rows = [r for r in rep["rows"] if r["kind"] == "fn"]
    if rows:
        fig, ax = plt.subplots()
        ax.plot([r["x"] for r in rows], [r["p_hat"] for r in rows], "o-", label="empirical")
        ax.plot([r["x"] for r in rows], [r["bound"] for r in rows], "s--", label="bound")
        ax.set_yscale("log")
        ax.set_xlabel("t")
        ax.legend()
        fig.savefig(os.path.join(run_dir, "verify_tail.png"), dpi=150)

print("plots written to", run_dir)
"""


_EXECUTORS = {
    "hclass": _exec_hclass,
    "constants": _exec_constants,
    "fn-bound": _exec_fn_bound,
    "fn-verify": _exec_fn_verify,
    "lil-sim": _exec_lil_sim,
    "report": _exec_report,
}


def _provenance() -> dict:
    """What produced an artifact: the library, numpy and random-stream versions."""
    return {"lil_lab": __version__, "numpy": np.__version__, "rng_stream": _rng._TAG.decode()}


def execute(spec: dict) -> int:
    """Validate and run one resolved spec; write artifacts; return exit code."""
    spec = validate_spec(spec)
    try:
        body, extra_files, code = _EXECUTORS[spec["kind"]](spec)
    except (ValueError, ArithmeticError) as exc:
        raise SpecError(str(exc)) from None
    out_dir = spec["out"]
    os.makedirs(out_dir, exist_ok=True)
    if spec["kind"] == "report":
        run_dir = spec.get("run_dir") or out_dir
        artifact_path = os.path.join(run_dir, "summary.json")
    else:
        artifact_path = os.path.join(out_dir, _ARTIFACT_NAMES[spec["kind"]])
    # The worker count never changes a result, so the artifact records none:
    # runs at any --workers write the same bytes.
    artifact = {"resolved_spec": {**spec, "workers": None}, "seed": spec["seed"], "provenance": _provenance()}
    artifact.update(body)
    with open(artifact_path, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {artifact_path}")
    base_dir = os.path.dirname(artifact_path)
    for name, text in extra_files.items():
        path = os.path.join(base_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return code


def run(spec_file: str, overrides: dict | None = None) -> int:
    """Load a spec (or a previously written artifact) and execute it."""
    try:
        with open(spec_file) as fh:
            raw = json.load(fh)
    except OSError as exc:
        _emit_error(SpecError(f"cannot read spec: {exc}", code="io_error"))
        return 2
    except json.JSONDecodeError as exc:
        _emit_error(SpecError(f"spec is not valid JSON: {exc}"))
        return 2
    if isinstance(raw, dict) and "resolved_spec" in raw:
        raw = raw["resolved_spec"]
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    try:
        return execute(raw)
    except SpecError as err:
        _emit_error(err)
        return 2


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("json", "csv"), default=None)
    sub.add_argument("--spec", default=None, help="spec or artifact JSON to load; flags override")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing reads the parser but never changes it.
    parser = argparse.ArgumentParser(prog="lil-lab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="kind", required=True)

    p = subs.add_parser("hclass", help="slow-variation class membership")
    _add_common(p)
    p.add_argument("--h", default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = subs.add_parser("constants", help="limit constants report")
    _add_common(p)
    p.add_argument("--h", default=None)
    p.add_argument("--H", dest="H", default=None)
    p.add_argument("--space", default=None)
    p.add_argument("--dist", default=None)
    p.add_argument("--c-seq", dest="c_seq", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)

    p = subs.add_parser("fn-bound", help="evaluate the mixed tail bound once")
    _add_common(p)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--lambda-n", dest="lambda_n", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--moment-s", dest="moment_s", type=float, default=None)
    p.add_argument("--mean-norm", dest="mean_norm", type=float, default=None)
    p.add_argument("--m-bound", dest="m_bound", type=float, default=None)

    p = subs.add_parser("fn-verify", help="Monte Carlo falsification harness")
    _add_common(p)
    p.add_argument("--dist", default=None)
    p.add_argument("--space", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--t-grid", dest="t_grid", default=None, help="lo:hi:points, geometric")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--kr-points", dest="kr_points", type=int, default=None)

    p = subs.add_parser("lil-sim", help="normalized partial-sum paths")
    _add_common(p)
    p.add_argument("--dist", default=None)
    p.add_argument("--space", default=None)
    p.add_argument("--h", default=None)
    p.add_argument("--N", dest="N", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--tail-fraction", dest="tail_fraction", type=float, default=None)
    p.add_argument("--ratio", type=float, default=None)

    p = subs.add_parser("report", help="merge run artifacts into a summary")
    _add_common(p)
    p.add_argument("run_dir", nargs="?", default=None)

    p = subs.add_parser("run", help="execute a spec or artifact JSON file")
    _add_common(p)
    p.add_argument("spec_file")

    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    kind = args.pop("kind")
    spec_file = args.pop("spec", None)
    if kind == "run":
        spec_file = args.pop("spec_file")
        return run(spec_file, {k: v for k, v in args.items() if v is not None})
    overrides = {k: v for k, v in args.items() if v is not None}
    overrides["kind"] = kind
    if spec_file:
        return run(spec_file, overrides)
    try:
        return execute(overrides)
    except SpecError as err:
        _emit_error(err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
