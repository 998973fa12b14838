"""Batch experiment runner.

Subcommands: hclass, constants, fn-bound, fn-verify, lil-sim, report.
Every run resolves its inputs into a flat spec dict (unknown keys are
rejected), executes, and writes a JSON artifact that embeds the resolved
spec and seed, so any artifact can be re-run byte-identically, plus a
`provenance` block (library, numpy and random-stream versions) that a
re-run ignores, except to note a random-stream version other than its
own:

    lil-lab constants --h "2*(LL)^1" --H const:1 --out runs/demo
    lil-lab run runs/demo/constants.json

Each spec key is declared once, in `SPECS` (or `_COMMON` for the keys
every kind shares): its type and default there drive both `validate_spec`
and the generated `--flag` (the key with `_` written `-`), and a key
declared `required` is one a run refuses to start without.  A kind's row
also names its artifact, the CSV side file that `--format csv` adds, and
what `report` copies of the artifact into `summary.json`.

Importing this module loads numpy, argparse and, of the package, only
its `__init__`; each executor imports the modules it runs, so a process
loads only what its subcommand needs.  `hclass` adds `slowvary` alone,
`fn-bound` adds `bounds` and `slowvary`, `constants` adds `constants`,
`slowvary` and `spaces` (and `distributions` for a `--dist`), and only
the Monte Carlo runs (`fn-verify`, `lil-sim`, and `constants` with
`--trials`) load the sampler: `simulate`, where every reducer lives,
with `rng`, `_pool` and `distributions`.

Exit codes: 0 success, 3 when a verification scenario records a
violation, 2 on any failure, with one `{code, message, context}` JSON
line on stderr; `_guarded` is the one place that writes it.  The codes:

    invalid_spec       a bad input, or one past the float range:
                       `--workers 0`, `--t 1e400`, a partial sum that
                       overflows (`--dist rademacher:scales=1e307`),
                       a flag the parser cannot read (`--q abc`);
                       `context` names a refused spec value by its key:
                       `--space 5` gives `{"space": "5"}`, and a normal
                       form or sequence with a number that is not finite,
                       `--h "(L)^1e400"` or `--c-seq pow:nan`, gives
                       `{"h": "(L)^1e400"}` or `{"c_seq": "pow:nan"}`;
                       a number out of its range is named by the
                       library parameter it fills, whose name is the
                       key's: `--eta 2` gives `{"eta": 2.0}`
    io_error           a file that cannot be read or written; `context`
                       names the path (`--out` below a regular file)
    missing_artifacts  `report` on a directory with no artifact in it
    internal_error     any other exception, a fault of the program;
                       `context` names its type (`{"type": "KeyError"}`)
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import _STREAM, _ParamError, __version__


class Key(NamedTuple):
    """One spec key: its type (int, float or str), default and flag help.

    A `required` key has no default, yet a run needs its value: `execute`
    refuses a spec without one ("{kind} needs --{flag}").  The parser does
    not require the flag, since `--spec` and `run` may supply the value.
    """

    type: type
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    positional: bool = False  # an optional positional argument, not a --flag
    required: bool = False


class Kind(NamedTuple):
    """One subcommand: help line, executor, artifact file name and own keys.

    `csv` names the side file that `--format csv` adds (other kinds refuse
    the format); `summary` is the kind's key in `report`'s summary and the
    reader that takes what the summary keeps from a parsed artifact, raising
    TypeError or AttributeError for a document of another shape.
    """

    help: str
    execute: Callable[[dict], tuple[dict, object, int]]
    artifact: str
    keys: dict[str, Key]
    csv: str | None = None
    summary: tuple[str, Callable[[dict], dict]] | None = None


# The keys every kind accepts, in flag order.
_COMMON = {
    "seed": Key(int, 0),
    "workers": Key(int),
    "out": Key(str, "."),
    "format": Key(str, "json", choices=("json", "csv")),
}


class SpecError(Exception):
    def __init__(self, message: str, context: dict | None = None, code: str = "invalid_spec"):
        super().__init__(message)
        self.code = code
        self.context = context or {}


def parse_space(text: str) -> SpaceSpec:
    """The `space` text 'dim,p'; a ValueError when it is not one."""
    from .spaces import SpaceSpec

    bits = text.split(",")
    if len(bits) != 2:
        raise ValueError(f"space must be 'dim,p', got {text!r}")
    return SpaceSpec(int(bits[0]), float(bits[1]))


def parse_grid(text: str) -> np.ndarray:
    """The `t_grid` text 'lo:hi:points': points geometric steps from lo to
    hi; a ValueError when it is not one."""
    bits = text.split(":")
    if len(bits) != 3:
        raise ValueError(f"grid must be 'lo:hi:points', got {text!r}")
    lo, hi, k = float(bits[0]), float(bits[1]), int(bits[2])
    if not (0 < lo < hi < math.inf and k >= 2):
        raise ValueError(f"grid needs 0 < lo < hi < inf and points >= 2, got {text!r}")
    return np.geomspace(lo, hi, k)


def validate_spec(raw: dict) -> dict:
    """Check keys and types against the kind's row of `SPECS` and fill defaults."""
    if not isinstance(raw, dict):
        raise SpecError("spec must be a JSON object")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in SPECS:
        raise SpecError(f"kind must be one of {list(SPECS)}", {"kind": kind})
    keys = {**_COMMON, **SPECS[kind].keys}
    unknown = sorted(set(raw).difference(keys, ("kind",)))
    if unknown:
        raise SpecError(f"unknown spec keys for kind {kind!r}", {"unknown": unknown})
    spec = {"kind": kind, **{key: k.default for key, k in keys.items()}}
    for key, val in raw.items():
        if key == "kind" or val is None:
            continue
        typ = keys[key].type
        if typ is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise SpecError(f"{key} must be an integer", {key: val})
        elif typ is float:
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise SpecError(f"{key} must be a number", {key: val})
            val = float(val)
            if not math.isfinite(val):
                from .slowvary import _json_real

                raise SpecError(f"{key} must be finite", {key: _json_real(val)})
        elif not isinstance(val, str):
            raise SpecError(f"{key} must be a string", {key: val})
        spec[key] = val
    for key, k in keys.items():
        if k.choices and spec[key] not in k.choices:
            raise SpecError(f"{key} must be {' or '.join(map(repr, k.choices))}", {key: spec[key]})
    if spec["format"] == "csv" and not SPECS[kind].csv:
        writers = " and ".join(name for name, row in SPECS.items() if row.csv)
        raise SpecError(f"format 'csv' is written only by {writers}, not {kind}", {"format": "csv"})
    if spec["workers"] is not None and spec["workers"] < 1:
        raise SpecError("workers must be at least 1", {"workers": spec["workers"]})
    return spec


def _parsed(parse, spec: dict, key: str, **kwargs):
    """`parse(spec[key])`, a ValueError turned into a SpecError naming the key.

    The one place a refused spec value gets its context: every parser of
    a spec text raises a plain ValueError.
    """
    try:
        return parse(spec[key], **kwargs)
    except ValueError as exc:
        raise SpecError(str(exc), {key: spec[key]}) from None


def _dist_and_space(spec: dict, need_dist: bool = True):
    """The spec's law and space, which must agree in dimension.

    The law is None when the spec names none and none is needed.
    """
    dist = None
    if need_dist or spec["dist"]:
        from .distributions import parse_dist

        dist = _parsed(parse_dist, spec, "dist")
    space = _parsed(parse_space, spec, "space")
    if dist is not None and dist.dim != space.dim:
        raise SpecError("distribution and space dimensions disagree",
                        {"dist_dim": dist.dim, "space_dim": space.dim})
    return dist, space


def _dual_ball_checked(spec: dict, space) -> None:
    """Refuse, naming `--space`, a space whose dual-ball supremum is not
    computed (p = 1 past the vertex limit), before any work."""
    from .spaces import _check_dual_ball

    _parsed(lambda _: _check_dual_ball(space), spec, "space")


# ---------------------------------------------------------------------------
# Scenario executors.  Each returns (artifact dict, extra files, exit code);
# a kind with a CSV side file hands back, in place of the extra files, the
# object whose `to_csv_text()` renders it, called only under `--format csv`.
# `execute` has checked the required keys first.  What they raise becomes
# exit 2 in `_guarded`.
# ---------------------------------------------------------------------------


def _exec_hclass(spec: dict) -> tuple[dict, dict, int]:
    from . import slowvary

    h = _parsed(slowvary.parse_slow_vary, spec, "h")
    report = slowvary.hq_classify(h, spec["q"], tol=spec["tol"])
    print(f"hclass: h={spec['h']} q={spec['q']:g} -> {report.verdict}")
    return {"report": report.to_json_dict()}, {}, 0


def _exec_constants(spec: dict) -> tuple[dict, dict, int]:
    from . import constants, slowvary

    h = _parsed(slowvary.parse_slow_vary, spec, "h")
    dist, space = _dist_and_space(spec, need_dist=False)
    H_fn = _parsed(constants.parse_tsm, spec, "H", dist=dist, space=space, seed=spec["seed"])
    if hasattr(H_fn, "space"):  # a law-based H takes dual-ball suprema
        _dual_ball_checked(spec, space)
    c_seq = _parsed(slowvary.parse_cseq, spec, "c_seq") if spec["c_seq"] else None
    report = constants.constants_report(
        h, H_fn, c_seq=c_seq, dist=dist, space=space, tol=spec["tol"],
        trials=spec["trials"], seed=spec["seed"], workers=spec["workers"],
    )
    # from the numbers, not the JSON document, where inf is the string "inf"
    print(f"constants: c0 in [{report.c0.lo:.4g}, {report.c0.hi:.4g}], lambda={report.lam:.4g}")
    return {"report": report.to_json_dict()}, {}, 0


_BOUND_TERMS = ("bound", "gauss_term", "poly_term")  # fn-bound's scalars, which `report` copies


def _exec_fn_bound(spec: dict) -> tuple[dict, dict, int]:
    from . import bounds, slowvary

    params = bounds.BoundParams(eta=spec["eta"], delta=spec["delta"], s=spec["s"])
    data = bounds.MomentData(
        n=spec["n"], M=spec["m_bound"], lambda_n=spec["lambda_n"],
        mean_norm=spec["mean_norm"], moment_s=spec["moment_s"], s=spec["s"],
    )
    value, gauss, poly, consts = bounds._fn_terms(spec["t"], params, data)
    print(f"fn-bound: t={spec['t']:g} -> {value:.6g} "
          f"(gaussian term {gauss:.6g}, polynomial term {poly:.6g}, C={consts.C:.6g})")
    doc = {key: slowvary._json_real(v) for key, v in zip(_BOUND_TERMS, (value, gauss, poly))}
    doc["constants"] = slowvary._json_fields(consts, ("delta", "eta", "s"))
    return doc, {}, 0


def _exec_fn_verify(spec: dict) -> tuple[dict, object, int]:
    from . import bounds

    dist, space = _dist_and_space(spec)
    _dual_ball_checked(spec, space)
    grid = _parsed(parse_grid, spec, "t_grid") if spec["t_grid"] else None
    params = bounds.BoundParams(eta=spec["eta"], delta=spec["delta"], s=spec["s"])
    report = bounds.mc_verify(
        dist, space, spec["n"], spec["trials"], grid, params,
        seed=spec["seed"], kr_points=spec["kr_points"], workers=spec["workers"],
    )
    n_viol = sum(r.violation for r in report.rows)
    print(f"fn-verify: {len(report.rows)} rows, {n_viol} violations")
    return {"report": report.to_json_dict()}, report, 3 if report.any_violation else 0


def _exec_lil_sim(spec: dict) -> tuple[dict, object, int]:
    from . import simulate, slowvary

    dist, space = _dist_and_space(spec)
    h = _parsed(slowvary.parse_slow_vary, spec, "h")
    simulate._check_tail_fraction(spec["tail_fraction"])  # before any sampling
    config = simulate.PathConfig(
        N=spec["N"], checkpoints=simulate.geometric_checkpoints(spec["N"], spec["ratio"]),
        seed=spec["seed"], trials=spec["trials"],
    )
    paths = simulate.run_path(dist, space, h, config, workers=spec["workers"])
    est = simulate.limsup_estimate(paths, spec["tail_fraction"])
    print(f"lil-sim: tail-max median {est.median:.4g}, q10 {est.q10:.4g}, q90 {est.q90:.4g}")
    doc = {
        "checkpoints": list(paths.checkpoints),
        "a_values": paths.a_values.tolist(),
        "ratios": paths.ratios.tolist(),
        "limsup": slowvary._json_fields(
            est, per_trial=est.per_trial.tolist(), finite_second_moment=dist.finite_second_moment
        ),
    }
    return doc, paths, 0


# Summary readers, for `Kind.summary`.  A field that is absent is kept as
# null (or an empty object); one of another type raises TypeError.


def _copied(field: str) -> Callable[[dict], dict]:
    return lambda doc: {**doc.get(field, {})}  # `{**x}` refuses all but an object


def _typed(value, types: tuple[type, ...], strings: tuple[str, ...] = ()):
    """`value` if it is None, of one of `types` exactly (so a bool is no int) or one of `strings`."""
    if value is not None and type(value) not in types and value not in strings:
        raise TypeError(f"unexpected {type(value).__name__}")
    return value


def _bound_terms(doc: dict) -> dict:
    # each a number, or the string `_json_real` writes for one past the float range
    return {key: _typed(doc.get(key), (int, float), ("inf", "-inf", "nan")) for key in _BOUND_TERMS}


def _verification(doc: dict) -> dict:
    rep = doc.get("report", {})
    rows = rep.get("rows", [])
    return {"any_violation": _typed(rep.get("any_violation"), (bool,)), "rows": len(rows),
            "violations": [r for r in rows if _typed(r.get("violation"), (bool,))]}


def _exec_report(spec: dict) -> tuple[dict, dict, int]:
    run_dir = spec["run_dir"] or spec["out"]
    if not os.path.isdir(run_dir):
        raise SpecError(f"run directory not found: {run_dir}", {"run_dir": run_dir}, code="io_error")
    present, missing, summary = [], [], {}
    for kind, row in SPECS.items():
        if not row.summary:
            continue
        path = os.path.join(run_dir, row.artifact)
        if not os.path.exists(path):
            missing.append(row.artifact)
            continue
        key, keep = row.summary
        try:
            summary[key] = keep(_read_json(path, "artifact"))
            present.append(kind)
        except (AttributeError, TypeError):
            raise SpecError(f"artifact is not the JSON object a {kind} run writes", {"path": path}) from None
    if not present:
        raise SpecError("no artifacts found in run directory",
                        {"run_dir": run_dir, "missing": missing}, code="missing_artifacts")
    print(f"report: merged {len(present)} artifacts from {run_dir}"
          + (f", {len(missing)} kinds absent" if missing else ""))
    return {"present": sorted(present), "missing": missing, **summary}, {"plot_script.py": _plot_script()}, 0


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


# One row per kind; its keys follow `_COMMON`, in flag order.
SPECS = {
    "hclass": Kind("slow-variation class membership", _exec_hclass, "hclass.json", {
        "h": Key(str, required=True), "q": Key(float, 0.0), "tol": Key(float, 0.02),
    }, summary=("hclass", _copied("report"))),
    "constants": Kind("limit constants report", _exec_constants, "constants.json", {
        "h": Key(str, required=True), "H": Key(str, "const:1"), "space": Key(str, "1,2"), "dist": Key(str),
        "c_seq": Key(str), "tol": Key(float, 0.02), "trials": Key(int, 0),
    }, summary=("constants", _copied("report"))),
    "fn-bound": Kind("evaluate the mixed tail bound once", _exec_fn_bound, "fn_bound.json", {
        "delta": Key(float, 1.0), "eta": Key(float, 1.0), "s": Key(float, 3.0), "t": Key(float, required=True),
        "lambda_n": Key(float, 0.0), "n": Key(int, 1), "moment_s": Key(float, 0.0),
        "mean_norm": Key(float, 0.0), "m_bound": Key(float, 0.0),
    }, summary=("fn_bound", _bound_terms)),
    "fn-verify": Kind("Monte Carlo falsification harness", _exec_fn_verify, "verify.json", {
        "dist": Key(str, "rademacher:dim=5"), "space": Key(str, "5,inf"), "n": Key(int, 200),
        "trials": Key(int, 10000), "t_grid": Key(str, help="lo:hi:points, geometric"),
        "delta": Key(float, 1.0), "eta": Key(float, 1.0), "s": Key(float, 3.0), "kr_points": Key(int, 10),
    }, csv="verify.csv", summary=("verification", _verification)),
    "lil-sim": Kind("normalized partial-sum paths", _exec_lil_sim, "sim.json", {
        "dist": Key(str, "gauss:dim=1,var=1"), "space": Key(str, "1,2"), "h": Key(str, "2*(LL)^1"),
        "N": Key(int, 100000), "trials": Key(int, 50), "tail_fraction": Key(float, 0.5),
        "ratio": Key(float, 1.3),
    }, csv="sim_paths.csv", summary=("simulation", _copied("limsup"))),
    # the summary is written into the run directory, not --out
    "report": Kind("merge run artifacts into a summary", _exec_report, "summary.json", {
        "run_dir": Key(str, positional=True),
    }),
}


def _provenance() -> dict:
    """What produced an artifact: the library, numpy and random-stream versions."""
    return {"lil_lab": __version__, "numpy": np.__version__, "rng_stream": _STREAM}


def _missing_dirs(path: str) -> list[str]:
    """The directories `os.makedirs(path)` would create, outermost first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing[::-1]


def execute(spec: dict) -> int:
    """Validate and run one resolved spec; write artifacts; return exit code.

    Failures are raised, not reported: `main` and `run` map them to exit 2.
    """
    spec = validate_spec(spec)
    row = SPECS[spec["kind"]]
    # The worker count never changes a result, so the artifact records none:
    # runs at any --workers write the same bytes.  The executors get the
    # count itself, --workers or else the CPU count.
    artifact = {"resolved_spec": {**spec, "workers": None}, "seed": spec["seed"], "provenance": _provenance()}
    spec["workers"] = spec["workers"] or os.cpu_count() or 1
    # --out is made before the run, so an unusable one fails before any
    # work; a run that fails removes the directories made for it.
    made = _missing_dirs(spec["out"])
    os.makedirs(spec["out"], exist_ok=True)
    try:
        for key, k in row.keys.items():
            if k.required and spec[key] in (None, ""):
                raise SpecError(f"{spec['kind']} needs --{key.replace('_', '-')}")
        body, extra_files, code = row.execute(spec)
        if row.csv:  # the run handed back its table, rendered only when asked for
            extra_files = {row.csv: extra_files.to_csv_text()} if spec["format"] == "csv" else {}
        artifact.update(body)
        # Serialised before any file is opened: a NaN or inf that reached
        # the document fails here and leaves no partial artifact behind.
        artifact_text = json.dumps(artifact, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except BaseException:
        for path in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    base_dir = spec.get("run_dir") or spec["out"]
    artifact_path = os.path.join(base_dir, row.artifact)
    with open(artifact_path, "w") as fh:
        fh.write(artifact_text)
    print(f"wrote {artifact_path}")
    for name, text in extra_files.items():
        path = os.path.join(base_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return code


def _guarded(command, *args) -> int:
    """`command(*args)`, its exception mapped to exit 2 and one JSON line on stderr."""
    try:
        return command(*args)
    except SpecError as exc:
        err = exc
    except _ParamError as exc:
        err = SpecError(str(exc), exc.context)
    except OSError as exc:
        err = SpecError(str(exc), {"path": exc.filename}, code="io_error")
    except (ValueError, ArithmeticError) as exc:
        err = SpecError(str(exc))
    except Exception as exc:
        err = SpecError(str(exc), {"type": type(exc).__name__}, code="internal_error")
    doc = {"code": err.code, "message": str(err), "context": err.context}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return 2


def _note_stream_change(provenance) -> None:
    """Say so when an artifact's random streams are not this library's."""
    old = provenance.get("rng_stream") if isinstance(provenance, dict) else None
    if old is not None and old != _STREAM:
        print(f"note: the artifact was drawn from random stream {old}; this run draws from {_STREAM}, "
              "which gives different numbers at the same seed")


def _read_json(path: str, what: str):
    """The JSON document in `path`; a SpecError naming the path when it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise SpecError(f"{what} is not valid JSON: {exc}", {"path": path}) from None


def _execute_file(spec_file: str, overrides: dict) -> int:
    """`execute` on the spec (or the artifact's spec) in `spec_file`, `overrides` on top."""
    if "spec" in overrides:  # `run FILE --spec OTHER`: which spec was meant is not known
        raise SpecError("run takes its spec from FILE alone, not also from --spec",
                        {"spec_file": spec_file, "spec": overrides["spec"]})
    raw = _read_json(spec_file, "spec")
    if isinstance(raw, dict) and "resolved_spec" in raw:
        _note_stream_change(raw.get("provenance"))
        raw = raw["resolved_spec"]
    # anything but an object is refused by `validate_spec`
    return execute({**raw, **overrides} if isinstance(raw, dict) else raw)


def run(spec_file: str, overrides: dict | None = None) -> int:
    """Load a spec (or a previously written artifact), execute it and return the exit code."""
    return _guarded(_execute_file, spec_file, {k: v for k, v in (overrides or {}).items() if v is not None})


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are SpecErrors, so `_guarded` writes them
    as the one JSON line; its subparsers are of this class too."""

    def error(self, message: str):
        raise SpecError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing reads the parser but never changes it.
    parser = _Parser(prog="lil-lab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="kind", required=True)
    spec_flag = Key(str, help="spec or artifact JSON to load; flags override")

    def add(name: str, help_line: str, keys: dict[str, Key]) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_line)
        for key, k in [*_COMMON.items(), ("spec", spec_flag), *keys.items()]:
            if k.positional:
                p.add_argument(key, nargs="?")
            else:
                p.add_argument("--" + key.replace("_", "-"), type=None if k.type is str else k.type,
                               choices=k.choices, help=k.help)
        return p

    for kind, row in SPECS.items():
        add(kind, row.help, row.keys)
    add("run", "execute a spec or artifact JSON file", {}).add_argument("spec_file")
    return parser


def _execute_argv(argv) -> int:
    args = vars(_build_parser().parse_args(argv))
    kind = args.pop("kind")
    if kind == "run":  # a --spec is left among the overrides, which `_execute_file` refuses
        spec_file = args.pop("spec_file")
    else:
        spec_file = args.pop("spec")
        args["kind"] = kind
    overrides = {k: v for k, v in args.items() if v is not None}
    return _execute_file(spec_file, overrides) if spec_file else execute(overrides)


def main(argv=None) -> int:
    return _guarded(_execute_argv, argv)


if __name__ == "__main__":
    sys.exit(main())
