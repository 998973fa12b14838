"""Numerical laboratory for limit constants and concentration bounds of
vector-valued random sums.

The package imports lazily: `import lil_lab` loads none of its
submodules, and `lil_lab.X` imports the submodule that defines X on
first use, so a CLI subcommand loads only the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"
#: The random-stream version (`rng`), recorded in each artifact's provenance.
_STREAM = "lil-lab-stream-v3"


class _ParamError(ValueError):
    """A refused argument, named: `context` is {name: value}.

    Each CLI spec key shares the name of the parameter it fills, so the
    CLI writes this context for a refused spec value as it stands.
    """

    def __init__(self, message: str, name: str, value):
        super().__init__(message)
        self.context = {name: value}


# Each submodule with the names the package exports from it.
_EXPORTS = {
    "bounds": (
        "BoundParams", "FnConstants", "MomentData", "VerifyReport", "fn_constants", "fuk_nagaev_bound",
        "klein_rio_mgf_bound", "maximal_tail_bound", "mc_verify", "split_tail_bound",
    ),
    "constants": (
        "Bracket", "ConstantsReport", "SeriesProbe", "SeriesVerdict", "alpha0_compute", "beta0_estimate",
        "c0_compute", "constants_report", "lambda_compute", "lil_ratio_check", "parse_tsm",
        "sandwich_bounds", "series_classify", "sigma_compute",
    ),
    "distributions": (
        "Gaussian", "PointMass", "RademacherProduct", "RadialPareto", "ScalarEmbedded", "parse_dist",
    ),
    "simulate": (
        "PathConfig", "PathResult", "geometric_checkpoints", "limsup_estimate", "mean_norm_curve",
        "run_path", "truncated_path",
    ),
    "slowvary": (
        "NormalizerSeq", "PowerSeq", "SlowVaryFn", "check_normalizing_conditions", "hq_classify",
        "parse_cseq", "parse_slow_vary", "psi", "psi_inv", "psi_inv_moment",
    ),
    "spaces": (
        "EmpiricalTSM", "SpaceSpec", "TruncatedCov", "dual_ball_sup", "norm", "norms",
        "trunc_cov_empirical", "truncated_second_moment",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    # An export is looked up in its module on every access, never bound
    # here, so patching the module's binding patches the package's too.
    if name in _OWNER:
        return getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    if name.isidentifier() and not name.startswith("__"):
        try:
            return _import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
