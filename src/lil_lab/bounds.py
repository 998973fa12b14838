"""Concentration bounds for sums of independent bounded vectors, with the
constants assembled explicitly, plus a Monte Carlo falsification harness.

The chain: a Bernstein-type mgf bound for ||sum Y_i|| (Klein-Rio), a
maximal-inequality version via Doob, a split of that bound into a
Gaussian term and a linear-exponent term, and finally the mixed
exponential-plus-polynomial tail bound whose constant C is assembled
from the proof chain (K_s, C', C'', and the (1+9 eps)^s substitution
factor).  C is admissible, not claimed minimal.

`mc_verify` tries to falsify the bounds empirically: it estimates the
moment inputs from an independent pilot run, then compares empirical
tail frequencies (and the empirical mgf) against the evaluated bounds,
flagging any grid point where the estimate minus three standard errors
still exceeds the bound.  Its two reducers, the pilot moment sums and
the final norm with the running maximum, live in `simulate` with every
other reducer, and `mc_verify` imports the sampler (`simulate`, `rng`,
`spaces`) in its body: the closed-form bounds load only this module and
`slowvary`.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .slowvary import _csv_text, _json_fields, _json_real


@dataclass(frozen=True)
class MomentData:
    """Moment inputs of the bound evaluators.

    M is the a.s. bound on the increment norm (math.inf when unbounded),
    lambda_n the weak variance sup_f sum_j E f^2(Y_j), mean_norm the
    expected norm of the full sum, moment_s the summed s-th norm moments
    (None with s when unused).
    """

    n: int
    M: float
    lambda_n: float
    mean_norm: float
    moment_s: float | None = None
    s: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.M < 0 or self.lambda_n < 0 or self.mean_norm < 0:
            raise ValueError("M, lambda_n, mean_norm must be nonnegative")
        if not math.isfinite(self.lambda_n) or not math.isfinite(self.mean_norm):
            raise ValueError("lambda_n and mean_norm must be finite")
        # M * M, not M**2, which raises OverflowError past M = 1.3e154 where this gives inf
        if math.isfinite(self.M) and self.lambda_n > self.n * (self.M * self.M) * (1 + 1e-9):
            raise ValueError("lambda_n cannot exceed n * M^2")
        if (self.moment_s is None) != (self.s is None):
            raise ValueError("moment_s and s come together")
        if self.s is not None and self.s <= 2:
            raise ValueError("moment exponent s must exceed 2")
        if self.moment_s is not None and self.moment_s < 0:
            raise ValueError("moment_s must be nonnegative")


def eps_from_delta(delta: float) -> float:
    """Largest eps with (2+eps)(1+9eps)^2 <= 2+delta, by bisection.

    The bisection stops at an absolute width of about 1e-13, so a delta up
    to about 2e-12 leaves eps at 0: a ValueError naming delta, as is a
    delta that is not positive and finite.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    target = 2.0 + delta

    def f(e: float) -> float:
        return (2.0 + e) * (1.0 + 9.0 * e) ** 2

    hi = 1.0
    while f(hi) <= target:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-13 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if f(mid) <= target:
            lo = mid
        else:
            hi = mid
    if lo == 0:
        raise ValueError(f"delta {delta!r} is too small: its epsilon bisects to 0")
    return lo


def d_const(eps: float, eta: float) -> float:
    """D_{eps,eta} = (1 + 2/eps)(3 + 4/eta)."""
    if eps <= 0 or not (0 < eta <= 1):
        raise ValueError("need eps > 0 and eta in (0, 1]")
    return (1.0 + 2.0 / eps) * (3.0 + 4.0 / eta)


def k_const(s: float) -> float:
    """K_s = (2s/e)^{2s}, the maximum of (log a)^{2s}/a over a > 1."""
    if s <= 2:
        raise ValueError("s must exceed 2")
    return (2.0 * s / math.e) ** (2.0 * s)


@dataclass(frozen=True)
class BoundParams:
    """Free parameters (eta, delta, s); epsilon is always derived from delta."""

    eta: float
    delta: float
    s: float
    epsilon: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0 < self.eta <= 1):
            raise ValueError("eta must lie in (0, 1]")
        if self.s <= 2:
            raise ValueError("s must exceed 2")
        object.__setattr__(self, "epsilon", eps_from_delta(self.delta))


@dataclass(frozen=True)
class FnConstants:
    """The assembled constants of the mixed tail bound."""

    delta: float
    eta: float
    s: float
    epsilon: float
    D: float
    K_s: float
    C_prime: float
    C_dprime: float
    C: float
    rho_formula: str = "rho(beta) = min(1, 1 / (2 * eps * D * log(1/beta)))"


def fn_constants(delta: float, eta: float, s: float) -> FnConstants:
    """The assembled constants; a ValueError naming s when C is not a finite float."""
    eps = eps_from_delta(delta)
    dd = d_const(eps, eta)
    try:
        ks = k_const(s)
        c_prime = ks * (2.0 * dd) ** (2.0 * s)
        c_dprime = 1.0 + c_prime + eps ** (-s)
        c_full = c_dprime * (1.0 + 9.0 * eps) ** s
    except OverflowError:
        c_full = math.inf
    if not math.isfinite(c_full):
        raise ValueError(
            f"s = {s:g} is too large at delta = {delta:g}, eta = {eta:g}: the constant C of "
            "the mixed bound overflows to inf, and out-of-range floats are not JSON compliant"
        )
    return FnConstants(
        delta=delta, eta=eta, s=s, epsilon=eps, D=dd, K_s=ks,
        C_prime=c_prime, C_dprime=c_dprime, C=c_full,
    )


# ---------------------------------------------------------------------------
# Bound evaluators.  All are pure, reentrant, and monotone nonincreasing
# in their tail argument.
# ---------------------------------------------------------------------------


def klein_rio_mgf_bound(s: float, data: MomentData) -> float:
    """Bernstein-type bound on E exp(s ||sum Y_i||) for 0 < s < 2/(3M)."""
    if s <= 0:
        raise ValueError("s must be positive")
    if math.isinf(data.M):
        raise ValueError("mgf bound needs a finite a.s. bound M")
    if data.M > 0 and s >= 2.0 / (3.0 * data.M):
        raise ValueError(f"s must stay below 2/(3M) = {2.0 / (3.0 * data.M):g}")
    beta_n = 2.0 * data.M * data.mean_norm + data.lambda_n
    try:
        return math.exp(s * data.mean_norm + beta_n * s * s / (2.0 - 3.0 * data.M * s))
    except OverflowError:  # past the float ceiling the bound is vacuous
        return math.inf


def maximal_tail_bound(x: float, data: MomentData) -> float:
    """P{max_k ||S_k|| >= mean_norm + x} bound from Doob's inequality."""
    if x <= 0:
        raise ValueError("x must be positive")
    if math.isinf(data.M):
        return 1.0
    denom = 2.0 * data.lambda_n + (4.0 * data.mean_norm + 3.0 * x) * data.M
    if denom == 0.0:
        return 0.0
    ratio = x * x / denom
    if math.isnan(ratio):  # x^2 and denom both past the float range: each term over x first
        ratio = x / (2.0 * data.lambda_n / x + (4.0 * data.mean_norm / x + 3.0) * data.M)
    return math.exp(-ratio)


def split_tail_bound(y: float, params: BoundParams, data: MomentData) -> float:
    """Gaussian term plus linear-exponent term bounding the (1+eta)-shifted
    maximal tail."""
    if y <= 0:
        raise ValueError("y must be positive")
    eps = params.epsilon
    gauss = 0.0 if data.lambda_n == 0.0 else math.exp(-y * y / ((2.0 + eps) * data.lambda_n))
    if data.M == 0.0:
        linear = 0.0
    elif math.isinf(data.M):
        linear = 1.0
    else:
        linear = math.exp(-y / (d_const(eps, params.eta) * data.M))
    return gauss + linear


def fuk_nagaev_bound(t: float, params: BoundParams, data: MomentData) -> float:
    """Mixed exponential/polynomial tail bound, capped at 1.

    Needs moment data: P{max_k ||S_k|| >= (1+eta) mean_norm + t} is at
    most exp(-t^2/((2+delta) Lambda_n)) + C sum_i E||Z_i||^s / t^s.
    """
    return _fn_terms(t, params, data)[0]


def _fn_terms(t: float, params: BoundParams, data: MomentData) -> tuple[float, float, float, FnConstants]:
    """`fuk_nagaev_bound` with its parts: (bound, Gaussian term, polynomial term, constants)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if data.moment_s is None:
        raise ValueError("fuk_nagaev_bound needs moment_s and s in MomentData")
    if not math.isfinite(data.moment_s):
        raise ValueError("moment_s must be finite")
    if abs(data.s - params.s) > 1e-12:
        raise ValueError("exponent s disagrees between params and data")
    consts = fn_constants(params.delta, params.eta, params.s)
    gauss = 0.0 if data.lambda_n == 0.0 else math.exp(-t * t / ((2.0 + params.delta) * data.lambda_n))
    try:
        t_s = t**params.s
    except OverflowError:  # past the float ceiling: the polynomial term is 0
        t_s = math.inf
    if t_s > 0.0:
        poly = consts.C * data.moment_s / t_s
    else:
        # t**s underflows: C * moment_s / 0+ is inf, or 0 for a zero moment
        poly = math.inf if consts.C * data.moment_s > 0 else 0.0
    return min(1.0, gauss + poly), gauss, poly, consts


# ---------------------------------------------------------------------------
# Monte Carlo falsification harness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRow:
    """One grid point of `mc_verify`; `violation` is derived: the estimate
    minus three standard errors still exceeds the bound."""

    kind: str  # "fn" (tail vs mixed bound), "kr1" (tail vs maximal bound), "kr" (mgf)
    x: float
    p_hat: float
    se: float
    bound: float
    violation: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "violation", self.p_hat - 3.0 * self.se > self.bound)

    def to_json_dict(self) -> dict:
        return _json_fields(self, bound=_json_real(self.bound))


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple[VerifyRow, ...]
    data: MomentData
    params: BoundParams
    pilot: dict
    n: int
    trials: int
    seed: int
    notes: tuple[str, ...] = ()

    @property
    def any_violation(self) -> bool:
        return any(r.violation for r in self.rows)

    def to_json_dict(self) -> dict:
        return _json_fields(
            self, params=asdict(self.params), data=_json_fields(self.data, ("n",), M=_json_real(self.data.M)),
            rows=[r.to_json_dict() for r in self.rows], any_violation=self.any_violation, notes=list(self.notes),
        )

    def to_csv_text(self) -> str:
        rows = ((r.kind, r.x, r.p_hat, r.se, r.bound, int(r.violation)) for r in self.rows)
        return _csv_text("kind,x,p_hat,se,bound,violation", rows, seed=self.seed, n=self.n, trials=self.trials)


def mc_verify(
    dist,
    space: SpaceSpec,
    n: int,
    trials: int,
    t_grid,
    params: BoundParams,
    seed: int = 0,
    kr_points: int = 10,
    workers: int = 1,
) -> VerifyReport:
    """Empirical falsification run against the bound evaluators.

    A pilot pass (same number of trials, independent streams) estimates
    mean_norm, the weak variance, and the s-th moment, and rejects a
    distribution whose sample mean sits further than 5 standard errors
    from 0 in any coordinate.  The main pass records ||S_n|| and
    max_k ||S_k|| per trial and compares tail frequencies and the
    empirical mgf against the bounds, one `VerifyRow` (which derives its
    `violation`) per grid point; a `kr` point whose empirical mgf or its
    standard error overflows gets no row, only a count in `notes`.  Both
    passes are sampled in one `map_trials` call, hence by the caller and
    one set of `workers` - 1 forked children, so the pilot's centering
    check runs after the main pass's sampling too.  A path longer than
    `simulate.BLOCK` streams block by block, its stripes on threads, as
    in every other estimator; its finals and maxima have the bits of an
    uncut path, its pilot sums are folded block by block.
    """
    if trials < 100:
        raise ValueError("trials too small for stable pilot estimates")
    if n < 1:
        raise ValueError("n must be positive")
    if kr_points < 0:
        raise ValueError(f"kr_points must be nonnegative, got {kr_points}")
    tg = np.asarray(t_grid, dtype=float)
    if tg.size == 0 or np.any(tg <= 0):
        raise ValueError("t_grid must be positive")
    if not getattr(dist, "is_centered", False):
        raise ValueError("mc_verify needs a centered distribution")
    from . import rng
    from .simulate import _FinalAndMax, _PilotMoments, map_trials
    from .spaces import _check_dual_ball, dual_ball_sup

    # an overflowing C, or a p = 1 space past the vertex limit, fails before any sampling
    fn_constants(params.delta, params.eta, params.s)
    _check_dual_ball(space)

    # both passes in one submission: the main pass reads nothing of the pilot's
    parts, main_parts = map_trials(
        dist, n, seed, trials,
        [(rng.PILOT, _PilotMoments(space, params.s)), (rng.MAIN, _FinalAndMax(space))], workers,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        coord_sum, m2, moment_sum, final_sum, final_sumsq, _ = (sum(col) for col in zip(*parts))
    # an inf or NaN stays so through every fold; bounding these three
    # also bounds the coordinate and final-norm sums (Cauchy-Schwarz)
    for name, total in (("x^T x", m2), ("s-th norm moment", moment_sum), ("squared final norm", final_sumsq)):
        if not np.isfinite(total).all():
            raise ArithmeticError(f"pilot {name} sum overflowed by step {n}")
    n_draws = trials * n

    coord_mean = coord_sum / n_draws
    coord_var = np.maximum(np.diagonal(m2) / n_draws - coord_mean**2, 0.0)
    coord_se = np.sqrt(coord_var / n_draws)
    off = np.abs(coord_mean) > 5.0 * coord_se
    if off.any():
        j = int(np.argmax(np.abs(coord_mean) - 5.0 * coord_se))
        raise ValueError(
            f"pilot sample mean is not centered: coordinate {j} has mean "
            f"{coord_mean[j]:.3g} with standard error {coord_se[j]:.3g}"
        )

    mean_norm = final_sum / trials
    mean_norm_se = math.sqrt(max(final_sumsq / trials - mean_norm**2, 0.0) / trials)
    lam_hat = n * dual_ball_sup(m2 / n_draws, space)
    notes: list[str] = []
    # batch split for the weak-variance standard error, over at most 10 groups of pilot chunks
    n_batches = min(10, len(parts))
    lam_se = None
    if n_batches > 1:
        groups = [parts[b::n_batches] for b in range(n_batches)]
        with np.errstate(over="ignore", invalid="ignore"):
            batch_m2 = np.stack([sum(p[1] for p in g) / (sum(p[5] for p in g) * n) for g in groups])
            lam_se = float(np.std(n * dual_ball_sup(batch_m2, space), ddof=1) / math.sqrt(n_batches))
        if not math.isfinite(lam_se):
            lam_se = None
            notes.append("lambda_n_se is null: its batch standard error overflows")
    else:
        notes.append("lambda_n_se is null: its batch standard error needs at least two pilot chunks")
    moment_hat = n * moment_sum / n_draws

    m_bound = dist.norm_bound(space)
    data = MomentData(
        n=n, M=m_bound, lambda_n=lam_hat, mean_norm=mean_norm,
        moment_s=moment_hat, s=params.s,
    )
    pilot = {
        "mean_norm": mean_norm,
        "mean_norm_se": mean_norm_se,
        "lambda_n": lam_hat,
        "lambda_n_se": lam_se,
        "moment_s": moment_hat,
        "M": _json_real(m_bound),
        "pilot_trials": trials,
    }

    # main pass
    finals = np.concatenate([p[0] for p in main_parts])
    maxes = np.concatenate([p[1] for p in main_parts])

    rows: list[VerifyRow] = []
    if not dist.finite_second_moment:
        notes.append("the law has no finite second moment: lambda_n and the moment estimates do not converge")

    def tail_row(kind: str, x: float, thresh: float, bound: float) -> VerifyRow:
        p_hat = float(np.mean(maxes >= thresh))
        return VerifyRow(kind, x, p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials), bound)

    for t in map(float, tg):
        rows.append(tail_row("fn", t, (1.0 + params.eta) * mean_norm + t, fuk_nagaev_bound(t, params, data)))
    if math.isfinite(m_bound):
        for x in map(float, tg):
            rows.append(tail_row("kr1", x, mean_norm + x, maximal_tail_bound(x, data)))
        s_cap = 2.0 / (3.0 * m_bound) if m_bound > 0 else 1.0
        skipped = []
        for i in range(1, kr_points + 1):
            sv = s_cap * i / (kr_points + 1)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = np.exp(sv * finals)
                mgf = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials)))
            if all(map(math.isfinite, mgf)):
                rows.append(VerifyRow("kr", sv, *mgf, klein_rio_mgf_bound(sv, data)))
            else:
                skipped.append(sv)
        if skipped:
            notes.append(f"{len(skipped)} kr rows skipped: the empirical mgf or its standard error "
                         f"overflows from s = {skipped[0]:.6g}")
    else:
        notes.append("increment norm is unbounded: mgf and maximal rows skipped")

    return VerifyReport(
        rows=tuple(rows), data=data, params=params, pilot=pilot,
        n=n, trials=trials, seed=seed, notes=tuple(notes),
    )
