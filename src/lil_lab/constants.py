"""Limit constants of normalized i.i.d. sums: series criterion and friends.

The central object is the series

    sum_n (1/n) exp(-c^2 h(n) / (2 H(a_n))),      a_n = psi(n),

whose convergence threshold in c is the limsup constant c0 of the
normalized sums.  It is the series of alpha0, sum_n (1/n) exp(-alpha^2
c_n^2 / (2 n H(c_n))), along c_n = a_n, because a_n^2 / n = h(n); so c0
and alpha0 are read off one probe grid, `_ProbeGrid`.  The grid reads
one thing from a sequence, its `log_h(log n)` = log(c_n^2 / n) (log h(n)
for a_n): the exponents' base is exp(log_h) / (2 H(c_n)), and the H
arguments c_n = exp((log n + log_h) / 2) are capped at exp(709), the
float ceiling `_capped_exp` sets for every H argument.

Convergence of an infinite series cannot be decided from finitely many
terms, so `series_classify` is an explicit heuristic: along a geometric
subsequence n_j = ceil(rho^j) the block-summed series behaves like
sum_j exp(-x_j) with x_j = c^2 c_{n_j}^2 / (2 n_j H(c_{n_j})), and the
classifier fits the growth of x_j against log j.  Slope >= 1 + margin
means terms decay faster than 1/j, slope <= 1 - margin slower; a clear
acceleration or deceleration of the slope between consecutive windows
overrides the level test (x_j growing like (log j)^2 converges for every
c > 0 even though any fixed window's slope may sit near 1).  A probe
where H = 0 adds nothing: its exponent is +inf (the term vanishes) when
H is 0 everywhere, H(inf) = 0, and NaN (the probe says nothing) when H
turns positive only past the probe grid.  The other probes are fitted at
their own j, and a slope at the rounding level of the exponents is flat,
so constant exponents read no acceleration.

All verdicts carry their diagnostics.  The bisection solvers return a
working bracket of the decision boundary together with the raw verdicts
at the endpoints, those of its own probes; INCONCLUSIVE probes are
surfaced, never hidden.

Every grid is a read-only array built once at import (the probe points
of `DEFAULT_PROBE`, `DEFAULT_X_GRID`, the sigma walk, the beta0 n grid);
no stage takes a grid or a classifier setting, only the tolerance `tol`.

H, the truncated weak second moment, comes from an H source: a
callable that also evaluates a whole grid, as given, in one call,
`values(ts)`, and names its `route` ("model", "analytic" or
"empirical").  Every stage (c0, alpha0, lambda, the ratio curve, sigma)
evaluates its grid in one `H_values` call, which also accepts a plain
callable t -> H(t) and rejects a negative H; a bracket search builds
its probe grid once and each probe only rescales the exponents.  The
analytic and empirical sources (`DistTSM`, `EmpiricalTSM`) live in
`lil_lab.spaces` and share one grid pipeline there.  The report's
`verdict_diagnostics` name the route (`h_route`), the sample behind an
empirical H (`h_samples`, `h_max_norm`) and, per stage, the share of
the grid past the sample range (`h_extrapolated_frac`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .slowvary import (
    INCONCLUSIVE, NormalizerSeq, SlowVaryFn, _centred, _json_fields, _json_real, _ols_slope, log_psi, psi_inv_log,
)
from .spaces import DistTSM, EmpiricalTSM, SpaceSpec, _at_point

CONVERGES = "CONVERGES"
DIVERGES = "DIVERGES"

#: Exponent cap corresponding to exp(709) ~ 8e307, just under the float max.
_LOG_FLOAT_MAX = 709.0


@dataclass(frozen=True)
class SeriesProbe:
    """Probe-subsequence settings; the series classifier reads `DEFAULT_PROBE`."""

    rho: float = 2.0
    j_max: int = 120
    window_frac: float = 0.25
    margin: float = 0.1
    trend_tol: float = 0.05

    def __post_init__(self) -> None:
        if not (self.rho > 1 and self.j_max >= 16 and 0 < self.window_frac <= 0.5):
            raise ValueError("need rho > 1, j_max >= 16, window_frac in (0, 0.5]")


DEFAULT_PROBE = SeriesProbe()


def _frozen(a) -> np.ndarray:
    """`a` as a read-only array: a grid built once at import."""
    a = np.asarray(a)
    a.flags.writeable = False
    return a


#: The probe subsequence n_j = ceil(rho^j), j = 1..j_max, of every series.
_PROBE_N = _frozen(np.ceil(DEFAULT_PROBE.rho ** np.arange(1, DEFAULT_PROBE.j_max + 1, dtype=float)))
_LOG_PROBE_N = _frozen(np.log(_PROBE_N))


@dataclass(frozen=True)
class SeriesVerdict:
    verdict: str
    slope: float
    accel: float
    c: float
    note: str = ""

    def to_json_dict(self) -> dict:
        return _json_fields(self, slope=_json_real(self.slope), accel=_json_real(self.accel))


@functools.lru_cache(maxsize=None)
def _window_fits(start: int, size: int) -> tuple[int, int, tuple, tuple]:
    """Where the earlier and the last window of the fit start among `size`
    exponents at the probes j = start + 1, ..., start + size, and the x
    side (`_centred` log j) of each window's fit.  They depend on the run
    of probes alone, so each is built once and kept read-only."""
    j = np.arange(start + 1, start + size + 1, dtype=float)
    w = max(4, int(math.ceil(DEFAULT_PROBE.window_frac * size)))
    lo2, lo1 = size - w, max(size - 2 * w, 0)
    (xc1, d1), (xc2, d2) = _centred(np.log(j[lo1:lo2])), _centred(np.log(j[lo2:]))
    return lo1, lo2, (_frozen(xc1), d1), (_frozen(xc2), d2)


def _classify_exponents(x: np.ndarray, c: float) -> SeriesVerdict:
    """Fit x_j against log j over the last window of the finite exponents
    and the window before it.  The finite exponents are one run of probes
    (H = 0 drops a leading run, an h past the float range a trailing one),
    and each is fitted at its own j.  Only a last window that is all +inf
    says the tail terms vanish; NaN probes, where H = 0 yet H(inf) > 0,
    say nothing, so a grid of them has too few probes to decide.  A
    first-window slope at the rounding level of the exponents is flat, so
    constant exponents read no acceleration.  A fit that is not finite
    (exponents past the float range) decides nothing."""
    probe = DEFAULT_PROBE
    w = max(4, int(math.ceil(probe.window_frac * x.size)))
    finite = np.isfinite(x)
    if not finite[-w:].any() and (x[-w:] == math.inf).all():
        return SeriesVerdict(CONVERGES, math.inf, 0.0, c, "tail terms vanish (H = 0 there)")
    start = int(np.argmax(finite))
    x = x[finite]
    if x.size <= 4:  # the earlier window would hold no probe
        return SeriesVerdict(INCONCLUSIVE, math.nan, 0.0, c, "fewer than 5 probes with H > 0")
    lo1, lo2, fit1, fit2 = _window_fits(start, x.size)
    with np.errstate(over="ignore", invalid="ignore"):  # a fit past the float range is not finite
        s1, s2 = _ols_slope(fit1, x[lo1:lo2]), _ols_slope(fit2, x[lo2:])
    if not (math.isfinite(s1) and math.isfinite(s2)):
        return SeriesVerdict(INCONCLUSIVE, math.nan, 0.0, c, "exponents past the float range")
    accel = s2 / s1 - 1.0 if abs(s1) > 1e-12 * np.abs(x[lo1:]).max() else 0.0
    if accel >= probe.trend_tol:
        return SeriesVerdict(CONVERGES, s2, accel, c, "exponent growth is super-logarithmic")
    if accel <= -probe.trend_tol:
        return SeriesVerdict(DIVERGES, s2, accel, c, "exponent growth is sub-logarithmic")
    if s2 >= 1.0 + probe.margin - 1e-9:
        return SeriesVerdict(CONVERGES, s2, accel, c, "")
    if s2 <= 1.0 - probe.margin + 1e-9:
        return SeriesVerdict(DIVERGES, s2, accel, c, "")
    return SeriesVerdict(INCONCLUSIVE, s2, accel, c, "slope inside the margin band")


def H_values(H_fn, ts) -> np.ndarray:
    """H at every point of the 1-D grid `ts`, in one call: the one H evaluator.

    An H source (see "Truncated-second-moment sources" below) evaluates
    the grid through its `values`; a plain callable t -> H(t) is called
    once per point.  Every stage reads H through here, so every stage
    raises ValueError on a negative or NaN H.
    """
    ts = np.asarray(ts, dtype=float)
    values = getattr(H_fn, "values", None)
    hv = values(ts) if values is not None else np.array([H_fn(t) for t in ts], dtype=float)
    if not np.all(hv >= 0):
        raise ValueError("H must be nonnegative")
    return hv


def _capped_exp(log_t) -> np.ndarray:
    """exp(log_t) capped at exp(709): the float ceiling of every H argument."""
    return np.exp(np.minimum(log_t, _LOG_FLOAT_MAX))


def _probe_args(log_h) -> np.ndarray:
    """The H arguments c_{n_j} = exp((log n_j + log_h) / 2) of a probe grid
    whose sequence has log(c_n^2 / n) = `log_h` at the probes."""
    return _capped_exp(0.5 * (_LOG_PROBE_N + log_h))


class _ProbeGrid:
    """The probe grid of one series sum_n (1/n) exp(-k^2 c_n^2 / (2 n H(c_n))).

    Every probe of a bracket search classifies the same subsequence n_j
    with the same c_n and the same H values; only the constant k in front
    of the exponents changes.  Both come from the sequence's log_h =
    log(c_n^2 / n) at the probes: base_j = exp(log_h) / (2 H(c_n)), with
    H read once, at the capped c_n of `_probe_args(log_h)` and at t = inf,
    in one call.  `exponents(k)` gives x_j = k^2 base_j for one constant,
    +inf where base_j is past the float range.  Where H = 0 the exponent
    is +inf if H(inf) = 0 (a nondecreasing H is then 0 everywhere) and
    NaN if H(inf) > 0 (the law starts past the probe).  A search builds
    its grid once and passes it to the classifier in place of H.  c0's
    series is this one along c_n = psi(n), whose log_h is log h(n).
    """

    def __init__(self, c_seq, H_fn):
        log_h = c_seq.log_h(_LOG_PROBE_N)
        hv = H_values(H_fn, np.append(_probe_args(log_h), math.inf))
        hv, h_inf = hv[:-1], hv[-1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self.base = np.exp(log_h) / (2.0 * hv)
        # off `finite` an exponent is fixed whatever k, even where k^2 underflows and 0 * inf would be NaN
        self.finite = (hv > 0) & (self.base < np.inf)
        self.fixed = np.where(hv > 0, np.inf, np.inf if h_inf == 0 else np.nan)

    def exponents(self, k: float) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(self.finite, k * k * self.base, self.fixed)


def _classify(name: str, c: float, c_seq, H_fn) -> SeriesVerdict:
    """Both series classifiers: a negative or NaN constant raises, 0 is
    DIVERGES by convention (the terms cannot decay) before H is read, and
    any other constant is classified on `H_fn` if it is a search's probe
    grid, else on `_ProbeGrid(c_seq, H_fn)`."""
    if not c >= 0:
        raise ValueError(f"{name} must be nonnegative")
    if c == 0.0:
        return SeriesVerdict(DIVERGES, 0.0, 0.0, 0.0, f"{name} = 0: harmonic floor")
    grid = H_fn if isinstance(H_fn, _ProbeGrid) else _ProbeGrid(c_seq, H_fn)
    return _classify_exponents(grid.exponents(c), c)


def series_classify(c: float, h: SlowVaryFn, H_fn) -> SeriesVerdict:
    """Classify sum_n (1/n) exp(-c^2 h(n)/(2 H(a_n))) for a_n = psi(n).

    This is the alpha series along a_n = psi(n), because a_n^2 / n = h(n):
    one probe grid, built from log h(n).  Probe points with
    H(a_n) = 0 contribute nothing to the series; a tail that vanishes
    because H is 0 everywhere is CONVERGES, one where H is positive only
    past the grid INCONCLUSIVE.  Inside `c0_compute`, `H_fn` is the
    search's `_ProbeGrid` for this h.
    """
    return _classify("c", c, NormalizerSeq(h), H_fn)


def alpha_series_classify(alpha: float, c_seq, H_fn) -> SeriesVerdict:
    """Same classifier for sum_n (1/n) exp(-alpha^2 c_n^2 / (2 n H(c_n))).

    Inside `alpha0_compute`, `H_fn` is the search's `_ProbeGrid`.
    """
    return _classify("alpha", alpha, c_seq, H_fn)


# ---------------------------------------------------------------------------
# Threshold brackets by bisection on the verdict.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bracket:
    """Working bracket [lo, hi] for a series threshold constant.

    `lo_verdict` and `hi_verdict` are the raw verdicts of the search's
    probes at the endpoints (0 is DIVERGES and inf CONVERGES by convention).
    When the classifier's INCONCLUSIVE band is wider than the requested
    tolerance the bracket is driven by the decision rule (CONVERGES, or
    INCONCLUSIVE with slope >= 1, counts as the converging side) and the
    endpoint verdicts record what the classifier actually said.  `probes`
    lists every (c, verdict, slope) consulted.
    """

    lo: float
    hi: float
    lo_verdict: str
    hi_verdict: str
    probes: tuple = ()
    note: str = ""

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_json_dict(self) -> dict:
        return _json_fields(self, lo=_json_real(self.lo), hi=_json_real(self.hi), probes=[
            {"c": c, "verdict": v, "slope": _json_real(s)} for c, v, s in self.probes
        ])


_BISECT_CAP = 1e6


def _threshold_bracket(classify, tol: float) -> Bracket:
    """Bisection on c of the converging-side decision of `classify`."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    probes: list[tuple[float, str, float]] = []

    def side(cv: float) -> bool:
        v = classify(cv)
        probes.append((cv, v.verdict, v.slope))
        return v.verdict == CONVERGES or (v.verdict == INCONCLUSIVE and v.slope >= 1.0)

    if side(1.0):
        lo, hi = 0.5, 1.0
        while side(lo):
            if lo <= 0.25 * tol:
                return _finish_bracket(0.0, lo, probes, "threshold is 0 within tolerance")
            lo, hi = 0.5 * lo, lo
    else:
        lo, hi = 1.0, 2.0
        while not side(hi):
            lo, hi = hi, 2.0 * hi
            if hi > _BISECT_CAP:
                return _finish_bracket(lo, math.inf, probes, f"no converging c up to {_BISECT_CAP:g}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: tol is below their spacing
            break
        if side(mid):
            hi = mid
        else:
            lo = mid
    return _finish_bracket(lo, hi, probes, "")


def _finish_bracket(lo, hi, probes, note) -> Bracket:
    """The bracket with its probes' verdicts at lo and hi: the search probes
    every finite endpoint but 0, DIVERGES by convention as inf CONVERGES."""
    verdict = {0.0: DIVERGES, math.inf: CONVERGES, **{c: v for c, v, _ in probes}}
    inconclusive = sum(v == INCONCLUSIVE for _, v, _ in probes)
    if inconclusive and not note:
        note = f"{inconclusive} INCONCLUSIVE probes inside the search"
    return Bracket(float(lo), float(hi), verdict[lo], verdict[hi], tuple(probes), note)


def c0_compute(h: SlowVaryFn, H_fn, tol: float = 0.02) -> Bracket:
    """Bracket the series threshold c0 = inf{c >= 0 : series converges}.

    c0 is alpha0 along a_n = psi(n): the search builds the one probe grid
    of `alpha0_compute` for `NormalizerSeq(h)`, so n_j, a_n and H(a_n) are
    computed once per search, H in one call, and each probe's
    `series_classify` only scales the exponents.
    """
    grid = _ProbeGrid(NormalizerSeq(h), H_fn)
    return _threshold_bracket(lambda c: series_classify(c, h, grid), tol)


def alpha0_compute(c_seq, H_fn, tol: float = 0.02) -> Bracket:
    """Bracket the divergence threshold alpha0 for a general c_n sequence.

    As in `c0_compute`, n_j, c_n and H(c_n) are computed once per search.
    """
    grid = _ProbeGrid(c_seq, H_fn)
    return _threshold_bracket(lambda a: alpha_series_classify(a, c_seq, grid), tol)


# ---------------------------------------------------------------------------
# The regular-variation limsup constant lambda.
# ---------------------------------------------------------------------------

#: The abscissae of the lambda curve and of the ratio curve.
DEFAULT_X_GRID = _frozen(np.geomspace(1e4, 1e300, 241))
#: log x and LLx = log(max(log x, e)) on that grid.
_LOG_X = _frozen(np.log(DEFAULT_X_GRID))
_LLX = _frozen(np.log(np.maximum(_LOG_X, math.e)))
#: Both curves take their limsup over the last quarter of the grid.
_X_TAIL = DEFAULT_X_GRID.size // 4

# Relative slack for the report's band-vs-bracket consistency flag.  At
# the end of any double-precision grid the limsup probe still sits a few
# percent below its limit for loglog-type scenarios (-4.9% on the
# threshold class), so the flag tolerates that much.  The slack scales
# with the compared values, so the flag does not depend on the unit of X.
_SANDWICH_MARGIN = 0.1


@dataclass(frozen=True)
class LambdaResult:
    lam: float
    lam2: float
    tail_max: float
    last_value: float
    curve: np.ndarray
    diverging: bool
    note: str = ""


def lambda_compute(h: SlowVaryFn, H_fn) -> LambdaResult:
    """Estimate lambda^2 = limsup_x 2 psi_inv(x LLx) H(x) / (x^2 LLx).

    Evaluation is log-domain throughout; psi_inv at arguments far above
    the float ceiling stays representable as a log, and one call of the
    vectorised `psi_inv_log` inverts the whole grid.  The limsup estimate
    is the running maximum of the curve over the last quarter of the
    grid; `last_value` is reported next to it so a still-climbing curve
    is visible.  A tail that keeps growing like a power of LLx flags the
    constant as infinite.  The grid is `DEFAULT_X_GRID`.
    """
    hv = H_values(H_fn, DEFAULT_X_GRID)
    log_g = np.full(DEFAULT_X_GRID.shape, -np.inf)
    pos = np.nonzero(hv > 0)[0]
    # math.log, not np.log: the curve keeps libm's bits whichever SIMD log
    # numpy dispatches to.
    log_llx = np.array([math.log(v) for v in _LLX[pos]])
    log_hv = np.array([math.log(v) for v in hv[pos]])
    inv_log = psi_inv_log(h, _LOG_X[pos] + log_llx)
    log_g[pos] = math.log(2.0) + inv_log + log_hv - 2.0 * _LOG_X[pos] - log_llx
    with np.errstate(over="ignore"):
        curve = np.exp(log_g)
    w = _X_TAIL
    tail_max = float(np.max(curve[-w:]))
    last = float(curve[-1])
    # Divergence heuristic: log g still climbing against log LLx.
    finite_tail = np.isfinite(log_g[-w:])
    diverging = False
    if finite_tail.sum() >= 4:
        gamma = _ols_slope(_centred(np.log(_LLX[-w:][finite_tail])), log_g[-w:][finite_tail])
        diverging = gamma >= 0.5
    lam2 = math.inf if diverging else tail_max
    lam = math.sqrt(lam2) if math.isfinite(lam2) else math.inf
    note = "tail of the curve is still growing; constant flagged infinite" if diverging else ""
    return LambdaResult(lam, lam2, tail_max, last, curve, diverging, note)


@dataclass(frozen=True)
class RatioCurve:
    values: np.ndarray
    tail_max: float
    last_value: float


def _ratio_args(h: SlowVaryFn) -> np.ndarray:
    """The H arguments a_n / LLn of the ratio curve."""
    return _capped_exp(log_psi(h, _LOG_X) - np.log(_LLX))


def lil_ratio_check(h: SlowVaryFn, H_fn) -> RatioCurve:
    """Cross-check curve LLn * H(a_n / LLn) / h(n), whose limsup is lambda^2/2."""
    hv = H_values(H_fn, _ratio_args(h))
    hx = h(DEFAULT_X_GRID)
    # inf is the float answer, as in `hq_classify`, but where H or h(x) is
    # past the float range the point is taken in logs, as in `lambda_compute`
    far = np.isinf(hv) | np.isinf(hx)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = _LLX * hv / hx
        values[far] = np.exp(np.log(_LLX[far]) + np.log(hv[far]) - h.log_value(DEFAULT_X_GRID[far]))
    return RatioCurve(values, float(np.max(values[-_X_TAIL:])), float(values[-1]))


def agreement_gap(a: float, b: float) -> float:
    """Relative disagreement |a - b| / max(|a|, |b|); 0 when both are 0."""
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    return abs(a - b) / scale


def sandwich_bounds(q: float, lam: float) -> tuple[float, float]:
    """Two-sided band [(1-q)^{1/2} lam, lam] for the limsup constant."""
    if not (0 <= q <= 1):
        raise ValueError("q must lie in [0, 1]")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if q == 1.0:
        return (0.0, lam)
    return (math.sqrt(1.0 - q) * lam, lam)


# ---------------------------------------------------------------------------
# sigma^2 = sup_f E f^2(X) as the monotone limit of H.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaResult:
    sigma2: float
    converged: bool
    note: str = ""


#: The sigma walk: t = 2^k from 1 to the cap 2^100, the first power of two
#: >= 1e30, then sqrt(1e30), the midpoint of the log range.
_SIGMA_GRID = _frozen([2.0**k for k in range(101)] + [math.sqrt(1e30)])


def sigma_compute(H_fn) -> SigmaResult:
    """Limit of H(t) along t = 2^k, read at the cap 2^100 >= 1e30 of `_SIGMA_GRID`.

    The walk runs over the whole grid; H must not decrease along it.  The
    value at the cap is converged when each of the last three doublings
    moved H by at most 1e-6 relative.  Otherwise it is compared against
    the value at sqrt(1e30): growth above 5% across that half of the log
    range is taken as divergence and reported as +inf, unless H(inf) is
    finite.  H(inf) is read in the same call, off the grid: when H is
    still 0 at the cap but H(inf) > 0, or still growing there but H(inf)
    is finite, the law's scale lies past the walk and sigma^2 is H(inf),
    not converged.  The whole grid is evaluated in one `H_values` call, so a
    negative H raises ValueError.
    """
    *walk, mid, h_inf = H_values(H_fn, np.append(_SIGMA_GRID, math.inf)).tolist()
    settled = 0
    for prev, cur in zip(walk, walk[1:]):
        if cur < prev - 1e-12 * max(1.0, abs(prev)):
            raise ValueError("H must be nondecreasing")
        settled = settled + 1 if abs(cur - prev) <= 1e-6 * max(abs(cur), 1e-300) else 0
    cap = walk[-1]
    if cap == 0 < h_inf:
        return SigmaResult(h_inf, False, "H is 0 up to the cap 2^100; sigma^2 is H(inf)")
    if settled >= 3:
        return SigmaResult(cap, True)
    if mid > 0 and cap / mid >= 1.05:
        if h_inf < math.inf:
            return SigmaResult(h_inf, False, "still growing at the cap 2^100; sigma^2 is H(inf)")
        return SigmaResult(math.inf, False, "still growing at the cap; reported infinite")
    return SigmaResult(cap, False, "cap reached before the increment test settled")


# ---------------------------------------------------------------------------
# Truncated-second-moment sources usable as H_fn.
#
# A source is a callable t -> H(t) that also evaluates a whole 1-D grid
# in one call, `values(ts)`, as given, bit for bit equal to calling it
# point by point.  Its `route` says where H comes from: "model" (a
# formula chosen by hand, defined here), "analytic" (a closed-form
# truncated covariance, `spaces.DistTSM`) or "empirical" (a
# frozen sample, `spaces.EmpiricalTSM`; such sources also carry
# `n_samples`, `max_norm` and an `extrapolated(ts)` mask).  The analytic
# and empirical sources differ only in their `matrices`: both take H on a
# grid through the one pipeline of `spaces`.
# ---------------------------------------------------------------------------


class ConstTSM:
    """Model source H(t) = v for t > 0 (and 0 at t = 0).

    A modeling convenience, not a distribution-derived H; it ignores the
    constraint H(t) <= t^2 near 0 on purpose.
    """

    route = "model"

    def __init__(self, v: float):
        if not v >= 0:
            raise ValueError("constant H must be nonnegative")
        self.v = float(v)

    def values(self, ts) -> np.ndarray:
        return np.where(np.asarray(ts, dtype=float) > 0, self.v, 0.0)

    __call__ = _at_point


class LogLogPowTSM:
    """Model source H(t) = (LLt)^q."""

    route = "model"

    def __init__(self, q: float):
        if q <= 0:
            raise ValueError("llpow exponent must be positive")
        self.q = float(q)

    def values(self, ts) -> np.ndarray:
        # math.log and float ** per point: results keep libm's bits, not
        # those of whichever SIMD log numpy dispatches to.
        return np.array([0.0 if t <= 0 else self._power(t) for t in np.asarray(ts, dtype=float).tolist()])

    def _power(self, t: float) -> float:
        try:
            return max(math.log(max(math.log(t), 1.0)), 1.0) ** self.q
        except OverflowError:
            raise ValueError(f"H source llpow:{self.q:g} overflows: (LLt)^{self.q:g} "
                             f"exceeds the float range at t = {t:.3g}") from None

    __call__ = _at_point


class EmpiricalWrapTSM(EmpiricalTSM):
    """Empirical source: what `parse_tsm` builds on a frozen sample."""

    # Bound here, not inherited, so per-class call counters
    # (perfbench/tracer.py) tell it apart from a bare EmpiricalTSM.
    __call__ = _at_point


def parse_tsm(text: str, dist=None, space=None, n_samples: int = 4096, seed: int = 0):
    """Parse an H-source spec: const:V | llpow:Q | dist | empirical[:N].

    The one place that chooses an H route: `dist` is a `DistTSM` when the
    law has a closed-form truncated covariance in `space`, and otherwise
    exactly `empirical:<n_samples>`, one `EmpiricalWrapTSM` over N draws
    from `substream(seed, H_SAMPLE)`.  Only the empirical route builds
    that stream.
    """
    squeezed = text.strip()
    if squeezed.startswith("const:"):
        return ConstTSM(float(squeezed[6:]))
    if squeezed.startswith("llpow:"):
        return LogLogPowTSM(float(squeezed[6:]))
    form, _, count = squeezed.partition(":")
    if squeezed != "dist" and form != "empirical":
        raise ValueError(f"cannot parse H source {text!r}")
    if dist is None or space is None:
        raise ValueError(f"H source {form!r} needs a distribution and a space")
    if form == "dist" and dist.truncated_cov(1.0, space) is not None:
        return DistTSM(dist, space)
    count = int(count or n_samples)
    if count < 1:
        raise ValueError("an empirical H needs at least one sample")
    from .rng import H_SAMPLE, substream

    return EmpiricalWrapTSM(dist.sample(substream(seed, H_SAMPLE), count), space)


# ---------------------------------------------------------------------------
# beta0 and the assembled report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Beta0Result:
    value: float
    ci: tuple[float, float]
    curve: object


def beta0_estimate(dist, c_seq, n_grid, trials: int, space: SpaceSpec, seed: int = 0, workers: int = 1) -> Beta0Result:
    """Tail-window estimate of limsup E||S_n||/c_n from Monte Carlo curves.

    The trial count is checked by `simulate.mean_norm_curve`.
    """
    from . import simulate

    curve = simulate.mean_norm_curve(dist, space, c_seq, n_grid, trials, seed=seed, workers=workers)
    w = max(1, len(curve.n_grid) // 4)
    idx = int(len(curve.n_grid) - w + np.argmax(curve.mean[-w:]))
    return Beta0Result(
        value=float(curve.mean[idx]),
        ci=(float(curve.ci_lo[idx]), float(curve.ci_hi[idx])),
        curve=curve,
    )


#: The n grid of the report's beta0 curve: 64, 127, 256, ..., 65536, strictly increasing.
_BETA0_N_GRID = _frozen(np.geomspace(64, 65536, 11).astype(int))

#: The q grid searched for `ConstantsReport.q_used`.
_Q_GRID = tuple(round(0.1 * k, 2) for k in range(0, 11))


@dataclass(frozen=True)
class ConstantsReport:
    """Bundle of computed constants with fixed serialization field names."""

    c0: Bracket
    lam: float
    alpha0: Bracket | None
    sigma2: float
    beta0: Beta0Result | None
    q_used: float
    verdict_diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "c0_lo": _json_real(self.c0.lo),
            "c0_hi": _json_real(self.c0.hi),
            "lambda": _json_real(self.lam),
            "alpha0_lo": _json_real(self.alpha0.lo) if self.alpha0 else None,
            "alpha0_hi": _json_real(self.alpha0.hi) if self.alpha0 else None,
            "sigma2": _json_real(self.sigma2),
            "beta0": _json_real(self.beta0.value) if self.beta0 else None,
            "beta0_ci": [_json_real(self.beta0.ci[0]), _json_real(self.beta0.ci[1])] if self.beta0 else None,
            "q_used": self.q_used,
            "verdict_diagnostics": self.verdict_diagnostics,
        }


def _route_diagnostics(h: SlowVaryFn, H_fn, c_seq) -> dict:
    """The H route a report rests on, and per stage the share of the
    stage's H grid that lies past the sample range.

    Only an empirical source extrapolates.  Every stage evaluates H on
    its fixed module grid, read here as the same object, so this costs
    one mask per stage.  The point t = inf that the series and sigma
    stages add to their one H call is not counted.
    """
    route = getattr(H_fn, "route", "model")
    frac = {"c0": 0.0, "alpha0": None if c_seq is None else 0.0, "lambda": 0.0, "ratio": 0.0, "sigma": 0.0}
    out = {"h_route": route, "h_samples": None, "h_max_norm": None, "h_extrapolated_frac": frac}
    if route == "empirical":
        grids = {
            "c0": _probe_args(NormalizerSeq(h).log_h(_LOG_PROBE_N)),
            "lambda": DEFAULT_X_GRID,
            "ratio": _ratio_args(h),
            "sigma": _SIGMA_GRID,
        }
        if c_seq is not None:
            grids["alpha0"] = _probe_args(c_seq.log_h(_LOG_PROBE_N))
        frac.update({stage: float(np.mean(H_fn.extrapolated(ts))) for stage, ts in grids.items()})
        out["h_samples"], out["h_max_norm"] = H_fn.n_samples, H_fn.max_norm
    return out


def constants_report(
    h: SlowVaryFn,
    H_fn,
    *,
    c_seq=None,
    dist=None,
    space: SpaceSpec | None = None,
    tol: float = 0.02,
    trials: int = 0,
    seed: int = 0,
    workers: int = 1,
) -> ConstantsReport:
    """Compute every constant the inputs allow and assemble one report.

    alpha0 needs a c_n sequence.  beta0 is simulated whenever `trials` is
    nonzero, which then needs a distribution and a space (ValueError
    otherwise; `simulate.mean_norm_curve` refuses fewer than 30 trials).
    q_used is the smallest grid q at which the membership classifier says
    MEMBER (1.0 when none does; the band is then vacuous on one side).
    The per-tau verdicts do not depend on q, so one scan at q = 0 decides
    every grid q: q is MEMBER exactly when every tau active at q is.  sigma^2 is H at the cap of the sigma walk,
    or H(inf) when H is 0 there (see `sigma_compute`).
    `sandwich_consistent` asks whether the c0 bracket meets the band once
    each side is widened by the relative `_SANDWICH_MARGIN`.  Each stage
    evaluates its grids once, H(inf) included where it needs it, and the
    report writes every stage's result as the stage returned it; no value
    is kept past the report.
    """
    from .slowvary import MEMBER, _tau_active, hq_classify

    c0 = c0_compute(h, H_fn, tol=tol)
    lam_res = lambda_compute(h, H_fn)
    sigma = sigma_compute(H_fn)
    scan = hq_classify(h, 0.0).per_tau
    q_used = next(
        (q for q in _Q_GRID if all(d.verdict == MEMBER for d in scan if _tau_active(d.tau, q))), 1.0
    )
    alpha0 = None
    if c_seq is not None:
        alpha0 = alpha0_compute(c_seq, H_fn, tol=tol)
    beta0 = None
    if trials:
        if dist is None or space is None:
            raise ValueError(f"trials = {trials} asks for beta0, which needs a distribution and a space")
        seq = c_seq if c_seq is not None else NormalizerSeq(h)
        beta0 = beta0_estimate(dist, seq, _BETA0_N_GRID, trials, space, seed=seed, workers=workers)
    ratio = lil_ratio_check(h, H_fn)
    band = sandwich_bounds(q_used, lam_res.lam)
    diagnostics = {
        "c0": c0.to_json_dict(),
        "lambda_tail_max": _json_real(lam_res.tail_max),
        "lambda_last_value": _json_real(lam_res.last_value),
        "lambda_diverging": lam_res.diverging,
        "sigma_converged": sigma.converged,
        "sigma_note": sigma.note,
        "ratio_tail_max": _json_real(ratio.tail_max),
        "ratio_vs_half_lambda2": _json_real(
            agreement_gap(ratio.tail_max, 0.5 * lam_res.lam2) if math.isfinite(lam_res.lam2) else math.nan
        ),
        "sandwich_lo": _json_real(band[0]),
        "sandwich_hi": _json_real(band[1]),
        # The grid probe for the limsup constant is biased low (its curve
        # is still climbing at the largest representable abscissa), so the
        # consistency check gets a wider margin than the bracket tolerance.
        "sandwich_consistent": bool(
            not math.isfinite(lam_res.lam)
            or (band[0] <= c0.hi * (1 + _SANDWICH_MARGIN) and c0.lo <= band[1] * (1 + _SANDWICH_MARGIN))
        ),
    }
    if alpha0 is not None:
        diagnostics["alpha0"] = alpha0.to_json_dict()
    diagnostics.update(_route_diagnostics(h, H_fn, c_seq))
    return ConstantsReport(
        c0=c0,
        lam=lam_res.lam,
        alpha0=alpha0,
        sigma2=sigma.sigma2,
        beta0=beta0,
        q_used=q_used,
        verdict_diagnostics=diagnostics,
    )
