"""Slowly varying normalizers and their calculus.

Throughout, Lt = log(max(t, e)) and LLt = L(Lt), so both are >= 1 for
every t >= 0.  The function class is generated by four families, each
positive, continuous and nondecreasing:

    constants c > 0,
    (Lt)^r          with r > 0,
    (LLt)^p         with p > 0,
    exp(a (Lt)^b)   with a > 0 and 0 < b < 1,

closed under products and positive powers.  Every member therefore has
the normal form

    h(t) = c * (Lt)^r * (LLt)^p * prod_i exp(a_i (Lt)^(b_i)),

which is what `SlowVaryFn` stores.  The normal form makes log h(t)
cheap at any scale; this matters because the normalizer

    psi(x) = sqrt(x h(x))

and its inverse are routinely evaluated at arguments near the float
ceiling (series probes walk x past 1e36, limit-constant grids past
1e290), so all root finding here happens on log-scale arguments.
`psi_inv_log` is the one psi-inverse solver; it bisects a whole array of
log-scale targets at once, each element to its own tolerance.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .rng import H_SAMPLE, substream
from .spaces import SpaceSpec, norms

#: Absolute bisection tolerance on log-scale arguments.
LOG_BISECT_TOL = 1e-12


def _fmt(x: float) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _json_real(x):
    """JSON-safe real: inf and nan become strings, everything else floats."""
    if x is None:
        return None
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return xf


@dataclass(frozen=True)
class SlowVaryFn:
    """A slowly varying function in product normal form.

    Fields hold the exponents of the normal form; `exp_terms` is a sorted
    tuple of (coeff, beta) pairs for the exp(coeff * (Lt)^beta) factors.
    Instances are immutable; `*` multiplies two functions (or scales by a
    positive constant) and `**` raises to a positive power, both staying
    inside the class.
    """

    const: float = 1.0
    log_pow: float = 0.0
    loglog_pow: float = 0.0
    exp_terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not (self.const > 0 and math.isfinite(self.const)):
            raise ValueError(f"constant factor must be positive and finite, got {self.const!r}")
        if self.log_pow < 0 or self.loglog_pow < 0:
            raise ValueError("exponents of (Lt)^r and (LLt)^p must be nonnegative")
        merged: dict[float, float] = {}
        for coeff, beta in self.exp_terms:
            if not (coeff > 0 and 0 < beta < 1):
                raise ValueError(
                    f"exp factor needs coeff > 0 and 0 < beta < 1, got ({coeff!r}, {beta!r})"
                )
            merged[beta] = merged.get(beta, 0.0) + float(coeff)
        canon = tuple(sorted((c, b) for b, c in merged.items()))
        object.__setattr__(self, "const", float(self.const))
        object.__setattr__(self, "log_pow", float(self.log_pow))
        object.__setattr__(self, "loglog_pow", float(self.loglog_pow))
        object.__setattr__(self, "exp_terms", canon)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "SlowVaryFn":
        return cls(const=c)

    @classmethod
    def log_power(cls, r: float) -> "SlowVaryFn":
        if r <= 0:
            raise ValueError("(Lt)^r needs r > 0")
        return cls(log_pow=r)

    @classmethod
    def loglog_power(cls, p: float) -> "SlowVaryFn":
        if p <= 0:
            raise ValueError("(LLt)^p needs p > 0")
        return cls(loglog_pow=p)

    @classmethod
    def exp_log_power(cls, beta: float, coeff: float = 1.0) -> "SlowVaryFn":
        return cls(exp_terms=((coeff, beta),))

    # -- algebra ------------------------------------------------------

    def __mul__(self, other) -> "SlowVaryFn":
        if isinstance(other, SlowVaryFn):
            return SlowVaryFn(
                const=self.const * other.const,
                log_pow=self.log_pow + other.log_pow,
                loglog_pow=self.loglog_pow + other.loglog_pow,
                exp_terms=self.exp_terms + other.exp_terms,
            )
        if isinstance(other, (int, float)):
            return SlowVaryFn(
                const=self.const * float(other),
                log_pow=self.log_pow,
                loglog_pow=self.loglog_pow,
                exp_terms=self.exp_terms,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, q: float) -> "SlowVaryFn":
        if not (q > 0 and math.isfinite(q)):
            raise ValueError("only positive finite powers keep the class closed")
        return SlowVaryFn(
            const=self.const**q,
            log_pow=self.log_pow * q,
            loglog_pow=self.loglog_pow * q,
            exp_terms=tuple((c * q, b) for c, b in self.exp_terms),
        )

    # -- evaluation ---------------------------------------------------

    def log_value_from_log(self, log_t):
        """log h(t) given log t.  Accepts scalars or numpy arrays.

        Uses L(t) = max(log t, 1), which is exactly log(max(t, e)) and
        never needs t itself, so arguments far beyond the float ceiling
        are fine.  Powers go through the `np.power` ufunc: `**` on a numpy
        scalar calls libm `pow`, which can round a scalar differently from
        the same value inside an array.
        """
        u = np.maximum(np.asarray(log_t, dtype=float), 1.0)  # Lt
        ll = np.log(np.maximum(u, math.e))  # LLt >= 1
        out = math.log(self.const) + self.log_pow * np.log(u) + self.loglog_pow * np.log(ll)
        for coeff, beta in self.exp_terms:
            out = out + coeff * np.power(u, beta)
        if np.ndim(log_t) == 0:
            return float(out)
        return out

    def log_value(self, t):
        with np.errstate(divide="ignore"):
            return self.log_value_from_log(np.log(np.maximum(np.asarray(t, dtype=float), 0.0)))

    def __call__(self, t):
        with np.errstate(over="ignore"):
            val = np.exp(self.log_value(t))
        if np.ndim(t) == 0:
            return float(val)
        return val

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        parts: list[str] = []
        if self.const != 1.0 or (
            self.log_pow == 0 and self.loglog_pow == 0 and not self.exp_terms
        ):
            parts.append(_fmt(self.const))
        if self.log_pow:
            parts.append(f"(L)^{_fmt(self.log_pow)}")
        if self.loglog_pow:
            parts.append(f"(LL)^{_fmt(self.loglog_pow)}")
        for coeff, beta in self.exp_terms:
            inner = f"(L)^{_fmt(beta)}"
            parts.append(f"exp({inner})" if coeff == 1.0 else f"exp({_fmt(coeff)}*{inner})")
        return "*".join(parts)


# ---------------------------------------------------------------------------
# Text form.  Grammar: product of factors separated by top-level '*', each
# factor one of  NUMBER | (L)[^NUM] | (LL)[^NUM] | exp([NUM*](L)^NUM).
# ---------------------------------------------------------------------------

_NUM = r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"
_RE_NUMBER = re.compile(rf"^{_NUM}$")
_RE_LOG = re.compile(rf"^\(L\)(?:\^({_NUM}))?$")
_RE_LOGLOG = re.compile(rf"^\(LL\)(?:\^({_NUM}))?$")
_RE_EXP = re.compile(rf"^exp\((?:({_NUM})\*)?\(L\)\^({_NUM})\)$")


def _split_top(text: str, sep: str) -> list[str]:
    """`text` split at each `sep` outside parentheses (shared with `distributions`)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def parse_slow_vary(text: str) -> SlowVaryFn:
    """Parse the compact text form, e.g. "2*(LL)^1" or "exp((L)^0.5")."""
    squeezed = text.replace(" ", "")
    if not squeezed:
        raise ValueError("empty slow-variation expression")
    result = SlowVaryFn()
    for part in _split_top(squeezed, "*"):
        if _RE_NUMBER.match(part):
            result = result * SlowVaryFn.constant(float(part))
            continue
        m = _RE_LOG.match(part)
        if m:
            result = result * SlowVaryFn.log_power(float(m.group(1) or 1.0))
            continue
        m = _RE_LOGLOG.match(part)
        if m:
            result = result * SlowVaryFn.loglog_power(float(m.group(1) or 1.0))
            continue
        m = _RE_EXP.match(part)
        if m:
            coeff = float(m.group(1)) if m.group(1) else 1.0
            result = result * SlowVaryFn.exp_log_power(float(m.group(2)), coeff)
            continue
        raise ValueError(f"cannot parse factor {part!r} in {text!r}")
    return result


# ---------------------------------------------------------------------------
# The normalizer psi and its inverse.
# ---------------------------------------------------------------------------


def log_psi(h: SlowVaryFn, log_x):
    """log psi(x) = (log x + log h(x)) / 2, taking and returning logs."""
    lx = np.asarray(log_x, dtype=float)
    out = 0.5 * (lx + h.log_value_from_log(lx))
    return float(out) if np.ndim(log_x) == 0 else out


def psi(h: SlowVaryFn, x):
    """psi(x) = sqrt(x h(x)); vectorized, with psi(0) = 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("psi is defined for x >= 0")
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(arr > 0, np.exp(log_psi(h, np.log(np.maximum(arr, 1e-300)))), 0.0)
    return float(out) if np.ndim(x) == 0 else out


def psi_inv_log(h: SlowVaryFn, log_y):
    """log of psi^{-1}(y) given log y, by bisection on the log scale.

    The one psi-inverse solver: `psi_inv` and the lambda grid both go
    through it.  Accepts a scalar (returns a float) or an
    array (returns an array of the same shape).  psi is strictly
    increasing with d(log psi)/d(log x) >= 1/2, so each root is unique.
    Every element runs the same search on its own: the bracket [-1, 1]
    doubles outward on the log scale, then halves until its own width is
    at most LOG_BISECT_TOL or its midpoint no longer moves (equals an
    end, as for roots past 2^13, where the float spacing exceeds the
    tolerance), so an element's result does not depend on the other
    elements.  log y = -inf (y = 0) and +inf map to themselves; NaN
    raises ValueError.
    """
    w = np.asarray(log_y, dtype=float)
    if np.isnan(w).any():
        raise ValueError("psi_inv is undefined at NaN")
    out = w.copy()  # keeps the infinite elements
    fin = np.isfinite(w)
    wf = w[fin]

    def phi(u: np.ndarray) -> np.ndarray:
        return 0.5 * (u + h.log_value_from_log(u))

    hi = np.ones_like(wf)
    while (need := phi(hi) < wf).any():
        hi[need] *= 2.0
        if hi.max() > 1e9:
            raise ArithmeticError("psi_inv bracket blew up; malformed normalizer")
    lo = -np.ones_like(wf)
    while (need := phi(lo) > wf).any():
        lo[need] *= 2.0
        if lo.min() < -1e9:
            raise ArithmeticError("psi_inv bracket blew up; malformed normalizer")
    active = np.nonzero(hi - lo > LOG_BISECT_TOL)[0]
    while active.size:
        left, right = lo[active], hi[active]
        mid = 0.5 * (left + right)
        moves = (left < mid) & (mid < right)
        below = phi(mid) < wf[active]
        left, right = np.where(below, mid, left), np.where(below, right, mid)
        lo[active], hi[active] = left, right
        active = active[(right - left > LOG_BISECT_TOL) & moves]
    out[fin] = 0.5 * (lo + hi)
    return float(out) if out.ndim == 0 else out


def psi_inv(h: SlowVaryFn, y):
    """psi^{-1}(y) for y >= 0, scalar or array; psi^{-1}(0) = 0.

    Results past the float ceiling overflow to inf, and inf maps to inf.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0):
        raise ValueError("psi_inv is defined for y >= 0")
    with np.errstate(divide="ignore"):
        u = psi_inv_log(h, np.log(arr))
    with np.errstate(over="ignore"):
        out = np.exp(u)
    return float(out) if np.ndim(y) == 0 else out


# ---------------------------------------------------------------------------
# Normalizing sequences c_n.
# ---------------------------------------------------------------------------


class NormalizerSeq:
    """a_n = psi(n) for a slowly varying h; usable wherever a c_n sequence is."""

    def __init__(self, h: SlowVaryFn):
        self.h = h

    def values(self, n) -> np.ndarray:
        return psi(self.h, np.asarray(n, dtype=float))

    def describe(self) -> str:
        return f"psi:{self.h.to_text()}"


class PowerSeq:
    """c_n = coeff * n^exponent, e.g. sqrt(n) or n itself."""

    def __init__(self, exponent: float, coeff: float = 1.0):
        if exponent <= 0 or coeff <= 0:
            raise ValueError("PowerSeq needs positive exponent and coefficient")
        self.exponent = float(exponent)
        self.coeff = float(coeff)

    def values(self, n) -> np.ndarray:
        arr = np.asarray(n, dtype=float)
        out = self.coeff * arr**self.exponent
        return float(out) if np.ndim(n) == 0 else out

    def describe(self) -> str:
        if self.coeff == 1.0:
            return f"pow:{_fmt(self.exponent)}"
        return f"pow:{_fmt(self.exponent)},{_fmt(self.coeff)}"


def parse_cseq(text: str):
    """Parse a normalizing-sequence spec: "psi:<h-expr>" or "pow:EXP[,COEFF]"."""
    squeezed = text.strip()
    if squeezed.startswith("psi:"):
        return NormalizerSeq(parse_slow_vary(squeezed[4:]))
    if squeezed.startswith("pow:"):
        bits = squeezed[4:].split(",")
        if len(bits) not in (1, 2):
            raise ValueError(f"cannot parse sequence spec {text!r}")
        exponent = float(bits[0])
        coeff = float(bits[1]) if len(bits) == 2 else 1.0
        return PowerSeq(exponent, coeff)
    raise ValueError(f"cannot parse sequence spec {text!r} (want psi:... or pow:...)")


# ---------------------------------------------------------------------------
# Membership in the nested classes H_q.
# ---------------------------------------------------------------------------

#: The fixed grids of the membership check: the tau values tested, and the
#: t grid (read-only, built once) on which each ratio is read.
DEFAULT_TAU_GRID = tuple(round(0.1 * k, 2) for k in range(1, 10))
DEFAULT_T_GRID = np.geomspace(1e2, 1e12, 61)
DEFAULT_T_GRID.flags.writeable = False

MEMBER = "MEMBER"
NON_MEMBER = "NON_MEMBER"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class TauDiagnostic:
    tau: float
    ratios: np.ndarray
    verdict: str
    reason: str
    decay_exponent: float | None


@dataclass(frozen=True)
class HqReport:
    q: float
    verdict: str
    per_tau: tuple[TauDiagnostic, ...]
    tol: float
    heuristic: bool = True

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "verdict": self.verdict,
            "tol": self.tol,
            "heuristic": self.heuristic,
            "per_tau": [
                {
                    "tau": d.tau,
                    "verdict": d.verdict,
                    "reason": d.reason,
                    "decay_exponent": d.decay_exponent,
                    "final_ratio": _json_real(d.ratios[-1]),
                }
                for d in self.per_tau
            ],
        }


def _classify_tau(h: SlowVaryFn, tau: float, tol: float) -> TauDiagnostic:
    u = np.log(DEFAULT_T_GRID)  # log t; grids stay well inside float range
    lt = np.maximum(u, 1.0)
    # log(t * f_tau(t)) = log t + (Lt)^tau
    shifted = u + lt**tau
    delta = h.log_value_from_log(shifted) - h.log_value_from_log(u)  # log ratio >= 0
    with np.errstate(over="ignore"):  # a ratio past the float ceiling is inf
        ratios = np.exp(delta)
    band = math.log1p(tol)
    tail = delta[-max(4, len(delta) // 4) :]
    if float(np.max(np.abs(tail))) <= band:
        return TauDiagnostic(tau, ratios, MEMBER, "within band", None)
    # Fit the decay exponent of the log-ratio over the second half of the
    # grid: delta ~ C * (log t)^gamma.  gamma < 0 means the ratio is still
    # drifting toward 1 and the limit is taken as 1; gamma > 0 with the
    # ratio outside the band is monotone drift away from 1.
    half = len(delta) // 2
    mask = delta[half:] > 1e-300
    if mask.sum() < 4:
        return TauDiagnostic(tau, ratios, MEMBER, "ratio collapsed to 1", None)
    xs = np.log(lt[half:][mask])
    ys = np.log(delta[half:][mask])
    gamma = _ols_slope(xs, ys)
    if gamma <= -0.02:
        return TauDiagnostic(tau, ratios, MEMBER, "log-ratio decaying to 0", gamma)
    increasing = bool(np.all(np.diff(delta[half:]) >= -1e-12))
    if gamma >= 0.02 and increasing:
        return TauDiagnostic(tau, ratios, NON_MEMBER, "monotone drift away from 1", gamma)
    return TauDiagnostic(tau, ratios, INCONCLUSIVE, "no clear trend", gamma)


def _tau_active(tau: float, q: float) -> bool:
    """Whether the class H_q constrains tau: 0 < tau < 1 - q (with slack)."""
    return 0 < tau < 1 - q - 1e-12


def hq_classify(h: SlowVaryFn, q: float, tol: float = 0.02) -> HqReport:
    """Class-membership check: does h(t f_tau(t))/h(t) -> 1 for all tau < 1-q?

    f_tau(t) = exp((Lt)^tau).  Every tau of `DEFAULT_TAU_GRID` below 1 - q
    is checked on the fixed `DEFAULT_T_GRID`; only the band `tol` around
    1 is the caller's.  The limit criterion is heuristic at any finite
    scale; verdicts carry the fitted decay exponent so a reader can judge
    how solid each one is.  q = 1 is vacuous (no tau qualifies) and
    returns MEMBER.
    """
    if not (0 <= q <= 1):
        raise ValueError("q must lie in [0, 1]")
    active = [tau for tau in DEFAULT_TAU_GRID if _tau_active(tau, q)]
    diags = tuple(_classify_tau(h, tau, tol) for tau in active)
    if any(d.verdict == NON_MEMBER for d in diags):
        verdict = NON_MEMBER
    elif all(d.verdict == MEMBER for d in diags):
        verdict = MEMBER
    else:
        verdict = INCONCLUSIVE
    return HqReport(q=float(q), verdict=verdict, per_tau=diags, tol=tol)


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    denom = float((xc * xc).sum())
    if denom == 0.0:
        return 0.0
    return float((xc * (y - y.mean())).sum() / denom)


# ---------------------------------------------------------------------------
# Monte Carlo moment of psi^{-1}(||X||).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float
    n_samples: int
    heavy: bool


def psi_inv_moment(
    dist, h: SlowVaryFn, space: SpaceSpec, n_samples: int = 4096, rng=None
) -> MomentEstimate:
    """Estimate E psi^{-1}(||X||) by plain Monte Carlo.

    The HEAVY flag fires when doubling the sample (half vs. full estimate)
    moves the mean by more than 20%, the usual symptom of an infinite or
    barely finite moment.  `rng` defaults to `substream(0, H_SAMPLE)`.
    """
    if n_samples < 16:
        raise ValueError("n_samples too small to say anything")
    gen = rng if rng is not None else substream(0, H_SAMPLE)
    draws = dist.sample(gen, n_samples)
    vals = psi_inv(h, norms(draws, space))
    full = float(vals.mean())
    half = float(vals[: n_samples // 2].mean())
    heavy = abs(full - half) > 0.2 * max(abs(full), 1e-300)
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return MomentEstimate(mean=full, stderr=stderr, n_samples=n_samples, heavy=heavy)


# ---------------------------------------------------------------------------
# Regularity checks for normalizing sequences c_n.
# ---------------------------------------------------------------------------

#: Minimum growth of c_n/sqrt(n) over the top two decades for the
#: divergence half of the root-growth condition to count as satisfied.
RE_GROWTH_MIN = 1.02


@dataclass(frozen=True)
class NormalizerCheck:
    re_pass: bool
    re_monotone: bool
    re_growth_ratio: float
    re_witness: int | None
    reg_results: dict
    n_max: int


def check_normalizing_conditions(c_seq, n_max: int = 10**6) -> NormalizerCheck:
    """Numerical check of the root-growth and ratio-regularity conditions.

    Root growth: c_n / sqrt(n) must be nondecreasing and tend to infinity;
    the divergence half is judged by growth over the top two decades of
    the range, which a constant ratio (c_n = sqrt(n)) fails.

    Ratio regularity: for eps in {0.1, 0.01} there must be a cutoff m_eps
    with c_n/c_m <= (1+eps)(n/m) for all sampled m_eps <= m < n.
    """
    if n_max < 100:
        raise ValueError("n_max too small for a meaningful check")
    n = np.arange(1, n_max + 1, dtype=float)
    c = np.asarray(c_seq.values(n), dtype=float)
    if c.shape != n.shape or np.any(~np.isfinite(c)) or np.any(c <= 0):
        raise ValueError("sequence must be positive and finite on 1..n_max")
    ratio = c / np.sqrt(n)
    diffs = np.diff(ratio)
    bad = np.where(diffs < -1e-12 * np.abs(ratio[:-1]))[0]
    monotone = bad.size == 0
    witness = int(bad[0] + 2) if bad.size else None
    growth = float(ratio[-1] / ratio[max(0, n_max // 100 - 1)])
    re_pass = monotone and growth >= RE_GROWTH_MIN

    grid = np.unique(np.geomspace(8, n_max, 40).astype(int))
    cg = np.asarray(c_seq.values(grid.astype(float)), dtype=float)
    reg_results = {}
    for eps in (0.1, 0.01):
        ok_from = None
        witnesses = []
        # the last grid point has no successors to test against, so it
        # cannot serve as evidence of a valid cutoff
        for i in range(len(grid) - 1):
            violated = False
            for j in range(i + 1, len(grid)):
                lhs = cg[j] / cg[i]
                rhs = (1 + eps) * (grid[j] / grid[i])
                if lhs > rhs * (1 + 1e-12):
                    violated = True
                    witnesses.append((int(grid[i]), int(grid[j]), float(lhs), float(rhs)))
                    break
            if not violated:
                ok_from = int(grid[i])
                break
        reg_results[eps] = {
            "pass": ok_from is not None,
            "m_eps": ok_from,
            "witnesses": witnesses,
        }
    return NormalizerCheck(
        re_pass=re_pass,
        re_monotone=monotone,
        re_growth_ratio=growth,
        re_witness=witness,
        reg_results=reg_results,
        n_max=int(n_max),
    )
