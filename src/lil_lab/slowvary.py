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

Both hot paths here, `psi_inv_log` and `hq_classify`, are bound by
numpy's per-call overhead on small arrays, so each makes few calls, and
both keep the bits of their plain per-step and per-tau loops by
construction.  The inverse speculates its bisection steps and keeps only
those it has checked are the loop's own (`_speculate`).  The membership
check stacks every tau's shifted grid into one log-h call, whose
elementwise results do not depend on the stacking.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import _ParamError

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


def _json_fields(obj, drop=(), **named) -> dict:
    """The JSON block of the dataclass `obj`: its own fields, those in
    `drop` left out, and the `named` values in place of, or beside, them."""
    return {**{k: v for k, v in vars(obj).items() if k not in drop}, **named}


def _csv_text(header: str, rows, **meta) -> str:
    """A CSV side file: a `# key=value` line of `meta`, the `header`, then
    one comma-joined line per row, a float cell written as `.10g`."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items()), header]
    lines += (",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SlowVaryFn:
    """A slowly varying function in product normal form.

    Fields hold the exponents of the normal form; `exp_terms` is a sorted
    tuple of (coeff, beta) pairs for the exp(coeff * (Lt)^beta) factors.
    Instances are immutable; `*` multiplies two functions (or scales by a
    positive constant) and `**` raises to a positive power, both staying
    inside the class.  Every number of the form must be finite: a NaN or
    inf, given or reached by `*` or `**`, is a ValueError.
    """

    const: float = 1.0
    log_pow: float = 0.0
    loglog_pow: float = 0.0
    exp_terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.const < math.inf:
            raise ValueError(f"constant factor must be positive and finite, got {self.const!r}")
        if not (0 <= self.log_pow < math.inf and 0 <= self.loglog_pow < math.inf):
            raise ValueError("exponents of (Lt)^r and (LLt)^p must be nonnegative and finite")
        merged: dict[float, float] = {}
        for coeff, beta in self.exp_terms:
            total = merged.get(beta, 0.0) + float(coeff)  # inf when a coeff or the sum is
            if not (coeff > 0 and total < math.inf and 0 < beta < 1):
                raise ValueError(f"exp factor needs coeff > 0, 0 < beta < 1 and a finite sum of "
                                 f"coeffs per beta, got ({coeff!r}, {beta!r})")
            merged[beta] = total
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
        if isinstance(other, (int, float)):  # a number is the constant function
            other = SlowVaryFn(const=other)
        if not isinstance(other, SlowVaryFn):
            return NotImplemented
        return SlowVaryFn(
            const=self.const * other.const,
            log_pow=self.log_pow + other.log_pow,
            loglog_pow=self.loglog_pow + other.loglog_pow,
            exp_terms=self.exp_terms + other.exp_terms,
        )

    __rmul__ = __mul__

    def __pow__(self, q: float) -> "SlowVaryFn":
        if not (q > 0 and math.isfinite(q)):
            raise ValueError("only positive finite powers keep the class closed")
        try:
            const = self.const**q
        except OverflowError:  # past the float range: refused as not finite
            const = math.inf
        return SlowVaryFn(
            const=const,
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
        the same value inside an array.  Only the factors present are
        added, as 0 * log(Lt) would be NaN at t = inf; leaving out a zero
        term changes no finite result.
        """
        u = np.maximum(np.asarray(log_t, dtype=float), 1.0)  # Lt
        out = math.log(self.const)
        if self.log_pow:
            out = out + self.log_pow * np.log(u)
        if self.loglog_pow:
            out = out + self.loglog_pow * np.log(np.log(np.maximum(u, math.e)))  # LLt >= 1
        for coeff, beta in self.exp_terms:
            out = out + coeff * np.power(u, beta)
        if np.ndim(log_t) == 0:
            return float(out)
        # a constant h added no array
        return out if np.ndim(out) else np.full(u.shape, out)

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


#: The bracket ends the doubling search may reach: +-2^k below the 1e9 cap.
_POW2 = np.ldexp(1.0, np.arange(30))
_POW2.flags.writeable = False
#: Bisection steps speculated per element, for calls of at most
#: `_SPEC_MAX_SIZE` finite targets.  Speculation pays while numpy's
#: per-call overhead dominates; past a few hundred elements the loop's
#: one-step arrays are cheaper than (steps x elements) ones.
_SPEC_STEPS = 44
_SPEC_MAX_SIZE = 320


def _root_guess(phi, w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A guess at each root of phi(u) = w in [lo, hi]: secant steps from u = 2w.

    phi(u) = (u + log h(u)) / 2 has slope near 1/2, hence the start and
    the first step.  `_speculate` checks every step the guess predicts,
    so the guess only decides how many steps are skipped, never a result.
    """
    u0 = 2.0 * w
    f0 = phi(u0) - w
    u1 = u0 - 2.0 * f0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            f1 = phi(u1) - w
            slope = (f1 - f0) / (u1 - u0)
            u0, u1, f0 = u1, np.where(slope > 0, u1 - f1 / slope, u1), f1
    return np.clip(u1, lo, hi)


def _speculate(phi, w: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The brackets after the bisection steps toward `_root_guess` that
    the loop of `psi_inv_log` would take too, from [lo, hi] = [-2^a, 2^b].

    Halving a bracket of width W toward a point at fraction t of it gives,
    after k steps, lo + W floor(t 2^k) / 2^k plus [0, W / 2^k]; row k of
    (left, right) holds that state.  All `_SPEC_STEPS` steps are checked
    in one pass and one phi call: the midpoint 0.5 * (left + right) moves,
    phi there picks the predicted side, and the next row is the loop's
    update of this one.  An element keeps its steps up to its first
    failed check, or up to the step that narrows it to LOG_BISECT_TOL.
    """
    width = hi - lo
    t = np.clip((_root_guess(phi, w, lo, hi) - lo) / width, 0.0, 1.0)  # a NaN fails every check
    scale = np.ldexp(1.0, np.arange(_SPEC_STEPS + 1))[:, None]
    j = np.floor(t * scale)
    step = width / scale
    left, right = lo + step * j, lo + step * (j + 1.0)
    left[0], right[0] = lo, hi
    old_l, old_r, new_l, new_r = left[:-1], right[:-1], left[1:], right[1:]
    mid = 0.5 * (old_l + old_r)
    up = j[1:] != 2.0 * j[:-1]  # the guess lies above mid
    # step k is the loop's: it is still running, mid moves, phi picks the
    # predicted side, and the next row is [mid, right] above, [left, mid] below
    ok = (old_r - old_l > LOG_BISECT_TOL) & (old_l < mid) & (mid < old_r) & ((phi(mid) < w) == up)
    ok &= (up & (new_l == mid) & (new_r == old_r)) | (~up & (new_l == old_l) & (new_r == mid))
    taken = np.where(ok.all(axis=0), _SPEC_STEPS, ok.argmin(axis=0))  # steps up to the first failed one
    cols = np.arange(w.size)
    return left[taken, cols], right[taken, cols]


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

    The search takes few numpy calls and keeps the bits of the plain
    loop by construction.  The doubling evaluates phi once at every end
    it may reach, +-2^k below the 1e9 cap, and picks each element's
    first end that passes, as the loop would.  Calls of up to
    `_SPEC_MAX_SIZE` targets then speculate the first halvings toward a
    guessed root and keep only the steps that are checked to be the
    loop's own (`_speculate`); the loop resumes from there.  However
    wrong the guess, every state the search passes through is one the
    loop computes, so only the number of phi calls depends on it.
    """
    w = np.asarray(log_y, dtype=float)
    if np.isnan(w).any():
        raise ValueError("psi_inv is undefined at NaN")
    out = w.copy()  # keeps the infinite elements
    fin = np.isfinite(w)
    wf = w[fin]

    def phi(u: np.ndarray) -> np.ndarray:
        return 0.5 * (u + h.log_value_from_log(u))

    # hi = 2^b for the first b with phi(2^b) >= w, lo = -2^a for the first
    # a with phi(-2^a) <= w.  The first b with phi(2^b) >= w is the first
    # with max(phi(1), ..., phi(2^b)) >= w, so a binary search of the
    # running maxima finds it whether or not phi rounds monotonically.
    ends = phi(np.concatenate([_POW2, -_POW2]))
    b = np.searchsorted(np.maximum.accumulate(ends[: _POW2.size]), wf)
    a = np.searchsorted(-np.minimum.accumulate(ends[_POW2.size :]), -wf)
    if (b == _POW2.size).any() or (a == _POW2.size).any():
        raise ArithmeticError("psi_inv bracket blew up; malformed normalizer")
    lo, hi = -_POW2[a], _POW2[b]
    if wf.size <= _SPEC_MAX_SIZE:
        lo, hi = _speculate(phi, wf, lo, hi)
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

    def log_h(self, log_n):
        """log(c_n^2 / n) = log h(n), given log n."""
        return self.h.log_value_from_log(log_n)

    def describe(self) -> str:
        return f"psi:{self.h.to_text()}"


class PowerSeq:
    """c_n = coeff * n^exponent, e.g. sqrt(n) or n itself; both numbers
    must be positive and finite."""

    def __init__(self, exponent: float, coeff: float = 1.0):
        if not (0 < exponent < math.inf and 0 < coeff < math.inf):
            raise ValueError(f"PowerSeq needs a positive finite exponent and coeff, got {exponent!r} and {coeff!r}")
        self.exponent = float(exponent)
        self.coeff = float(coeff)

    def values(self, n) -> np.ndarray:
        with np.errstate(over="ignore"):  # c_n past the float range is inf
            out = self.coeff * np.asarray(n, dtype=float) ** self.exponent
        return float(out) if np.ndim(n) == 0 else out

    def log_h(self, log_n):
        """log(c_n^2 / n) = (2 exponent - 1) log n + 2 log coeff, given log n."""
        return (2.0 * self.exponent - 1.0) * np.asarray(log_n, dtype=float) + 2.0 * math.log(self.coeff)

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
        return _json_fields(self, per_tau=[
            _json_fields(d, ("ratios",), final_ratio=_json_real(d.ratios[-1])) for d in self.per_tau
        ])


def _classify_tau(tau: float, lt: np.ndarray, delta: np.ndarray, ratios: np.ndarray, tol: float) -> TauDiagnostic:
    """The verdict for one tau from its log ratios `delta` on the t grid."""
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
    gamma = _ols_slope(_centred(xs), ys)
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

    All active taus share two log-h calls, at log t and at the stacked
    shifted grids.  The results are bit-identical to one pass per tau:
    each element goes through the same elementwise operations, and each
    tau's shift `lt**tau` is still a power by a scalar (numpy takes a
    scalar power 0.5 through sqrt, which a broadcast power need not match).
    """
    if not (0 <= q <= 1):
        raise _ParamError("q must lie in [0, 1]", "q", q)
    if not tol >= 0:
        raise _ParamError(f"tol must be nonnegative, got {tol:g}", "tol", tol)
    active = [tau for tau in DEFAULT_TAU_GRID if _tau_active(tau, q)]
    u = np.log(DEFAULT_T_GRID)  # log t; grids stay well inside float range
    lt = np.maximum(u, 1.0)
    # log(t * f_tau(t)) = log t + (Lt)^tau, one row per tau
    shifted = u + np.array([lt**tau for tau in active]).reshape(len(active), u.size)
    delta = h.log_value_from_log(shifted) - h.log_value_from_log(u)  # log ratios >= 0
    with np.errstate(over="ignore"):  # a ratio past the float ceiling is inf
        ratios = np.exp(delta)
    diags = tuple(_classify_tau(tau, lt, delta[i], ratios[i], tol) for i, tau in enumerate(active))
    if any(d.verdict == NON_MEMBER for d in diags):
        verdict = NON_MEMBER
    elif all(d.verdict == MEMBER for d in diags):
        verdict = MEMBER
    else:
        verdict = INCONCLUSIVE
    return HqReport(q=float(q), verdict=verdict, per_tau=diags, tol=tol)


def _centred(x: np.ndarray) -> tuple[np.ndarray, float]:
    """The x side of an OLS fit: x minus its mean, and its sum of squares."""
    xc = x - x.mean()
    return xc, float((xc * xc).sum())


def _ols_slope(x_side: tuple[np.ndarray, float], y: np.ndarray) -> float:
    """OLS slope of y on the x given as `_centred(x)`, which a caller that
    fits many y on one x computes once.  `y.sum() / y.size` is the float
    `y.mean()` gives for a float64 vector, without its dispatch."""
    xc, denom = x_side
    if denom == 0.0:
        return 0.0
    return float((xc * (y - y.sum() / y.size)).sum() / denom)


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
    from .rng import H_SAMPLE, substream
    from .spaces import norms

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
# The normalizing conditions of a sequence c_n.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizerCheck:
    """The two conditions of the alpha0 route and the rule that decided them.

    `re_pass` is root growth: c_n / sqrt(n) is nondecreasing
    (`re_monotone`) and tends to infinity.  `ratio_regular` is: for every
    eps > 0, c_n / c_m <= (1 + eps) n / m for all n > m >= some m_eps.
    """

    re_pass: bool
    re_monotone: bool
    ratio_regular: bool
    rule: str


def check_normalizing_conditions(c_seq) -> NormalizerCheck:
    """Root growth and ratio regularity of c_n, by the exact rule of its kind.

    For c_n = C n^e, c_n / sqrt(n) = C n^(e - 1/2) is nondecreasing iff
    e >= 1/2 and unbounded iff e > 1/2, and c_n / c_m = (n / m)^e is at
    most n / m iff e <= 1.  For c_n = psi(n), c_n / sqrt(n) = sqrt(h(n))
    is nondecreasing, since every factor of h is, and unbounded iff h is
    not constant; by the Potter bounds h(n) / h(m) <= (1 + eps)^2 n / m
    for large m, so c_n is ratio-regular.  Any other sequence raises
    ValueError.
    """
    if isinstance(c_seq, PowerSeq):
        e = c_seq.exponent
        return NormalizerCheck(e > 0.5, e >= 0.5, e <= 1.0, "c_n = C n^e: root growth iff e > 1/2, "
                               "c_n / sqrt(n) nondecreasing iff e >= 1/2, ratio-regular iff e <= 1")
    if isinstance(c_seq, NormalizerSeq):
        h = c_seq.h
        return NormalizerCheck(bool(h.log_pow or h.loglog_pow or h.exp_terms), True, True,
                               "c_n = sqrt(n h(n)): c_n / sqrt(n) = sqrt(h(n)) is nondecreasing, "
                               "unbounded iff h is not constant, and ratio-regular (Potter bounds)")
    raise ValueError("normalizing conditions are known for NormalizerSeq and PowerSeq, "
                     f"got {type(c_seq).__name__}")
