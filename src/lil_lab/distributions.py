"""Sampling-capable distribution families for the Monte Carlo engine.

Each family exposes the same small surface:

    dim                       ambient dimension
    sample(rng, n)            (n, dim) array of i.i.d. draws
    norm_bound(space)         a.s. bound on ||X|| (math.inf if unbounded)
    truncated_cov(t, space)   analytic E[X X^T 1{||X|| <= t}], or None;
                              for a 1-D grid of t, the (k, dim, dim) stack
    is_centered               True when E X exists and equals 0
    finite_second_moment      True when E ||X||^2 < inf
    describe()                round-trippable text form

Families without an analytic truncated covariance return None; for such
a law `constants.parse_tsm` takes the empirical H route (an `EmpiricalTSM`
on a sample) and `spaces.DistTSM` refuses it.  The grid form
is one call for a whole grid, bit for bit the stack of the scalar calls;
families whose formula goes through libm scalars (`math.erf`, `math.log`,
float `**`) still evaluate those point by point inside it.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .slowvary import _fmt, _split_top
from .spaces import SpaceSpec, _sym_psd, norm

_SCALAR = SpaceSpec(1, 2.0)


#: Below this u = t / sd, `Gaussian.truncated_cov` takes the series
#: sigma^2 sqrt(2/pi) u^3 (1/3 - u^2/10 + u^4/56) in place of its closed
#: form, which cancels there (it reads 0 at u = 1e-8).  The series'
#: truncation error, about u^6/144 relative, meets the closed form's
#: rounding error near here: either side of the switch is within 1.3e-12
#: of the exact value.
GAUSS_SERIES_U = 0.02


def _grid_form(method):
    """Let a `truncated_cov` written for a 1-D grid of t also take one t.

    A grid gives the (k, dim, dim) stack, a scalar its one matrix; both
    are None when the family has no closed form.
    """

    @functools.wraps(method)
    def truncated_cov(self, t, space: SpaceSpec):
        ts = np.asarray(t, dtype=float)
        out = method(self, ts.reshape(-1), space)
        return out if out is None or ts.ndim else out[0]

    return truncated_cov


class Gaussian:
    """Centered Gaussian with a given covariance.

    `cov` may be a scalar variance, a vector of per-coordinate variances,
    or a full covariance matrix.  It goes through `spaces`' one covariance
    check, which refuses a non-finite entry, an asymmetric or an indefinite
    matrix.
    """

    def __init__(self, cov):
        arr = np.atleast_1d(np.asarray(cov, dtype=float))
        if arr.ndim == 1:
            arr = np.diag(arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("covariance must be scalar, vector, or square matrix")
        sym = _sym_psd(arr, "covariance")[0]
        # Cholesky covers the strictly-PSD case; semidefinite input falls
        # back to an eigen square root.
        try:
            self._root = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:
            w, v = np.linalg.eigh(sym)
            self._root = v * np.sqrt(np.clip(w, 0.0, None))
        # z @ I^T is z bit for bit, so an identity root skips the matmul
        self._unit = bool(np.array_equal(self._root, np.eye(len(sym))))
        self.cov = sym
        self.dim = sym.shape[0]

    is_centered = True
    finite_second_moment = True

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return z if self._unit else z @ self._root.T

    def norm_bound(self, space: SpaceSpec) -> float:
        return math.inf

    @_grid_form
    def truncated_cov(self, ts: np.ndarray, space: SpaceSpec):
        if self.dim != 1:
            return None
        sigma2 = float(self.cov[0, 0])
        if sigma2 == 0.0:
            return np.zeros((ts.size, 1, 1))
        sd, root2, c = math.sqrt(sigma2), math.sqrt(2), math.sqrt(2 / math.pi)

        def h(u: float) -> float:
            if u == math.inf:  # the tail term is inf * 0: the whole variance is inside
                return sigma2
            if 0.0 < u < GAUSS_SERIES_U:  # the closed form cancels here: its series
                # left to right, each partial product is at most sigma2: none overflows
                return sigma2 * u * u * u * c * (1 / 3 - u * u / 10 + u**4 / 56)
            return max(sigma2 * (math.erf(u / root2) - u * c * math.exp(-0.5 * u * u)), 0.0)

        return np.array([h(t / sd) for t in ts.tolist()]).reshape(-1, 1, 1)

    def describe(self) -> str:
        d = np.diag(self.cov)
        # exact, so that no off-diagonal entry is dropped
        if np.array_equal(self.cov, np.diag(d)):
            if np.all(d == d[0]):
                return f"gauss:dim={self.dim},var={_fmt(d[0])}"
            return f"gauss:diag={';'.join(map(_fmt, d))}"
        rows = "/".join(";".join(map(_fmt, row)) for row in self.cov)
        return f"gauss:cov={rows}"


class RademacherProduct:
    """Independent signs times fixed per-coordinate scales.

    Every draw has |X_j| = scales_j exactly, so ||X||_p is the constant
    ||scales||_p and the truncated covariance is a step function of t.
    """

    def __init__(self, scales):
        arr = np.atleast_1d(np.asarray(scales, dtype=float))
        if arr.ndim != 1 or arr.size == 0 or np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("scales must be a nonempty finite nonnegative vector")
        self.scales = arr
        self.dim = arr.size
        self._unit = bool(np.all(arr == 1.0))

    is_centered = True
    finite_second_moment = True

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, dim) signs times scales, sign j of the call being bit 7 of byte j.

        The bytes are those of the call's 32-bit stream words, low byte
        first, with the unused bytes of the last word dropped.  These are
        the draws of `rng.integers(0, 2, size=(n, dim), dtype=np.int8)`,
        whose range-2 Lemire sampler never rejects, so the result equals
        `(that * 2 - 1) * scales` bit for bit (a zero scale gives -0.0 for
        a negative sign) and the generator draws on as after that call.

        The 32-bit words are the low then the high half of each 64-bit
        output, so an even word count with no half-word buffered is read
        straight from `random_raw`; otherwise (an odd count, a buffered
        half, or a generator with no half-word buffer) they come from
        `integers(0, 2**32, dtype=np.uint32)`.
        """
        m = n * self.dim
        k = -(-m // 4)
        bits = rng.bit_generator
        if k % 2 or bits.state.get("has_uint32", 1):
            words = rng.integers(0, 2**32, size=k, dtype=np.uint32).astype("<u4", copy=False)
        else:
            words = bits.random_raw(k // 2).astype("<u8", copy=False)
        # bit 7 inverted, spread over the byte (0 or -1), then made odd: +1 for a bit of 1
        signs = np.invert(words.view(np.int8)[:m])
        signs >>= 7
        signs |= 1
        x = signs.astype(np.float64).reshape(n, self.dim)
        return x if self._unit else np.multiply(x, self.scales, out=x)

    def norm_bound(self, space: SpaceSpec) -> float:
        return norm(self.scales, space)

    @_grid_form
    def truncated_cov(self, ts: np.ndarray, space: SpaceSpec) -> np.ndarray:
        full = ts >= self.norm_bound(space)
        with np.errstate(over="ignore"):  # a square past the float range is inf
            square = np.diag(self.scales * self.scales)
        return np.where(full[:, None, None], square, 0.0)

    def describe(self) -> str:
        if np.all(self.scales == 1.0):
            return f"rademacher:dim={self.dim}"
        return f"rademacher:scales={';'.join(map(_fmt, self.scales))}"


class RadialPareto:
    """Heavy-tailed radial law: X = scale * R * sign * U.

    R = V^{-1/a} for uniform V, so P{R > r} = r^{-a} for r >= 1; U is
    uniform on the unit sphere and an extra independent sign symmetrizes
    the law (relevant for d = 1, harmless otherwise).  The mean exists
    only for tail index a > 1, in which case it is 0 by symmetry.
    """

    def __init__(self, a: float, dim: int = 1, scale: float = 1.0):
        if not (a > 0 and math.isfinite(a)):
            raise ValueError("tail index a must be positive and finite")
        if dim < 1 or scale <= 0:
            raise ValueError("need dim >= 1 and scale > 0")
        self.a = float(a)
        self.dim = int(dim)
        self.scale = float(scale)

    @property
    def is_centered(self) -> bool:
        return self.a > 1

    @property
    def finite_second_moment(self) -> bool:
        return self.a > 2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # a draw past the float range is inf, which the reducers' `finite_sums` refuses
        with np.errstate(over="ignore", divide="ignore"):
            r = rng.random(n) ** (-1.0 / self.a)
            g = rng.standard_normal((n, self.dim))
            u = g / np.linalg.norm(g, axis=1, keepdims=True)
            eps = rng.integers(0, 2, size=n) * 2 - 1
            return self.scale * (r * eps)[:, None] * u

    def norm_bound(self, space: SpaceSpec) -> float:
        return math.inf

    @_grid_form
    def truncated_cov(self, ts: np.ndarray, space: SpaceSpec):
        if space.norm_p != 2.0:
            return None
        coef = []
        for t in ts.tolist():
            r = t / self.scale
            if r < 1.0:
                m2 = 0.0
            elif self.a == 2.0:
                m2 = 2.0 * math.log(r)
            else:
                try:
                    m2 = self.a / (2.0 - self.a) * (r ** (2.0 - self.a) - 1.0)
                except OverflowError:  # only for a < 2, where a / (2 - a) > 0: inf is the float answer
                    m2 = math.inf
            # scale * scale is inf past the float range and 0 below it, so an
            # infinite m2 is an infinite coefficient whatever the scale; H stays 0 where m2 is
            coef.append(math.inf if m2 == math.inf else self.scale * self.scale * m2 / self.dim if m2 else 0.0)
        # the diagonals written into zeros: inf * np.eye would put NaN off the diagonal
        cov = np.zeros((len(coef), self.dim, self.dim))
        diag = np.arange(self.dim)
        cov[:, diag, diag] = np.array(coef)[:, None]
        return cov

    def describe(self) -> str:
        return f"pareto:a={_fmt(self.a)},dim={self.dim},scale={_fmt(self.scale)}"


class PointMass:
    """Deterministic X = v.  Mostly a degenerate test fixture."""

    def __init__(self, vector):
        self.vector = np.atleast_1d(np.asarray(vector, dtype=float))
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("point must be a finite vector")
        self.dim = self.vector.size

    finite_second_moment = True

    @property
    def is_centered(self) -> bool:
        return bool(np.all(self.vector == 0.0))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.tile(self.vector, (n, 1))

    def norm_bound(self, space: SpaceSpec) -> float:
        return norm(self.vector, space)

    @_grid_form
    def truncated_cov(self, ts: np.ndarray, space: SpaceSpec) -> np.ndarray:
        inside = norm(self.vector, space) <= ts
        with np.errstate(over="ignore"):  # a product past the float range is inf
            outer = np.outer(self.vector, self.vector)
        return np.where(inside[:, None, None], outer, 0.0)

    def describe(self) -> str:
        return f"point:v={';'.join(map(_fmt, self.vector))}"


class ScalarEmbedded:
    """A one-dimensional law placed on one axis of R^d, zeros elsewhere."""

    def __init__(self, inner, axis: int, dim: int):
        if getattr(inner, "dim", None) != 1:
            raise ValueError("inner law must be one-dimensional")
        if not (0 <= axis < dim):
            raise ValueError("axis out of range")
        self.inner = inner
        self.axis = int(axis)
        self.dim = int(dim)

    @property
    def is_centered(self) -> bool:
        return self.inner.is_centered

    @property
    def finite_second_moment(self) -> bool:
        return self.inner.finite_second_moment

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.zeros((n, self.dim))
        out[:, self.axis] = self.inner.sample(rng, n)[:, 0]
        return out

    def norm_bound(self, space: SpaceSpec) -> float:
        # every l^p norm of (0,..,x,..,0) is |x|
        return self.inner.norm_bound(_SCALAR)

    @_grid_form
    def truncated_cov(self, ts: np.ndarray, space: SpaceSpec):
        m = self.inner.truncated_cov(ts, _SCALAR)
        out = np.zeros((ts.size, self.dim, self.dim))
        out[:, self.axis, self.axis] = m[:, 0, 0]
        return out

    def describe(self) -> str:
        return f"embed:dim={self.dim},axis={self.axis},inner=({self.inner.describe()})"


# ---------------------------------------------------------------------------
# Text form: "family:key=value,key=value".  Vector values use ';' between
# entries; a nested law is wrapped in parentheses.
# ---------------------------------------------------------------------------


def _split_pairs(body: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for chunk in _split_top(body, ","):
        if not chunk:
            continue
        key, sep, val = chunk.partition("=")
        if not sep or not key:
            raise ValueError(f"expected key=value, got {chunk!r}")
        if key in pairs:
            raise ValueError(f"duplicate key {key!r}")
        pairs[key] = val
    return pairs


def _vec(val: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in val.split(";")])
    except ValueError:
        raise ValueError(f"cannot parse vector {val!r}") from None


def parse_dist(text: str):
    """Parse a distribution spec such as "gauss:dim=2,var=1".

    Families: gauss (dim/var, diag, or cov rows split by '/'),
    rademacher (dim or scales), pareto (a, dim, scale), point (v),
    embed (dim, axis, inner=(...)).
    """
    squeezed = text.strip().replace(" ", "")
    name, sep, body = squeezed.partition(":")
    if not sep:
        raise ValueError(f"distribution spec needs 'family:args', got {text!r}")
    pairs = _split_pairs(body)

    def take(key, default=None):
        return pairs.pop(key, default)

    try:
        if name == "gauss":
            if "cov" in pairs:
                rows = [_vec(r) for r in take("cov").split("/")]
                made = Gaussian(np.vstack(rows))
            elif "diag" in pairs:
                made = Gaussian(_vec(take("diag")))
            else:
                dim = int(take("dim", "1"))
                var = float(take("var", "1"))
                made = Gaussian(np.full(dim, var))
        elif name == "rademacher":
            if "scales" in pairs:
                made = RademacherProduct(_vec(take("scales")))
            else:
                made = RademacherProduct(np.ones(int(take("dim", "1"))))
        elif name == "pareto":
            made = RadialPareto(
                a=float(take("a", "2.5")), dim=int(take("dim", "1")), scale=float(take("scale", "1"))
            )
        elif name == "point":
            made = PointMass(_vec(take("v", "0")))
        elif name == "embed":
            inner_text = take("inner")
            if not inner_text or not (inner_text.startswith("(") and inner_text.endswith(")")):
                raise ValueError("embed needs inner=(<dist spec>)")
            made = ScalarEmbedded(
                parse_dist(inner_text[1:-1]), axis=int(take("axis", "0")), dim=int(take("dim"))
            )
        else:
            raise ValueError(f"unknown distribution family {name!r}")
    except (TypeError, KeyError) as exc:
        raise ValueError(f"bad distribution spec {text!r}: {exc}") from None
    if pairs:
        raise ValueError(f"unknown keys {sorted(pairs)} for family {name!r}")
    return made
