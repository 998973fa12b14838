"""Finite-dimensional normed-space primitives.

Spaces are R^d under an l^p norm with p in {1, 2, inf}.  The quantity
everything else consumes is the truncated weak second moment

    tsm(t) = sup_{f in dual unit ball} E f(X)^2 1{||X|| <= t},

i.e. the supremum of a quadratic form over the dual unit ball.  For the
three supported norms the supremum is exactly computable:

    p = 2:   dual ball is the l^2 ball, supremum = largest eigenvalue;
    p = inf: dual ball is the l^1 ball, extreme points +-e_i, so the
             supremum is the largest diagonal entry;
    p = 1:   dual ball is the l^inf ball (hypercube), maximised over
             the 2^d sign vertices (guarded to d <= 20).

`norms` is the one norm kernel: `norm` returns its row, and every
Monte Carlo reducer takes its norms through it.  An l2 norm squares with
einsum, and a row whose squares overflow is taken again scaled by its
largest entry, so a huge finite vector keeps a finite norm.  A row's
norm does not depend on the rows batched with it, so no caller picks a
kernel for the bits of another.

`_sym_psd` is the one covariance check, here and in
`distributions.Gaussian`: it refuses a non-finite entry, an asymmetric
or an indefinite matrix, and returns the symmetrised copy and its
eigenvalues.

`dual_ball_sup` also takes a (k, d, d) stack and returns k suprema, each
bit for bit the one-matrix result: every matrix is still checked on its
own, and one batched eigendecomposition serves the stack.

The two H sources that rest on a law live here: `DistTSM` (analytic),
whose `matrices` are a law's closed-form truncated covariances, and
`EmpiricalTSM`, whose `matrices` are prefix sums of a frozen sample
sorted by norm.  Both evaluate a whole grid in one `values(ts)` call
through one pipeline, `_on_grid`: the matrices on the grid as given,
one stacked `dual_ball_sup` over the bitwise-distinct matrices,
scattered back onto the grid.  `trunc_cov_empirical` is a sample's
`matrices` at one t.  `truncated_second_moment` reads one point through
them; `constants.parse_tsm` picks between them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Eigenvalue slack accepted when validating positive semidefiniteness.
PSD_TOL = 1e-10

#: Largest dimension for which the 2^d vertex enumeration (p = 1) is allowed.
VERTEX_ENUM_LIMIT = 20

_VALID_P = (1.0, 2.0, math.inf)


@dataclass(frozen=True)
class SpaceSpec:
    """Ambient space: dimension and the exponent of the l^p norm."""

    dim: int
    norm_p: float

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "norm_p", float(self.norm_p))
        if self.norm_p not in _VALID_P:
            raise ValueError(f"norm_p must be 1, 2 or inf, got {self.norm_p!r}")


def norm(v: np.ndarray, space: SpaceSpec) -> float:
    """l^p norm of a single vector in the given space: its row of `norms`."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (space.dim,):
        raise ValueError(f"vector shape {arr.shape} does not match dim {space.dim}")
    return float(norms(arr[None], space)[0])


def norms(rows: np.ndarray, space: SpaceSpec) -> np.ndarray:
    """Row-wise l^p norms of an (N, dim) array.

    Each row's norm has the same bits whatever other rows come with it,
    so a norm does not depend on how its vectors were batched.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != space.dim:
        raise ValueError(f"expected (N, {space.dim}) array, got shape {arr.shape}")
    p = space.norm_p
    if p == 2.0:
        return _unsquared(arr)
    if p == 1.0:
        with np.errstate(over="ignore"):  # as in `_unsquared`
            return np.abs(arr).sum(axis=1)
    # column by column: exact, and much cheaper than a reduction over a short
    # axis; |x| is taken one column at a time, so no full |x| copy is built
    out = np.abs(arr[:, 0])
    col = np.empty_like(out)
    for j in range(1, arr.shape[1]):
        np.maximum(out, np.abs(arr[:, j], out=col), out=out)
    return out


def _unsquared(arr: np.ndarray) -> np.ndarray:
    """The l2 norms of the rows of `arr`, where a row whose squares
    overflowed is taken again scaled by its largest |entry|: s * ||row / s||,
    whose squares cannot overflow.  Every finite norm keeps its bits, and
    a result with no inf costs one isfinite more."""
    with np.errstate(over="ignore"):  # a norm past the float range stays inf
        out = np.einsum("ij,ij->i", arr, arr)
        np.sqrt(out, out=out)  # in place: one array, not two
        if np.isfinite(out).all():
            return out
        redo = np.isinf(out) & np.isfinite(arr).all(axis=1)
        big = np.abs(arr[redo]).max(axis=1, initial=0.0)
        out[redo] = big * _unsquared(arr[redo] / big[:, None])
    return out


def _square(matrix: np.ndarray, what: str) -> np.ndarray:
    """`matrix` as floats, checked to be one square matrix or a (k, d, d) stack."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} must be a square matrix or a stack of them, got shape {m.shape}")
    return m


def _sym_psd(matrix: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The one covariance check: one square matrix or a (k, d, d) stack,
    refused unless every entry is finite and each matrix is symmetric and
    positive semidefinite; returns the symmetrised copy and its eigenvalues.

    Halves are summed, so an entry near the float max cannot overflow, and
    an entry equal to its transpose keeps its bits.
    """
    m = _square(matrix, what)
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has an entry that is not finite")
    half = 0.5 * m
    half_t = np.swapaxes(half, -1, -2)
    scale = np.fmax(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(half - half_t).max(axis=(-2, -1), initial=0.0) > 0.5e-9 * scale):
        raise ValueError(f"{what} is not symmetric")
    sym = np.where(m == np.swapaxes(m, -1, -2), m, half + half_t)
    eig = np.linalg.eigvalsh(sym)
    if eig.shape[-1]:
        low = np.atleast_1d(eig[..., 0])
        bad = low < -PSD_TOL * np.fmax(1.0, np.atleast_1d(eig[..., -1]))
        if bad.any():
            raise ValueError(f"{what} is not positive semidefinite (min eigenvalue {low[bad][0]:.3e})")
    return sym, eig


@dataclass(frozen=True, eq=False)
class TruncatedCov:
    """Second-moment matrix of samples kept at truncation level `threshold`.

    Not centered: entry (i, j) is the average of x_i x_j over samples with
    ||x|| <= threshold (zero rows excluded count toward the average).
    """

    matrix: np.ndarray
    threshold: float
    sample_count: int = 0

    def __post_init__(self) -> None:
        if np.ndim(self.matrix) != 2:
            raise ValueError(f"truncated covariance must be one matrix, got shape {np.shape(self.matrix)}")
        object.__setattr__(self, "matrix", _sym_psd(self.matrix, "truncated covariance")[0])
        if not (self.threshold >= 0):
            raise ValueError("threshold must be nonnegative")
        if self.sample_count < 0:
            raise ValueError("sample_count must be nonnegative")


def trunc_cov_empirical(samples: np.ndarray, t: float, space: SpaceSpec) -> TruncatedCov:
    """(1/N) sum x x^T 1{||x|| <= t}: `EmpiricalTSM.matrices` at one t."""
    arr = np.asarray(samples, dtype=float)
    tsm = EmpiricalTSM(arr[None, :] if arr.ndim == 1 else arr, space)
    return TruncatedCov(matrix=tsm.matrices(t), threshold=float(t), sample_count=tsm.n_samples)


def dual_ball_sup(cov: TruncatedCov | np.ndarray, space: SpaceSpec):
    """sup of the quadratic form f^T M f over the dual unit ball of the space.

    `cov` is one matrix, as a `TruncatedCov` or an array, or a (k, d, d)
    stack of matrices.  One matrix gives a float; a stack gives a
    length-k array whose entries equal the one-matrix results bit for
    bit.  Every matrix of a stack is checked on its own, and one batched
    eigendecomposition serves them all.  A matrix with an infinite
    diagonal entry gives inf, unchecked; any other non-finite entry is
    refused.
    """
    m = _square(cov.matrix if isinstance(cov, TruncatedCov) else cov, "matrix")
    if m.shape[-1] != space.dim:
        raise ValueError(f"matrix dim {m.shape[-1]} does not match space dim {space.dim}")
    # an infinite variance makes the supremum inf (f = e_j is in every dual
    # ball); such a matrix skips the check below, which refuses a non-finite entry
    infinite = (np.diagonal(m, axis1=-2, axis2=-1) == math.inf).any(axis=-1)
    if infinite.any():
        if m.ndim == 2:
            return math.inf
        sup = np.full(len(m), math.inf)
        sup[~infinite] = dual_ball_sup(m[~infinite], space)
        return sup
    m, eig = _sym_psd(m, "matrix")
    p = space.norm_p
    if p == 2.0:
        sup = eig[..., -1]
    elif p == math.inf:
        sup = np.diagonal(m, axis1=-2, axis2=-1).max(axis=-1)
    elif space.dim > VERTEX_ENUM_LIMIT:
        raise ValueError(
            f"p=1 vertex enumeration limited to dim <= {VERTEX_ENUM_LIMIT}, got {space.dim}"
        )
    else:
        sup = np.array([_sign_vertex_max(mi) for mi in m.reshape(-1, space.dim, space.dim)])
        sup = sup.reshape(m.shape[:-2])
    return float(sup) if m.ndim == 2 else sup


def _sign_vertex_max(sym: np.ndarray) -> float:
    """Maximum of f^T M f over f in {-1, +1}^d, enumerated in chunks.

    The form is invariant under f -> -f, so the first coordinate is pinned
    to +1 and only 2^(d-1) vertices are visited.
    """
    d = sym.shape[0]
    if d == 1:
        return float(sym[0, 0])
    count = 1 << (d - 1)
    best = -math.inf
    bits = np.arange(d - 1, dtype=np.uint64)
    chunk = 1 << 14
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.uint64)
        signs = ((idx[:, None] >> bits[None, :]) & 1).astype(float) * 2.0 - 1.0
        f = np.concatenate([np.ones((idx.size, 1)), signs], axis=1)
        vals = np.einsum("bi,ij,bj->b", f, sym, f)
        best = max(best, float(vals.max()))
    return best


def _at_point(source, t: float) -> float:
    """An H source's value at one t: its `values` on a one-point grid."""
    return float(source.values(np.array([t], dtype=float))[0])


def _on_grid(source, ts) -> np.ndarray:
    """The one H pipeline, an H source's `values`: its `matrices` on the
    1-D grid `ts` as given, one stacked dual-ball supremum over the
    bitwise-distinct matrices, scattered back onto the grid."""
    m = source.matrices(np.asarray(ts, dtype=float))
    rows = np.ascontiguousarray(m, dtype=float).reshape(m.shape[0], math.prod(m.shape[1:]))
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    return dual_ball_sup(m[first], source.space)[which]


class DistTSM:
    """Analytic source: H from a law's closed-form truncated covariance.

    Its `matrices` are one grid `truncated_cov` call.  A law with no
    closed form is refused, never replaced by a sample.
    """

    route = "analytic"

    def __init__(self, dist, space: SpaceSpec):
        if dist.truncated_cov(1.0, space) is None:
            raise ValueError(f"{dist.describe()} has no analytic truncated covariance in this space; "
                             "use parse_tsm('dist', ...) or an EmpiricalTSM on a sample")
        self.dist = dist
        self.space = space

    def matrices(self, ts) -> np.ndarray:
        """The truncated covariance at t, or the (k, d, d) stack at a 1-D grid of t."""
        return self.dist.truncated_cov(ts, self.space)

    values = _on_grid
    __call__ = _at_point


class EmpiricalTSM:
    """Truncated weak second moment from a frozen sample set.

    Samples are sorted by norm once.  Its `matrices` at t are the prefix
    sum of the outer products of the samples with norm <= t, over N: one
    `searchsorted` for a whole grid, and the zero matrix below the
    smallest norm.  All grid points past the largest sample norm share
    one matrix, so one supremum.  Beyond that norm the function is frozen
    at its final value and `extrapolated(ts)` is True there, so series
    probes that run past the observed range see a constant tail rather
    than silent garbage.
    """

    route = "empirical"

    def __init__(self, samples: np.ndarray, space: SpaceSpec):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != space.dim:
            raise ValueError(f"expected (N, {space.dim}) samples, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("need at least one sample")
        self.space = space
        sample_norms = norms(arr, space)
        order = np.argsort(sample_norms, kind="stable")
        self._norms = sample_norms[order]
        self.max_norm = float(self._norms[-1])
        self.n_samples = arr.shape[0]
        # Where N max_norm^2 could pass the float range, the rows are summed
        # over 4^e for the power of two 2^e <= max_norm, which is exact, and
        # `matrices` multiplies 4^e back in; elsewhere e = 0.
        self._exp = 0
        if math.sqrt(np.finfo(float).max / self.n_samples) < self.max_norm < math.inf:
            self._exp = math.frexp(self.max_norm)[1] - 1
        rows = np.ldexp(arr[order], -self._exp)
        # _prefix[k] sums the outer products of the k smallest samples, exactly
        # symmetric; _prefix[0] is the zero matrix.  The sums start from the
        # first product, not from 0 + it, which would turn a -0.0 into +0.0.
        # Both steps write into the stack, so it is the one (N, d, d) array.
        self._prefix = np.zeros((self.n_samples + 1, space.dim, space.dim))
        np.einsum("ni,nj->nij", rows, rows, out=self._prefix[1:])
        np.cumsum(self._prefix[1:], axis=0, out=self._prefix[1:])

    def extrapolated(self, ts):
        """True where t lies past the largest sample norm (elementwise)."""
        return np.asarray(ts, dtype=float) > self.max_norm

    def matrices(self, ts) -> np.ndarray:
        """The truncated covariance at t, or the (k, d, d) stack at a 1-D grid of t."""
        sums = self._prefix[np.searchsorted(self._norms, ts, side="right")]
        with np.errstate(over="ignore"):  # a mean past the float range is inf
            return np.ldexp(sums / self.n_samples, 2 * self._exp)

    values = _on_grid
    __call__ = _at_point


def truncated_second_moment(source, t: float, space: SpaceSpec) -> float:
    """tsm(t) from an H source, a law with a closed form or a sample array.

    `source` may be an H source (anything with `values(ts)`), a law,
    evaluated through `DistTSM` (which refuses a law with no closed form
    in `space`), or an (N, dim) sample array, evaluated through
    `EmpiricalTSM`.
    """
    if not hasattr(source, "values"):
        source = DistTSM(source, space) if hasattr(source, "truncated_cov") else EmpiricalTSM(source, space)
    return _at_point(source, t)
