"""Monte Carlo paths of normalized partial sums, and the one streaming
kernel that every Monte Carlo estimate in the package runs on.

`stream_trials` walks a chunk of trials in tiles of trials x steps and
hands each tile, as one (trials, steps, dim) array of draws, to a
reducer.  Every reducer lives here: checkpoint norms and the truncated
twin, which `_checkpoint_ratios` divides by c_n for the path estimators,
and the pilot moment sums and the final norm with the running maximum,
which `bounds.mc_verify` runs; `fold`, `finite_sums` and `path_sums`
are used nowhere else.  A tile may be part of a path, so every reducer
carries its per-trial state from one tile of a path to the next.  Every
reducer that reads partial sums continues them through `path_sums`,
which folds the steps on from the carried sum with `fold`, the one
running-sum rule, and takes their norms with `spaces.norms`; the twin
is a `CheckpointNorms` that sums only the draws it drops, and the final
norm is the norm of the carried S_n.  So each S_k is the sequential left
fold of the draws, and every checkpoint norm, final norm and maximum has
the bits of an uncut path whatever BLOCK is.
Only the pilot, which needs S_n alone, sums each tile on its own, so its
sums of a path cut into blocks differ from the uncut path's in the last
bits.

Random streams are version 3 (`lil-lab-stream-v3`, SFC64 seeded from a
SHA-256 hash; see `rng`): the unit of a stream is a fixed group of
consecutive trials, and `rng.substream(seed, purpose, g)` makes group
g's stream.  A path of at most BLOCK steps belongs to a group of G(n)
trials, G(n) being the largest power of two <= max(1, TILE // n), capped
at CHUNK; every longer path, whichever estimator asks for it,
has a group of one.  `stream_trials` has one loop for both: block by
block of at most BLOCK steps, each group draws all its trials' steps of
the block in one sample call, so a short path's group is one tile and a
long path streams with O(d) carried state, so N in the millions is
fine.  G depends only on the path length, never on the worker count,
the chunking or the number of trials, and a group that is cut short by
the last trial or a chunk edge still draws in full, so a trial's draws
are the same whatever else runs.

`map_trials` cuts the trials into chunks whose size depends only on the
path length (CHUNK trials, or about LONG_CHUNK increments) and runs them
in `workers` stripes: the caller runs one, and threads (block-streamed
paths) or forked children (grouped ones) run the others (see
`map_trials` for why); the chunks of several passes over the same trials
share one submission, hence one set of stripes.
Float accumulations across trials stay left folds in a fixed order
within a chunk, and chunk results are folded in chunk order, so results
are bit-identical whatever the worker count, the executor, or the order
in which chunks execute.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import _ParamError
from . import rng as _rng
from ._pool import map_chunks
from .slowvary import NormalizerSeq, SlowVaryFn, _csv_text
from .spaces import SpaceSpec, norms

#: Steps generated per streaming block.
BLOCK = 65536

#: Most increments in one stream group, which is one sample call (see group_size).
TILE = 16384

#: Trials per chunk of paths drawn in one sample call (see map_trials).
CHUNK = 1024

#: Increments per chunk of block-streamed trials (see map_trials).
LONG_CHUNK = CHUNK * TILE

#: Steps per `c_seq.values` call when the truncated twin builds a block's levels.
LEVEL_SLICE = 8192


def stream_trials(dist, n: int, seed: int, purpose: int, lo: int, hi: int, reducer):
    """Feed trials [lo, hi) of n steps each through `reducer`; return its result.

    Trials come in stream groups of G trials, G = `group_size(n)` when
    one sample call of BLOCK steps covers the path and 1 otherwise;
    BLOCK is read at call time.  Group g draws from `rng.substream(seed,
    purpose, g)`, made once per chunk.  The path runs in blocks of at
    most BLOCK steps: in each block, every group of the chunk in turn
    makes one sample call of G * m draws, the (G, m, dim) tile of trials
    gG, ..., gG + G - 1 at the block's m steps, and hands over its
    trials in [lo, hi); a group that reaches past either end of [lo, hi)
    is drawn whole.  So a path of at most BLOCK steps is one tile per
    group, and a longer path gives every trial of the chunk its block,
    in trial order, before any trial gets its next.

    A reducer has `start(trials, dim)`, which resets its state,
    `tile(x, k0, s0)` for the draws of chunk trials k0, k0 + 1, ... at
    steps s0 + 1, ..., and `result()`.  A tile may be part of a path, so
    a reducer carries each trial's state from one tile to the next.
    Nothing reads a tile after its `tile` call, so a reducer may
    overwrite it, e.g. with its partial sums.  The chunk runs on a
    shallow copy of `reducer`, so chunks running at once on threads share
    no state and the reducer passed in is left as it was.
    """
    size = group_size(n) if n <= BLOCK else 1
    groups = range(lo // size, -(-hi // size))
    gens = [_rng.substream(seed, purpose, g) for g in groups]
    reducer = copy.copy(reducer)
    reducer.start(hi - lo, dist.dim)
    for s0 in range(0, n, BLOCK):
        m = min(BLOCK, n - s0)
        for g, gen in zip(groups, gens):
            t0, t1 = max(lo, g * size), min(hi, (g + 1) * size)
            reducer.tile(dist.sample(gen, size * m).reshape(size, m, dist.dim)[t0 - g * size : t1 - g * size],
                         t0 - lo, s0)
    return reducer.result()


def group_size(n: int) -> int:
    """Trials per stream group for paths of n steps drawn in one sample call.

    The largest power of two <= max(1, TILE // n), capped at CHUNK; being
    a power of two no larger than CHUNK, it divides CHUNK, so no chunk
    boundary splits a group.
    """
    return min(CHUNK, 1 << (max(1, TILE // n).bit_length() - 1))


def map_trials(dist, n: int, seed: int, trials: int, passes, workers: int) -> list[list]:
    """`stream_trials` over every chunk of `trials` for each (purpose, reducer)
    of `passes`: one list of chunk results per pass.

    `map_chunks` runs the chunks in `workers` stripes, one in the caller
    and the others in `workers` - 1 forked children or threads.  Paths
    drawn in one sample call (n <= BLOCK) come in chunks of CHUNK trials,
    whose stripes run in forked children.  Block-streamed paths come in
    chunks of max(1, LONG_CHUNK // n) trials, whose stripes run on
    threads, which share this process's memory where a forked process
    would copy about 30 MB of it; numpy's sampling, cumsum and matmul on
    whole blocks release the GIL.  Grouped paths stay in processes, where
    the many small numpy calls of each group do not contend for the GIL.
    On threads, the 20,480 x 200-step `fn-verify` run (two passes,
    2 vCPUs) sampled 2.1e7-2.2e7 increments/s against 3.0e7-3.3e7 on
    processes, for a peak RSS of 44 MB against 74 MB and the same results.
    The chunks of all passes go to `map_chunks` in one call, so one set of
    stripes serves them: the caller and the same `workers` - 1 children
    or threads; no pass may read another's results.  Neither the chunks
    nor the draws depend on `workers`.
    """
    if n <= BLOCK:
        size, executor = CHUNK, "process"
    else:
        size, executor = max(1, LONG_CHUNK // n), "thread"
    ranges = [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    parts = map_chunks(
        stream_trials,
        [(dist, n, seed, purpose, lo, hi, reducer) for purpose, reducer in passes for lo, hi in ranges],
        workers,
        executor,
    )
    return [parts[i : i + len(ranges)] for i in range(0, len(parts), len(ranges))]


def finite_sums(sums: np.ndarray, step: int) -> np.ndarray:
    """`sums`, a reducer's carried partial sums after `step`, checked finite.

    Every reducer that sums draws calls this once per tile, before it
    reads anything else off the sums.  An overflowed sum is inf or NaN
    from then on, so the carry alone shows an overflow anywhere in the
    tile; the reducer sums under `np.errstate`, so the overflow raises
    this ArithmeticError instead of a RuntimeWarning.
    """
    if not np.isfinite(sums).all():
        raise ArithmeticError(f"partial sum overflowed near step {step}")
    return sums


def fold(rows: np.ndarray, carry) -> np.ndarray:
    """`rows`, overwritten by their running sums from `carry` on.

    The one running-sum rule of the Monte Carlo reducers: `carry` goes
    into rows[0], then each row is added to the sum before it, strictly
    left to right along axis 0, so a sum has the same bits however its
    rows are cut into runs.  It runs under `np.errstate`: an overflow
    leaves inf or NaN, which the caller checks, and no RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows[0] += carry
        return np.add.accumulate(rows, axis=0, out=rows)


def path_sums(x: np.ndarray, carry: np.ndarray, step: int) -> np.ndarray:
    """S_k for a tile `x` of draws, the sums overwriting the draws.

    Every reducer that reads partial sums continues its paths here, so
    S_k has one rule: `fold` along the steps from each trial's carried
    sum `carry`.  S_k is then the sequential left fold of the draws, the
    same bits however the path is cut into tiles.  The new carry, S at
    `step`, is checked with `finite_sums` and stored into `carry`, a view
    of the reducer's own rows.
    """
    fold(x.swapaxes(0, 1), carry)
    carry[:] = finite_sums(x[:, -1], step)
    return x


class CheckpointNorms:
    """Reducer: ||S_n|| at sorted checkpoints, one row per trial, as the
    first item of its result (see `_checkpoint_ratios`)."""

    def __init__(self, space: SpaceSpec, points):
        self.space = space
        self.points = np.asarray(points, dtype=np.int64)

    def start(self, trials: int, dim: int) -> None:
        self.carry = np.zeros((trials, dim))
        self.out = np.empty((trials, len(self.points)))

    def tile(self, x: np.ndarray, k0: int, s0: int) -> None:
        b, m, d = x.shape
        sums = path_sums(x, self.carry[k0 : k0 + b], s0 + m)
        j0, j1 = np.searchsorted(self.points, (s0, s0 + m), side="right")
        at = sums[:, self.points[j0:j1] - s0 - 1]
        self.out[k0 : k0 + b, j0:j1] = norms(at.reshape(-1, d), self.space).reshape(b, j1 - j0)

    def result(self) -> tuple[np.ndarray]:
        return (self.out,)


class _PilotMoments:
    """Reducer: the pilot pass's sums over the paths of a chunk.

    `tile` adds each trial's coordinate sums and s-th moment sum into
    zero-initialised per-trial rows and folds each trial's x^T x into one
    (d, d) matrix `m2`, in place inside the tile's stack of products, so a
    tile holds one (b, d, d) temporary; `result` folds the per-trial rows,
    stacked as columns, once.  Every fold is `fold`, which adds left to
    right in the order `stream_trials` hands over the tiles.  The products,
    powers and folds run under `np.errstate`: a moment past the float
    range stays inf or NaN through every later fold, and
    `bounds.mc_verify` checks the folded chunks once, before it reads any
    of them.
    """

    def __init__(self, space: SpaceSpec, s: float):
        self.space = space
        self.s = s

    def start(self, trials: int, dim: int) -> None:
        self.sums = np.zeros((trials, dim))
        self.moments = np.zeros(trials)
        self.m2 = np.zeros((dim, dim))

    def tile(self, x: np.ndarray, k0: int, s0: int) -> None:
        b, m, d = x.shape
        rows = slice(k0, k0 + b)
        with np.errstate(over="ignore", invalid="ignore"):
            # at d = 1 the steps are innermost and numpy sums them pairwise; at d > 1
            # einsum adds them step by step, each over a row of d, with no tile-sized copy
            self.sums[rows] += x.sum(axis=1) if d == 1 else np.einsum("bmd->bd", x)
            finite_sums(self.sums[rows], s0 + m)
            # folded inside the stack: one (b, d, d) temporary, and m2 owns its memory
            self.m2 = fold(np.matmul(x.transpose(0, 2, 1), x), self.m2)[-1].copy()
            self.moments[rows] += (norms(x.reshape(-1, d), self.space) ** self.s).reshape(b, m).sum(axis=1)

    def result(self):
        trials, d = self.sums.shape
        finals = norms(self.sums, self.space)
        with np.errstate(over="ignore"):
            total = fold(np.column_stack((self.sums, self.moments, finals, finals * finals)), 0.0)[-1].copy()
        return total[:d], self.m2, float(total[d]), float(total[d + 1]), float(total[d + 2]), trials


class _FinalAndMax:
    """Reducer: ||S_n|| and max_k ||S_k|| per trial, S_k from `path_sums`.

    ||S_n|| is the norm of the carry, which is S_n; a row's norm does not
    depend on the rows taken with it, so it has the bits of the last step's
    norm in the tile.
    """

    def __init__(self, space: SpaceSpec):
        self.space = space

    def start(self, trials: int, dim: int) -> None:
        self.carry = np.zeros((trials, dim))
        self.maxes = np.zeros(trials)

    def tile(self, x: np.ndarray, k0: int, s0: int) -> None:
        b, m, d = x.shape
        rows = slice(k0, k0 + b)
        partial = path_sums(x, self.carry[rows], s0 + m)
        pn = norms(partial.reshape(-1, d), self.space).reshape(b, m)
        np.maximum(self.maxes[rows], pn.max(axis=1), out=self.maxes[rows])

    def result(self):
        return norms(self.carry, self.space), self.maxes


def geometric_checkpoints(N: int, ratio: float = 1.3) -> tuple[int, ...]:
    """Strictly increasing checkpoint grid 1, 2, ... up to and including N."""
    if N < 1:
        raise _ParamError("N must be at least 1", "N", N)
    if ratio <= 1:
        raise _ParamError("ratio must exceed 1", "ratio", ratio)
    out = [1]
    while out[-1] < N:
        out.append(min(N, max(out[-1] + 1, math.ceil(ratio * out[-1]))))
    return tuple(out)


@dataclass(frozen=True)
class PathConfig:
    """`trials` paths of N steps each from `seed`.  N is the path length,
    which also fixes the stream groups; the checkpoints, the geometric grid
    up to N by default, only say where each path is read."""

    N: int
    checkpoints: tuple[int, ...] = ()
    seed: int = 0
    trials: int = 1

    def __post_init__(self) -> None:
        if self.N < 1:
            raise _ParamError("N must be positive", "N", self.N)
        if self.trials < 1:
            raise _ParamError("trials must be positive", "trials", self.trials)
        cps = _checkpoint_grid(self.checkpoints or geometric_checkpoints(self.N))
        if max(cps) > self.N:
            raise ValueError("checkpoints must lie within [1, N]")
        object.__setattr__(self, "checkpoints", cps)


@dataclass(frozen=True)
class PathResult:
    """Normalized checkpoint ratios ||S_n||/a_n, one row per trial."""

    checkpoints: tuple[int, ...]
    ratios: np.ndarray
    a_values: np.ndarray
    seed: int

    def to_csv_text(self) -> str:
        rows = ((t, n, ratio) for t, row in enumerate(self.ratios) for n, ratio in zip(self.checkpoints, row))
        return _csv_text("trial,n,ratio", rows, seed=self.seed)


def _checkpoint_grid(points) -> tuple[int, ...]:
    """The grid rule of every path estimator: `points` as ints, or a
    ValueError unless they are strictly increasing positive integer values
    (10.0 is 10; 10.7 is refused, not cut to 10)."""
    grid = np.asarray(points, dtype=float)
    if not grid.size or grid[0] < 1 or np.any(grid[1:] <= grid[:-1]) or np.any(grid != np.round(grid)):
        raise ValueError("checkpoints must be strictly increasing positive integers")
    return tuple(int(p) for p in grid)


def _checkpoint_ratios(dist, c_seq, label: str, n: int, seed: int, trials: int, purpose: int, reducer, workers: int):
    """The one checkpoint-ratio rule of `run_path`, `truncated_path` and
    `mean_norm_curve`: (ratios, c_n at the checkpoints, chunk results).

    The reducer's checkpoints passed `_checkpoint_grid` where the grid came
    in (`PathConfig`, `mean_norm_curve`).  Before any sampling this checks
    that c_n is finite and positive at each of them; a ValueError
    otherwise, naming c_n by `label` and the first bad checkpoint.  Then
    `reducer` runs over `trials` paths of n steps, n being at least the
    last checkpoint, through `map_trials`; the first item of each chunk
    result is its (trials, checkpoints) norm matrix, and the ratios are
    those matrices, stacked, over c_n.
    """
    points = reducer.points
    c_vals = np.asarray(c_seq.values(points.astype(float)))
    ok = np.isfinite(c_vals) & (c_vals > 0)
    if not ok.all():
        j = int(np.argmin(ok))
        raise ValueError(f"{label} is {'not positive' if np.isfinite(c_vals[j]) else 'not finite'} at checkpoint "
                         f"n = {points[j]}, so no checkpoint ratio can be formed")
    [parts] = map_trials(dist, n, seed, trials, [(purpose, reducer)], workers)
    return np.vstack([p[0] for p in parts]) / c_vals, c_vals, parts


def run_path(dist, space: SpaceSpec, h: SlowVaryFn, config: PathConfig, workers: int = 1) -> PathResult:
    """Simulate trials of S_n and record ||S_n||/a_n at the checkpoints."""
    reducer = CheckpointNorms(space, config.checkpoints)
    ratios, a_vals, _ = _checkpoint_ratios(dist, NormalizerSeq(h), f"a_n = psi(n) for h = {h.to_text()}",
                                           config.N, config.seed, config.trials, _rng.MAIN, reducer, workers)
    return PathResult(config.checkpoints, ratios, a_vals, config.seed)


# ---------------------------------------------------------------------------
# Coupled plain/truncated paths.
# ---------------------------------------------------------------------------


class TruncatedTwin(CheckpointNorms):
    """Reducer: S_n against its twin S'_n, which drops each draw with ||X_k|| > c_k.

    S_n - S'_n is the partial sum of the dropped draws, so the twin is the
    `CheckpointNorms` of the dropped draws alone; a tile that drops nothing
    only reads its checkpoints off the carry.  The result is the norms of
    S_n - S'_n at the checkpoints, which `truncated_path` divides by c_n,
    then the last dropped step, the drop count and the normalized gap
    beyond the last drop, one per trial.

    The truncation levels of a block are evaluated once per chunk,
    LEVEL_SLICE steps per `c_seq.values` call into one block-length array,
    so psi's temporaries stay a slice long; a level depends on its step
    alone, so it keeps its bits however the block is sliced.  Per block
    the twin holds the tile, one block of levels and one of norms.
    """

    def __init__(self, space: SpaceSpec, c_seq, points):
        super().__init__(space, points)
        self.c_seq = c_seq

    def start(self, trials: int, dim: int) -> None:
        super().start(trials, dim)
        self.last = np.zeros(trials, dtype=np.int64)
        self.count = np.zeros(trials, dtype=np.int64)
        self._span = self._levels = None

    def levels(self, s0: int, m: int) -> np.ndarray:
        if self._span != (s0, m):
            self._span, self._levels = (s0, m), None  # free the last block's levels first
            self._levels = np.empty(m)
            for i in range(0, m, LEVEL_SLICE):
                steps = np.arange(s0 + i + 1, s0 + min(m, i + LEVEL_SLICE) + 1, dtype=float)
                self._levels[i : i + steps.size] = self.c_seq.values(steps)
        return self._levels

    def tile(self, x: np.ndarray, k0: int, s0: int) -> None:
        b, m, d = x.shape
        k1 = k0 + b
        levels = self.levels(s0, m)  # before the norms, so their temporaries never meet
        # ~(<=), not >, so that a NaN norm counts as a dropped draw
        cut = ~(norms(x.reshape(-1, d), self.space).reshape(b, m) <= levels)
        cuts = cut.sum(axis=1)
        self.count[k0:k1] += cuts
        if cuts.any():
            # step of each trial's last dropped draw
            last = s0 + m - np.argmax(cut[:, ::-1], axis=1)
            self.last[k0:k1] = np.where(cuts > 0, last, self.last[k0:k1])
            super().tile(x * cut[..., None], k0, s0)
        else:
            # a kept draw adds +-0.0, which leaves the carry (never -0.0,
            # as a dropped draw is nonzero) and every norm as they are
            j0, j1 = np.searchsorted(self.points, (s0, s0 + m), side="right")
            if j1 > j0:
                self.out[k0:k1, j0:j1] = norms(self.carry[k0:k1], self.space)[:, None]

    def result(self):
        delta = norms(self.carry, self.space)
        c_next = np.asarray(self.c_seq.values((self.last + 1).astype(float)))
        with np.errstate(divide="ignore", invalid="ignore"):
            gap_sup = np.where(c_next > 0, delta / c_next, np.where(delta == 0, 0.0, math.inf))
        return self.out, self.last, self.count, gap_sup


@dataclass(frozen=True)
class TruncResult:
    """Coupled plain/truncated paths on shared draws.

    gap_curve holds ||S_n - S'_n||/c_n at the checkpoints, S_n - S'_n
    being the sum of the dropped draws; last_trunc is the last step whose
    draw was truncated (0 when none were), and gap_sup the supremum of
    the normalized gap beyond that step, which for a nondecreasing c_n is
    the gap at last_trunc + 1.
    """

    checkpoints: tuple[int, ...]
    gap_curve: np.ndarray
    last_trunc: np.ndarray
    trunc_count: np.ndarray
    gap_sup: np.ndarray
    seed: int


def truncated_path(dist, space: SpaceSpec, c_seq, config: PathConfig, workers: int = 1) -> TruncResult:
    """Run S_n against its truncated twin S'_n (draws of norm above c_n dropped)."""
    points = config.checkpoints
    gap_curve, _, parts = _checkpoint_ratios(dist, c_seq, f"c_n = {c_seq.describe()}", config.N, config.seed,
                                             config.trials, _rng.MAIN, TruncatedTwin(space, c_seq, points), workers)
    return TruncResult(
        checkpoints=points,
        gap_curve=gap_curve,
        last_trunc=np.concatenate([p[1] for p in parts]),
        trunc_count=np.concatenate([p[2] for p in parts]),
        gap_sup=np.concatenate([p[3] for p in parts]),
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# Mean-norm curves and tail-window limsup estimates.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanNormCurve:
    n_grid: tuple[int, ...]
    mean: np.ndarray
    se: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    trials: int
    seed: int

    def to_csv_text(self) -> str:
        rows = zip(self.n_grid, self.mean, self.ci_lo, self.ci_hi)
        return _csv_text("n,mean,ci_lo,ci_hi", rows, seed=self.seed, trials=self.trials)


def mean_norm_curve(dist, space: SpaceSpec, c_seq, n_grid, trials: int, seed: int = 0, workers: int = 1) -> MeanNormCurve:
    """Estimate E||S_n||/c_n on a grid of n, one streamed pass per trial."""
    if trials < 30:
        raise _ParamError(f"need at least 30 trials for a CI, got {trials}", "trials", trials)
    points = _checkpoint_grid(n_grid)
    ratios, _, _ = _checkpoint_ratios(dist, c_seq, f"c_n = {c_seq.describe()}", points[-1], seed, trials, _rng.CURVE,
                                      CheckpointNorms(space, points), workers)
    # Each column is taken over the power of two s at or below its largest
    # |ratio|, which is exact, so sums and squares near the float range do
    # not overflow (an inf or NaN column has s = 0.5 and stays inf or NaN).
    s = np.ldexp(1.0, np.frexp(np.abs(ratios).max(axis=0))[1] - 1)
    mean = s * (ratios / s).mean(axis=0)
    se = s * (ratios / s).std(axis=0, ddof=1) / math.sqrt(trials)
    return MeanNormCurve(
        n_grid=points, mean=mean, se=se,
        ci_lo=mean - 1.96 * se, ci_hi=mean + 1.96 * se,
        trials=trials, seed=seed,
    )


@dataclass(frozen=True)
class LimsupEstimate:
    per_trial: np.ndarray
    median: float
    q10: float
    q90: float
    tail_fraction: float


def _check_tail_fraction(tail_fraction: float) -> None:
    if not (0 < tail_fraction <= 1):
        raise _ParamError("tail_fraction must lie in (0, 1]", "tail_fraction", tail_fraction)


def limsup_estimate(paths: PathResult, tail_fraction: float = 0.5) -> LimsupEstimate:
    """Per-trial maximum of the checkpoint ratios over the tail window.

    The window is the last ceil(tail_fraction * K) checkpoints; the
    aggregate numbers are the median and the [10%, 90%] quantiles of the
    per-trial maxima.
    """
    _check_tail_fraction(tail_fraction)
    K = paths.ratios.shape[1]
    w = max(1, math.ceil(tail_fraction * K))
    per_trial = paths.ratios[:, K - w :].max(axis=1)
    return LimsupEstimate(
        per_trial=per_trial,
        median=float(np.median(per_trial)),
        q10=float(np.quantile(per_trial, 0.1)),
        q90=float(np.quantile(per_trial, 0.9)),
        tail_fraction=tail_fraction,
    )
