"""Exact-in-distribution Monte-Carlo sampling of the affine SDE.

For a linear SDE the grid-point law is exactly Gaussian: one step is
X_{n+1} = Psi(t_n + dt, t_n) X_n + xi_n with xi_n ~ Normal(0, Q_n) and

    Q_n = int_{t_n}^{t_n + dt} Psi(t_n + dt, s) sigma(s) sigma(s)^T
          Psi(t_n + dt, s)^T ds,

where Psi is the propagator of X' = A(t) X (e^{A (t - s)} for a constant
drift), so the sampler has no discretisation bias at grid points, periodic
drifts included.  The drift is a `ConstantDrift` or a `PeriodicDrift`; a
constant drift is the periodic case with a single period position, and both
run one recursion.  `linalg.step_propagators` builds Psi over a step for
every period position at once, for either drift, in one
stacked adaptive Dormand-Prince solve in numpy, whose dense output serves
the transitions and the panel's nodes.  Both
sigma forms, envelope and table, get their Q_n from one panel of
`model.gauss_legendre_rule` per step, fed by `eval_sigma` at the nodes,
at the lowest level (12 nodes on each of 2^L sub-panels) that passes two
checks against the next level: at every period position, whatever sigma
is, and on the first step, which sees sigma.  A step with a table knot
strictly inside it is cut at its knots into pieces that take the same
panel, and each block of Q_n is rooted as it is built; `step_covariance` is
this route on a grid of one step, squared back.  Paths are
seeded independently from a counter-based generator, so the ensemble is
bit-reproducible and order-independent.

The recursion streams: `sample_chunks` cuts the paths into contiguous path
groups and returns one (paths, stream) pair per group, paths the group's
range of path indices and stream its time-major chunks (n0, X[k, path, i]),
so a consumer that only reduces them (such as `stats.compare`) never holds
the (paths, N+1, d) ensemble: while it works on a chunk, each running group
holds only that one chunk of states plus a staging slice of at most _STAGE
paths' draws, since a stream drops a chunk before it draws the next and
draws a chunk's paths _STAGE at a time.  A consumer places a group's
columns by its range alone; `simulate_X` writes each group's chunks into
its own rows of the (paths, N+1, d) states.  `map_shards` runs a consumer
on every group on a pool of one thread per CPU, the calling thread among
them: the draws and the numpy kernels release the interpreter lock.  A
group is narrow enough that each path's draw call fills at least _FILL
normals, so the threads take the lock from each other rarely, and its
chunks are as long as one CPU's share of the draw budget allows, in whole
blocks of about 64 steps anchored at absolute step indices.  Each chunk
is solved block-wise: partial sums inside every block of the chunk at
once, then one carry of the block-start state per block, so a chunk of k
steps costs O(b + k/b) numpy calls rather than k.  Every path draws from
its own stream and its arithmetic is column-wise, so the states depend
neither on the chunk length nor on the grouping.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import step_propagators
from .model import (GL_MAX_LEVEL, GL_NODES, ConstantDrift, DiffusionSpec,
                    PeriodicDrift, check_drift, eval_sigma,
                    gauss_legendre_rule)

# normal draws per chunk over the running path groups.  Each running group
# holds a chunk of up to d / r times _CHUNK_DRAWS / T states plus a staging
# slice of at most _STAGE paths' draws, so the budget sets the sampler's
# working set, while the per-path draws set the wall time.  2**19 is the
# knee of a sweep on a shared 2-vCPU machine:
# against 2**20 it took verify-periodic's peak RSS from 67.6 to 55.2 MB,
# its median wall time 1-9% longer over two seeds, inside the runs' spread,
# while 2**18 saved 4-6 MB more at 10-20% more wall time, as narrower
# groups pay the solve's per-step matmuls over fewer paths
_CHUNK_DRAWS = 2 ** 19
_FILL = 2048             # least normals per draw call of one path
# most paths of a group drawn and turned into increments at once: the knee
# of a sweep of the increment matmul on chunks of 1,280 x 100 and 1,024 x 125
# paths on a shared 2-vCPU machine, 0.44-0.74 ms a chunk in slices of 32
# against 0.47-0.57 ms whole, 0.65-0.95 ms in slices of 16 and 1.09-1.28 ms
# in slices of 8
_STAGE = 32
_BLOCK = 64              # target steps per block of the blocked recursion
_COV_BLOCK = 8192        # set-up block length in steps (level 0's over d r)
_COV_TOL = 1e-10         # relative tolerance of the covariance panel's checks


class CovarianceError(RuntimeError):
    """Step covariance could not be computed or sampled."""


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    paths: int
    seed: int

    def __post_init__(self):
        for name in ("dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("paths", "seed"):
            v = getattr(self, name)
            # bool is an Integral, but True is no path count or seed
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least dt")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def times(self) -> np.ndarray:
        """The grid 0, dt, ..., N dt, shape (N+1,)."""
        return self.dt * np.arange(self.n_steps + 1)


def squared_norms(states: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms over the last (state) axis of any stack of
    states, one multiply-add per state component."""
    sq = states[..., 0] * states[..., 0]
    for i in range(1, states.shape[-1]):
        sq += states[..., i] * states[..., i]
    return sq


def state_norms(states: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last (state) axis of any stack of states."""
    sq = squared_norms(states)
    return np.sqrt(sq, out=sq)


def _check_finite(states: np.ndarray) -> None:
    if not np.all(np.isfinite(states)):
        raise FloatingPointError("non-finite states in ensemble")


def _path_generators(seed: int, paths: range) -> list:
    """One Philox stream per path p, seeded with (seed, p)."""
    return [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(int(seed), p)))) for p in paths]


# ---------------------------------------------------------------------------
# step transitions and covariances
# ---------------------------------------------------------------------------

def step_covariance(drift, sigma: DiffusionSpec, t: float, dt: float,
                    tol: float = _COV_TOL) -> np.ndarray:
    """One-step transition covariance Q from t to t + dt.

    The step is the one-step grid of `_noise_factors`, so Q = F^T F for its
    factor F, the root of the Gauss-Legendre panel at the lowest level that
    passes the panel's checks, cut at the table knots inside the step; the
    propagator of the drift makes time-dependent drifts exact too.
    """
    check_drift(drift)
    for name, value in (("t", t), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if sigma.d != drift.d:
        raise ValueError("sigma and drift dimensions differ")
    F = _noise_factors(sigma, np.array([float(t)]), dt, tol,
                       step_propagators(drift, [t], dt, min(tol, 1e-12)))[0]
    return F.T @ F


def _psd_root(Q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Transposes of the symmetric PSD square roots of symmetrised Q (one
    matrix or a stack, each rooted alike in any stack), written to out.

    Eigenvalues down to -1e-12 * trace are clamped to zero; lower ones raise.
    """
    Q = 0.5 * (Q + np.swapaxes(Q, -1, -2))
    w, V = np.linalg.eigh(Q)
    floor = -1e-12 * np.maximum(np.einsum("...ii", Q), 0.0)
    if np.any(w < floor[..., None] - 1e-300):
        raise CovarianceError(f"covariance has eigenvalue {w.min():.3e} below "
                              "the clamping floor")
    return np.einsum("...ik,...k,...jk->...ji", V, np.sqrt(np.maximum(w, 0.0)),
                     V, out=out)


def _panel(sigma: DiffusionSpec, t: np.ndarray, dt: float, u: np.ndarray,
           w: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Q_n = sum_k P_nk P_nk^T, P_nk = sqrt(w_k dt) E[k] sigma(t_n + u_k dt),
    of the steps from the times t of a period position with propagators E
    at the nodes u: two matmuls, so a step costs O(nodes d^2 r)."""
    n, k = len(t), len(u)
    d, r = sigma.d, sigma.r
    S = eval_sigma(sigma, t[:, None] + u * dt)
    X = np.empty((k, d, n, r))
    np.multiply(S.transpose(1, 2, 0, 3), np.sqrt(dt * w)[:, None, None, None],
                out=X)
    P = E @ X.reshape(k, d, n * r)
    P = np.ascontiguousarray(P.reshape(k, d, n, r).transpose(2, 1, 0, 3))
    P = P.reshape(n, d, k * r)
    return P @ np.swapaxes(P, 1, 2)


def _noise_factors(sigma: DiffusionSpec, times: np.ndarray, dt: float,
                   tol: float, psis) -> np.ndarray:
    """Noise factors of every step, (N, d, d): the transposes of the
    symmetric PSD square roots (`_psd_root`) of the step covariances Q_n, on
    one route for every sigma form.

    psis maps step fractions u to the propagators Psi(t_j + dt, t_j + u dt)
    of the m period positions, shape u.shape + (m, d, d).  Step n takes
    `_panel` with those of its position j = n % m at the nodes of one level
    of `gauss_legendre_rule`, in blocks of _COV_BLOCK GL_NODES / (nodes d r)
    steps per position, each block of Q_n rooted as it is built, so neither
    sigma's node values nor Q is ever whole.

    The grid takes the lowest level that passes two checks against the next
    level, each to 10 tol relative to the next level's value.  At every
    period position the map X -> sum_k w_k E[j, k] X E[j, k]^T (the Q_n of
    a sigma constant over the step, per unit dt) must agree, whatever sigma
    is: this catches a drift too stiff over dt.  The panel of the first step
    without a table knot strictly inside it must agree too: this catches a
    sigma too stiff over dt.  A CovarianceError is raised at the first level
    whose checks are not finite, since finer panels do not bring an
    overflowed value back, and past GL_MAX_LEVEL.
    A step with knots inside, at most one per knot, is cut at them, and each
    piece takes the panel at the grid's level scaled to the piece: a table
    is linear there, and the piece is shorter than the step.  The step is
    rooted from the sum of its pieces.
    """
    N, d = len(times), sigma.d
    knots = sigma.knots
    i = np.searchsorted(times, knots, side="right") - 1   # step of each knot
    kinked = set(i[(i >= 0) & (knots > times[i]) &
                   (knots < times[i] + dt)].tolist())
    first = next((n for n in range(N) if n not in kinked), None)
    # an overflow in the checks raises in _agree instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(GL_MAX_LEVEL):
            (u, w), (u2, w2) = map(gauss_legendre_rule, (level, level + 1))
            k = len(u)
            E = np.ascontiguousarray(np.moveaxis(
                psis(np.concatenate([u, u2])), 1, 0))
            m = len(E)
            if all(_agree(np.einsum("k,kac,kbe->abce", w, e[:k], e[:k]),
                          np.einsum("k,kac,kbe->abce", w2, e[k:], e[k:]),
                          tol, level) for e in E) and (first is None or _agree(
                    *(_panel(sigma, times[first:first + 1], dt, v, c, e)[0]
                      for v, c, e in ((u, w, E[first % m, :k]),
                                      (u2, w2, E[first % m, k:]))),
                    tol, level)):
                break
        else:
            raise CovarianceError(f"the covariance panel fails its checks at "
                                  f"{2 ** GL_MAX_LEVEL} panels")
    F = np.empty((N, d, d))
    B = max(1, _COV_BLOCK * GL_NODES // (k * d * sigma.r))
    for j in range(m):
        for s in range(j, N, B * m):
            _psd_root(_panel(sigma, times[s:s + B * m:m], dt, u, w, E[j, :k]),
                      out=F[s:s + B * m:m])
    for n in kinked:
        t = times[n]
        cuts = np.r_[0.0, (knots[(knots > t) & (knots < t + dt)] - t) / dt, 1.0]
        _psd_root(sum(_panel(sigma, times[n:n + 1], dt, a + h * u, h * w,
                             psis(a + h * u)[:, n % m])[0]
                      for a, h in zip(cuts[:-1], np.diff(cuts))), out=F[n])
    return F


def _agree(a: np.ndarray, b: np.ndarray, tol: float, level: int) -> bool:
    """a within 10 tol of b, relative to b's largest entry, for the values a
    and b of a check at level and at the next; raises a CovarianceError at
    the first of them that is not finite."""
    for lev, v in ((level, a), (level + 1, b)):
        if not np.all(np.isfinite(v)):
            raise CovarianceError(f"the covariance panel is not finite at "
                                  f"{2 ** lev} panels")
    return np.abs(a - b).max() <= 10 * tol * np.abs(b).max()


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------

def _block_products(trans: np.ndarray):
    """Block length b and prefix products P[q, i] of the blocked recursion.

    b is _BLOCK rounded up to a multiple of the period m, so every block
    starts at period position 0 and P[0, i] = trans[i % m] ... trans[0] serves
    all blocks.  Where some P_i overflows, b is cut back to the largest
    multiple of m below the first non-finite P_i: an infinite P_i would turn
    a zero block-start state into nan (inf * 0).  When even that is 0, b = 1,
    which is the plain one-step recursion; then a block is one step and
    P[q, 0] = trans[q] for the step's period position q.
    """
    m = len(trans)
    b = m * -(-_BLOCK // m)
    P = np.empty((b, *trans.shape[1:]))
    P[0] = trans[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, b):
            np.matmul(trans[i % m], P[i - 1], out=P[i])
    finite = np.isfinite(P).all(axis=(1, 2))
    if not finite.all():
        b = m * (int(np.argmin(finite)) // m)
    if b == 0:
        return 1, trans[:, None]
    return b, P[None, :b]


def _cpus() -> int:
    """CPUs this process may run on: the most shards worth running at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not every platform has affinity masks
        return os.cpu_count() or 1


def _run(trans: np.ndarray, noise_t: np.ndarray, xi: np.ndarray,
         cfg: SimConfig) -> list:
    """(paths, stream) pairs of the path groups, each stream yielding the
    time-major chunks (n0, X) of X_{n+1} = trans[n % m] X_n + noise[n] Z_n.

    The paths are cut into contiguous groups, in path order, and each group
    gets its range of path indices and its own stream: X[j, p] is the state
    of path paths[p] at grid point n0 + j, and the first chunk is X_0
    alone.  trans is the (m, d, d) stack of transitions over one drift
    period (m = 1 for a constant drift), noise_t the (N, r, d) stack of the
    per-step factors' transposes noise[n]^T, in C order (from
    `sample_chunks`, the (N, d, d) stack of `_noise_factors` as is: d
    normals a step whatever sigma's r).

    `map_shards` runs the groups T = min(CPUs, paths) at a time, so a running
    group draws at most budget = _CHUNK_DRAWS / T normals per chunk: a
    group of w paths takes chunks of k = b max(1, budget // (w r b)) steps,
    whole blocks of the solve (see _block_products), which stay within
    budget whenever one path's block does.  A group is at most as wide as
    lets each path's draw call fill at least _FILL normals, since every call
    hands the interpreter lock to the other threads: as wide as affords
    each path s steps, _FILL / r rounded up to whole blocks.  The group
    count is rounded up to a multiple of T so that every thread runs as
    many groups.  A running group holds its chunk of states plus a staging
    slice of at most _STAGE paths' draws (see _solve).  The T scratch
    buffers, each the larger of a slice and the solve's widest product, are
    allocated here, on the calling thread, which keeps them in its malloc
    arena whichever thread later runs a group.
    """
    N, r, d = noise_t.shape
    b, P = _block_products(trans)
    # every right-hand factor is a transpose in C order: numpy's matmul of
    # small matrices runs several times faster on those than on transposed
    # views
    TT, PT = (np.ascontiguousarray(np.swapaxes(a, -1, -2))
              for a in (trans, P))
    T = min(_cpus(), cfg.paths)
    budget = _CHUNK_DRAWS // T
    s = b * -(-_FILL // (b * r))
    widest = max(1, budget // (s * r))
    n = -(-cfg.paths // widest)
    n = min(cfg.paths, T * -(-n // T))
    edges = [cfg.paths * i // n for i in range(n + 1)]
    groups = [(range(lo, hi),
               min(N, b * max(1, budget // ((hi - lo) * r * b))))
              for lo, hi in zip(edges, edges[1:])]
    size = max(_scratch_size(len(paths), k, r, d, b) for paths, k in groups)
    pool = [np.empty(size) for _ in range(T)]
    return [(paths, _solve(TT, PT, b, noise_t, xi, cfg.seed, paths, k, pool))
            for paths, k in groups]


def _product_rows(k: int, b: int) -> int:
    """Steps in the solve's widest product for chunks of k steps and blocks
    of b: a block's carry, or one in-block update over every block."""
    return max(min(b, k), -(-k // b))


def _stage_width(w: int) -> int:
    """Paths per staging slice of a group of w paths: the slices of at most
    _STAGE paths, as few as that allows, split evenly but the last."""
    return -(-w // -(-w // _STAGE))


def _scratch_size(w: int, k: int, r: int, d: int, b: int) -> int:
    """Doubles of scratch for a group of w paths and chunks of k steps: one
    staging slice's draws or its widest solve product, whichever is
    larger."""
    return max(_stage_width(w) * k * r, _product_rows(k, b) * w * d)


def _solve(TT, PT, b: int, noise_t, xi, seed: int, paths: range, k: int,
           pool: list):
    """One group's chunks: the recursion for its paths, k steps per chunk.

    TT and PT are the C-order transposes of trans and of the block products
    P.  Once X_0 is out, the group builds its paths' Philox streams and
    takes a scratch buffer from pool, which it returns after its last chunk
    (a fresh buffer if none is free: more groups run at once than map_shards
    runs, or a stream was left unfinished).  Each chunk is a fresh
    (k, paths, d) array, filled a staging slice of at most _STAGE paths at a
    time (see _stage_width): path p draws its chunk's standard normals from
    its own stream, in one call, into its row of the buffer's (slice, k, r)
    view Z, and one batched matmul per slice writes the slice's increments
    V_n = noise[n] Z_n into the chunk.  So the group holds the chunk plus
    one slice's draws, not a whole chunk's; the solve's products then reuse
    the buffer, since Z is read only by those matmuls.  Each path's
    increments are the same in any slice.

    The recursion is then solved in blocks of b steps (see _block_products)
    anchored at absolute step indices s = 0, b, 2b, ...: the in-block partial
    sums W_i = trans[i % m] W_{i-1} + V_{s+i} take b - 1 updates, each over
    every block of the chunk at once, and one carry per block gives
    X_{s+i+1} = P_i X_s + W_i.  k is a multiple of b unless the chunk is
    the last, so every chunk starts a block and carries only X_s into the
    next: the states do not depend on k.  Every chunk is checked to be
    finite.  Each path's arithmetic is the same in any group, so the states
    do not depend on the grouping either.  After the yield the generator
    drops the chunk (and its in-block views), so the next chunk's matmul can
    reuse its memory when the consumer has dropped it too.
    """
    N, r, d = noise_t.shape
    m, w = len(TT), len(paths)
    X = np.array(np.broadcast_to(xi, (1, w, d)))
    yield 0, X
    gens = _path_generators(seed, paths)
    try:
        scratch = pool.pop()
    except IndexError:
        scratch = np.empty(_scratch_size(w, k, r, d, b))
    stage = _stage_width(w)
    Z = scratch[:stage * k * r].reshape(stage, k, r)
    rows = _product_rows(k, b)
    tmp = scratch[:rows * w * d].reshape(rows, w, d)
    Xs = X[0]   # state at the current block's start
    for start in range(0, N, k):
        kk = min(k, N - start)
        out = np.empty((kk, w, d))
        for lo in range(0, w, stage):
            hi = min(w, lo + stage)
            for z, g in zip(Z, gens[lo:hi]):
                g.standard_normal(out=z[:kk])
            np.matmul(np.swapaxes(Z[:hi - lo, :kk], 0, 1),
                      noise_t[start:start + kk], out=out[:, lo:hi])
        for i in range(1, min(b, kk)):
            cur = out[i::b]
            n = len(cur)
            cur += np.matmul(out[i - 1::b][:n], TT[i % m], out=tmp[:n])
        for j in range(0, kk, b):
            blk = out[j:j + b]
            n = len(blk)
            blk += np.matmul(Xs, PT[(start + j) % m, :n], out=tmp[:n])
            Xs = blk[-1].copy()
        _check_finite(out)
        yield start + 1, out
        # drop the chunk before the next matmul allocates its successor
        out = cur = blk = None
    pool.append(scratch)


def _prepare_xi(xi, d: int) -> np.ndarray:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (d,):
        raise ValueError(f"initial condition must have shape ({d},)")
    if not np.all(np.isfinite(xi)):
        raise ValueError("initial condition must be finite")
    return xi


# ---------------------------------------------------------------------------
# public samplers
# ---------------------------------------------------------------------------

def sample_chunks(drift, sigma: DiffusionSpec, xi, cfg: SimConfig) -> list:
    """Sample the SDE from X(0) = xi as (paths, stream) pairs of path
    groups, each stream yielding time-major chunks (n0, X[k, path, i]).

    The paths are cut into contiguous groups (see `_run`), and the list
    holds one pair per group, in path order: paths is the group's range of
    path indices, so the ranges tile 0 .. cfg.paths, and X[:, p] is path
    paths[p]; `map_shards` runs them, min(CPUs, paths) at a time.  Each
    stream's chunks cover grid points 0..N in order, the first holding X_0
    alone; a later chunk is a fresh array of b max(1, (_CHUNK_DRAWS // T) //
    (width r b)) steps but the last, whole blocks of b (about 64) steps,
    T = min(CPUs, paths) and width the group's path count.  A stream drops each chunk when asked for the
    next, so a consumer that drops it too holds, per running group, one
    chunk of states plus a staging slice of at most _STAGE paths' draws; one
    that keeps chunks (`list`) may, and pays for them.  The drift is a
    ConstantDrift or a PeriodicDrift, whose period dt must divide (one whose
    samples are all identical is a constant drift); any other drift is a
    TypeError.  The set-up (the exact
    transitions, and in one blocked pass the panel covariances of either
    sigma form, at the level their checks pick, each block rooted as it is
    built into the noise factors) runs before this returns; a non-finite
    chunk raises FloatingPointError when it is reached.
    """
    check_drift(drift)
    m = 1
    if isinstance(drift, PeriodicDrift) and \
            all(np.array_equal(v, drift.values[0]) for v in drift.values):
        drift = ConstantDrift(drift.values[0])
    elif isinstance(drift, PeriodicDrift):
        m = int(round(drift.period / cfg.dt))
        if m < 1 or abs(m * cfg.dt - drift.period) > 1e-9 * drift.period:
            raise ValueError("dt must divide the drift period")
    xi = _prepare_xi(xi, drift.d)
    if sigma.d != drift.d:
        raise ValueError("sigma and drift dimensions differ")
    dt = cfg.dt
    times = dt * np.arange(cfg.n_steps)
    psis = step_propagators(drift, times[:m], dt, 1e-12)
    return _run(psis(0.0), _noise_factors(sigma, times, dt, _COV_TOL, psis),
                xi, cfg)


def map_shards(fn, shards) -> list:
    """[fn(paths_i, chunks_i)] over (paths, stream) shard pairs, such as
    `sample_chunks` returns, on a pool of T = min(CPUs, shards) threads.

    Thread j runs shards j, j + T, j + 2T, ... one after the other, thread 0
    being the calling thread and each other one a worker, all in the
    caller's context (numpy's error state included); so at most T streams
    run at once.  The draws and the numpy kernels release the interpreter
    lock, so the threads run in parallel.  If a call raises, the other
    threads stop before their next chunk and start no further shard, and
    once every thread has stopped the first failure in shard order is
    raised.
    """
    T = min(_cpus(), len(shards))
    stop = threading.Event()
    results, errors = [None] * len(shards), [None] * len(shards)

    def until_stopped(chunks):
        for chunk in chunks:
            if stop.is_set():
                return
            yield chunk
            del chunk   # let the shard free it before drawing the next one

    def work(j):
        for i in range(j, len(shards), T):
            if stop.is_set():
                return
            paths, chunks = shards[i]
            try:
                results[i] = fn(paths, until_stopped(chunks))
            except BaseException as exc:   # re-raised by the calling thread
                errors[i] = exc
                stop.set()
                return

    workers = [threading.Thread(target=contextvars.copy_context().run,
                                args=(work, j), name=f"affinesde-shard-{j}")
               for j in range(1, T)]
    for t in workers:
        t.start()
    try:
        work(0)
        for t in workers:
            t.join()
    except BaseException:   # interrupted while joining: stop the workers too
        stop.set()
        raise
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def simulate_X(drift, sigma: DiffusionSpec, xi, cfg: SimConfig) -> np.ndarray:
    """Sample dX = A(t) X dt + sigma(t) dB from X(0) = xi on the uniform grid
    cfg.times: the (paths, N+1, d) states.

    Each group of the `sample_chunks` stream writes its own paths' rows on
    the pool thread that `map_shards` runs it on, so it takes the same
    drifts: constant ones and periodic ones whose period dt divides.  The
    drift need not be stable; unstable drifts are legitimate for
    non-stabilisation demonstrations.
    """
    shards = sample_chunks(drift, sigma, xi, cfg)
    states = np.empty((cfg.paths, cfg.n_steps + 1, drift.d))

    def fill(paths, chunks):
        rows = states[paths.start:paths.stop]
        for n0, X in chunks:
            rows[:, n0:n0 + len(X)] = np.swapaxes(X, 0, 1)
            del X

    map_shards(fill, shards)
    return states
