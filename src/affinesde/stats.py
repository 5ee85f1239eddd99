"""Empirical evidence for or against a regime verdict.

Almost-sure limits cannot be tested from a finite horizon, so the sample
paths are reduced to finite-horizon proxies: suprema over dyadic tail
segments (limsup proxy), trailing-window infima (liminf proxy) and pathwise
time-averages of ||X||^2.  Every proxy the rules read is a running reduction
at grid indices fixed before the run by integer arithmetic on the step
count N of the `SimConfig` that built the stream, so `compare` feeds the
squared norms of each of the sampler's shard streams (`Setup.shards`), on
the pool thread that runs it, into the columns of the shard's paths of one
`EvidenceAccumulator` with O(paths) state, and never holds an ensemble.
Every reduction is per path, so the accumulator holds the same values
whatever the shard count.
The rules read the path medians and their log-log least-squares trends
across the checkpoint times, the grid times dt ceil(N/q) the values are
read at.
`evidence` applies simple, explainable decision rules at fixed thresholds,
the module constants below, which no caller or scenario can loosen, and
reports Consistent / Inconsistent / Inconclusive — it never forces agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BOUNDED, REGIME_UNDECIDED, STABLE, UNBOUNDED
from .simulate import SimConfig, map_shards, squared_norms

DECREASING = "Decreasing"
FLAT = "Flat"
INCREASING = "Increasing"

CONSISTENT = "Consistent"
INCONSISTENT = "Inconsistent"
INCONCLUSIVE = "Inconclusive"

_FEED_NORMS = 2 ** 15   # squared norms per accumulator feed in compare

# the fixed evidence rules of `EvidenceAccumulator.evidence`
STABLE_FINAL_SUP = 0.05     # StableAS: median tail sup at T/2 below this
BAND_RATIO = (0.5, 2.0)     # bounded regime: tail-sup band T/2 over T/16
LIMINF_FRACTION = 0.9       # share of paths with a small window inf
LIMINF_RATIO = 0.1          # "small" = below this times the band median
MIN_GRID_POINTS = 64        # fewer -> Inconclusive outright


# ---------------------------------------------------------------------------
# the log-log trend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendResult:
    label: str          # Decreasing | Flat | Increasing
    slope: float        # least-squares slope of log v against log t
    stderr: float


def log_trend(times, vals) -> TrendResult:
    """Sign of the least-squares slope of log v against log t, at 2 sigma.

    A centred closed-form fit on the positive-time points: with t~ and v~
    the logs of t and max(v, 1e-300) less their means, the slope is
    t~.v~ / t~.t~ with variance |v~ - slope t~|^2 / ((n - 2) t~.t~).  A
    constant series has one v~, 0 up to the rounding of its mean, so it
    reads Flat; at a power-of-two count of points, such as the four
    checkpoints, the mean is exact and slope and stderr are 0.  Points all
    at one time, such as the checkpoints of a grid of one or two steps, show
    no trend: they read Flat with slope and stderr 0.  A monotone
    series that reaches exact zero has decayed past the smallest positive
    double, whose repeated floor values would inflate the error and mask
    the collapse: it reads Decreasing.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(vals, dtype=float)
    keep = t > 0
    t, v = t[keep], v[keep]
    if len(t) < 3:
        raise ValueError("trend needs at least three positive-time points")
    if t.min() == t.max():
        return TrendResult(label=FLAT, slope=0.0, stderr=0.0)
    lt = np.log(t)
    lt -= lt.mean()
    lv = np.log(np.maximum(v, 1e-300))
    lv -= lv.mean()
    sxx = float(lt @ lt)
    slope = float(lt @ lv) / sxx
    resid = lv - slope * lt
    se = math.sqrt(float(resid @ resid) / ((len(t) - 2) * sxx))
    if slope > 2.0 * se:
        label = INCREASING
    elif slope < -2.0 * se or (v[0] > 0 and v[-1] == 0.0
                                and np.all(np.diff(v) <= 0)):
        label = DECREASING
    else:
        label = FLAT
    return TrendResult(label=label, slope=slope, stderr=se)


# ---------------------------------------------------------------------------
# verdict comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeEvidence:
    regime: str
    agreement: str
    checkpoints: np.ndarray
    tail_sups: np.ndarray            # (paths, n_checkpoints)
    running_max_at: np.ndarray       # (paths, n_checkpoints)
    window_inf_final: np.ndarray     # (paths,)
    avg_sq_half: np.ndarray          # (paths,) time-average at T/2
    avg_sq_final: np.ndarray         # (paths,)
    medians: dict                    # summary key -> median over the paths
    trends: dict                     # name -> TrendResult
    notes: tuple = ()

    def summary(self) -> dict:
        return {
            "regime": self.regime,
            "agreement": self.agreement,
            "checkpoints": self.checkpoints.tolist(),
            **{k: v.tolist() for k, v in self.medians.items()},
            "trends": {k: {"label": v.label, "slope": v.slope,
                           "stderr": v.stderr}
                       for k, v in self.trends.items()},
            "notes": list(self.notes),
        }


class EvidenceAccumulator:
    """The running reductions of ||X||^2 that the compare rules read.

    Feed the squared norms of the grid points n0, n0 + 1, ... of cfg's grid
    t_n = n dt, n = 0 .. N, in order as time-major (k, w) chunks of the
    columns first .. first + w - 1 of the paths; each path keeps its own
    next grid point, so disjoint columns may be fed from different threads,
    and the state is O(paths) whatever the chunking.  T is dt N, and every
    index is integer arithmetic on N:

    - the maximum over each segment between the dyadic checkpoints, grid
      points ceil(N/q) for q = 16, 8, 4, 2 at the times dt ceil(N/q) that
      `checkpoints` holds (T/q when q divides N), giving tail suprema over
      [t_i, T] as a suffix maximum and running maxima over [0, t_i] as a
      prefix maximum
    - the minimum over the last window [7T/8, T], grid points
      N - N // 8 .. N, the first at or after 7T/8 (for N < 8, the last step)
    - the trapezoid sum of ||X||^2 up to T/2 and up to T, from one in-place
      cumulative sum per feed of its increments, seeded with the sum so far
    - ||X||^2 at the checkpoints

    `evidence` takes the square root of the maxima, minima and checkpoint
    values once; sqrt is monotone and correctly rounded, so these are the
    same bits as the reductions of the norms themselves.  It takes each
    median over the paths once, for the rules and the summary alike.
    """

    def __init__(self, cfg: SimConfig, paths: int):
        N, dt = cfg.n_steps, cfg.dt
        self._half_step = 0.5 * dt
        self.n_points = N + 1
        self._cp = [-(-N // q) for q in (16, 8, 4, 2)]
        self.checkpoints = dt * np.array(self._cp, dtype=float)
        self._bounds = [0, *self._cp, self.n_points]
        self._win = N - max(N // 8, 1)
        self._half = self._cp[-1]
        self._t_half, self._t_end = dt * self._half, dt * N
        self._seg_max = np.full((len(self._bounds) - 1, paths), -np.inf)
        self._at_cp = np.empty((paths, len(self._cp)))
        self._win_min = np.full(paths, np.inf)
        self._trap = np.zeros(paths)        # trapezoid sum up to _next - 1
        self._trap_half = np.zeros(paths)
        self._last_sq = np.zeros(paths)     # ||X||^2 at grid point _next - 1
        self._next = np.zeros(paths, dtype=np.int64)   # per path

    def add(self, n0: int, sq, first: int = 0) -> None:
        """Take ||X||^2 at grid points n0 .. n0 + k - 1 of the paths first ..
        first + w - 1, shape (k, w); each of them must have been fed up to
        n0 - 1."""
        sq = np.asarray(sq, dtype=float)
        stop = n0 + len(sq)
        cols = slice(first, first + sq.shape[1])
        fed = self._next[cols]
        if first < 0 or len(fed) != sq.shape[1] or np.any(fed != n0) \
                or stop > self.n_points:
            raise ValueError(f"chunk [{n0}, {stop}) of paths {first} .. "
                             f"{first + sq.shape[1] - 1} does not continue "
                             f"their feed within {self.n_points} points and "
                             f"{len(self._next)} paths")
        for s, (lo, hi) in enumerate(zip(self._bounds, self._bounds[1:])):
            lo, hi = max(lo, n0), min(hi, stop)
            if lo < hi:
                seg = self._seg_max[s, cols]
                np.maximum(seg, sq[lo - n0:hi - n0].max(axis=0), out=seg)
        if stop > self._win:
            win = self._win_min[cols]
            np.minimum(win, sq[max(self._win - n0, 0):].min(axis=0), out=win)
        for j, i in enumerate(self._cp):
            if n0 <= i < stop:
                self._at_cp[cols, j] = sq[i - n0]
        # trapezoid increments of steps n-1 -> n for n in [n0, stop), zero
        # before grid point 0, the first seeded with the running sum: their
        # cumulative sum, sequential for any path count, is the trapezoid sum
        # up to each grid point of the chunk, as one over the whole series
        inc = np.empty(sq.shape)
        np.add(sq[1:], sq[:-1], out=inc[1:])
        inc[0] = 0.0 if n0 == 0 else sq[0] + self._last_sq[cols]
        inc *= self._half_step
        inc[0] += self._trap[cols]
        np.cumsum(inc, axis=0, out=inc)
        if n0 <= self._half < stop:
            self._trap_half[cols] = inc[self._half - n0]
        self._trap[cols] = inc[-1]
        self._last_sq[cols] = sq[-1]
        fed[:] = stop

    def evidence(self, verdict) -> RegimeEvidence:
        """Weigh the fed series against a regime verdict.

        Decision rules: StableAS expects a decreasing tail-sup trend and a
        small final tail sup; BoundedNonConvergent expects a stable tail-sup
        band with window infima collapsing toward zero and a decreasing
        time-average; Unbounded expects running maxima increasing across
        checkpoints, plus the collapse statistics when the noise is fading.
        Mixed signals yield Inconclusive, contradictions Inconsistent; running
        maxima never fall, so the Unbounded rule has no Inconsistent outcome.
        The trends are `log_trend` fits across the checkpoint times.  The
        thresholds are the module constants STABLE_FINAL_SUP, BAND_RATIO,
        LIMINF_FRACTION, LIMINF_RATIO and MIN_GRID_POINTS.  Overflowed
        squares or sums (NaN or +inf) raise FloatingPointError.
        """
        if np.any(self._next != self.n_points):
            raise ValueError(f"only {self._next.min()} of {self.n_points} "
                             f"grid points were fed")
        cps = self.checkpoints
        notes = []
        msq_at = np.mean(self._at_cp, axis=0)
        read = self._seg_max, self._trap_half, self._trap, msq_at
        if not all(np.all(a < np.inf) for a in read):   # -inf: empty segment
            raise FloatingPointError("squared state norms or their time "
                                     "averages overflow")
        suffix = np.maximum.accumulate(self._seg_max[::-1], axis=0)[::-1]
        sups = np.sqrt(suffix[1:].T, order="C")
        prefix = np.maximum.accumulate(self._seg_max[:-1], axis=0).T
        rmax = np.sqrt(np.maximum(prefix, self._at_cp))
        winf_final = np.sqrt(self._win_min)
        aver_half = self._trap_half / self._t_half
        aver_final = self._trap / self._t_end
        sup_med = np.median(sups, axis=0)
        rmax_med = np.median(rmax, axis=0)
        # every median over the paths, each taken once, keyed as summarised
        medians = {"tail_sup_median": sup_med, "running_max_median": rmax_med,
                   "window_inf_final_median": np.median(winf_final),
                   "avg_sq_half_median": np.median(aver_half),
                   "avg_sq_final_median": np.median(aver_final)}

        trends = {
            "tail_sup_median": log_trend(cps, sup_med),
            "running_max_median": log_trend(cps, rmax_med),
            "mean_sq_checkpoints": log_trend(cps, msq_at),
        }

        regime = verdict.regime

        def build(agreement):
            return RegimeEvidence(
                regime=regime, agreement=agreement, checkpoints=cps,
                tail_sups=sups, running_max_at=rmax, window_inf_final=winf_final,
                avg_sq_half=aver_half, avg_sq_final=aver_final,
                medians=medians, trends=trends, notes=tuple(notes))

        if self.n_points < MIN_GRID_POINTS:
            notes.append("horizon too short for trend evidence")
            return build(INCONCLUSIVE)
        if regime == REGIME_UNDECIDED:
            notes.append("no prediction to verify")
            return build(INCONCLUSIVE)

        # shared by the rules below: the tail-sup band at the first checkpoint,
        # the share of paths whose last-window infimum collapses below it, and
        # whether the pathwise time-average falls from T/2 to T
        band, final_med = float(sup_med[0]), float(sup_med[-1])
        frac = float(np.mean(winf_final < LIMINF_RATIO * band)) \
            if band > 0 else 0.0
        avg_falls = bool(medians["avg_sq_final_median"]
                         < medians["avg_sq_half_median"])

        if regime == STABLE:
            t_lab = trends["tail_sup_median"].label
            if t_lab == DECREASING and final_med < STABLE_FINAL_SUP:
                return build(CONSISTENT)
            ratio = final_med / band if band > 0 else 0.0
            if final_med >= 10.0 * STABLE_FINAL_SUP and ratio > 0.5:
                notes.append(f"tail sup median {final_med:.3g} stays large "
                             f"(ratio {ratio:.3g} across checkpoints)")
                return build(INCONSISTENT)
            notes.append("decay visible but not conclusive at this horizon")
            return build(INCONCLUSIVE)

        if regime == BOUNDED:
            ratio = final_med / band if band > 0 else math.inf
            lo, hi = BAND_RATIO
            band_ok = lo <= ratio <= hi
            if band_ok and frac >= LIMINF_FRACTION and avg_falls:
                return build(CONSISTENT)
            if ratio > 2.0 * hi or ratio < 0.5 * lo:
                notes.append(f"tail sup band ratio {ratio:.3g} far outside the "
                             f"stable band")
                return build(INCONSISTENT)
            notes.append(f"band ratio {ratio:.3g}, liminf fraction {frac:.3g}, "
                         f"avg_sq decrease {avg_falls}")
            return build(INCONCLUSIVE)

        if regime == UNBOUNDED:
            growing = bool(np.all(np.diff(rmax_med) > 0))
            collapses = not verdict.fading_noise or (
                frac >= LIMINF_FRACTION and avg_falls)
            if not collapses:
                notes.append("fading-noise collapse statistics missing")
            if not growing:
                notes.append("running maxima not strictly increasing across "
                             "all checkpoints")
            return build(CONSISTENT if growing and collapses else INCONCLUSIVE)

        raise ValueError(f"unknown regime {regime!r}")


def compare(verdict, cfg: SimConfig, shards) -> RegimeEvidence:
    """Weigh shard streams of state chunks (n0, X[k, path, i]) on the grid
    of cfg, such as `prepare(..., cfg).shards(xi)` returns, against a
    regime verdict.

    One accumulator holds every path.  Each shard's squared norms feed its
    own paths' columns of it on the thread that `map_shards` runs the shard
    on; each chunk, and every view of it, is dropped once fed, so per
    running shard only one chunk of states plus the sampler's staging slice
    of at most `_STAGE` paths' draws are alive.  `map_shards` joins its
    threads before the rules run, and `evidence` requires every path to
    have been fed the whole grid.  Both run without overflow warnings, in
    every worker too: `evidence` raises on an overflow instead.
    """
    acc = EvidenceAccumulator(cfg, cfg.paths)

    def reduce(paths, chunks):
        # a few rows at a time: the squared norms and the accumulator's
        # temporaries stay small, and so does a worker thread's own malloc
        # arena, which the calling thread cannot reuse
        rows = max(1, _FEED_NORMS // len(paths))
        for n0, X in chunks:
            for a in range(0, len(X), rows):
                acc.add(n0 + a, squared_norms(X[a:a + rows]), paths.start)
            del X   # let the shard free the chunk before drawing the next

    with np.errstate(over="ignore", invalid="ignore"):
        map_shards(reduce, shards)
        return acc.evidence(verdict)
