"""Empirical evidence for or against a regime verdict.

Almost-sure limits cannot be tested from a finite horizon, so the sample
paths are reduced to finite-horizon proxies: suprema over dyadic tail
segments (limsup proxy), trailing-window infima (liminf proxy) and pathwise
time-averages of ||X||^2.  Every proxy the rules read is a running reduction
at indices known before the run, so `compare` feeds the squared norms of
each of the sampler's shard streams, on the pool thread that runs it, into
an `EvidenceAccumulator` with O(paths) state and never holds an ensemble.
Every reduction is per path, so the accumulators joined along the path axis
hold what one accumulator fed every path would, whatever the shard count.
`evidence` applies simple, explainable decision rules at fixed thresholds,
the module constants below, which no caller or scenario can loosen, and
reports Consistent / Inconsistent / Inconclusive — it never forces agreement.
`ensemble_mean_sq` gives the mean-square curve of an in-memory ensemble.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .model import BOUNDED, REGIME_UNDECIDED, STABLE, UNBOUNDED
from .simulate import PathEnsemble, map_shards, squared_norms

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
# grid helpers and the ensemble mean square
# ---------------------------------------------------------------------------

def dyadic_checkpoints(t_end: float) -> np.ndarray:
    """Limsup-proxy checkpoints T/16, T/8, T/4, T/2."""
    return t_end / np.array([16.0, 8.0, 4.0, 2.0])


def _index_at(times: np.ndarray, t: float) -> int:
    """Index of the first grid time at or after t, up to rounding."""
    return int(np.searchsorted(times, t - 1e-12 * max(1.0, abs(t))))


def _window_samples(times: np.ndarray, window: float) -> int:
    """Number of grid steps spanned by a trailing window (at least one)."""
    if window <= 0 or window > times[-1] - times[0]:
        raise ValueError("window must be positive and fit in the horizon")
    return max(int(round(window / (times[1] - times[0]))), 1)


def _uniform_step(times: np.ndarray) -> float:
    gaps = np.diff(times)
    if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform")
    return float(gaps[0])


def ensemble_mean_sq(ensemble: PathEnsemble):
    """E||X(t)||^2 curve with per-time standard errors; (mean, stderr)."""
    sq = ensemble.norms ** 2
    mean = np.mean(sq, axis=0)
    if ensemble.n_paths > 1:
        se = np.std(sq, axis=0, ddof=1) / math.sqrt(ensemble.n_paths)
    else:
        se = np.zeros_like(mean)
    return mean, se


# ---------------------------------------------------------------------------
# trend classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendResult:
    label: str          # Decreasing | Flat | Increasing
    slope: float        # least-squares slope on the log-time axis
    stderr: float


def trend(times, values) -> TrendResult:
    """Sign of the least-squares slope of values against log(t), at 2 sigma."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = t > 0
    t, v = np.log(t[keep]), v[keep]
    if len(t) < 3:
        raise ValueError("trend needs at least three positive-time points")
    X = np.column_stack([np.ones_like(t), t])
    coef, *_ = np.linalg.lstsq(X, v, rcond=None)
    resid = v - X @ coef
    dof = len(t) - 2
    s2 = float(resid @ resid) / dof if dof > 0 else 0.0
    var_slope = s2 / float(np.sum((t - t.mean()) ** 2))
    se = math.sqrt(max(var_slope, 0.0))
    slope = float(coef[1])
    if slope > 2.0 * se:
        label = INCREASING
    elif slope < -2.0 * se:
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


def _log_trend(times, vals) -> TrendResult:
    """Trend of a positive magnitude series on a log scale.

    Decay over many orders of magnitude then registers as a trend.  A
    monotone series that reaches exact zero has decayed past the smallest
    positive double; the repeated floor values would otherwise inflate the
    regression error and mask the collapse, so it is labelled Decreasing.
    """
    v = np.asarray(vals, dtype=float)
    res = trend(times, np.log(np.maximum(v, 1e-300)))
    if res.label == FLAT and v[0] > 0 and v[-1] == 0.0 and \
            np.all(np.diff(v) <= 0):
        res = TrendResult(label=DECREASING, slope=res.slope, stderr=res.stderr)
    return res


class EvidenceAccumulator:
    """The running reductions of ||X||^2 that the compare rules read.

    Feed the squared norms of grid points n0, n0 + 1, ... in order as
    time-major (k, paths) chunks; the state is O(paths) whatever the
    chunking:

    - the maximum over each segment between the dyadic checkpoints
      T/16 ... T/2, giving tail suprema over [t_i, T] as a suffix maximum
      and running maxima over [0, t_i] as a prefix maximum
    - the minimum over the last window [7T/8, T]
    - the trapezoid sum of ||X||^2 up to T/2 and up to T, from one in-place
      cumulative sum per feed of its increments, seeded with the sum so far
    - ||X||^2 at the checkpoints

    `evidence` takes the square root of the maxima, minima and checkpoint
    values once; sqrt is monotone and correctly rounded, so these are the
    same bits as the reductions of the norms themselves.  It takes each
    median over the paths once, for the rules and the summary alike.
    """

    def __init__(self, times, paths: int):
        times = np.asarray(times, dtype=float)
        self._half_step = 0.5 * _uniform_step(times)
        T = float(times[-1])
        self.n_points = len(times)
        self.checkpoints = dyadic_checkpoints(T)
        self._cp = [_index_at(times, c) for c in self.checkpoints]
        self._bounds = [0, *self._cp, self.n_points]
        self._win = self.n_points - 1 - _window_samples(times, T / 8.0)
        self._half = _index_at(times, T / 2.0)
        self._t_half, self._t_end = float(times[self._half]), T
        self._seg_max = np.full((len(self._bounds) - 1, paths), -np.inf)
        self._at_cp = np.empty((paths, len(self._cp)))
        self._win_min = np.full(paths, np.inf)
        self._trap = np.zeros(paths)        # trapezoid sum up to _next - 1
        self._trap_half = np.zeros(paths)
        self._last_sq = None                # ||X||^2 at grid point _next - 1
        self._next = 0

    # the per-path state and the axis it stacks the paths on
    _PATH_AXIS = {"_seg_max": 1, "_at_cp": 0, "_win_min": 0, "_trap": 0,
                  "_trap_half": 0, "_last_sq": 0}

    @classmethod
    def concat(cls, parts) -> "EvidenceAccumulator":
        """One accumulator over the paths of parts, in order.

        The parts must share the grid and have been fed the same points;
        every per-path reduction is column-wise, so the result is what one
        accumulator fed all the paths would hold.
        """
        if len({p._next for p in parts}) != 1:
            raise ValueError("the parts were fed different grid points")
        acc = copy.copy(parts[0])
        for name, axis in cls._PATH_AXIS.items():
            if getattr(acc, name) is not None:   # _last_sq before any feed
                setattr(acc, name, np.concatenate(
                    [getattr(p, name) for p in parts], axis=axis))
        return acc

    def add(self, n0: int, sq) -> None:
        """Take ||X||^2 at grid points n0 .. n0 + k - 1, shape (k, paths)."""
        sq = np.asarray(sq, dtype=float)
        stop = n0 + len(sq)
        if n0 != self._next or stop > self.n_points:
            raise ValueError(f"chunk [{n0}, {stop}) does not continue at "
                             f"{self._next} within {self.n_points} points")
        for s, (lo, hi) in enumerate(zip(self._bounds, self._bounds[1:])):
            lo, hi = max(lo, n0), min(hi, stop)
            if lo < hi:
                np.maximum(self._seg_max[s], sq[lo - n0:hi - n0].max(axis=0),
                           out=self._seg_max[s])
        if stop > self._win:
            np.minimum(self._win_min, sq[max(self._win - n0, 0):].min(axis=0),
                       out=self._win_min)
        for j, i in enumerate(self._cp):
            if n0 <= i < stop:
                self._at_cp[:, j] = sq[i - n0]
        # trapezoid increments of steps n-1 -> n for n in [n0, stop), zero
        # before grid point 0, the first seeded with the running sum: their
        # cumulative sum, sequential for any path count, is the trapezoid sum
        # up to each grid point of the chunk, as one over the whole series
        inc = np.empty(sq.shape)
        np.add(sq[1:], sq[:-1], out=inc[1:])
        inc[0] = 0.0 if n0 == 0 else sq[0] + self._last_sq
        inc *= self._half_step
        inc[0] += self._trap
        np.cumsum(inc, axis=0, out=inc)
        if n0 <= self._half < stop:
            self._trap_half = inc[self._half - n0].copy()
        self._trap = inc[-1].copy()
        self._last_sq = sq[-1].copy()
        self._next = stop

    def evidence(self, verdict) -> RegimeEvidence:
        """Weigh the fed series against a regime verdict.

        Decision rules: StableAS expects a decreasing tail-sup trend and a
        small final tail sup; BoundedNonConvergent expects a stable tail-sup
        band with window infima collapsing toward zero and a decreasing
        time-average; Unbounded expects running maxima increasing across
        checkpoints, plus the collapse statistics when the noise is fading.
        Mixed signals yield Inconclusive, contradictions Inconsistent.  The
        thresholds are the module constants STABLE_FINAL_SUP, BAND_RATIO,
        LIMINF_FRACTION, LIMINF_RATIO and MIN_GRID_POINTS.  Overflowed
        squares or sums (NaN or +inf) raise FloatingPointError.
        """
        if self._next != self.n_points:
            raise ValueError(f"only {self._next} of {self.n_points} grid "
                             f"points were fed")
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
            "tail_sup_median": _log_trend(cps, sup_med),
            "running_max_median": _log_trend(cps, rmax_med),
            "mean_sq_checkpoints": _log_trend(cps, msq_at),
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
            extras_ok = True
            if getattr(verdict, "fading_noise", False):
                extras_ok = frac >= LIMINF_FRACTION and avg_falls
                if not extras_ok:
                    notes.append("fading-noise collapse statistics missing")
            if growing and extras_ok:
                return build(CONSISTENT)
            if trends["running_max_median"].label == DECREASING:
                notes.append("running maxima decreasing against an unbounded "
                             "prediction")
                return build(INCONSISTENT)
            notes.append("running maxima not strictly increasing across all "
                         "checkpoints")
            return build(INCONCLUSIVE)

        raise ValueError(f"unknown regime {regime!r}")


def compare(verdict, times, shards) -> RegimeEvidence:
    """Weigh shard streams of state chunks (n0, X[k, path, i]) on the grid
    times, such as `sample_chunks` returns, against a regime verdict.

    Each shard's squared norms feed its own accumulator on the thread that
    `map_shards` runs it on; each chunk, and every view of it, is dropped
    once fed, so per running shard only the sampler's draw buffer and one
    chunk of states are alive.  The accumulators are joined along the path
    axis in shard order before the rules run.  Both run without overflow
    warnings, in every worker too: `evidence` raises on an overflow instead.
    """
    def reduce(_, chunks):
        acc = None
        for n0, X in chunks:
            if acc is None:
                acc = EvidenceAccumulator(times, X.shape[1])
            # a few rows at a time: the squared norms and the accumulator's
            # temporaries stay small, and so does a worker thread's own
            # malloc arena, which the calling thread cannot reuse
            rows = max(1, _FEED_NORMS // X.shape[1])
            for a in range(0, len(X), rows):
                acc.add(n0 + a, squared_norms(X[a:a + rows]))
            del X   # let the shard free the chunk before drawing the next
        return acc

    with np.errstate(over="ignore", invalid="ignore"):
        return EvidenceAccumulator.concat(map_shards(reduce, shards)).evidence(
            verdict)
