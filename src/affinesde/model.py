"""Diffusion and drift specifications, and windowed intensity integrals.

The diffusion coefficient is a continuous matrix function sigma(t) of shape
(d, r), and its form is its spec: an ``EnvelopePattern``, an envelope family
times a constant pattern (a constant sigma is the pattern under the
zero-exponent ``PowerLaw``), or a piecewise-linear ``TableSigma``, both
subclasses of the field-less ``DiffusionSpec``, whose constructors build
them; any other object is a TypeError where sigma is read.  ``eval_sigma``
is the one evaluator of both forms, at a single time or at an array of
times; the exact simulation's covariance panel reads both through it.  A
table and a periodic drift are interpolated by one routine, ``_table_at``.
The classification criteria consume sigma only through weighted integrals
of its squared Frobenius norm, so this module centralises those quadratures:
``interval_integrals`` (energy over each interval) and
``row_interval_integrals`` (the same per row of sigma) share one routine,
exact Simpson over a table's pieces and, for envelopes, one call of
``gauss_legendre``, the package's one rule for smooth integrals, whose
``level_search`` also gives the sampler's covariance panel its level.

Specs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot reach the requested tolerance."""


# ---------------------------------------------------------------------------
# envelope families
# ---------------------------------------------------------------------------
#
# Each family carries its own asymptotic mathematics next to ``value``:
#
# * ``profile()`` -- (regime, L, fading): the regime the envelope implies
#   under a stable drift, L = lim value(t)^2 ln t, and whether value(t) -> 0.
#   StableAS when L = 0, BoundedNonConvergent when L is in (0, inf),
#   Unbounded when L = inf; ZERO marks an identically zero envelope, which
#   is StableAS with a tail bound of 0.  Only LogPower below power 1 is
#   Unbounded and fading; every other Unbounded envelope is non-decreasing;
# * ``log_tail(eps, mass, T)`` -- for the StableAS and BoundedNonConvergent
#   families, the natural log of an upper bound on int_T^inf phi(x(t)) dt
#   for every x(t) <= mass * value(t)^2, where
#   phi(x) = sqrt(x) exp(-eps^2 / (2x)); in logs, a bound beyond the double
#   range (PowerLaw's m! for an exponent near 0) still has a size, and one
#   whose log is beyond it too (exponents below about 1e-305) is inf;
# * ``witness(eps, mass)`` -- for the fading families whose sums diverge
#   (LogPower up to power 1), why they diverge when every window energy is
#   at least mass * value(t + w)^2.
#
# A window of width w over a non-increasing envelope has energy at most
# w F value(t)^2 (F the squared pattern norm), so mass = w F bounds the
# running-window integrand of I_w, and at least w F value(t + w)^2.  Each
# bound is the integral of a non-increasing majorant, so
# exp(log_tail(eps, h F, N h)) / h also bounds the window sum over n > N.

# the almost-sure regimes of the trichotomy, and the one profile value
# outside it
STABLE = "StableAS"
BOUNDED = "BoundedNonConvergent"
UNBOUNDED = "Unbounded"
REGIME_UNDECIDED = "Undecided"
ZERO = "zero"                     # identically zero envelope


def _exp_minus_power_bound(eps: float, log_base: float, q: float):
    """Pick m so that, for x <= base s^{-q},
    x e^{-eps^2/(2x)} <= m! (2/eps^2)^m base^{m+1/2} s^{-q(m+1/2)}
    with exponent p = q (m + 1/2) > 1; returns (log coefficient, p).

    m is the least m >= 1 with q (m + 1/2) > 1.25, in closed form; the
    rounding of 1.25 / q moves the closed form by at most one, which the
    two tests of the exact condition put back."""
    m = max(1, math.floor(1.25 / q - 0.5) + 1)
    if m > 1 and q * (m - 0.5) > 1.25:
        m -= 1
    elif q * (m + 0.5) <= 1.25:
        m += 1
    log_coeff = (math.lgamma(m + 1.0) + (m + 0.5) * log_base
                 + m * (math.log(2.0) - 2.0 * math.log(eps)))
    return log_coeff, q * (m + 0.5)


class _Envelope:
    """Base of the envelope families: rejects a non-finite parameter."""

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{type(self).__name__} {f.name} must be "
                                 f"finite")


@dataclass(frozen=True)
class PowerLaw(_Envelope):
    """Envelope k * (1 + t)**alpha."""

    scale: float
    exponent: float

    def value(self, t):
        return self.scale * (1.0 + np.asarray(t, dtype=float)) ** self.exponent

    def profile(self):
        if self.scale == 0.0:
            return ZERO, 0.0, True
        return (STABLE, 0.0, True) if self.exponent < 0.0 else \
            (UNBOUNDED, math.inf, False)

    def log_tail(self, eps: float, mass: float, T: float) -> float:
        # x(t) <= mass k^2 (1+t)^(2a) with a < 0
        try:
            log_coeff, p = _exp_minus_power_bound(
                eps, math.log(mass) + 2.0 * math.log(abs(self.scale)),
                -2.0 * self.exponent)
        except OverflowError:
            # |a| below about 1e-305: m ~ 0.6/|a| overflows log m!, or
            # 1.25/q overflows, so the bound's log is beyond the double range
            return math.inf
        return log_coeff + (1.0 - p) * math.log1p(T) - math.log(p - 1.0)


@dataclass(frozen=True)
class LogPower(_Envelope):
    """Envelope sqrt(gamma / ln(e + t)**power), power <= 1: a threshold at
    power 1, Unbounded noise that fades for power in (0, 1), and noise that
    does not fade for power <= 0."""

    gamma: float
    power: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.gamma < 0:
            raise ValueError("LogPower gamma must be >= 0")
        if self.power > 1:
            raise ValueError("LogPower power above 1 is not supported: its "
                             "tail bound and closed-form energies are open "
                             "(ROADMAP item 2)")

    def value(self, t):
        return np.sqrt(self.gamma / np.log(math.e + np.asarray(t, dtype=float))
                       ** self.power)

    def profile(self):
        if self.gamma == 0.0:
            return ZERO, 0.0, True
        if self.power == 1.0:
            return BOUNDED, self.gamma, True
        return UNBOUNDED, math.inf, self.power > 0.0

    def log_tail(self, eps: float, mass: float, T: float) -> float:
        # power 1: x(t) <= L_w / ln(e+t) with L_w = mass gamma, so
        # phi(x(t)) <= sqrt(L_w / ln(e+t)) (e+t)^(-p), p = eps^2 / (2 L_w)
        Lw = mass * self.gamma
        p = eps * eps / (2.0 * Lw)
        if p <= 1.0:
            raise ValueError("no finite tail at or below the threshold")
        log_span = math.log(math.e + T)
        return (0.5 * (math.log(Lw) - math.log(log_span))
                + (1.0 - p) * log_span - math.log(p - 1.0))

    def witness(self, eps: float, mass: float) -> str:
        # x(t) >= L_w / ln(e+t+w)^power with L_w = mass gamma, and phi
        # increases in x
        Lw = mass * self.gamma
        if self.power == 1.0:
            # phi(x(t)) >= sqrt(L_w / ln(e+t+w)) (e+t+w)^(-p) with
            # p = eps^2 / (2 L_w)
            p = eps * eps / (2.0 * Lw)
            where = "p <= 1" if p <= 1.0 else (
                f"eps equals eps* = sqrt(2 L_w) within rounding "
                f"(p - 1 = {p - 1.0:.2g})")
            return (f"terms >= sqrt(L_w/ln(e+t+w)) * (e+t+w)^(-p) with "
                    f"p = eps^2/(2 L_w) = {p:.6g}, L_w = {Lw:.6g} and {where}; "
                    f"the comparison series diverges")
        # power q < 1: eps^2 ln(e+t+w)^q / (2 L_w) <= ln(e+t+w) / 2 once
        # ln(e+t+w)^(1-q) >= eps^2 / L_w
        q = self.power
        log_start = (2.0 * math.log(eps) - math.log(Lw)) / (1.0 - q)
        try:
            start = f"{math.exp(log_start):.6g}"
        except OverflowError:
            start = f"e^{log_start:.6g}"
        return (f"window energies are >= L_w/ln(e+t+w)^q with L_w = {Lw:.6g} "
                f"and q = {q:.6g} < 1, so once ln(e+t+w) >= "
                f"(eps^2/L_w)^(1/(1-q)) = {start} each term is >= "
                f"sqrt(L_w) ln(e+t+w)^(-q/2) (e+t+w)^(-1/2); the sum diverges")


@dataclass(frozen=True)
class ExpDecay(_Envelope):
    """Envelope k * exp(-lam * t)."""

    scale: float
    rate: float

    def __post_init__(self):
        super().__post_init__()
        if self.rate <= 0:
            raise ValueError("ExpDecay rate must be positive")

    def value(self, t):
        return self.scale * np.exp(-self.rate * np.asarray(t, dtype=float))

    def profile(self):
        return (ZERO if self.scale == 0.0 else STABLE), 0.0, True

    def log_tail(self, eps: float, mass: float, T: float) -> float:
        # x(t) <= B exp(-2 lam t) with B = mass k^2, and
        # x e^{-eps^2/(2x)} <= (2/(e eps^2)) x^{3/2}
        lam = self.rate
        log_B = math.log(mass) + 2.0 * math.log(abs(self.scale))
        return (math.log(2.0) - 1.0 - 2.0 * math.log(eps) + 1.5 * log_B
                - 3.0 * lam * T - math.log(3.0 * lam))


ENVELOPE_FAMILIES = (PowerLaw, LogPower, ExpDecay)


# ---------------------------------------------------------------------------
# diffusion forms
# ---------------------------------------------------------------------------

def _readonly(a, what: str = "matrix entries") -> np.ndarray:
    out = np.array(a, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} must be finite")
    out.setflags(write=False)
    return out


class DiffusionSpec:
    """sigma(t) of shape (d, r): the base of its two forms, EnvelopePattern
    and TableSigma, which the constructors build."""

    # times where sigma may have a kink: a table's knots, else none
    knots = np.empty(0)

    @staticmethod
    def constant(values) -> "EnvelopePattern":
        """A constant sigma: the pattern under the zero-exponent PowerLaw,
        whose value is exactly 1."""
        return DiffusionSpec.envelope(PowerLaw(1.0, 0.0), values)

    @staticmethod
    def envelope(env, pattern) -> "EnvelopePattern":
        return EnvelopePattern(env, np.atleast_2d(np.asarray(pattern, dtype=float)))

    @staticmethod
    def table(times, values) -> "TableSigma":
        v = np.asarray(values, dtype=float)
        return TableSigma(times, v[:, None, None] if v.ndim == 1 else v)


@dataclass(frozen=True)
class EnvelopePattern(DiffusionSpec):
    """sigma(t) = envelope.value(t) * pattern."""

    # field() keeps the inherited DiffusionSpec.envelope from being the default
    envelope: object = field()
    pattern: np.ndarray
    d = property(lambda self: self.pattern.shape[0])
    r = property(lambda self: self.pattern.shape[1])

    def __post_init__(self):
        if not isinstance(self.envelope, ENVELOPE_FAMILIES):
            raise ValueError(f"unknown envelope family: {type(self.envelope).__name__}")
        object.__setattr__(self, "pattern", _readonly(self.pattern))
        if self.pattern.ndim != 2 or self.pattern.size == 0:
            raise ValueError("pattern must be a 2-d matrix with d, r >= 1")


@dataclass(frozen=True)
class TableSigma(DiffusionSpec):
    """Piecewise-linear samples; constant extrapolation beyond the last knot."""

    times: np.ndarray
    values: np.ndarray   # shape (len(times), d, r)
    d = property(lambda self: self.values.shape[1])
    r = property(lambda self: self.values.shape[2])
    knots = property(lambda self: self.times)

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(self.times, "table times"))
        object.__setattr__(self, "values", _readonly(self.values))
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("table needs at least two sample times")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("table times must be strictly increasing")
        if self.times[0] < 0:
            raise ValueError("table times must be >= 0")
        if self.values.ndim != 3 or self.values.shape[0] != len(self.times) \
                or self.values.size == 0:
            raise ValueError("table values must have shape (n_times, d, r)")


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def frobenius_sq(m) -> float:
    """Sum of squared entries; inf where it overflows."""
    a = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):
        return float(np.sum(a * a))


def _check_time(t) -> np.ndarray:
    """t as a float array, after checking every entry is finite and >= 0."""
    tt = np.asarray(t, dtype=float)
    bad = ~np.isfinite(tt) | (tt < 0)
    if np.any(bad):
        raise ValueError(f"time must be finite and >= 0, got {float(tt[bad][0])!r}")
    return tt


def eval_sigma(spec: DiffusionSpec, t) -> np.ndarray:
    """Evaluate sigma(t): a (d, r) matrix for a scalar t, and an array of
    shape t.shape + (d, r) for an array of times.

    Every entry equals the scalar call at its time: envelopes are evaluated
    on a 1-d array even for a scalar t, since numpy's scalar power rounds
    differently from its array loop.
    """
    tt = _check_time(t)
    if isinstance(spec, TableSigma):
        return _table_at(spec.times, spec.values, tt)
    if not isinstance(spec, EnvelopePattern):
        raise TypeError(f"sigma must be an EnvelopePattern or a TableSigma, "
                        f"got {type(spec).__name__}")
    env = spec.envelope.value(tt.reshape(-1)).reshape(tt.shape)
    # one (i, j) entry at a time: a broadcast's inner loop would be r long
    out = np.empty(tt.shape + spec.pattern.shape)
    for (i, j), p in np.ndenumerate(spec.pattern):
        np.multiply(env, p, out=out[..., i, j])
    return out


def _table_at(ts: np.ndarray, vs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Samples vs at knots ts, interpolated linearly at times t of any shape,
    a 0-d one included, and held at the end values beyond the knots."""
    i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    w = ((t - ts[i]) / (ts[i + 1] - ts[i]))[..., None, None]
    out = (1.0 - w) * vs[i] + w * vs[i + 1]
    out[t <= ts[0]] = vs[0]
    out[t >= ts[-1]] = vs[-1]
    return out


def sigma_fro_sq(spec: DiffusionSpec, t) -> np.ndarray:
    """||sigma(t)||_F^2, shape t.shape."""
    m = eval_sigma(spec, t)
    return np.einsum("...ij,...ij->...", m, m)


def sigma_row_sq(spec: DiffusionSpec, t) -> np.ndarray:
    """Row-wise sums sum_j sigma_ij(t)^2, shape t.shape + (d,)."""
    m = eval_sigma(spec, t)
    return np.einsum("...ij,...ij->...i", m, m)


# ---------------------------------------------------------------------------
# quadrature and intensity integrals
# ---------------------------------------------------------------------------

GL_NODES = 12        # Gauss-Legendre nodes per panel
GL_MAX_LEVEL = 12    # the finest level has 2^12 panels

# the GL_NODES-point rule on [-1, 1], numpy.polynomial.legendre.leggauss(12)
# bit for bit, kept as literals so that no caller loads numpy.polynomial
_GL_X = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL_W = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141])


def gauss_legendre_rule(level: int):
    """Nodes u and weights w on [0, 1] of GL_NODES Gauss-Legendre nodes on
    each of 2^level equal panels, in panel order."""
    panels = 2 ** level
    u = (np.arange(panels)[:, None] + 0.5 * (_GL_X + 1.0)) / panels
    return u.ravel(), np.tile(0.5 * _GL_W / panels, panels)


def level_search(value, bound, level: int = 0, error=QuadratureError,
                 what="quadrature value",
                 fails="quadrature error {diff:.3e} exceeds {allowed:.3e}"):
    """value(u, w) on `gauss_legendre_rule(lev)` at lev = level, level + 1,
    ... until two levels differ by at most bound(finer value) in every
    entry (one bound or one per entry): the finer value and its level.
    Raises error "<what> is not finite at N panels" at the first level whose
    value is not, as finer panels do not bring an overflowed sum back, and
    "<fails> at N panels", with the worst entry, past 2^GL_MAX_LEVEL."""
    prev = None
    for lev in range(level, max(level + 1, GL_MAX_LEVEL) + 1):
        val = value(*gauss_legendre_rule(lev))
        if not np.all(np.isfinite(val)):
            raise error(f"{what} is not finite at {2 ** lev} panels")
        if prev is not None:
            diff, allowed = np.broadcast_arrays(abs(val - prev), bound(val))
            if np.all(diff <= allowed):
                return val, lev
        prev = val
    worst = np.argmax(diff - allowed)
    detail = fails.format(diff=diff.flat[worst], allowed=allowed.flat[worst])
    raise error(f"{detail} at {2 ** lev} panels")


def gauss_legendre(f, bound, level: int = 0) -> np.ndarray:
    """Integral over [0, 1] of f, whose values at a 1-d array of nodes have
    the nodes on the first axis, by `level_search` from 2^level panels."""
    return level_search(lambda u, w: np.tensordot(w, f(u), axes=1), bound,
                        level)[0]


def _times(widths: np.ndarray, v: np.ndarray) -> np.ndarray:
    """widths * v, with widths broadcast over the trailing axes of v."""
    return widths.reshape(widths.shape + (1,) * (v.ndim - widths.ndim)) * v


def _simpson(sq, spec: DiffusionSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Simpson's rule for sq(spec, t) on each [a[i], b[i]]."""
    fa, fm, fb = sq(spec, np.stack((a, 0.5 * (a + b), b)))
    return _times(b - a, fa + 4.0 * fm + fb) / 6.0


def _energies(sq, spec: DiffusionSpec, left, right, tol: float) -> np.ndarray:
    """Integral of sq(spec, t), sq = sigma_fro_sq or sigma_row_sq, over each
    [left[i], right[i]].  A table's sq is quadratic between knots, so Simpson
    is exact on every piece: the partial first and last, and the whole knot
    segments between them, whose energies are summed over the segments each
    interval covers alone.  Envelopes share one gauss_legendre."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape:
        raise ValueError("left/right shape mismatch")
    if np.any(left < 0) or np.any(right < left):
        raise ValueError("intervals must satisfy 0 <= left <= right")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(spec, TableSigma):
        ts = spec.times
        i = np.searchsorted(ts, left, side="right")      # first knot > left
        j = np.searchsorted(ts, right, side="left") - 1  # last knot < right
        split = i <= j
        i, j = np.minimum(i, len(ts) - 1), np.maximum(j, 0)
        # an overflow gives inf or NaN (0 inf), which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            # seg[k] integrates over [ts[k], ts[k + 1]], the last over the
            # empty [ts[-1], ts[-1]]; reduceat sums seg[i:j] where i < j and
            # gives seg[i] where the interval covers no whole segment, which
            # the mask drops, so no other segment enters an interval's sum
            seg = _simpson(sq, spec, ts, np.r_[ts[1:], ts[-1]])
            whole = np.add.reduceat(seg, np.stack((i, j), -1).ravel(), axis=0)
            whole = whole[::2].reshape(i.shape + seg.shape[1:])
            covers = (i < j).reshape(i.shape + (1,) * (seg.ndim - 1))
            res = (_simpson(sq, spec, left, np.where(split, ts[i], right))
                   + np.where(covers, whole, 0.0)
                   + _simpson(sq, spec, np.where(split, ts[j], right), right))
        if not np.all(np.isfinite(res)):
            raise QuadratureError("table energy is not finite")
        return res

    # envelopes: map every interval onto u in [0, 1] and integrate the
    # whole array on one shared rule
    widths = right - left

    def integrand(u):
        t = left + u.reshape((-1,) + (1,) * left.ndim) * widths
        return _times(np.broadcast_to(widths, t.shape), sq(spec, t))

    # tol is absolute for O(1) windows and relative once the window mass is
    # large, since float64 quadrature cannot beat ~1e-15 of the magnitude
    res = gauss_legendre(integrand, lambda v: tol * max(
        1.0, float(np.max(np.abs(v), initial=0.0))))
    return np.maximum(res, 0.0)


def interval_integrals(spec: DiffusionSpec, left, right, tol: float = 1e-10) -> np.ndarray:
    """Integral of ||sigma||_F^2 over each interval [left[i], right[i]].

    Composite Gauss-Legendre (`gauss_legendre`) with absolute error <= tol
    per interval, relative once the energies exceed 1; exact for tables.
    """
    return _energies(sigma_fro_sq, spec, left, right, tol)


def row_interval_integrals(spec: DiffusionSpec, left, right,
                           tol: float = 1e-10) -> np.ndarray:
    """Row-wise energies int sum_j sigma_ij^2 per interval; shape (N, d)."""
    return _energies(sigma_row_sq, spec, left, right, tol)


# ---------------------------------------------------------------------------
# drift specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantDrift:
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(np.atleast_2d(self.matrix)))
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("drift matrix must be square")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def _check_period(period) -> None:
    # a NaN period passes `period <= 0`, and its monodromy never ends
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and positive, got {period!r}")


@dataclass(frozen=True)
class PeriodicDrift:
    """T-periodic matrix function sampled on [0, T), piecewise linear.

    Evaluation wraps t mod T; the segment from the last knot back to t=T
    interpolates towards the first sample, so A(t + T) = A(t) exactly.  A
    kinks at the knots, so `linalg.monodromy` cuts each knot interval, the
    wrap interval included, into equal segments of its own, on whose edges
    every knot falls.
    """

    period: float
    times: np.ndarray
    values: np.ndarray   # (n_times, d, d)

    def __post_init__(self):
        _check_period(self.period)
        object.__setattr__(self, "times", _readonly(self.times, "table times"))
        object.__setattr__(self, "values", _readonly(self.values))
        ts = self.times
        if ts.ndim != 1 or len(ts) < 1 or ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        if ts[-1] >= self.period:
            raise ValueError("times must lie in [0, period)")
        v = self.values
        if v.ndim != 3 or v.shape[0] != len(ts) or v.shape[1] != v.shape[2]:
            raise ValueError("values must have shape (n_times, d, d)")
        # eval_drift's segments: the knots closed by the period, whose value
        # is the first sample again
        object.__setattr__(self, "_knot_array", np.append(ts, self.period))
        object.__setattr__(self, "_value_array", np.concatenate([v, v[:1]]))

    @property
    def d(self) -> int:
        return self.values.shape[1]


def check_drift(drift) -> None:
    """Raise a TypeError unless drift is a ConstantDrift or a PeriodicDrift,
    the two drifts the classification covers."""
    if not isinstance(drift, (ConstantDrift, PeriodicDrift)):
        raise TypeError(f"drift must be a ConstantDrift or a PeriodicDrift, "
                        f"got {type(drift).__name__}")


def eval_drift(drift, t) -> np.ndarray:
    """Evaluate A(t) of a ConstantDrift or a PeriodicDrift: a (d, d) matrix
    for a scalar t, and an array of shape t.shape + (d, d) for an array of
    times; a periodic drift's times must be finite.
    """
    check_drift(drift)
    if isinstance(drift, ConstantDrift):
        return np.array(np.broadcast_to(drift.matrix,
                                        np.shape(t) + drift.matrix.shape))
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("drift times must be finite")
    # t wrapped into [0, T) by fmod, or onto T itself after rounding
    tm = np.fmod(t, drift.period)
    return _table_at(drift._knot_array, drift._value_array,
                     np.where(tm < 0, tm + drift.period, tm))
