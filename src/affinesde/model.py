"""Diffusion and drift specifications, and windowed intensity integrals.

The diffusion coefficient is a continuous matrix function sigma(t) of shape
(d, r).  Everything downstream (classification criteria, exact simulation)
consumes sigma only through weighted integrals of its squared Frobenius norm,
so this module centralises those quadratures:

* ``window_intensity``     -- energy per uniform window [n*h, (n+1)*h]
* ``running_intensity``    -- energy over a sliding window [t, t+c]
* ``exp_weighted_tail``    -- exponentially discounted energy on [0, t]

Specs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad_vec


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""


# ---------------------------------------------------------------------------
# envelope families
# ---------------------------------------------------------------------------
#
# Each family carries its own asymptotic mathematics next to ``value``:
#
# * ``profile()`` -- the asymptotic class of value(t)^2 and
#   L = lim value(t)^2 ln t;
# * ``tail(eps, mass, T)`` -- for the classes that can give a finite
#   criterion, an upper bound on int_T^inf phi(x(t)) dt for every
#   x(t) <= mass * value(t)^2, where phi(x) = sqrt(x) exp(-eps^2 / (2x)).
#
# A window of width w over a non-increasing envelope has energy at most
# w F value(t)^2 (F the squared pattern norm), so mass = w F bounds the
# running-window integrand of I_w.  Each bound is the integral of a
# non-increasing majorant, so tail(eps, h F, N h) / h also bounds the window
# sum over n > N.

# asymptotic classes of t -> value(t)^2
ZERO = "zero"                     # identically zero
L2 = "l2"                         # square integrable
SLOG_ZERO = "slog_zero"           # value^2 log t -> 0 but not square integrable
LOG_THRESHOLD = "log_threshold"   # value^2 log t -> L in (0, inf)
BOUNDED_BELOW = "bounded_below"   # window energies bounded away from zero
UNKNOWN = "unknown"               # table / callable: no analytic class


def _exp_minus_power_bound(eps: float, base: float, q: float):
    """Pick m so that, for x <= base s^{-q},
    x e^{-eps^2/(2x)} <= m! (2/eps^2)^m base^{m+1/2} s^{-q(m+1/2)}
    with exponent p = q (m + 1/2) > 1; returns (coefficient, p)."""
    m = 1
    while q * (m + 0.5) <= 1.25:
        m += 1
    coeff = math.factorial(m) * (2.0 / (eps * eps)) ** m * base ** (m + 0.5)
    return coeff, q * (m + 0.5)


@dataclass(frozen=True)
class PowerLaw:
    """Envelope k * (1 + t)**alpha."""

    scale: float
    exponent: float

    def __post_init__(self):
        if not math.isfinite(self.scale) or not math.isfinite(self.exponent):
            raise ValueError("PowerLaw parameters must be finite")

    def value(self, t):
        return self.scale * (1.0 + np.asarray(t, dtype=float)) ** self.exponent

    def profile(self):
        a = self.exponent
        if self.scale == 0.0:
            return ZERO, 0.0
        if 2.0 * a < -1.0:
            return L2, 0.0
        if a < 0.0:
            return SLOG_ZERO, 0.0
        return BOUNDED_BELOW, math.inf

    def tail(self, eps: float, mass: float, T: float) -> float:
        # x(t) <= mass k^2 (1+t)^(2a) with a < 0
        coeff, p = _exp_minus_power_bound(eps, mass * self.scale ** 2,
                                          -2.0 * self.exponent)
        return coeff * (1.0 + T) ** (1.0 - p) / (p - 1.0)


@dataclass(frozen=True)
class LogPower:
    """Envelope sqrt(gamma / ln(e + t))."""

    gamma: float

    def __post_init__(self):
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ValueError("LogPower gamma must be finite and >= 0")

    def value(self, t):
        return np.sqrt(self.gamma / np.log(math.e + np.asarray(t, dtype=float)))

    def profile(self):
        if self.gamma == 0.0:
            return ZERO, 0.0
        return LOG_THRESHOLD, self.gamma

    def tail(self, eps: float, mass: float, T: float) -> float:
        # x(t) <= L_w / ln(e+t) with L_w = mass gamma, so
        # phi(x(t)) <= sqrt(L_w / ln(e+t)) (e+t)^(-p), p = eps^2 / (2 L_w)
        Lw = mass * self.gamma
        p = eps * eps / (2.0 * Lw)
        if p <= 1.0:
            raise ValueError("no finite tail at or below the threshold")
        lead = math.sqrt(Lw / math.log(math.e + T))
        return lead * (math.e + T) ** (1.0 - p) / (p - 1.0)


@dataclass(frozen=True)
class ExpDecay:
    """Envelope k * exp(-lam * t)."""

    scale: float
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("ExpDecay rate must be positive")

    def value(self, t):
        return self.scale * np.exp(-self.rate * np.asarray(t, dtype=float))

    def profile(self):
        return (ZERO if self.scale == 0.0 else L2), 0.0

    def tail(self, eps: float, mass: float, T: float) -> float:
        # x(t) <= B exp(-2 lam t) with B = mass k^2, and
        # x e^{-eps^2/(2x)} <= (2/(e eps^2)) x^{3/2}
        lam, B = self.rate, mass * self.scale ** 2
        return (2.0 / (math.e * eps * eps) * B ** 1.5
                * math.exp(-3.0 * lam * T) / (3.0 * lam))


@dataclass(frozen=True)
class LogGrow:
    """Envelope k * (ln(e + t))**beta with beta > 0."""

    scale: float
    exponent: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("LogGrow exponent must be positive")

    def value(self, t):
        return self.scale * np.log(math.e + np.asarray(t, dtype=float)) ** self.exponent

    def profile(self):
        # never finite, so no tail bound
        if self.scale == 0.0:
            return ZERO, 0.0
        return BOUNDED_BELOW, math.inf


ENVELOPE_FAMILIES = (PowerLaw, LogPower, ExpDecay, LogGrow)


# ---------------------------------------------------------------------------
# diffusion forms
# ---------------------------------------------------------------------------

def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ConstantSigma:
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 2:
            raise ValueError("constant sigma must be a 2-d matrix")


@dataclass(frozen=True)
class EnvelopePattern:
    envelope: object
    pattern: np.ndarray

    def __post_init__(self):
        if not isinstance(self.envelope, ENVELOPE_FAMILIES):
            raise ValueError(f"unknown envelope family: {type(self.envelope).__name__}")
        object.__setattr__(self, "pattern", _readonly(self.pattern))
        if self.pattern.ndim != 2:
            raise ValueError("pattern must be a 2-d matrix")


@dataclass(frozen=True)
class TableSigma:
    """Piecewise-linear samples; constant extrapolation beyond the last knot."""

    times: np.ndarray
    values: np.ndarray   # shape (len(times), d, r)

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "values", _readonly(self.values))
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("table needs at least two sample times")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("table times must be strictly increasing")
        if self.times[0] < 0:
            raise ValueError("table times must be >= 0")
        if self.values.shape[0] != len(self.times) or self.values.ndim != 3:
            raise ValueError("table values must have shape (n_times, d, r)")


@dataclass(frozen=True)
class CallableSigma:
    """Arbitrary user function t -> (d, r) matrix.  Empirical mode only:
    no finiteness rulings are derived from it."""

    fn: Callable[[float], np.ndarray]


@dataclass(frozen=True)
class DiffusionSpec:
    d: int
    r: int
    form: object

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise ValueError("dimensions must be positive")
        f = self.form
        if isinstance(f, ConstantSigma) and f.values.shape != (self.d, self.r):
            raise ValueError("constant sigma shape mismatch")
        if isinstance(f, EnvelopePattern) and f.pattern.shape != (self.d, self.r):
            raise ValueError("pattern shape mismatch")
        if isinstance(f, TableSigma) and f.values.shape[1:] != (self.d, self.r):
            raise ValueError("table value shape mismatch")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def constant(values) -> "DiffusionSpec":
        m = np.atleast_2d(np.asarray(values, dtype=float))
        return DiffusionSpec(m.shape[0], m.shape[1], ConstantSigma(m))

    @staticmethod
    def envelope(env, pattern) -> "DiffusionSpec":
        p = np.atleast_2d(np.asarray(pattern, dtype=float))
        return DiffusionSpec(p.shape[0], p.shape[1], EnvelopePattern(env, p))

    @staticmethod
    def table(times, values) -> "DiffusionSpec":
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None, None]
        return DiffusionSpec(v.shape[1], v.shape[2],
                             TableSigma(np.asarray(times, float), v))

    @staticmethod
    def from_callable(fn, d: int, r: int) -> "DiffusionSpec":
        return DiffusionSpec(d, r, CallableSigma(fn))


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def frobenius_sq(m) -> float:
    """Sum of squared entries."""
    a = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return float(np.sum(a * a))


def _check_time(t: float):
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and >= 0, got {t!r}")


def _table_interp(tab: TableSigma, t: float) -> np.ndarray:
    ts = tab.times
    if t <= ts[0]:
        return tab.values[0]
    if t >= ts[-1]:
        return tab.values[-1]
    i = int(np.searchsorted(ts, t, side="right")) - 1
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return (1.0 - w) * tab.values[i] + w * tab.values[i + 1]


def eval_sigma(spec: DiffusionSpec, t: float) -> np.ndarray:
    """Evaluate sigma(t) as a (d, r) matrix."""
    _check_time(t)
    f = spec.form
    if isinstance(f, ConstantSigma):
        return f.values.copy()
    if isinstance(f, EnvelopePattern):
        return float(f.envelope.value(t)) * f.pattern
    if isinstance(f, TableSigma):
        return np.array(_table_interp(f, t))
    if isinstance(f, CallableSigma):
        out = np.atleast_2d(np.asarray(f.fn(t), dtype=float))
        if out.shape != (spec.d, spec.r):
            raise ValueError("callable sigma returned wrong shape")
        return out
    raise TypeError(f"unknown diffusion form {type(f).__name__}")


def sigma_fro_sq(spec: DiffusionSpec, t) -> np.ndarray:
    """Vectorised ||sigma(t)||_F^2 for an array of times."""
    tt = np.asarray(t, dtype=float)
    f = spec.form
    if isinstance(f, ConstantSigma):
        return np.full(tt.shape, frobenius_sq(f.values))
    if isinstance(f, EnvelopePattern):
        env = np.asarray(f.envelope.value(tt))
        return env * env * frobenius_sq(f.pattern)
    if isinstance(f, TableSigma):
        flat = tt.ravel()
        out = np.array([float(np.sum(_table_interp(f, s) ** 2)) for s in flat])
        return out.reshape(tt.shape)
    if isinstance(f, CallableSigma):
        flat = tt.ravel()
        out = np.array([float(np.sum(np.asarray(f.fn(s), float) ** 2)) for s in flat])
        return out.reshape(tt.shape)
    raise TypeError(f"unknown diffusion form {type(f).__name__}")


def sigma_row_sq(spec: DiffusionSpec, t: float) -> np.ndarray:
    """Row-wise sums sum_j sigma_ij(t)^2, shape (d,)."""
    m = eval_sigma(spec, t)
    return np.sum(m * m, axis=1)


# ---------------------------------------------------------------------------
# intensity integrals
# ---------------------------------------------------------------------------

def _table_fro_sq_integral(tab: TableSigma, a: float, b: float) -> float:
    """Exact integral of ||sigma||_F^2 over [a, b] for a piecewise-linear table.

    The integrand is piecewise quadratic, so Simpson on each linear piece is
    exact.
    """
    if b <= a:
        return 0.0
    knots = tab.times[(tab.times > a) & (tab.times < b)]
    pts = np.concatenate(([a], knots, [b]))
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        flo = float(np.sum(_table_interp(tab, lo) ** 2))
        fmid = float(np.sum(_table_interp(tab, mid) ** 2))
        fhi = float(np.sum(_table_interp(tab, hi) ** 2))
        total += (hi - lo) * (flo + 4.0 * fmid + fhi) / 6.0
    return total


def interval_integrals(spec: DiffusionSpec, left, right, tol: float = 1e-10) -> np.ndarray:
    """Integral of ||sigma||_F^2 over each interval [left[i], right[i]].

    Adaptive (Gauss-Kronrod based) with absolute error <= tol per interval;
    exact for Constant and Table forms.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape:
        raise ValueError("left/right shape mismatch")
    if np.any(left < 0) or np.any(right < left):
        raise ValueError("intervals must satisfy 0 <= left <= right")
    if tol <= 0:
        raise ValueError("tol must be positive")
    f = spec.form
    widths = right - left
    if isinstance(f, ConstantSigma):
        return frobenius_sq(f.values) * widths
    if isinstance(f, TableSigma):
        return np.array([_table_fro_sq_integral(f, a, b) for a, b in zip(left, right)])

    # smooth forms: map every interval onto u in [0, 1] and integrate the
    # whole vector with one shared adaptive subdivision
    def integrand(u):
        return widths * sigma_fro_sq(spec, left + u * widths)

    res, err = quad_vec(integrand, 0.0, 1.0, epsabs=tol, epsrel=tol, norm="max")
    # tol is absolute for O(1) windows and relative once the window mass is
    # large, since float64 quadrature cannot beat ~1e-15 of the magnitude
    scale = max(1.0, float(np.max(np.abs(res), initial=0.0)))
    if err > tol * 1.001 * scale:
        worst = float(np.max(widths))
        raise QuadratureError(
            f"window quadrature error {err:.3e} exceeds tol {tol:.3e} "
            f"(widest interval {worst:.3e})")
    return np.maximum(res, 0.0)


def integrate_fro_sq(spec: DiffusionSpec, a: float, b: float, tol: float = 1e-10) -> float:
    """Integral of ||sigma||_F^2 over [a, b]."""
    return float(interval_integrals(spec, [a], [b], tol)[0])


@dataclass(frozen=True)
class WindowIntensity:
    """theta^2(n) = int_{n h}^{(n+1) h} ||sigma||_F^2 for n = 0..N-1."""

    h: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))


def window_intensity(spec: DiffusionSpec, h: float, n_max: int,
                     tol: float = 1e-10) -> WindowIntensity:
    """Window energies on the uniform grid of step h, windows 0..n_max-1."""
    if h <= 0:
        raise ValueError("h must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    edges = h * np.arange(n_max + 1, dtype=float)
    vals = interval_integrals(spec, edges[:-1], edges[1:], tol)
    return WindowIntensity(h=h, values=vals)


def running_intensity(spec: DiffusionSpec, c: float, t: float,
                      tol: float = 1e-10) -> float:
    """Sliding-window energy int_t^{t+c} ||sigma||_F^2."""
    if c <= 0:
        raise ValueError("c must be positive")
    _check_time(t)
    return integrate_fro_sq(spec, t, t + c, tol)


def exp_weighted_tail(spec: DiffusionSpec, lam: float, t: float,
                      tol: float = 1e-10) -> float:
    """Discounted energy int_0^t exp(-2 lam (t-s)) ||sigma(s)||_F^2 ds."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    _check_time(t)
    if t == 0.0:
        return 0.0

    def integrand(s):
        return np.exp(-2.0 * lam * (t - s)) * sigma_fro_sq(spec, s)

    res, err = quad_vec(integrand, 0.0, t, epsabs=tol, epsrel=0.0)
    if err > tol * 1.001:
        raise QuadratureError(f"discounted-tail quadrature error {err:.3e} > {tol:.3e}")
    return float(max(res, 0.0))


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


@dataclass(frozen=True)
class PeriodicDrift:
    """T-periodic matrix function sampled on [0, T), piecewise linear.

    Evaluation wraps t mod T; the segment from the last knot back to t=T
    interpolates towards the first sample, so A(t + T) = A(t) exactly.
    """

    period: float
    times: np.ndarray
    values: np.ndarray   # (n_times, d, d)

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "values", _readonly(self.values))
        ts = self.times
        if ts.ndim != 1 or len(ts) < 1 or ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        if ts[-1] >= self.period:
            raise ValueError("times must lie in [0, period)")
        v = self.values
        if v.ndim != 3 or v.shape[0] != len(ts) or v.shape[1] != v.shape[2]:
            raise ValueError("values must have shape (n_times, d, d)")

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CallableDrift:
    """Arbitrary matrix function of time; period is optional metadata."""

    fn: Callable[[float], np.ndarray]
    d: int
    period: Optional[float] = None


DriftSpec = (ConstantDrift, PeriodicDrift, CallableDrift)


def eval_drift(drift, t: float) -> np.ndarray:
    """Evaluate A(t) as a (d, d) matrix."""
    if isinstance(drift, ConstantDrift):
        return drift.matrix.copy()
    if isinstance(drift, PeriodicDrift):
        tm = math.fmod(float(t), drift.period)
        if tm < 0:
            tm += drift.period
        ts, vs = drift.times, drift.values
        if tm >= ts[-1]:
            # wrap segment [t_last, T] -> first sample
            span = drift.period - ts[-1]
            w = 0.0 if span == 0 else (tm - ts[-1]) / span
            return np.array((1.0 - w) * vs[-1] + w * vs[0])
        i = int(np.searchsorted(ts, tm, side="right")) - 1
        w = (tm - ts[i]) / (ts[i + 1] - ts[i])
        return np.array((1.0 - w) * vs[i] + w * vs[i + 1])
    if isinstance(drift, CallableDrift):
        out = np.atleast_2d(np.asarray(drift.fn(t), dtype=float))
        if out.shape != (drift.d, drift.d):
            raise ValueError("callable drift returned wrong shape")
        return out
    raise TypeError(f"unknown drift form {type(drift).__name__}")
