"""Classification criteria for the almost-sure asymptotic regime.

The regime of dX = A X dt + sigma(t) dB is decided by the finiteness of the
window sums

    S_h(eps)  = sum_n  1 - Phi(eps / theta(n)),
    S_h'(eps) = sum_n  theta(n) * exp(-eps^2 / (2 theta(n)^2)),

with theta(n)^2 the window energy of ||sigma||_F^2, and of the equivalent
integral criterion I_c(eps).  Finiteness of an infinite sum cannot be decided
from finitely many samples, so rulings come from each built-in envelope
family's asymptotic class and tail bound (comparison and integral tests,
see ``model``) and are Undecided for tables and callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.special import log_ndtr, ndtr

from . import model
from .linalg import monodromy, spectral_abscissa
from .model import (BOUNDED_BELOW, L2, LOG_THRESHOLD, SLOG_ZERO, UNKNOWN, ZERO,
                    CallableDrift, CallableSigma, ConstantDrift, ConstantSigma,
                    DiffusionSpec, EnvelopePattern, PeriodicDrift, TableSigma,
                    frobenius_sq, interval_integrals)

FINITE = "finite"
INFINITE = "infinite"
UNDECIDED = "undecided"

STABLE = "StableAS"
BOUNDED = "BoundedNonConvergent"
UNBOUNDED = "Unbounded"
REGIME_UNDECIDED = "Undecided"


# ---------------------------------------------------------------------------
# elementary terms
# ---------------------------------------------------------------------------

def mills_tail(x: float) -> float:
    """Upper normal tail 1 - Phi(x), with Phi(-inf)=0 and Phi(inf)=1.

    Computed from the complementary error function; beyond x ~ 37 the result
    leaves the normal double range and is continued through the log-tail.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x == math.inf:
        return 0.0
    if x == -math.inf:
        return 1.0
    if x > 37.0:
        return float(math.exp(log_ndtr(-x)))
    return float(ndtr(-x))


def term_S(eps: float, theta_sq: float) -> float:
    """Single term 1 - Phi(eps / theta(n)); zero when theta^2 = 0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if theta_sq < 0:
        raise ValueError("theta_sq must be >= 0")
    if theta_sq == 0.0:
        return 0.0
    return mills_tail(eps / math.sqrt(theta_sq))


def term_Sprime(eps: float, theta_sq: float) -> float:
    """Single term theta(n) * exp(-eps^2 / (2 theta(n)^2)); zero at theta^2=0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if theta_sq < 0:
        raise ValueError("theta_sq must be >= 0")
    if theta_sq == 0.0:
        return 0.0
    return math.sqrt(theta_sq) * math.exp(-eps * eps / (2.0 * theta_sq))


def _terms_Sprime(eps: float, theta_sq: np.ndarray) -> np.ndarray:
    theta_sq = np.asarray(theta_sq, dtype=float)
    out = np.zeros_like(theta_sq)
    pos = theta_sq > 0.0
    with np.errstate(under="ignore", over="ignore"):
        out[pos] = np.sqrt(theta_sq[pos]) * np.exp(-eps * eps / (2.0 * theta_sq[pos]))
    return out


# ---------------------------------------------------------------------------
# asymptotic profile of a diffusion spec
# ---------------------------------------------------------------------------

# trichotomy class of each profile kind: S_h'(eps) and I_c(eps) are finite
# for every eps, for none, or exactly above a threshold eps*
FINITE_FOR_ALL = "finite-for-all"
MIXED = "mixed"
INFINITE_FOR_ALL = "infinite-for-all"
_CLASS = {ZERO: FINITE_FOR_ALL, L2: FINITE_FOR_ALL, SLOG_ZERO: FINITE_FOR_ALL,
          LOG_THRESHOLD: MIXED, BOUNDED_BELOW: INFINITE_FOR_ALL,
          UNKNOWN: UNDECIDED}

# p = eps^2 / (2 L_w) with p - 1 at or below this is p = 1 up to rounding,
# i.e. eps = eps*, where the comparison series diverges
_P_ONE_TOL = 8.0 * 2.0 ** -52


@dataclass(frozen=True)
class _Profile:
    kind: str
    L: float = 0.0          # lim ||sigma(t)||^2 log t
    envelope: object = None
    fro_sq: float = 0.0     # squared norm of the pattern / constant matrix

    @property
    def fading(self) -> Optional[bool]:
        return None if self.kind == UNKNOWN else self.kind != BOUNDED_BELOW


def _analyze(spec: DiffusionSpec, pattern_norm_sq: Optional[float] = None) -> _Profile:
    """Asymptotic class of t -> ||sigma(t)||^2 for the built-in forms.

    pattern_norm_sq overrides the squared pattern norm; used to re-run the
    analysis under a norm other than Frobenius.
    """
    f = spec.form
    if isinstance(f, ConstantSigma):
        m, envelope, (kind, L) = f.values, None, (BOUNDED_BELOW, math.inf)
    elif isinstance(f, EnvelopePattern):
        m, envelope = f.pattern, f.envelope
        kind, L = envelope.profile()
    elif isinstance(f, (TableSigma, CallableSigma)):
        # hold-last extrapolation makes a table's far tail exactly constant,
        # but by design tables never receive a Finite/Infinite ruling
        return _Profile(UNKNOWN)
    else:
        raise TypeError(f"unknown diffusion form {type(f).__name__}")
    F = frobenius_sq(m) if pattern_norm_sq is None else pattern_norm_sq
    if F == 0.0 or kind == ZERO:
        return _Profile(ZERO)
    return _Profile(kind, L * F, envelope, F)


def _status(profile: _Profile, eps: float, width: float) -> str:
    """Finiteness of S'(eps) or I(eps) with windows of the given width."""
    cls = _CLASS[profile.kind]
    if cls == MIXED:
        p = eps * eps / (2.0 * width * profile.L)
        return FINITE if p - 1.0 > _P_ONE_TOL else INFINITE
    return {FINITE_FOR_ALL: FINITE,
            INFINITE_FOR_ALL: INFINITE}.get(cls, UNDECIDED)


# ---------------------------------------------------------------------------
# finiteness rulings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitenessRuling:
    status: str                       # finite | infinite | undecided
    eps: float
    partial_value: float
    n_terms: int
    tail_bound: Optional[float] = None   # present iff status == finite
    witness: Optional[str] = None        # present iff status == infinite

    @property
    def total_upper(self) -> Optional[float]:
        if self.status != FINITE or self.tail_bound is None:
            return None
        return self.partial_value + self.tail_bound


def _rule(spec: DiffusionSpec, eps: float, partial: float, n_terms: int,
          width: float, start: float, divisor: float,
          tol: float) -> FinitenessRuling:
    """Ruling on a partial value computed up to `start` with windows of
    `width`; the tail bound beyond `start` is divided by `divisor`."""
    profile = _analyze(spec)
    status = _status(profile, eps, width)
    if status == FINITE:
        tail = 0.0 if profile.kind == ZERO else \
            profile.envelope.tail(eps, width * profile.fro_sq, start) / divisor
        return FinitenessRuling(FINITE, eps, partial, n_terms, tail_bound=tail)
    if status == UNDECIDED:
        return FinitenessRuling(UNDECIDED, eps, partial, n_terms)
    if profile.kind == LOG_THRESHOLD:
        Lw = width * profile.L
        p = eps * eps / (2.0 * Lw)
        where = "p <= 1" if p <= 1.0 else (
            f"eps equals eps* = sqrt(2 L_w) within rounding "
            f"(p - 1 = {p - 1.0:.2g})")
        witness = (f"terms >= sqrt(L_w/ln(e+t+w)) * (e+t+w)^(-p) with "
                   f"p = eps^2/(2 L_w) = {p:.6g}, L_w = {Lw:.6g} and {where}; "
                   f"the comparison series diverges")
    else:
        # bounded-below forms have non-decreasing envelopes: the window
        # [w, 2w] is the smallest after the first
        b = float(interval_integrals(spec, [width], [2.0 * width], tol)[0])
        witness = (f"window energies are bounded below by {b:.6g} > 0, so each "
                   f"term is >= {term_Sprime(eps, b):.6g} > 0")
    return FinitenessRuling(INFINITE, eps, partial, n_terms, witness=witness)


def partial_sum_Sprime(spec: DiffusionSpec, eps: float, h: float, N: int,
                       tol: float = 1e-10):
    """Partial sum over windows n = 1..N; returns (value, per-term array)."""
    if eps <= 0 or h <= 0 or N < 1:
        raise ValueError("need eps > 0, h > 0, N >= 1")
    edges = h * np.arange(1, N + 2, dtype=float)
    theta_sq = interval_integrals(spec, edges[:-1], edges[1:], tol)
    terms = _terms_Sprime(eps, theta_sq)
    return float(np.sum(terms)), terms


def decide_Sprime(spec: DiffusionSpec, eps: float, h: float,
                  n_terms: int = 512, tol: float = 1e-10) -> FinitenessRuling:
    """Analytic finiteness ruling for S_h'(eps), with a computed partial sum.

    Built-in envelope families get Finite (with tail bound) or Infinite (with
    a divergence witness); tables and callables are Undecided.
    """
    if eps <= 0 or h <= 0:
        raise ValueError("need eps > 0 and h > 0")
    partial, _ = partial_sum_Sprime(spec, eps, h, n_terms, tol)
    # theta^2(n) = varsigma_h^2(n h) and the tail majorant decreases, so the
    # terms n > N sum to at most its integral from N h, divided by h
    return _rule(spec, eps, partial, n_terms, width=h, start=n_terms * h,
                 divisor=h, tol=tol)


# ---------------------------------------------------------------------------
# integral criterion
# ---------------------------------------------------------------------------

def integral_I(spec: DiffusionSpec, eps: float, c: float, t_max: float,
               tol: float = 1e-10) -> float:
    """Partial integral of I_c(eps) over [0, t_max].

    Integrand varsigma_c(t) * exp(-eps^2 / (2 varsigma_c(t)^2)) with the
    zero-energy indicator convention.
    """
    if eps <= 0 or c <= 0 or t_max <= 0:
        raise ValueError("need eps, c, t_max > 0")

    def g(t):
        v = model.running_intensity(spec, c, float(t), tol)
        return term_Sprime(eps, v)

    epsabs, epsrel = tol * max(1.0, t_max), 1e-9
    val, err = quad(g, 0.0, t_max, epsabs=epsabs, epsrel=epsrel, limit=400)
    allowed = max(epsabs, epsrel * abs(val))
    if err > allowed:
        raise model.QuadratureError(
            f"I_c quadrature error {err:.3e} exceeds {allowed:.3e}")
    return float(max(val, 0.0))


def decide_I(spec: DiffusionSpec, eps: float, c: float,
             t_max: float = 256.0, tol: float = 1e-8) -> FinitenessRuling:
    """Analytic finiteness ruling for I_c(eps); shares its ruling with
    decide_Sprime, so both criteria always agree on the status."""
    if eps <= 0 or c <= 0:
        raise ValueError("need eps > 0 and c > 0")
    partial = integral_I(spec, eps, c, t_max, tol)
    return _rule(spec, eps, partial, 0, width=c, start=t_max, divisor=1.0,
                 tol=tol)


# ---------------------------------------------------------------------------
# general grids and row-wise sums
# ---------------------------------------------------------------------------

def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2:
        raise ValueError("grid needs at least two points")
    if g[0] != 0.0:
        raise ValueError("grid must start at t0 = 0")
    gaps = np.diff(g)
    if np.any(gaps <= 0):
        raise ValueError("grid must be strictly increasing")
    return g


def sum_general_grid(spec: DiffusionSpec, eps: float, grid,
                     alpha: Optional[float] = None, beta: Optional[float] = None,
                     tol: float = 1e-10) -> float:
    """Partial sum of 1 - Phi(eps / theta(n)) over a general grid.

    The grid must start at zero with spacings inside [alpha, beta] when those
    bounds are given.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = _validate_grid(grid)
    gaps = np.diff(g)
    if alpha is not None and np.any(gaps < alpha - 1e-12):
        raise ValueError("grid spacing below alpha")
    if beta is not None and np.any(gaps > beta + 1e-12):
        raise ValueError("grid spacing above beta")
    theta_sq = interval_integrals(spec, g[:-1], g[1:], tol)
    return float(sum(term_S(eps, t2) for t2 in theta_sq))


def row_interval_integrals(spec: DiffusionSpec, left, right,
                           tol: float = 1e-10) -> np.ndarray:
    """Row-wise energies int sum_j sigma_ij^2 per interval; shape (N, d)."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    widths = right - left

    def integrand(u):
        pts = left + u * widths
        rows = np.stack([model.sigma_row_sq(spec, float(t)) for t in pts])
        return widths[:, None] * rows

    res, err = quad_vec(integrand, 0.0, 1.0, epsabs=tol, epsrel=0.0, norm="max")
    if err > tol * 1.001:
        raise model.QuadratureError(f"row quadrature error {err:.3e} > {tol:.3e}")
    return np.maximum(res, 0.0)


def rowwise_sum_S1(spec: DiffusionSpec, eps: float, grid,
                   tol: float = 1e-10) -> float:
    """Partial sum of sum_i (1 - Phi(eps / theta_i(n))) over a general grid."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = _validate_grid(grid)
    theta_i_sq = row_interval_integrals(spec, g[:-1], g[1:], tol)
    return float(sum(term_S(eps, t2) for t2 in theta_i_sq.ravel()))


# ---------------------------------------------------------------------------
# extremal time sequences
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f: Callable[[float], float], a: float, b: float,
                iters: int = 60) -> float:
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def _leftmost_extremum(f: Callable[[float], float], a: float, b: float,
                       mode: str, n_scan: int = 1024) -> float:
    """Leftmost minimiser/maximiser on [a, b]: dense scan plus local refine."""
    xs = np.linspace(a, b, n_scan)
    ys = np.array([f(x) for x in xs])
    if mode == "max":
        ys = -ys
    i = int(np.argmin(ys))
    if 0 < i < n_scan - 1 and ys[i - 1] > ys[i] < ys[i + 1]:
        g = (lambda x: -f(x)) if mode == "max" else f
        return _golden_min(g, xs[i - 1], xs[i + 1])
    return float(xs[i])


def build_min_sequence(integrand: Callable[[float], float], h: float,
                       n_max: int) -> np.ndarray:
    """t_0 = 0 and t_{n+1} the leftmost minimiser on [t_n + h, t_n + 2h].

    Spacing is guaranteed to lie in [h, 2h].
    """
    if h <= 0 or n_max < 1:
        raise ValueError("need h > 0 and n_max >= 1")
    ts = [0.0]
    for _ in range(n_max):
        a = ts[-1] + h
        ts.append(_leftmost_extremum(integrand, a, a + h, "min"))
    return np.array(ts)


@dataclass(frozen=True)
class MaxSequence:
    s_times: np.ndarray   # leftmost maximisers per window, s_0 = 0
    t_times: np.ndarray   # derived subsequence with spacing in [h, 3h]
    case: str             # "even" or "odd" subsequence of s


def build_max_sequence(integrand: Callable[[float], float], h: float,
                       n_max: int) -> MaxSequence:
    """s_0 = 0 and s_n the leftmost maximiser on [n h, (n+1) h].

    The derived sequence keeps every other maximiser (whichever parity
    carries the larger mass), giving spacing in [h, 3h].
    """
    if h <= 0 or n_max < 2:
        raise ValueError("need h > 0 and n_max >= 2")
    s = [0.0]
    for n in range(1, n_max + 1):
        s.append(_leftmost_extremum(integrand, n * h, (n + 1) * h, "max"))
    s = np.array(s)
    vals = np.array([integrand(x) for x in s])
    even_mass = float(np.sum(vals[2::2]))
    odd_mass = float(np.sum(vals[1::2]))
    if even_mass >= odd_mass:
        t = np.concatenate(([0.0], s[2::2]))
        case = "even"
    else:
        t = np.concatenate(([0.0], s[1::2]))
        case = "odd"
    return MaxSequence(s_times=s, t_times=t, case=case)


# ---------------------------------------------------------------------------
# fading noise, mean-square equivalents, log-window limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FadingReport:
    fading: Optional[bool]      # None = undecided
    limit_estimate: float       # trailing window-energy level


def check_fading(spec: DiffusionSpec, h: float, n_probe: int = 256,
                 tol: float = 1e-10) -> FadingReport:
    """Whether the window energies theta^2(n) tend to zero.

    Analytic for the built-in envelope families; a trend test over n_probe
    windows otherwise, with Undecided fallback.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    profile = _analyze(spec)
    wi = model.window_intensity(spec, h, n_probe, tol)
    tail_level = float(np.mean(wi.values[-max(4, n_probe // 8):]))
    if profile.fading is not None:
        return FadingReport(fading=profile.fading, limit_estimate=tail_level)
    head = float(np.max(wi.values[: n_probe // 4])) if n_probe >= 8 else math.inf
    tail = float(np.max(wi.values[-n_probe // 4:]))
    if head == 0.0 and tail == 0.0:
        return FadingReport(True, 0.0)
    if head > 0.0 and tail <= 0.05 * head:
        return FadingReport(True, tail_level)
    if tail >= 0.5 * head > 0.0:
        return FadingReport(False, tail_level)
    return FadingReport(None, tail_level)


@dataclass(frozen=True)
class MeanSquareReport:
    fading_single_h: bool
    fading_all_h: bool
    unit_window_limit_zero: bool
    h_values: tuple
    note: str = ("ensemble mean-square decay is checked empirically by the "
                 "statistics layer")

    @property
    def all_equivalent(self) -> bool:
        return (self.fading_single_h == self.fading_all_h
                == self.unit_window_limit_zero)


def mean_square_equiv(spec: DiffusionSpec,
                      h_values=(0.5, 1.0, 2.0)) -> MeanSquareReport:
    """Evaluate the equivalent fading-noise statements for several windows."""
    flags = [check_fading(spec, h).fading for h in h_values]
    if any(f is None for f in flags):
        raise ValueError("fading undecided for this spec; use empirical mode")
    unit = check_fading(spec, 1.0).fading
    return MeanSquareReport(fading_single_h=bool(flags[0]),
                            fading_all_h=all(flags),
                            unit_window_limit_zero=bool(unit),
                            h_values=tuple(h_values))


def limit_Lh(spec: DiffusionSpec, h: float, tol: float = 1e-10) -> Optional[float]:
    """L_h = lim theta^2(n) * ln n, in [0, inf]; None when undecided.

    Analytic for envelope families; for tables the constant extrapolation
    fixes the limit (infinite for a non-zero hold value, zero otherwise).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    profile = _analyze(spec)
    if profile.kind != UNKNOWN:
        return h * profile.L
    f = spec.form
    if isinstance(f, TableSigma):
        hold = frobenius_sq(f.values[-1])
        return math.inf if hold > 0.0 else 0.0
    # callable: sample theta^2(n) * ln n on a dyadic ladder
    ns = [2 ** k for k in range(4, 14)]
    est = [float(interval_integrals(spec, [n * h], [(n + 1) * h], tol)[0])
           * math.log(n) for n in ns]
    last, prev = est[-1], est[-2]
    if last > 2.0 * prev and prev > 0:
        return math.inf
    if abs(last - prev) <= 0.05 * max(abs(last), 1e-300):
        return last
    if last == 0.0 and prev == 0.0:
        return 0.0
    return None


# ---------------------------------------------------------------------------
# regime verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeVerdict:
    regime: str
    drift_stable: bool
    fading_noise: bool
    mean_square_stable: bool
    liminf_zero_predicted: bool
    avg_sq_zero_predicted: bool
    epsilon_star_bracket: Optional[tuple] = None
    note: str = ""


def classify(sigma: DiffusionSpec, drift, h: float = 1.0,
             tol: float = 1e-10) -> RegimeVerdict:
    """Three-way almost-sure regime verdict for dX = A(t) X dt + sigma dB.

    Gate 1 requires a stable drift (negative spectral abscissa, or Floquet
    multiplier inside the unit circle for periodic drifts): noise cannot
    stabilise an unstable linear system, so without the gate nothing can be
    concluded.  Gate 2 takes the regime from the asymptotic class of
    ||sigma(t)||^2: S_h'(eps) finite for every eps gives StableAS, infinite
    for every eps gives Unbounded, and ||sigma||^2 log t -> L in (0, inf)
    gives BoundedNonConvergent with the threshold in closed form,
    eps* = sqrt(2 h L), reported as the bracket (eps*, eps*).  Tables and
    callables are Undecided.
    """
    # gate 1: drift stability
    if isinstance(drift, ConstantDrift):
        drift_stable = spectral_abscissa(drift.matrix) < 0.0
        gate_note = "" if drift_stable else (
            "spectral abscissa >= 0: the unperturbed system is not "
            "asymptotically stable and additive noise cannot stabilise it")
    elif isinstance(drift, (PeriodicDrift, CallableDrift)) and \
            getattr(drift, "period", None) is not None:
        rho = monodromy(drift, tol=max(tol, 1e-12)).rho
        drift_stable = rho < 1.0
        gate_note = "" if drift_stable else (
            f"Floquet multiplier spectral radius {rho:.6g} >= 1: the "
            "unperturbed periodic system is not asymptotically stable and "
            "additive noise cannot stabilise it")
    else:
        drift_stable = False
        gate_note = "drift is neither constant nor periodic: no stability gate"

    fade = check_fading(sigma, h, tol=tol)
    fading = bool(fade.fading) if fade.fading is not None else False

    if not drift_stable:
        return RegimeVerdict(regime=REGIME_UNDECIDED, drift_stable=False,
                             fading_noise=fading, mean_square_stable=fading,
                             liminf_zero_predicted=False,
                             avg_sq_zero_predicted=False, note=gate_note)

    # gate 2: trichotomy class of the noise
    profile = _analyze(sigma)
    cls = _CLASS[profile.kind]
    if cls == UNDECIDED:
        return RegimeVerdict(regime=REGIME_UNDECIDED, drift_stable=True,
                             fading_noise=fading, mean_square_stable=fading,
                             liminf_zero_predicted=False,
                             avg_sq_zero_predicted=False,
                             note="finiteness undecided for this sigma form")
    if cls == FINITE_FOR_ALL:
        return RegimeVerdict(regime=STABLE, drift_stable=True,
                             fading_noise=fading, mean_square_stable=fading,
                             liminf_zero_predicted=False,
                             avg_sq_zero_predicted=False)
    if cls == INFINITE_FOR_ALL:
        return RegimeVerdict(regime=UNBOUNDED, drift_stable=True,
                             fading_noise=fading, mean_square_stable=fading,
                             liminf_zero_predicted=fading,
                             avg_sq_zero_predicted=fading)
    eps_star = math.sqrt(2.0 * h * profile.L)
    return RegimeVerdict(regime=BOUNDED, drift_stable=True,
                         fading_noise=fading, mean_square_stable=fading,
                         liminf_zero_predicted=True,
                         avg_sq_zero_predicted=True,
                         epsilon_star_bracket=(eps_star, eps_star))


# ---------------------------------------------------------------------------
# norm independence
# ---------------------------------------------------------------------------

def _alt_norm_sq(m: np.ndarray, which: str) -> float:
    if which == "max-entry":
        return float(np.max(np.abs(m))) ** 2
    if which == "spectral":
        return float(np.linalg.norm(m, ord=2)) ** 2
    raise ValueError(f"unknown norm {which!r}")


@dataclass(frozen=True)
class NormEquivReport:
    eps: float
    alt_norm: str
    status_frobenius: str
    status_alt: str
    class_frobenius: str
    class_alt: str

    @property
    def classes_agree(self) -> bool:
        return self.class_frobenius == self.class_alt


def norm_equiv_check(spec: DiffusionSpec, eps: float, alt_norm: str,
                     h: float = 1.0) -> NormEquivReport:
    """Re-run the finiteness analysis under another matrix norm.

    Thresholds may move but the trichotomy class must not.
    """
    f = spec.form
    if isinstance(f, ConstantSigma):
        alt_sq = _alt_norm_sq(f.values, alt_norm)
    elif isinstance(f, EnvelopePattern):
        alt_sq = _alt_norm_sq(f.pattern, alt_norm)
    else:
        raise ValueError("norm comparison needs a constant or envelope form")
    fro, alt = _analyze(spec), _analyze(spec, alt_sq)
    return NormEquivReport(
        eps=eps, alt_norm=alt_norm,
        status_frobenius=_status(fro, eps, h),
        status_alt=_status(alt, eps, h),
        class_frobenius=_CLASS[fro.kind],
        class_alt=_CLASS[alt.kind])


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionReport:
    h: float
    c: float
    eps_values: tuple
    sum_rulings: tuple        # FinitenessRuling per eps (window sums)
    integral_rulings: tuple   # FinitenessRuling per eps (integral criterion)
    L_h: Optional[float]
    fading: Optional[bool]

    def to_dict(self) -> dict:
        def rul(r):
            out = {"eps": r.eps, "status": r.status,
                   "partial_value": r.partial_value, "n_terms": r.n_terms}
            if r.tail_bound is not None:
                out["tail_bound"] = r.tail_bound
            if r.witness is not None:
                out["witness"] = r.witness
            return out
        return {
            "h": self.h, "c": self.c,
            "eps_values": list(self.eps_values),
            "L_h": None if self.L_h is None else float(self.L_h),
            "fading": self.fading,
            "sum_rulings": [rul(r) for r in self.sum_rulings],
            "integral_rulings": [rul(r) for r in self.integral_rulings],
        }


def criterion_report(spec: DiffusionSpec, h: float = 1.0, c: float = 1.0,
                     eps_values=(0.5, 1.0, 2.0, 4.0), n_terms: int = 256,
                     t_max: float = 256.0, tol: float = 1e-8) -> CriterionReport:
    """Evaluate both criteria on a small eps grid for reporting."""
    sums = tuple(decide_Sprime(spec, float(e), h, n_terms, min(tol, 1e-8))
                 for e in eps_values)
    ints = tuple(decide_I(spec, float(e), c, t_max, tol) for e in eps_values)
    return CriterionReport(h=h, c=c, eps_values=tuple(float(e) for e in eps_values),
                           sum_rulings=sums, integral_rulings=ints,
                           L_h=limit_Lh(spec, h),
                           fading=check_fading(spec, h).fading)
