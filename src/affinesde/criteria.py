"""Classification criteria for the almost-sure asymptotic regime.

The regime of dX = A X dt + sigma(t) dB is decided by the finiteness of the
window sums

    S_h(eps)  = sum_n  1 - Phi(eps / theta(n)),
    S_h'(eps) = sum_n  theta(n) * exp(-eps^2 / (2 theta(n)^2)),

with theta(n)^2 the window energy of ||sigma||_F^2, and of the equivalent
integral criterion I_c(eps).  Finiteness of an infinite sum cannot be decided
from finitely many samples, so rulings come from the regime each built-in
envelope family names and its tail bound (comparison and integral tests,
see ``model``) and are Undecided for tables.  Every S' and I routine takes
one eps or a 1-d array of them (one value or ruling per eps) and computes
the window energies, which do not depend on eps, once for all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import model
from .linalg import monodromy, spectral_abscissa
from .model import (BOUNDED, REGIME_UNDECIDED, STABLE, UNBOUNDED, ZERO,
                    ConstantDrift, DiffusionSpec, EnvelopePattern, TableSigma,
                    check_drift, frobenius_sq, interval_integrals)

FINITE = "finite"
INFINITE = "infinite"
UNDECIDED = "undecided"


# ---------------------------------------------------------------------------
# elementary terms
# ---------------------------------------------------------------------------

def mills_tail(x: float) -> float:
    """Upper normal tail 1 - Phi(x) = erfc(x / sqrt(2)) / 2, with
    Phi(-inf) = 0 and Phi(inf) = 1.  erfc keeps its relative accuracy into
    the subnormal range, so the tail stays positive up to x ~ 38.5.
    """
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def term_S(eps: float, theta_sq: float) -> float:
    """Single term 1 - Phi(eps / theta(n)); zero when theta^2 = 0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if theta_sq < 0:
        raise ValueError("theta_sq must be >= 0")
    if theta_sq == 0.0:
        return 0.0
    return mills_tail(eps / math.sqrt(theta_sq))


def term_Sprime(eps, theta_sq):
    """Terms theta(n) * exp(-eps^2 / (2 theta(n)^2)), zero where theta^2 = 0:
    one row over the theta^2 per eps, and a float for scalars."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim > 1 or not np.all(eps > 0):
        raise ValueError("eps must be positive: one value or a 1-d array")
    theta_sq = np.asarray(theta_sq, dtype=float)
    if not np.all(theta_sq >= 0):
        raise ValueError("theta_sq must be >= 0 and not NaN")
    out = np.zeros(eps.shape + theta_sq.shape)
    pos = theta_sq > 0.0
    th, e = theta_sq[pos], eps[..., None]
    with np.errstate(under="ignore", over="ignore"):
        out[..., pos] = np.sqrt(th) * np.exp(-e * e / (2.0 * th))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# asymptotic profile of a diffusion spec
# ---------------------------------------------------------------------------

# p = eps^2 / (2 L_w) with p - 1 at or below this is p = 1 up to rounding,
# i.e. eps = eps*, where the comparison series diverges
_P_ONE_TOL = 8.0 * 2.0 ** -52


@dataclass(frozen=True)
class _Profile:
    regime: str
    L: float                # lim ||sigma(t)||^2 log t
    fading: bool            # ||sigma(t)||^2 -> 0
    envelope: object = None  # None for a zero sigma or a table
    fro_sq: float = 0.0     # squared norm of the pattern


def _analyze(spec: DiffusionSpec, pattern_norm_sq: Optional[float] = None) -> _Profile:
    """The one asymptotic profile of sigma: the regime that ||sigma(t)||^2
    implies under a stable drift, L = lim ||sigma(t)||^2 log t, and whether
    the noise fades.

    Envelope families give the regime and L from their ``profile()``, and
    fade unless Unbounded; an identically zero sigma is StableAS without an
    envelope, so its tail bound is 0.  A constant sigma is the zero-exponent
    PowerLaw envelope, so it is Unbounded unless zero.  A table holds its
    last value forever, so a non-zero hold gives L = inf and no fading, a
    zero hold L = 0 and fading; its regime stays Undecided, since by design
    tables get no Finite/Infinite ruling.  pattern_norm_sq overrides the
    squared pattern norm; used to re-run the analysis under a norm other
    than Frobenius.
    """
    if isinstance(spec, TableSigma):
        held = frobenius_sq(spec.values[-1]) > 0.0
        return _Profile(REGIME_UNDECIDED, math.inf if held else 0.0, not held)
    if not isinstance(spec, EnvelopePattern):
        raise TypeError(f"sigma must be an EnvelopePattern or a TableSigma, "
                        f"got {type(spec).__name__}")
    regime, L = spec.envelope.profile()
    F = frobenius_sq(spec.pattern) if pattern_norm_sq is None else pattern_norm_sq
    if F == 0.0 or regime == ZERO:
        return _Profile(STABLE, 0.0, True)
    return _Profile(regime, L * F, regime != UNBOUNDED, spec.envelope, F)


def _status(profile: _Profile, eps: float, width: float) -> str:
    """Finiteness of S'(eps) or I(eps) with windows of the given width."""
    if profile.regime == BOUNDED:
        p = eps * eps / (2.0 * width * profile.L)
        return FINITE if p - 1.0 > _P_ONE_TOL else INFINITE
    return {STABLE: FINITE, UNBOUNDED: INFINITE}.get(profile.regime, UNDECIDED)


# ---------------------------------------------------------------------------
# finiteness rulings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitenessRuling:
    status: str                       # finite | infinite | undecided
    eps: float
    partial_value: float
    n_terms: int
    # when status == finite: the tail bound, or its log10 where the bound
    # leaves the double range (inf where its log does too)
    tail_bound: Optional[float] = None
    tail_bound_log10: Optional[float] = None
    witness: Optional[str] = None        # present iff status == infinite

    @property
    def total_upper(self) -> Optional[float]:
        if self.status != FINITE or self.tail_bound is None:
            return None
        return self.partial_value + self.tail_bound


def _rulings(spec: DiffusionSpec, eps, partial, n_terms: int, width: float,
             start: float, divisor: float, tol: float):
    """Rulings on partial values computed up to `start` with windows of
    `width`; the tail bound beyond `start` is divided by `divisor`.  The
    profile, and an Unbounded witness's energy floor, serve every eps."""
    profile = _analyze(spec)
    if profile.regime == UNBOUNDED:
        # Unbounded families have non-decreasing envelopes: the window
        # [w, 2w] is the smallest after the first
        b = float(interval_integrals(spec, [width], [2.0 * width], tol)[0])
    rulings = []
    for e, part in zip(np.atleast_1d(eps).tolist(),
                       np.atleast_1d(partial).tolist()):
        status, extra = _status(profile, e, width), {}
        if status == FINITE and profile.envelope is None:
            extra["tail_bound"] = 0.0
        elif status == FINITE:
            log_bound = profile.envelope.log_tail(
                e, width * profile.fro_sq, start) - math.log(divisor)
            try:
                bound = math.exp(log_bound)
            except OverflowError:
                bound = math.inf
            # beyond the double range the bound's log10 stands for it, inf
            # where the log is beyond it too (math.exp(inf) does not raise)
            if bound < math.inf:
                extra["tail_bound"] = bound
            else:
                extra["tail_bound_log10"] = log_bound / math.log(10.0)
        elif status == INFINITE and profile.regime == BOUNDED:
            Lw = width * profile.L
            p = e * e / (2.0 * Lw)
            where = "p <= 1" if p <= 1.0 else (
                f"eps equals eps* = sqrt(2 L_w) within rounding "
                f"(p - 1 = {p - 1.0:.2g})")
            extra["witness"] = (
                f"terms >= sqrt(L_w/ln(e+t+w)) * (e+t+w)^(-p) with "
                f"p = eps^2/(2 L_w) = {p:.6g}, L_w = {Lw:.6g} and {where}; "
                f"the comparison series diverges")
        elif status == INFINITE:
            extra["witness"] = (
                f"window energies are bounded below by {b:.6g} > 0, so each "
                f"term is >= {term_Sprime(e, b):.6g} > 0")
        rulings.append(FinitenessRuling(status, e, part, n_terms, **extra))
    return rulings[0] if np.ndim(eps) == 0 else tuple(rulings)


def partial_sum_Sprime(spec: DiffusionSpec, eps, h: float, N: int,
                       tol: float = 1e-10):
    """Partial sum over windows n = 1..N; returns (value, per-term array),
    one value and one row of terms per eps."""
    if h <= 0 or N < 1:
        raise ValueError("need h > 0, N >= 1")
    edges = h * np.arange(1, N + 2, dtype=float)
    terms = term_Sprime(eps, interval_integrals(spec, edges[:-1], edges[1:],
                                                tol))
    value = np.sum(terms, axis=-1)
    return (value if np.ndim(eps) else float(value)), terms


def decide_Sprime(spec: DiffusionSpec, eps, h: float, n_terms: int = 512,
                  tol: float = 1e-10):
    """Analytic finiteness ruling for S_h'(eps), with a computed partial sum.

    Built-in envelope families get Finite (with tail bound) or Infinite (with
    a divergence witness); tables are Undecided.
    """
    partial, _ = partial_sum_Sprime(spec, eps, h, n_terms, tol)
    # theta^2(n) = varsigma_h^2(n h) and the tail majorant decreases, so the
    # terms n > N sum to at most its integral from N h, divided by h
    return _rulings(spec, eps, partial, n_terms, width=h, start=n_terms * h,
                    divisor=h, tol=tol)


# ---------------------------------------------------------------------------
# integral criterion
# ---------------------------------------------------------------------------

def integral_I(spec: DiffusionSpec, eps, c: float, t_max: float,
               tol: float = 1e-10):
    """Partial integral of I_c(eps) over [0, t_max], one per eps.

    Integrand varsigma_c(t) * exp(-eps^2 / (2 varsigma_c(t)^2)) with the
    zero-energy indicator convention, varsigma_c(t)^2 the energy of
    [t, t + c].  The rule is `model.gauss_legendre` in u, t = t_max u^4,
    which grades the nodes toward the narrow peak of fast-fading noise at
    t = 0: from 16 panels, one interval_integrals call a level for all
    nodes and eps, to max(tol * max(1, t_max) * min(1, |I|), 1e-9 * |I|)
    per eps, absolute while |I| >= 1 and relative below, where an absolute
    error could be most of I; QuadratureError past 2^12 panels.
    """
    if c <= 0 or t_max <= 0:
        raise ValueError("need c, t_max > 0")

    def integrand(u):
        t = t_max * u ** 4
        terms = term_Sprime(eps, interval_integrals(spec, t, t + c, tol))
        return (4.0 * t_max * u ** 3 * terms).T     # the nodes first

    value = np.maximum(0.0, model.gauss_legendre(integrand, lambda v: np.maximum(
        tol * max(1.0, t_max) * np.minimum(1.0, abs(v)), 1e-9 * abs(v)), 4))
    return value if np.ndim(eps) else float(value)


def decide_I(spec: DiffusionSpec, eps, c: float, t_max: float = 256.0,
             tol: float = 1e-8):
    """Analytic finiteness ruling for I_c(eps); shares its rulings with
    decide_Sprime, so both criteria always agree on the status."""
    partial = integral_I(spec, eps, c, t_max, tol)
    return _rulings(spec, eps, partial, 0, width=c, start=t_max, divisor=1.0,
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


def rowwise_sum_S1(spec: DiffusionSpec, eps: float, grid,
                   tol: float = 1e-10) -> float:
    """Partial sum of sum_i (1 - Phi(eps / theta_i(n))) over a general grid."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = _validate_grid(grid)
    theta_i_sq = model.row_interval_integrals(spec, g[:-1], g[1:], tol)
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
# fading noise and the log-window limit
# ---------------------------------------------------------------------------

def check_fading(spec: DiffusionSpec, h: float) -> bool:
    """Whether the window energies theta^2(n) tend to zero, read from the
    asymptotic profile: exact for envelope families and for tables (from
    the hold value)."""
    if h <= 0:
        raise ValueError("h must be positive")
    return _analyze(spec).fading


def limit_Lh(spec: DiffusionSpec, h: float) -> float:
    """L_h = lim theta^2(n) * ln n = h L, in [0, inf], with L read from the
    asymptotic profile."""
    if h <= 0:
        raise ValueError("h must be positive")
    return h * _analyze(spec).L


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

    Gate 1 requires a stable drift (negative spectral abscissa of a
    ConstantDrift, or Floquet multipliers of a PeriodicDrift inside the
    unit circle; any other drift is a TypeError): noise cannot stabilise an
    unstable linear system, so without the gate nothing can be concluded.
    Gate 2 takes the regime that the envelope family of sigma implies:
    S_h'(eps) finite for every eps gives StableAS, infinite for every eps
    gives Unbounded, and ||sigma||^2 log t -> L in (0, inf) gives
    BoundedNonConvergent with the threshold in closed form,
    eps* = sqrt(2 h L), reported as the bracket (eps*, eps*).  Tables are
    Undecided.  fading_noise reads the same profile, and
    mean_square_stable needs both a stable drift and fading noise.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    check_drift(drift)
    # gate 1: drift stability
    if isinstance(drift, ConstantDrift):
        drift_stable = spectral_abscissa(drift.matrix) < 0.0
        gate_note = "" if drift_stable else (
            "spectral abscissa >= 0: the unperturbed system is not "
            "asymptotically stable and additive noise cannot stabilise it")
    else:
        rho = monodromy(drift, tol=min(tol, 1e-12)).rho
        drift_stable = rho < 1.0
        gate_note = "" if drift_stable else (
            f"Floquet multiplier spectral radius {rho:.6g} >= 1: the "
            "unperturbed periodic system is not asymptotically stable and "
            "additive noise cannot stabilise it")

    # gate 2: the regime the noise implies
    profile = _analyze(sigma)
    fading = profile.fading
    regime = profile.regime if drift_stable else REGIME_UNDECIDED
    note = gate_note or ("finiteness undecided for this sigma form"
                         if regime == REGIME_UNDECIDED else "")
    eps_star = math.sqrt(2.0 * h * profile.L) if regime == BOUNDED else None
    collapse = regime == BOUNDED or (regime == UNBOUNDED and fading)
    return RegimeVerdict(
        regime=regime, drift_stable=drift_stable, fading_noise=fading,
        mean_square_stable=drift_stable and fading,
        liminf_zero_predicted=collapse,
        avg_sq_zero_predicted=collapse,
        epsilon_star_bracket=(eps_star, eps_star) if regime == BOUNDED else None,
        note=note)


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
    """Finiteness statuses at eps and the regimes implied under the
    Frobenius norm and under alt_norm."""

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

    Thresholds may move but the implied regime must not.
    """
    if not isinstance(spec, EnvelopePattern):
        raise ValueError("norm comparison needs a constant or envelope form")
    fro, alt = _analyze(spec), _analyze(spec, _alt_norm_sq(spec.pattern, alt_norm))
    return NormEquivReport(
        eps=eps, alt_norm=alt_norm,
        status_frobenius=_status(fro, eps, h),
        status_alt=_status(alt, eps, h),
        class_frobenius=fro.regime,
        class_alt=alt.regime)


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
    L_h: float
    fading: bool

    def to_dict(self) -> dict:
        def rul(r):
            out = {"eps": r.eps, "status": r.status,
                   "partial_value": r.partial_value, "n_terms": r.n_terms}
            if r.tail_bound is not None:
                out["tail_bound"] = r.tail_bound
            if r.tail_bound_log10 is not None:
                out["tail_bound_log10"] = r.tail_bound_log10
            if r.witness is not None:
                out["witness"] = r.witness
            return out
        return {
            "h": self.h, "c": self.c,
            "eps_values": list(self.eps_values),
            "L_h": float(self.L_h),
            "fading": self.fading,
            "sum_rulings": [rul(r) for r in self.sum_rulings],
            "integral_rulings": [rul(r) for r in self.integral_rulings],
        }


def criterion_report(spec: DiffusionSpec, h: float = 1.0, c: float = 1.0,
                     eps_values=(0.5, 1.0, 2.0, 4.0), n_terms: int = 256,
                     t_max: float = 256.0, tol: float = 1e-8) -> CriterionReport:
    """Evaluate both criteria over a small eps grid at once, for reporting."""
    eps = np.array(eps_values, dtype=float)
    sums = decide_Sprime(spec, eps, h, n_terms, min(tol, 1e-8))
    ints = decide_I(spec, eps, c, t_max, tol)
    return CriterionReport(h=h, c=c, eps_values=tuple(eps.tolist()),
                           sum_rulings=sums, integral_rulings=ints,
                           L_h=limit_Lh(spec, h),
                           fading=check_fading(spec, h))
