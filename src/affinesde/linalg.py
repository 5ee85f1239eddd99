"""Small dense linear algebra for the drift matrix.

Spectral abscissa / radius, the Lyapunov solve A^T M + M A = -I, and the
propagator Psi(t, s) of X' = A(t) X.  One routine, `step_propagators`,
builds Psi over a step from many starts in one adaptive solve, by the numpy
Dormand-Prince stepper `_rk45`, for a constant drift as for a periodic one;
the sampler's transitions and the Floquet monodromy matrix Psi(T, 0) of a
periodic drift, the product of a period's transitions, both come from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConstantDrift, check_drift, eval_drift


class StabilityError(ValueError):
    """Raised when an operation requires a stable drift and gets none."""


def spectral_abscissa(A) -> float:
    """Largest real part among the eigenvalues of A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return float(np.max(np.linalg.eigvals(A).real))


def spectral_radius(C) -> float:
    """Largest eigenvalue modulus of C."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not np.all(np.isfinite(C)):
        raise ValueError("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(C))))


@dataclass(frozen=True)
class LyapunovSolution:
    M: np.ndarray
    residual: float


def solve_lyapunov(A) -> LyapunovSolution:
    """Solve A^T M + M A = -I for the positive definite M.

    Uses the Kronecker-vectorised linear system; requires the spectral
    abscissa of A to be negative (otherwise no positive definite solution
    exists and a StabilityError is raised).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[0]
    if spectral_abscissa(A) >= 0:
        raise StabilityError("Lyapunov solve requires all eigenvalues of A "
                             "to have negative real parts")
    I = np.eye(d)
    K = np.kron(I, A.T) + np.kron(A.T, I)
    m = np.linalg.solve(K, -I.reshape(-1))
    M = m.reshape(d, d)
    M = 0.5 * (M + M.T)
    residual = float(np.linalg.norm(A.T @ M + M @ A + I, ord="fro"))
    return LyapunovSolution(M=M, residual=residual)


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980) with Shampine's
# quartic dense output (Shampine 1986), and the step control of scipy's RK45
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_LN_DBL_MAX = math.log(np.finfo(float).max)   # 709.78


def _rms(x) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(f, t0: float, t1: float, y0: np.ndarray, tol: float):
    """Solve y' = f(t, y), y(t0) = y0, to t1; return the dense output, a map
    from one t to y(t) and from a 1-d array of them to one column per t.

    Adaptive Dormand-Prince 5(4) at atol = tol and rtol = max(tol, 100 eps),
    step for step as scipy's RK45: the Hairer-Norsett-Wanner initial step,
    the RMS error norm with scale atol + max(|y|, |y_new|) rtol, step factors
    0.9 err^(-1/5) within [0.2, 10] and no growth after a rejection.  An
    error norm that is not below 1, NaN included, shrinks the step, and a
    step below 10 ulp of t raises a RuntimeError, so the solve ends after a
    bounded number of rejections; a non-finite derivative at t0 raises at
    once.  Each step's quartic y_old + h Q [x, x^2, x^3, x^4], Q = K^T P,
    serves the t in it; a t on a step edge takes the step that ends there.
    """
    rtol = max(tol, 100 * np.finfo(float).eps)
    direction = math.copysign(1.0, t1 - t0)
    span = abs(t1 - t0)
    t, y, fy = t0, y0, f(t0, y0)
    if not np.all(np.isfinite(fy)):
        raise RuntimeError("fundamental solution integration failed: "
                           f"non-finite derivative at t = {t0:.17g}")
    # initial step (Hairer, Norsett & Wanner, Sec. II.4)
    scale = tol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = f(t + h0 * direction, y + h0 * direction * fy)
    d2 = _rms((f1 - fy) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else \
        (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, span)
    K = np.empty((7, y0.size))
    steps = []      # (t_old, h, y_old, Q) of each accepted step
    while direction * (t - t1) < 0:
        min_step = 10 * abs(np.nextafter(t, direction * np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise RuntimeError("fundamental solution integration failed: "
                                   f"step size {h_abs:.3g} below 10 ulp of "
                                   f"t = {t:.17g}")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            K[0] = fy
            for s in range(1, 6):
                K[s] = f(t + _RK_C[s] * h,
                         y + np.dot(K[:s].T, _RK_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _RK_B)
            K[6] = f_new = f(t + h, y_new)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(K.T, _RK_E) * h / scale)
            if err < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True
        factor = _MAX_FACTOR if err == 0 else \
            min(_MAX_FACTOR, _SAFETY * err ** -0.2)
        h_abs *= min(1, factor) if rejected else factor
        steps.append((t, h, y, K.T.dot(_RK_P)))
        t, y, fy = t_new, y_new, f_new

    # the step edges in the direction of the solve, increasing
    edges = direction * np.array([step[0] for step in steps] + [t1])

    def step_of(t):
        return np.clip(np.searchsorted(edges, direction * t) - 1, 0,
                       len(steps) - 1)

    def dense(t):
        # each step's quartic takes its values of t at once, in increasing
        # order, as scipy's dense output does; one t is an array of one
        shape = np.shape(t)
        t = np.ravel(np.asarray(t, dtype=float))
        order = np.argsort(t)
        at = step_of(t[order])
        out = np.empty((y0.size, len(t)))
        for k in np.unique(at):
            cols = order[at == k]
            t_old, h, y_old, Q = steps[k]
            x = np.cumprod(np.tile((t[cols] - t_old) / h, (4, 1)), axis=0)
            out[:, cols] = h * np.dot(Q, x) + y_old[:, None]
        return out.reshape((-1,) + shape)
    return dense


def step_propagators(drift, starts, dt, tol: float = 1e-10):
    """The map u -> Psi(t_j + dt_j, t_j + u dt_j) on [0, 1] for every start t_j.

    dt is one step length for every start, or an array of one per start.
    u = 0 gives the transitions over [t_j, t_j + dt_j], u = 1 the identity.
    Every drift, a constant one included, solves the stacked adjoint
    equations dY_j/du = -dt_j Y_j A(t_j + u dt_j), Y_j(1) = I, once
    backwards over the step fraction u in [1, 0] by `_rk45`, adaptive
    Dormand-Prince 5(4) with dense output; the right-hand side takes A at
    every t_j + u dt_j in one `eval_drift` call.  An explicit stepper's work
    grows with dt ||A||, so a stiff drift over a long step takes many steps.
    The solver's error norm is an RMS over all m d^2 components, so it runs
    at tol / sqrt(m): each start's error bound is that of a solve of its own
    at tol.  A solve whose step falls below 10 ulp, as when the drift's
    entries overflow the stages, raises a RuntimeError; a constant drift
    whose spectral abscissa alpha has alpha max(dt) > ln(DBL_MAX) + ln d
    raises it before the solve, since its transition cannot be a double.
    The map takes a u, giving an (m, d, d) stack, or a 1-d array of them,
    giving one stack per u; the dense output evaluates an array at once.
    Any drift but a ConstantDrift or a PeriodicDrift is a TypeError.
    """
    check_drift(drift)
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 1 or len(starts) == 0:
        raise ValueError("starts must be a non-empty 1-d array")
    # a NaN would hold the adjoint solve forever
    if not np.all(np.isfinite(starts)):
        raise ValueError("starts must be finite")
    dt = np.asarray(dt, dtype=float)
    if dt.shape not in ((), starts.shape):
        raise ValueError("dt must be one step length or one per start")
    if not np.all(np.isfinite(dt)):
        raise ValueError("dt must be finite")
    if np.any(dt <= 0):
        raise ValueError("dt must be positive")
    # a NaN or zero tolerance would hold the adjoint solve forever
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    m, d = len(starts), drift.d
    if isinstance(drift, ConstantDrift):
        # some entry of e^{A dt} is at least rho / d = e^{alpha dt} / d, so
        # past this the transition leaves the double range, and the solve
        # would only find it out after its stages overflow, seconds later
        growth = spectral_abscissa(drift.matrix) * float(np.max(dt))
        if growth > _LN_DBL_MAX + math.log(d):
            raise RuntimeError(
                "fundamental solution integration failed: the transition "
                f"overflows, spectral abscissa times dt = {growth:.6g} "
                f"exceeds ln(DBL_MAX) + ln d = {_LN_DBL_MAX + math.log(d):.6g}")
    step = np.reshape(dt, (-1, 1, 1))   # dt_j against each start's matrix

    def rhs(u, y):
        A = eval_drift(drift, starts + u * dt)
        return -(y.reshape(m, d, d) @ (step * A)).reshape(-1)

    # an overflow in the stages gives a NaN error norm, which shrinks the
    # step until the solve raises
    with np.errstate(all="ignore"):
        sol = _rk45(rhs, 1.0, 0.0, np.tile(np.eye(d), (m, 1)).reshape(-1),
                    tol / math.sqrt(m))

    def at(u):
        return np.moveaxis(sol(u), 0, -1).reshape(np.shape(u) + (m, d, d))
    return at


@dataclass(frozen=True)
class MonodromyResult:
    Psi_T: np.ndarray
    rho: float


def monodromy(drift, tol: float = 1e-10) -> MonodromyResult:
    """Floquet monodromy Psi(T, 0) and its spectral radius for a periodic drift.

    Each knot interval of the `PeriodicDrift`, the wrap interval from the
    last knot to T included, is cut into ceil(64 len / T) equal segments,
    and Psi(T, 0) is the ordered product of the segments' transitions from
    one stacked `step_propagators` solve at tol, with one step length per
    segment.  No solve then crosses a kink of the piecewise-linear drift,
    where the solver's error estimate does not hold, whether or not the
    knots are uniform; and each transition has O(1) entries, so the absolute
    tolerance acts as a relative one, which it does not on a whole period's
    decayed entries.  A ConstantDrift raises a ValueError, and any other
    drift a TypeError.
    """
    if isinstance(drift, ConstantDrift):
        raise ValueError("monodromy needs a periodic drift; "
                         "step_propagators serves a constant A")
    check_drift(drift)
    period = drift.period
    edges = np.append(drift.times, period)
    # the rounding of a knot difference must not add a segment where
    # 64 len / T is whole, as it is on uniform knots
    counts = np.ceil(64 * np.diff(edges) / period * (1 - 1e-9)).astype(int)
    starts = np.concatenate([np.linspace(a, b, n, endpoint=False) for a, b, n
                             in zip(edges, edges[1:], counts)])
    steps = step_propagators(drift, starts, np.diff(np.append(starts, period)),
                             tol)(0.0)
    Psi_T = steps[0]
    for step in steps[1:]:
        Psi_T = step @ Psi_T
    det = float(np.linalg.det(Psi_T))
    if det == 0.0:
        raise RuntimeError("monodromy matrix is singular; integration failed")
    return MonodromyResult(Psi_T=Psi_T, rho=spectral_radius(Psi_T))
