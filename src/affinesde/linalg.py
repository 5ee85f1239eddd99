"""Small dense linear algebra for the drift matrix.

Spectral abscissa / radius, the Lyapunov solve A^T M + M A = -I, matrix
exponentials, and the propagator Psi(t, s) of X' = A(t) X, whose values are
the fundamental solutions and the Floquet monodromy matrix Psi(T, 0) for
periodic drifts.  One routine, `step_propagators`, builds Psi over a step
from many starts in one adaptive solve; `propagator` is its one-start case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConstantDrift, eval_drift


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


def expm(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(A t) (scaling and squaring)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    At = A * float(t)
    if not np.all(np.isfinite(At)):
        raise ValueError("A*t must be finite")
    # imported here, so that a run that takes no exponential (classify on a
    # constant drift) loads no scipy
    import scipy.linalg
    with np.errstate(over="ignore"):   # the overflow is raised below
        out = scipy.linalg.expm(At)
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed")
    return out


def step_propagators(drift, starts, dt: float, tol: float = 1e-10):
    """The map u -> Psi(t_j + dt, t_j + u dt) on [0, 1] for every start t_j.

    u = 0 gives the transitions over [t_j, t_j + dt], u = 1 the identity.
    Constant drifts give exp(A (dt - u dt)) for every start.  Time-dependent
    drifts solve the stacked adjoint equations dY_j/ds = -Y_j A(t_j + s),
    Y_j(dt) = I, once backwards over the offset s in [dt, 0] by adaptive
    embedded Runge-Kutta 4(5) with dense output; the right-hand side takes
    A at every t_j + s in one `eval_drift` call.  The solver's error norm is
    an RMS over all m d^2 components, so it runs at tol / sqrt(m): each
    start's error bound is that of a solve of its own at tol.  The map takes
    a u, giving an (m, d, d) stack, or a 1-d array of them, giving one stack
    per u; the dense output evaluates an array at once.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 1 or len(starts) == 0:
        raise ValueError("starts must be a non-empty 1-d array")
    # a NaN would hold solve_ivp forever
    if not np.all(np.isfinite(starts)):
        raise ValueError("starts must be finite")
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    if dt <= 0:
        raise ValueError("dt must be positive")
    m, d = len(starts), drift.d
    if isinstance(drift, ConstantDrift):
        def exp_at(u):
            if np.ndim(u):
                E = np.array([expm(drift.matrix, dt - x * dt) for x in u])
            else:
                E = expm(drift.matrix, dt - u * dt)
            return np.array(np.broadcast_to(E[..., None, :, :],
                                            E.shape[:-2] + (m, d, d)))
        return exp_at
    # only this branch needs scipy.integrate, a third of a second to import
    from scipy.integrate import solve_ivp

    # eval_drift takes one time several times faster than an array of one
    origin = starts if m > 1 else float(starts[0])

    def rhs(s, y):
        return -(y.reshape(m, d, d) @ eval_drift(drift, origin + s)).reshape(-1)

    local = tol / math.sqrt(m)
    sol = solve_ivp(rhs, (dt, 0.0), np.tile(np.eye(d), (m, 1)).reshape(-1),
                    method="RK45", rtol=local, atol=local, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"fundamental solution integration failed: {sol.message}")

    def at(u):
        return np.moveaxis(sol.sol(np.multiply(u, dt)), 0, -1).reshape(
            np.shape(u) + (m, d, d))
    return at


def propagator(drift, t_end: float, t_lo: float, tol: float = 1e-10):
    """The map s -> Psi(t_end, s) on [t_lo, t_end], Psi(t_end, t_end) = I.

    Psi(t, s) carries a state at time s to time t under X' = A X.  This is
    the one-start case of `step_propagators`, from t_lo over t_end - t_lo:
    exp(A (t_end - s)) for a constant drift, and for a time-dependent one
    the adjoint equation dY/ds = -Y A(s), Y(t_end) = I, solved once
    backwards at local tolerance tol, with dense output.  The map takes a
    time, giving a (d, d) matrix, or a 1-d array of times, giving one
    matrix per time.
    """
    # a NaN would pass the order check below and hold solve_ivp forever
    for name, value in (("t_end", t_end), ("t_lo", t_lo)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if t_end < t_lo:
        raise ValueError("t_end must be >= t_lo")
    if t_end == t_lo:
        d = drift.d
        return lambda s: np.eye(d) + np.zeros(np.shape(s) + (d, d))
    dt = t_end - t_lo
    psi = step_propagators(drift, [t_lo], dt, tol)
    return lambda s: psi(np.subtract(s, t_lo) / dt)[..., 0, :, :]


def fundamental_solution(drift, t_end: float, tol: float = 1e-10,
                         t_start: float = 0.0) -> np.ndarray:
    """Psi(t_end) for Psi'(t) = A(t) Psi(t), Psi(t_start) = I."""
    return propagator(drift, t_end, t_start, tol)(t_start)


@dataclass(frozen=True)
class MonodromyResult:
    Psi_T: np.ndarray
    rho: float


def monodromy(drift, tol: float = 1e-10) -> MonodromyResult:
    """Floquet monodromy Psi(T) and its spectral radius for a periodic drift."""
    if isinstance(drift, ConstantDrift):
        raise ValueError("monodromy needs a periodic drift; use expm for constant A")
    period = getattr(drift, "period", None)
    if period is None:
        raise ValueError("drift has no period")
    Psi_T = fundamental_solution(drift, period, tol=tol)
    det = float(np.linalg.det(Psi_T))
    if det == 0.0:
        raise RuntimeError("monodromy matrix is singular; integration failed")
    return MonodromyResult(Psi_T=Psi_T, rho=spectral_radius(Psi_T))
