"""Small dense linear algebra for the drift matrix.

Spectral abscissa / radius, the Lyapunov solve A^T M + M A = -I, matrix
exponentials, and the propagator Psi(t, s) of X' = A(t) X, whose values are
the fundamental solutions and the Floquet monodromy matrix Psi(T, 0) for
periodic drifts.
"""

from __future__ import annotations

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


def propagator(drift, t_end: float, t_lo: float, tol: float = 1e-10):
    """The map s -> Psi(t_end, s) on [t_lo, t_end], Psi(t_end, t_end) = I.

    Psi(t, s) carries a state at time s to time t under X' = A X.  Constant
    drifts give exp(A (t_end - s)); time-dependent drifts solve the adjoint
    equation dY/ds = -Y A(s), Y(t_end) = I, once backwards by adaptive
    embedded Runge-Kutta 4(5) at local tolerance tol, with dense output.
    The map takes a time, giving a (d, d) matrix, or a 1-d array of times,
    giving one matrix per time; the dense output evaluates an array at once.
    """
    if t_end < t_lo:
        raise ValueError("t_end must be >= t_lo")
    if isinstance(drift, ConstantDrift):
        def exp_at(s):
            if np.ndim(s):
                return np.array([expm(drift.matrix, t_end - x) for x in s])
            return expm(drift.matrix, t_end - s)
        return exp_at
    d = drift.d
    if t_end == t_lo:
        return lambda s: np.eye(d) + np.zeros(np.shape(s) + (d, d))
    # only this branch needs scipy.integrate, a third of a second to import
    from scipy.integrate import solve_ivp

    def rhs(s, y):
        return -(y.reshape(d, d) @ eval_drift(drift, s)).reshape(-1)

    sol = solve_ivp(rhs, (t_end, t_lo), np.eye(d).reshape(-1),
                    method="RK45", rtol=tol, atol=tol, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"fundamental solution integration failed: {sol.message}")

    def at(s):
        return np.moveaxis(sol.sol(s), 0, -1).reshape(np.shape(s) + (d, d))
    return at


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
