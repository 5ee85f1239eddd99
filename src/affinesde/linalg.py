"""Small dense linear algebra for the drift matrix.

Spectral abscissa / radius, the Lyapunov solve A^T M + M A = -I, matrix
exponentials, and the propagator Psi(t, s) of X' = A(t) X.  One routine,
`step_propagators`, builds Psi over a step from many starts in one adaptive
solve; the sampler's transitions and the Floquet monodromy matrix Psi(T, 0)
of a periodic drift, the product of a period's transitions, both come
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConstantDrift, PeriodicDrift, eval_drift


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


def expm(A, t=1.0) -> np.ndarray:
    """Matrix exponential exp(A t) (scaling and squaring): a (d, d) matrix
    for a scalar t, and t.shape + (d, d) for an array of times."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    At = A * np.asarray(t, dtype=float)[..., None, None]
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


def step_propagators(drift, starts, dt, tol: float = 1e-10):
    """The map u -> Psi(t_j + dt_j, t_j + u dt_j) on [0, 1] for every start t_j.

    dt is one step length for every start, or an array of one per start.
    u = 0 gives the transitions over [t_j, t_j + dt_j], u = 1 the identity.
    Constant drifts give exp(A (dt - u dt)) for every start.  Time-dependent
    drifts solve the stacked adjoint equations dY_j/du = -dt_j Y_j A(t_j +
    u dt_j), Y_j(1) = I, once backwards over the step fraction u in [1, 0]
    by adaptive embedded Runge-Kutta 4(5) with dense output; the right-hand
    side takes A at every t_j + u dt_j in one `eval_drift` call.  The
    solver's error norm is an RMS over all m d^2 components, so it runs at
    tol / sqrt(m): each start's error bound is that of a solve of its own at
    tol.  The map takes a u, giving an (m, d, d) stack, or a 1-d array of
    them, giving one stack per u; the dense output evaluates an array at once.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 1 or len(starts) == 0:
        raise ValueError("starts must be a non-empty 1-d array")
    # a NaN would hold solve_ivp forever
    if not np.all(np.isfinite(starts)):
        raise ValueError("starts must be finite")
    dt = np.asarray(dt, dtype=float)
    if dt.shape not in ((), starts.shape):
        raise ValueError("dt must be one step length or one per start")
    if not np.all(np.isfinite(dt)):
        raise ValueError("dt must be finite")
    if np.any(dt <= 0):
        raise ValueError("dt must be positive")
    # a NaN or zero tolerance would hold solve_ivp forever
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    m, d = len(starts), drift.d
    if isinstance(drift, ConstantDrift):
        def exp_at(u):
            # one exponential per u and step length, broadcast over the starts
            E = expm(drift.matrix, np.reshape(dt - np.multiply.outer(u, dt),
                                              np.shape(u) + (-1,)))
            return np.array(np.broadcast_to(E, np.shape(u) + (m, d, d)))
        return exp_at
    # only this branch needs scipy.integrate, a third of a second to import
    from scipy.integrate import solve_ivp
    step = np.reshape(dt, (-1, 1, 1))   # dt_j against each start's matrix

    def rhs(u, y):
        A = eval_drift(drift, starts + u * dt)
        return -(y.reshape(m, d, d) @ (step * A)).reshape(-1)

    local = tol / math.sqrt(m)
    sol = solve_ivp(rhs, (1.0, 0.0), np.tile(np.eye(d), (m, 1)).reshape(-1),
                    method="RK45", rtol=local, atol=local, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"fundamental solution integration failed: {sol.message}")

    def at(u):
        return np.moveaxis(sol.sol(u), 0, -1).reshape(np.shape(u) + (m, d, d))
    return at


@dataclass(frozen=True)
class MonodromyResult:
    Psi_T: np.ndarray
    rho: float


def monodromy(drift, tol: float = 1e-10) -> MonodromyResult:
    """Floquet monodromy Psi(T, 0) and its spectral radius for a periodic drift.

    Each knot interval of a `PeriodicDrift`, the wrap interval from the last
    knot to T included (the whole period for a callable drift), is cut into
    ceil(64 len / T) equal segments, and Psi(T, 0) is the ordered product of
    the segments' transitions from one stacked `step_propagators` solve at
    tol, with one step length per segment.  No solve then crosses a kink of
    the piecewise-linear drift, where the solver's error estimate does not
    hold, whether or not the knots are uniform; and each transition has O(1)
    entries, so the absolute tolerance acts as a relative one, which it does
    not on a whole period's decayed entries.
    """
    if isinstance(drift, ConstantDrift):
        raise ValueError("monodromy needs a periodic drift; use expm for constant A")
    period = getattr(drift, "period", None)
    if period is None:
        raise ValueError("drift has no period")
    knots = drift.times if isinstance(drift, PeriodicDrift) else [0.0]
    edges = np.append(knots, period)
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
