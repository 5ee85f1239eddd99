"""Exact-in-distribution Monte-Carlo sampling of the affine SDE.

For a linear SDE the grid-point law is exactly Gaussian: one step is
X_{n+1} = e^{A dt} X_n + xi_n with xi_n ~ Normal(0, Q_n) and

    Q_n = int_{t_n}^{t_n + dt} e^{A (t_n + dt - s)} sigma(s) sigma(s)^T
          e^{A^T (t_n + dt - s)} ds,

so the sampler has no discretisation bias at grid points.  An
Euler-Maruyama scheme is provided for cross-validation.  Paths are seeded
independently from a counter-based generator, so the ensemble is
bit-reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad_vec

from .linalg import expm, fundamental_solution
from .model import (ConstantDrift, ConstantSigma, DiffusionSpec,
                    EnvelopePattern, PeriodicDrift, PowerLaw, eval_drift,
                    eval_sigma)

SCHEME_EXACT = "ExactLinearGaussian"
SCHEME_EULER = "EulerMaruyama"

_NOISE_CHUNK = 4096   # steps of noise drawn per path at a time
_GL_NODES = 12        # fixed Gauss-Legendre panel for the batched covariances


class CovarianceError(RuntimeError):
    """Step covariance could not be computed or sampled."""


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    paths: int
    seed: int
    scheme: str = SCHEME_EXACT
    cov_tol: float = 1e-10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least dt")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.scheme not in (SCHEME_EXACT, SCHEME_EULER):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class PathEnsemble:
    times: np.ndarray          # (N+1,)
    states: np.ndarray         # (paths, N+1, d)
    config: SimConfig

    def __post_init__(self):
        if not np.all(np.isfinite(self.states)):
            raise FloatingPointError("non-finite states in ensemble")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[2]

    @property
    def seeds(self) -> tuple:
        """Per-path seed tuples (seed, p) of the Philox streams."""
        return _path_seeds(self.config)

    @cached_property
    def norms(self) -> np.ndarray:
        """Euclidean norm ||X(t)||_2 per path and grid point."""
        return np.linalg.norm(self.states, axis=2)


def _path_seeds(cfg: SimConfig) -> tuple:
    return tuple((int(cfg.seed), p) for p in range(cfg.paths))


def _path_generators(cfg: SimConfig) -> list:
    return [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed))) for seed in _path_seeds(cfg)]


# ---------------------------------------------------------------------------
# step covariances
# ---------------------------------------------------------------------------

def _frozen_matrix(drift, t: float, dt: float) -> np.ndarray:
    """Drift matrix used inside a covariance panel (midpoint freeze)."""
    if isinstance(drift, ConstantDrift):
        return drift.matrix
    return eval_drift(drift, t + 0.5 * dt)


def step_covariance(drift, sigma: DiffusionSpec, t: float, dt: float,
                    tol: float = 1e-10) -> np.ndarray:
    """One-step transition covariance Q by adaptive quadrature.

    Time-dependent drifts are frozen at the step midpoint inside the panel;
    the result is symmetrised and tiny negative eigenvalues (down to
    -1e-12 * trace) are clamped to zero.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A = _frozen_matrix(drift, t, dt)
    d = A.shape[0]
    if sigma.d != d:
        raise ValueError("sigma and drift dimensions differ")

    def integrand(u):
        s = t + u * dt
        E = expm(A, dt - u * dt)
        S = eval_sigma(sigma, float(s))
        M = E @ S
        return dt * (M @ M.T)

    Q, err = quad_vec(integrand, 0.0, 1.0, epsabs=tol, epsrel=0.0, norm="max")
    if err > tol * 1.001:
        raise CovarianceError(f"covariance quadrature error {err:.3e} > {tol:.3e}")
    return _clamp_psd(0.5 * (Q + Q.T))


def _clamp_psd(Q: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(Q)
    floor = -1e-12 * max(float(np.trace(Q)), 0.0)
    if np.any(w < floor - 1e-300):
        raise CovarianceError(f"covariance has eigenvalue {w.min():.3e} below "
                              f"the clamping floor {floor:.3e}")
    w = np.maximum(w, 0.0)
    return (V * w) @ V.T


def _sqrt_psd_batch(Q: np.ndarray) -> np.ndarray:
    """Symmetric square roots of a stack of PSD matrices, with clamping."""
    Q = 0.5 * (Q + np.swapaxes(Q, -1, -2))
    w, V = np.linalg.eigh(Q)
    tr = np.maximum(np.einsum("...ii", Q), 0.0)
    floor = -1e-12 * tr
    if np.any(w < floor[..., None] - 1e-300):
        raise CovarianceError("covariance stack has an eigenvalue below the "
                              "clamping floor")
    s = np.sqrt(np.maximum(w, 0.0))
    return np.einsum("...ik,...k,...jk->...ij", V, s, V)


def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w   # mapped to [0, 1]


def _envelope_sq(form: EnvelopePattern, t: np.ndarray) -> np.ndarray:
    return np.asarray(form.envelope.value(t), dtype=float) ** 2


def _step_covariances(drift, sigma: DiffusionSpec, times: np.ndarray,
                      dt: float, tol: float) -> np.ndarray:
    """Covariance stack Q_n for every step, (N, d, d).

    Separable forms (constant or envelope-times-pattern sigma) use a fixed
    Gauss-Legendre panel batched over all steps, validated against the
    adaptive quadrature on the first step; other forms fall back to the
    adaptive panel per step.
    """
    N = len(times)
    form = sigma.form
    separable = isinstance(form, (ConstantSigma, EnvelopePattern))
    period = getattr(drift, "period", None)
    if separable:
        u, w = _gauss_legendre(_GL_NODES)
        if isinstance(drift, ConstantDrift):
            A_per_step = None
            E = np.stack([expm(drift.matrix, dt - uk * dt) for uk in u])
        elif period is not None:
            m = int(round(period / dt))
            A_per_step = [eval_drift(drift, times[n % m] + 0.5 * dt)
                          for n in range(min(m, N))]
        else:
            A_per_step = [eval_drift(drift, t + 0.5 * dt) for t in times]

        if isinstance(form, ConstantSigma):
            P = form.values
            g = np.ones((N, _GL_NODES))
        else:
            P = form.pattern
            g = _envelope_sq(form, times[:, None] + u[None, :] * dt)

        if A_per_step is None:
            C = np.stack([dt * (Ek @ P) @ (Ek @ P).T for Ek in E])  # (K,d,d)
            Q = np.einsum("k,nk,kij->nij", w, g, C)
        else:
            nA = len(A_per_step)
            C = np.empty((nA, _GL_NODES, sigma.d, sigma.d))
            for j, Aj in enumerate(A_per_step):
                for k, uk in enumerate(u):
                    M = expm(Aj, dt - uk * dt) @ P
                    C[j, k] = dt * (M @ M.T)
            idx = (np.arange(N) % nA) if period is not None else np.arange(N)
            Q = np.einsum("k,nk,nkij->nij", w, g, C[idx])

        ref = step_covariance(drift, sigma, float(times[0]), dt, tol)
        scale = max(float(np.abs(ref).max()), 1e-300)
        if float(np.abs(Q[0] - ref).max()) > max(tol, 1e-12 * scale) * 10 + tol:
            separable = False   # panel not accurate enough; use adaptive
        else:
            return Q
    Q = np.empty((N, sigma.d, sigma.d))
    for n, t in enumerate(times):
        Q[n] = step_covariance(drift, sigma, float(t), dt, tol)
    return Q


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def _run_exact(trans: np.ndarray, sqrtQ: np.ndarray, xi: np.ndarray,
               cfg: SimConfig) -> np.ndarray:
    """Vectorised exact recursion; trans is (d,d) or a per-step stack (N,d,d)."""
    N, d = sqrtQ.shape[0], sqrtQ.shape[2]
    gens = _path_generators(cfg)
    states = np.empty((cfg.paths, N + 1, d))
    states[:, 0] = xi
    X = np.broadcast_to(xi, (cfg.paths, d)).copy()
    shared = trans.ndim == 2
    for start in range(0, N, _NOISE_CHUNK):
        stop = min(start + _NOISE_CHUNK, N)
        Z = np.empty((cfg.paths, stop - start, d))
        for p, g in enumerate(gens):
            Z[p] = g.standard_normal((stop - start, d))
        for n in range(start, stop):
            Phi = trans if shared else trans[n]
            X = X @ Phi.T + Z[:, n - start] @ sqrtQ[n].T
            states[:, n + 1] = X
    return states


def _run_euler(drift, sigma: DiffusionSpec, xi: np.ndarray,
               cfg: SimConfig) -> np.ndarray:
    N, d, r = cfg.n_steps, sigma.d, sigma.r
    dt = cfg.dt
    times = dt * np.arange(N)
    sig = np.stack([eval_sigma(sigma, float(t)) for t in times])   # (N,d,r)
    if isinstance(drift, ConstantDrift):
        A_all = None
        A = drift.matrix
    else:
        A_all = np.stack([eval_drift(drift, float(t)) for t in times])
    gens = _path_generators(cfg)
    states = np.empty((cfg.paths, N + 1, d))
    states[:, 0] = xi
    X = np.broadcast_to(xi, (cfg.paths, d)).copy()
    sdt = math.sqrt(dt)
    for start in range(0, N, _NOISE_CHUNK):
        stop = min(start + _NOISE_CHUNK, N)
        Z = np.empty((cfg.paths, stop - start, r))
        for p, g in enumerate(gens):
            Z[p] = g.standard_normal((stop - start, r))
        for n in range(start, stop):
            An = A if A_all is None else A_all[n]
            X = X + dt * (X @ An.T) + sdt * (Z[:, n - start] @ sig[n].T)
            states[:, n + 1] = X
    return states


def _prepare_xi(xi, d: int) -> np.ndarray:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (d,):
        raise ValueError(f"initial condition must have shape ({d},)")
    if not np.all(np.isfinite(xi)):
        raise ValueError("initial condition must be finite")
    return xi


def _assemble(states: np.ndarray, cfg: SimConfig) -> PathEnsemble:
    times = cfg.dt * np.arange(cfg.n_steps + 1)
    return PathEnsemble(times=times, states=states, config=cfg)


# ---------------------------------------------------------------------------
# public samplers
# ---------------------------------------------------------------------------

def simulate_X(drift: ConstantDrift, sigma: DiffusionSpec, xi,
               cfg: SimConfig) -> PathEnsemble:
    """Sample dX = A X dt + sigma(t) dB from X(0) = xi on the uniform grid.

    The drift need not be stable; unstable drifts are legitimate for
    non-stabilisation demonstrations.
    """
    if not isinstance(drift, ConstantDrift):
        raise TypeError("simulate_X needs a constant drift; see "
                        "simulate_X_periodic")
    xi = _prepare_xi(xi, drift.d)
    if sigma.d != drift.d:
        raise ValueError("sigma and drift dimensions differ")
    if cfg.scheme == SCHEME_EULER:
        return _assemble(_run_euler(drift, sigma, xi, cfg), cfg)
    times = cfg.dt * np.arange(cfg.n_steps)
    Q = _step_covariances(drift, sigma, times, cfg.dt, cfg.cov_tol)
    sqrtQ = _sqrt_psd_batch(Q)
    Phi = expm(drift.matrix, cfg.dt)
    return _assemble(_run_exact(Phi, sqrtQ, xi, cfg), cfg)


def simulate_Y(sigma: DiffusionSpec, cfg: SimConfig, y0=None) -> PathEnsemble:
    """Sample the auxiliary process dY = -Y dt + sigma(t) dB, Y(0) = 0.

    The recursion Y_{n+1} = e^{-dt} Y_n + V_{n+1} is exact in distribution.
    A non-zero start y0 is accepted as a test hook.
    """
    d = sigma.d
    xi = np.zeros(d) if y0 is None else y0
    return simulate_X(ConstantDrift(-np.eye(d)), sigma, xi, cfg)


def simulate_X_periodic(drift, sigma: DiffusionSpec, xi,
                        cfg: SimConfig) -> PathEnsemble:
    """Sample the SDE with a periodic drift A(t + T) = A(t).

    dt must divide the period so the one-step transition matrices repeat;
    they are solved once per period position and cached.  A periodic spec
    whose samples are all identical reduces to the constant-drift sampler.
    """
    period = getattr(drift, "period", None)
    if period is None:
        raise ValueError("drift has no period")
    if isinstance(drift, PeriodicDrift) and \
            all(np.array_equal(v, drift.values[0]) for v in drift.values):
        return simulate_X(ConstantDrift(drift.values[0]), sigma, xi, cfg)
    m = int(round(period / cfg.dt))
    if m < 1 or abs(m * cfg.dt - period) > 1e-9 * period:
        raise ValueError("dt must divide the drift period")
    xi = _prepare_xi(xi, drift.d)
    if cfg.scheme == SCHEME_EULER:
        return _assemble(_run_euler(drift, sigma, xi, cfg), cfg)
    N = cfg.n_steps
    times = cfg.dt * np.arange(N)
    ode_tol = min(cfg.cov_tol, 1e-12)
    Phi_period = np.stack([
        fundamental_solution(drift, (j + 1) * cfg.dt, tol=ode_tol,
                             t_start=j * cfg.dt)
        for j in range(min(m, N))])
    trans = Phi_period[np.arange(N) % len(Phi_period)]
    Q = _step_covariances(drift, sigma, times, cfg.dt, cfg.cov_tol)
    sqrtQ = _sqrt_psd_batch(Q)
    return _assemble(_run_exact(trans, sqrtQ, xi, cfg), cfg)


def bessel_scenario(d: int, alpha: float, cfg: SimConfig,
                    xi=None) -> PathEnsemble:
    """Square-Bessel-type benchmark: A = -I_d, sigma(t) = (1+t)^alpha I_d.

    Used for qualitative regime inspection in dimension d >= 3.
    """
    if d < 3:
        raise ValueError("the benchmark needs d >= 3")
    sigma = DiffusionSpec.envelope(PowerLaw(scale=1.0, exponent=float(alpha)),
                                   np.eye(d))
    start = np.ones(d) if xi is None else xi
    return simulate_X(ConstantDrift(-np.eye(d)), sigma, start, cfg)
