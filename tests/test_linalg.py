import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad_vec, solve_ivp

from affinesde.linalg import (MonodromyResult, StabilityError, expm,
                              fundamental_solution, monodromy, propagator,
                              solve_lyapunov, spectral_abscissa,
                              spectral_radius, step_propagators)
from affinesde.model import (CallableDrift, ConstantDrift, PeriodicDrift,
                             eval_drift, gauss_legendre_rule)


def test_spectral_abscissa_examples():
    assert spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)
    assert spectral_abscissa([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)
    companion = [[0.0, 1.0], [-2.0, -3.0]]   # roots of x^2 + 3x + 2: -1, -2
    assert spectral_abscissa(companion) == pytest.approx(-1.0, abs=1e-9)


def test_spectral_radius_examples():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0)
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)
    th = 0.8
    rot = 0.7 * np.array([[math.cos(th), -math.sin(th)],
                          [math.sin(th), math.cos(th)]])
    assert spectral_radius(rot) == pytest.approx(0.7, abs=1e-9)


# ---------------------------------------------------------------------------
# Lyapunov
# ---------------------------------------------------------------------------

def test_lyapunov_minus_identity():
    for d in (1, 2, 5):
        sol = solve_lyapunov(-np.eye(d))
        np.testing.assert_allclose(sol.M, np.eye(d) / 2, atol=1e-14)


def test_lyapunov_jordan_block_residual():
    sol = solve_lyapunov([[-1.0, 1.0], [0.0, -1.0]])
    assert sol.residual <= 1e-10


def test_lyapunov_rejects_unstable():
    with pytest.raises(StabilityError):
        solve_lyapunov(np.zeros((2, 2)))
    with pytest.raises(StabilityError):
        solve_lyapunov([[0.1]])


def _random_stable(rng, d):
    eigs = rng.uniform(-5.0, -0.1, size=d)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q @ np.diag(eigs) @ Q.T


def test_lyapunov_random_stable_matrices():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        A = _random_stable(rng, d)
        sol = solve_lyapunov(A)
        assert sol.residual <= 1e-10
        assert np.linalg.norm(sol.M - sol.M.T, "fro") <= \
            1e-12 * np.linalg.norm(sol.M, "fro")
        assert np.all(np.linalg.eigvalsh(sol.M) > 0)


def test_lyapunov_matches_integral_representation():
    # independent oracle: M = int_0^inf e^{A^T s} e^{A s} ds, truncated where
    # the integrand is below double precision
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        A = _random_stable(rng, d)
        a = spectral_abscissa(A)
        T = -40.0 / a
        oracle, err = quad_vec(lambda s: expm(A.T, s) @ expm(A, s), 0.0, T,
                               epsabs=1e-12, epsrel=0.0, norm="max")
        assert err < 1e-11
        np.testing.assert_allclose(solve_lyapunov(A).M, oracle, atol=1e-9)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def test_expm_examples():
    np.testing.assert_allclose(expm(np.zeros((2, 2))), np.eye(2))
    np.testing.assert_allclose(expm(np.diag([-1.0, -2.0]), 1.0),
                               np.diag([math.e ** -1, math.e ** -2]),
                               rtol=1e-12)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(expm(nil, 3.0), [[1.0, 3.0], [0.0, 1.0]],
                               atol=1e-14)


def test_expm_overflow_raises():
    with pytest.raises((OverflowError, ValueError)):
        expm(np.array([[1.0]]), 1e6)


# ---------------------------------------------------------------------------
# fundamental solutions and monodromy
# ---------------------------------------------------------------------------

def test_fundamental_solution_constant_reduction():
    A = np.array([[-1.0, 0.5], [0.3, -2.0]])
    Psi = fundamental_solution(ConstantDrift(A), 1.7)
    np.testing.assert_allclose(Psi, expm(A, 1.7), atol=1e-8)


def test_fundamental_solution_sin_drift():
    drift = CallableDrift(fn=lambda t: np.array([[math.sin(t)]]), d=1,
                          period=2 * math.pi)
    Psi = fundamental_solution(drift, 2 * math.pi, tol=1e-12)
    assert Psi[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_fundamental_solution_shifted_cos_drift():
    drift = CallableDrift(fn=lambda t: np.array([[-1.0 + math.cos(t)]]), d=1,
                          period=2 * math.pi)
    Psi = fundamental_solution(drift, 2 * math.pi, tol=1e-12)
    assert Psi[0, 0] == pytest.approx(math.exp(-2 * math.pi), rel=1e-8)


def test_fundamental_solution_shifted_start():
    # Psi(t, s) = diag(exp(-(t - s) + sin t - sin s), exp(-2 (t - s)))
    drift = CallableDrift(
        fn=lambda t: np.diag([-1.0 + math.cos(t), -2.0]), d=2,
        period=2 * math.pi)
    for s, t in ((1.3, 4.0), (2.0, 2.5), (5.0, 11.0)):
        Psi = fundamental_solution(drift, t, tol=1e-12, t_start=s)
        expect = np.diag([math.exp(-(t - s) + math.sin(t) - math.sin(s)),
                          math.exp(-2.0 * (t - s))])
        np.testing.assert_allclose(Psi, expect, rtol=1e-8, atol=1e-11)


def test_fundamental_solution_semigroup():
    A = np.array([[-0.5, 1.0], [0.0, -1.5]])
    drift = ConstantDrift(A)
    s, t = 0.8, 1.3
    lhs = fundamental_solution(drift, s + t)
    rhs = fundamental_solution(drift, s) @ fundamental_solution(drift, t)
    np.testing.assert_allclose(lhs, rhs, atol=1e-7)


@pytest.mark.parametrize("drift", [
    ConstantDrift([[-1.0, 0.5], [0.0, -2.0]]),
    PeriodicDrift(period=1.5, times=[0.0, 0.5],
                  values=[[[-1.0, 0.5], [0.0, -2.0]], [[-2.0, 0.0], [0.3, -0.5]]]),
], ids=["constant", "periodic"])
def test_propagator_takes_an_array_of_times(drift):
    # one matrix per time, each the scalar call's up to the dense output's
    # rounding; the degenerate interval gives identities of the same shape
    psi = propagator(drift, 1.25, 0.5, tol=1e-12)
    s = np.array([0.5, 0.6, 1.0, 1.25])
    got = psi(s)
    assert got.shape == (4, 2, 2)
    for k, x in enumerate(s):
        np.testing.assert_allclose(got[k], psi(float(x)), rtol=1e-14,
                                   atol=1e-15)
    eye = propagator(PeriodicDrift(period=1.0, times=[0.0], values=[[[-1.0]]]),
                     0.5, 0.5)
    assert eye(0.5).shape == (1, 1)
    assert np.array_equal(eye(s), np.ones((4, 1, 1)))


PERIODIC2 = PeriodicDrift(period=1.5, times=[0.0, 0.5],
                          values=[[[-1.0, 0.5], [0.0, -2.0]],
                                  [[-2.0, 0.0], [0.3, -0.5]]])


def _knots16_drift():
    """[[-1 + cos t, .5], [0, -2 + sin t]] sampled at 16 knots per 2 pi."""
    period = 2.0 * math.pi
    times = [period * k / 16 for k in range(16)]
    return PeriodicDrift(period=period, times=times, values=[
        [[-1.0 + math.cos(t), 0.5], [0.0, -2.0 + math.sin(t)]] for t in times])


@pytest.mark.parametrize("drift, m", [(PERIODIC2, 6), (_knots16_drift(), 64)],
                         ids=["periodic2-m6", "knots16-m64"])
def test_step_propagators_match_the_one_start_propagator(drift, m):
    # one stacked solve over every period position gives each position's
    # transition (u = 0) and panel nodes as a solve of its own does
    dt = drift.period / m
    starts = dt * np.arange(m)
    psis = step_propagators(drift, starts, dt, 1e-12)
    u = np.concatenate([[0.0], *(gauss_legendre_rule(k)[0] for k in (0, 1)),
                        [1.0]])
    got = psis(u)
    assert got.shape == (len(u), m, 2, 2)
    assert np.array_equal(psis(0.0), got[0])
    for j, t in enumerate(starts):
        ref = propagator(drift, t + dt, t, tol=1e-12)(t + u * dt)
        assert np.abs(got[:, j] - ref).max() <= 1e-11 * np.abs(ref).max(), j
    assert np.array_equal(got[-1], np.broadcast_to(np.eye(2), (m, 2, 2)))


def _separate_monodromy(drift, tol):
    """Psi(T, 0) by a backward RK45 solve of dY/ds = -Y A(s), Y(T) = I, on
    its own: the route monodromy took before the stacked solve."""
    d, T = drift.d, drift.period

    def rhs(s, y):
        return -(y.reshape(d, d) @ eval_drift(drift, s)).reshape(-1)

    sol = solve_ivp(rhs, (T, 0.0), np.eye(d).reshape(-1), method="RK45",
                    rtol=tol, atol=tol, dense_output=True)
    assert sol.success
    return sol.sol(0.0).reshape(d, d)


@pytest.mark.parametrize("drift", [
    PERIODIC2, _knots16_drift(),
    PeriodicDrift(period=1.0, times=[0.0, 0.5],
                  values=[np.array([[-1.0]]), np.array([[-1.0]])]),
    CallableDrift(fn=lambda t: np.array([[math.sin(t)]]), d=1,
                  period=2 * math.pi),
    CallableDrift(fn=lambda t: np.diag([-1.0 + math.cos(t), -2.0]), d=2,
                  period=2 * math.pi),
], ids=["periodic2", "knots16", "constant-values", "sin", "diag"])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_monodromy_is_the_separate_solve_bit_for_bit(drift, tol):
    # the one-start case of the stacked solve runs from offset 0, so it
    # takes the same steps as a solve of its own
    assert np.array_equal(monodromy(drift, tol=tol).Psi_T,
                          _separate_monodromy(drift, tol))


@pytest.mark.parametrize("drift", [ConstantDrift([[-1.0]]), PERIODIC2],
                         ids=["constant", "periodic"])
def test_step_propagators_reject_bad_arguments(drift):
    # caught at the entry, naming the argument: a NaN start or step would
    # hold the adjoint solve forever
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^starts must be finite"):
            step_propagators(drift, [0.0, bad], 0.25)
        with pytest.raises(ValueError, match="^dt must be finite"):
            step_propagators(drift, [0.0], bad)
    for bad in (0.0, -0.25):
        with pytest.raises(ValueError, match="^dt must be positive"):
            step_propagators(drift, [0.0], bad)
    with pytest.raises(ValueError, match="^starts must be a non-empty 1-d"):
        step_propagators(drift, [], 0.25)


def test_step_propagators_hold_each_start_to_tol(monkeypatch):
    # solve_ivp's error norm is an RMS over all m d^2 components, so the
    # stacked solve of m starts runs at tol / sqrt(m)
    seen = []
    real = scipy.integrate.solve_ivp
    monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *a, **k:
                        seen.append((k["rtol"], k["atol"])) or real(*a, **k))
    for m in (1, 4, 64):
        step_propagators(PERIODIC2, 0.25 * np.arange(m), 0.25, 1e-12)
    assert seen == [(1e-12, 1e-12), (5e-13, 5e-13), (1.25e-13, 1.25e-13)]


def test_step_propagators_raise_on_a_failed_solve(monkeypatch):
    monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *a, **k:
                        SimpleNamespace(success=False, message="step too small"))
    with pytest.raises(RuntimeError, match="integration failed: step too small"):
        step_propagators(PERIODIC2, [0.0, 0.25], 0.25)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_propagator_rejects_non_finite_times(bad):
    # caught at the entry, naming the argument: a NaN passes the order check
    # and would hold the adjoint solve forever
    periodic = PeriodicDrift(period=1.5, times=[0.0], values=[[[-1.0]]])
    for drift in (periodic, ConstantDrift([[-1.0]])):
        with pytest.raises(ValueError, match="^t_end must be finite"):
            propagator(drift, bad, 0.0)
        with pytest.raises(ValueError, match="^t_lo must be finite"):
            propagator(drift, 1.0, bad)


def test_determinant_identity():
    # det Psi(t) = exp(int_0^t tr A)
    drift = CallableDrift(
        fn=lambda t: np.array([[-1.0 + math.cos(t), 0.4], [0.0, -2.0]]),
        d=2, period=2 * math.pi)
    t_end = 2 * math.pi
    Psi = fundamental_solution(drift, t_end, tol=1e-12)
    tr_int = -t_end + math.sin(t_end) - 2.0 * t_end
    assert np.linalg.det(Psi) == pytest.approx(math.exp(tr_int), rel=1e-7)


def test_monodromy_constant_scalar():
    drift = PeriodicDrift(period=1.0, times=[0.0, 0.5],
                          values=[np.array([[-1.0]]), np.array([[-1.0]])])
    res = monodromy(drift, tol=1e-12)
    assert res.rho == pytest.approx(math.exp(-1.0), rel=1e-8)
    assert abs(np.linalg.det(res.Psi_T)) > 0


def test_monodromy_sin_drift_is_neutral():
    drift = CallableDrift(fn=lambda t: np.array([[math.sin(t)]]), d=1,
                          period=2 * math.pi)
    assert monodromy(drift, tol=1e-12).rho == pytest.approx(1.0, abs=1e-8)


def test_monodromy_diagonal_mixed():
    drift = CallableDrift(
        fn=lambda t: np.diag([-1.0 + math.cos(t), -2.0]), d=2,
        period=2 * math.pi)
    res = monodromy(drift, tol=1e-12)
    assert res.rho == pytest.approx(math.exp(-2 * math.pi), rel=1e-8)


def test_monodromy_requires_period():
    with pytest.raises(ValueError):
        monodromy(ConstantDrift(np.array([[-1.0]])))
    with pytest.raises(ValueError):
        monodromy(CallableDrift(fn=lambda t: np.array([[-1.0]]), d=1))
