import math

import numpy as np
import pytest
from scipy.integrate import quad_vec, solve_ivp
from scipy.linalg import expm

from affinesde import linalg
from affinesde.linalg import (MonodromyResult, StabilityError, monodromy,
                              solve_lyapunov, spectral_abscissa,
                              spectral_radius, step_propagators)
from affinesde.model import (ConstantDrift, PeriodicDrift, eval_drift,
                             gauss_legendre_rule)

_TWO_PI = 2 * math.pi


def _sampled(fn, n):
    """fn(t) sampled on n uniform knots of the period 2 pi.  The trapezoid
    sum over a period of cos t or sin t on the knots is 0, so the integral
    of -1 + cos t is exactly -2 pi, that of sin t exactly 0."""
    times = [_TWO_PI * k / n for k in range(n)]
    return PeriodicDrift(period=_TWO_PI, times=times,
                         values=[np.atleast_2d(fn(t)) for t in times])


def _integral(drift, s, t):
    """int_s^t A of a piecewise-linear drift: the trapezoid rule on the
    knots between s and t, exact between them."""
    laps = np.arange(math.floor(s / drift.period), math.ceil(t / drift.period))
    knots = (laps[:, None] * drift.period + drift.times).ravel()
    pts = np.concatenate([[s], knots[(knots > s) & (knots < t)], [t]])
    A = eval_drift(drift, pts)
    return np.einsum("k,kij->ij", np.diff(pts), 0.5 * (A[1:] + A[:-1]))


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


def test_lyapunov_certificate_margins():
    # A^T M + M A = -I gives the margin 1 / (2 ||M|| ||A||): 1 for -I,
    # whose M = I / 2
    assert solve_lyapunov(-np.eye(3)).margin == pytest.approx(1.0)
    # the Stein equation on rho I gives M = I / (1 - rho^2) and the margin
    # 1 - rho^2
    sol = solve_lyapunov(0.6 * np.eye(2), discrete=True)
    np.testing.assert_allclose(sol.M, np.eye(2) / 0.64, rtol=1e-14)
    assert sol.margin == pytest.approx(0.64, rel=1e-14)
    assert sol.residual <= 1e-14


def test_lyapunov_refuses_marginal_matrices():
    # eigenvalues 0 and +-i: the Kronecker system is singular, where the
    # solve once raised numpy's LinAlgError, past a spectral abscissa test
    # that rounding passed
    for A in ([[1.0, 1.0], [-1.0, -1.0]], [[2.0, -5.0], [1.0, -2.0]]):
        with pytest.raises(StabilityError, match="stability margin 0"):
            solve_lyapunov(A)
    # a margin at or below the solve's rounding, DELTA d^2 = 3.6e-15 at
    # d = 2, is no certificate: 2e-18 for this stable drift, which 1e-12
    # below its diagonal makes marginal
    with pytest.raises(StabilityError, match="margin .* is not above delta "
                                             "3.55e-15"):
        solve_lyapunov([[-1e-6, 1.0], [0.0, -1e-6]])
    # a monodromy's tolerance widens the bound by 1e3 tol ||Psi||^2:
    # 1 - rho^2 = 5e-10 is a certificate for an exact matrix, but not for
    # one computed at 1e-12
    rho = math.sqrt(1.0 - 5e-10)
    assert solve_lyapunov([[rho]], discrete=True).margin == \
        pytest.approx(5e-10, rel=1e-6)
    with pytest.raises(StabilityError, match="not above delta 1e-09"):
        solve_lyapunov([[rho]], discrete=True, tol=1e-12)


def test_lyapunov_bound_scales_with_the_solve():
    # the bound is the rounding of the d^2 x d^2 solve, DELTA d^2: the
    # shear [[-1, b], [0, -1]], both eigenvalues -1, has the margin about
    # 2 / b^3, 2.5e-13 at b = 2e4, which a bound sized for d = 32 (1e-12)
    # refused
    sol = solve_lyapunov([[-1.0, 2e4], [0.0, -1.0]])
    assert 2e-13 < sol.margin < 3e-13
    # the certificate is solved at every d, here d = 33, its bound
    # DELTA 33^2
    assert solve_lyapunov(-np.eye(33)).margin == pytest.approx(1.0)
    # the Stein bound grows with ||Psi||^2, as the monodromy's error and
    # the solve's residual do: Psi = [[0.5, 1e3], [0, 0.5]] keeps rho = 0.5
    # but has ||Psi|| = 1e3 and the margin 3.4e-7, a certificate for an
    # exact matrix and for one computed at 1e-18, but not at 1e-15, where
    # a widening of 1e3 tol alone (1e-12) would pass it
    Psi = [[0.5, 1e3], [0.0, 0.5]]
    margin = solve_lyapunov(Psi, discrete=True).margin
    assert margin == pytest.approx(3.375e-7, rel=1e-3)
    assert solve_lyapunov(Psi, discrete=True, tol=1e-18).margin == margin
    with pytest.raises(StabilityError, match="not above delta 1e-06"):
        solve_lyapunov(Psi, discrete=True, tol=1e-15)


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
        oracle, err = quad_vec(lambda s: expm(A.T * s) @ expm(A * s), 0.0, T,
                               epsabs=1e-12, epsrel=0.0, norm="max")
        assert err < 1e-11
        np.testing.assert_allclose(solve_lyapunov(A).M, oracle, atol=1e-9)


# ---------------------------------------------------------------------------
# constant drifts: the same adjoint solve as a periodic one
# ---------------------------------------------------------------------------

A2 = np.array([[-1.0, 0.5], [0.0, -2.0]])


@pytest.mark.parametrize("A, dt", [
    (A2, 0.05), (A2, 4.0), (np.array([[0.0, 1.0], [0.0, 0.0]]), 3.0),
    (np.diag([-1e3, -1.0]), 1.0),
], ids=["A2-dt0.05", "A2-dt4", "nilpotent", "stiff"])
def test_constant_drift_propagators_match_scipy_expm(A, dt):
    # oracle: Psi(t + dt, t + u dt) = exp(A (dt - u dt)) by scipy's Pade
    # expm, the same for every start, at the covariance panel's nodes, u = 0
    # and u = 1, within 1e-12 of the stack's largest entry: the solver's
    # tolerance is absolute.  The stiff drift's dt ||A|| = 1000 takes the
    # explicit stepper about 60 ms
    starts = np.array([0.0, 0.3, 1.7, 40.0])
    u = np.concatenate([[0.0], *(gauss_legendre_rule(k)[0] for k in (0, 1)),
                        [1.0]])
    ref = np.array([expm(A * (dt - x * dt)) for x in u])
    got = step_propagators(ConstantDrift(A), starts, dt, 1e-12)(u)
    assert got.shape == (len(u), len(starts), 2, 2)
    assert np.abs(got - ref[:, None]).max() <= 1e-12 * np.abs(ref).max()


def test_constant_drift_overflow_raises(monkeypatch):
    # exp(710) overflows a double.  Some entry of e^{A dt} is at least
    # e^{alpha dt} / d, so a constant drift with alpha dt above
    # ln(DBL_MAX) + ln d = 709.78 + ln d raises before the solve, at any
    # tol: without that check the adjoint solve on [[1]] at dt 710 stepped
    # until its stages overflowed, 280,000 drift evaluations (5 s) at tol
    # 1e-12.  A periodic drift keeps the solver's rule, checked on the
    # one-knot [[1]]: at dt 710 and tol 1e-3 the solve steps until its
    # stages overflow in the middle of the solve, the error norm turns NaN
    # and the step shrinks below 10 ulp, after about 3,100 evaluations
    # (0.05 s); at dt = 1e15 its first step is already below 10 ulp, and it
    # raises after a few evaluations
    calls = []
    monkeypatch.setattr(linalg, "eval_drift", lambda drift, t:
                        calls.append(t) or eval_drift(drift, t))
    for A, dt, tol, bound in (([[1.0]], 710.0, 1e-3, "709.783"),
                              ([[1.0]], 710.0, 1e-12, "709.783"),
                              ([[1.0]], 1e15, 1e-12, "709.783"),
                              (np.eye(2), 711.0, 1e-12, "710.476")):
        calls.clear()
        with pytest.raises(RuntimeError, match="^fundamental solution "
                           "integration failed: the transition overflows, "
                           f".* exceeds ln\\(DBL_MAX\\) \\+ ln d = {bound}$"):
            step_propagators(ConstantDrift(A), [0.0], dt, tol)
        assert calls == [], (dt, tol)
    drift = PeriodicDrift(period=1.0, times=[0.0], values=[[[1.0]]])
    for dt, tol, at, most in ((710.0, 1e-3, "0.01", 4000),
                              (1e15, 1e-12, "1$", 16)):
        calls.clear()
        with pytest.raises(RuntimeError, match="^fundamental solution "
                           "integration failed: step size .* below 10 ulp "
                           f"of t = {at}"):
            step_propagators(drift, [0.0], dt, tol)
        assert 0 < len(calls) <= most, (dt, tol)


# ---------------------------------------------------------------------------
# fundamental solutions and monodromy
# ---------------------------------------------------------------------------

def _fundamental_solution(drift, t, tol=1e-10, s=0.0):
    """Psi(t, s): the transition of the one-start step propagator from s."""
    return step_propagators(drift, [s], t - s, tol)(0.0)[0]


def test_fundamental_solution_constant_reduction():
    A = np.array([[-1.0, 0.5], [0.3, -2.0]])
    Psi = _fundamental_solution(ConstantDrift(A), 1.7)
    np.testing.assert_allclose(Psi, expm(A * 1.7), atol=1e-8)


# one solve over a whole period crosses every kink, where the solver's error
# estimate does not hold, so these drifts have only four knots a period
def test_fundamental_solution_sin_drift():
    drift = _sampled(lambda t: [[math.sin(t)]], 4)
    Psi = _fundamental_solution(drift, _TWO_PI, tol=1e-12)
    assert Psi[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_fundamental_solution_shifted_cos_drift():
    drift = _sampled(lambda t: [[-1.0 + math.cos(t)]], 4)
    Psi = _fundamental_solution(drift, _TWO_PI, tol=1e-12)
    assert Psi[0, 0] == pytest.approx(math.exp(-_TWO_PI), rel=1e-8)


def test_fundamental_solution_shifted_start():
    # Psi(t, s) = diag(exp(int_s^t a_11), exp(-2 (t - s)))
    drift = _sampled(lambda t: np.diag([-1.0 + math.cos(t), -2.0]), 4)
    for s, t in ((1.3, 4.0), (2.0, 2.5), (5.0, 11.0)):
        Psi = _fundamental_solution(drift, t, tol=1e-12, s=s)
        expect = np.diag([math.exp(_integral(drift, s, t)[0, 0]),
                          math.exp(-2.0 * (t - s))])
        np.testing.assert_allclose(Psi, expect, rtol=1e-8, atol=1e-11)


def test_fundamental_solution_semigroup():
    A = np.array([[-0.5, 1.0], [0.0, -1.5]])
    drift = ConstantDrift(A)
    s, t = 0.8, 1.3
    lhs = _fundamental_solution(drift, s + t)
    rhs = _fundamental_solution(drift, s) @ _fundamental_solution(drift, t)
    np.testing.assert_allclose(lhs, rhs, atol=1e-7)


PERIODIC2 = PeriodicDrift(period=1.5, times=[0.0, 0.5],
                          values=[[[-1.0, 0.5], [0.0, -2.0]],
                                  [[-2.0, 0.0], [0.3, -0.5]]])


def _knots16_drift():
    """[[-1 + cos t, .5], [0, -2 + sin t]] sampled at 16 knots per 2 pi."""
    period = 2.0 * math.pi
    times = [period * k / 16 for k in range(16)]
    return PeriodicDrift(period=period, times=times, values=[
        [[-1.0 + math.cos(t), 0.5], [0.0, -2.0 + math.sin(t)]] for t in times])


def _positions(drift, m):
    """The m period positions of a step of T / m, as drift, starts, dt."""
    dt = drift.period / m
    return drift, dt * np.arange(m), dt


# a step length per start, ending on PERIODIC2's knots at 0.5 and 1.5 but
# crossing none, as monodromy's segments do
_PER_START = ([0.0, 0.2, 0.45, 1.1], np.array([0.2, 0.3, 0.05, 0.4]))


@pytest.mark.parametrize("drift, starts, dt", [
    _positions(PERIODIC2, 6), _positions(_knots16_drift(), 64),
    (PERIODIC2, *_PER_START),
    (ConstantDrift([[-1.0, 0.5], [0.3, -2.0]]), *_PER_START),
], ids=["periodic2-m6", "knots16-m64", "periodic2-per-start",
        "constant-per-start"])
def test_step_propagators_match_the_one_start_propagator(drift, starts, dt):
    # one stacked solve over every start gives each start's transition
    # (u = 0) and panel nodes as a solve of its own does
    m = len(starts)
    psis = step_propagators(drift, starts, dt, 1e-12)
    u = np.concatenate([[0.0], *(gauss_legendre_rule(k)[0] for k in (0, 1)),
                        [1.0]])
    got = psis(u)
    assert got.shape == (len(u), m, 2, 2)
    assert np.array_equal(psis(0.0), got[0])
    for j, (t, h) in enumerate(zip(starts, np.broadcast_to(dt, m))):
        ref = step_propagators(drift, [t], h, 1e-12)(u)[:, 0]
        assert np.abs(got[:, j] - ref).max() <= 1e-11 * np.abs(ref).max(), j
    assert np.array_equal(got[-1], np.broadcast_to(np.eye(2), (m, 2, 2)))


def _dop853_transition(drift, a, b):
    """Psi(b, a) from one DOP853 solve of X' = A X, at an rtol just above
    scipy's floor of 100 machine epsilons."""
    d = drift.d
    sol = solve_ivp(lambda s, y: (eval_drift(drift, s) @
                                  y.reshape(d, d)).reshape(-1),
                    (a, b), np.eye(d).reshape(-1), method="DOP853",
                    rtol=3e-14, atol=1e-15)
    assert sol.success
    return sol.y[:, -1].reshape(d, d)


def _knot_segment_reference(drift):
    """Psi(T, 0) of a piecewise-linear drift as the product of a DOP853
    solve on each knot segment, so that no solve crosses a kink."""
    edges = [*drift.times, drift.period]
    Psi = np.eye(drift.d)
    for a, b in zip(edges, edges[1:]):
        Psi = _dop853_transition(drift, a, b) @ Psi
    return Psi


def test_monodromy_diagonal_is_exact_on_a_triangular_drift():
    # the 16-knot drift is upper triangular, so diag Psi(T, 0) is
    # exp(int a_ii) = exp(h sum_k a_ii(t_k)) for the knot spacing h; the
    # knot-segment reference holds it too
    drift = _knots16_drift()
    h = drift.period / 16
    exact = np.exp(h * np.einsum("kii->i", drift.values))
    np.testing.assert_allclose(np.diag(_knot_segment_reference(drift)), exact,
                               rtol=1e-13)
    np.testing.assert_allclose(np.diag(monodromy(drift, tol=1e-12).Psi_T),
                               exact, rtol=1e-10)


# one knot interval per segment count: ceil(64 len / T) = 13, 18 and 35
KNOTS3 = PeriodicDrift(period=1.5, times=[0.0, 0.3, 0.7],
                       values=[[[-1.0]], [[-3.0]], [[-0.5]]])


@pytest.mark.parametrize("drift, reference, bounds", [
    (PERIODIC2, _knot_segment_reference, {1e-10: 1e-11, 1e-12: 1e-12}),
    # exp(int A) over the period, by the trapezoid rule on each knot interval
    (KNOTS3, lambda drift: np.array([[math.exp(-1.9)]]),
     {1e-10: 1e-11, 1e-12: 1e-13}),
    (_knots16_drift(), _knot_segment_reference, {1e-10: 1e-9, 1e-12: 1e-10}),
    (PeriodicDrift(period=1.0, times=[0.0, 0.5],
                   values=[np.array([[-1.0]]), np.array([[-1.0]])]),
     lambda drift: np.array([[math.exp(-1.0)]]), {1e-10: 6e-11, 1e-12: 6e-13}),
    # the trapezoid integrals over the period: 0, and -2 pi and -4 pi
    (_sampled(lambda t: [[math.sin(t)]], 16),
     lambda drift: np.eye(1), {1e-10: 2e-10, 1e-12: 2e-12}),
    (_sampled(lambda t: np.diag([-1.0 + math.cos(t), -2.0]), 16),
     lambda drift: np.diag([math.exp(-_TWO_PI), math.exp(-2 * _TWO_PI)]),
     {1e-10: 2e-10, 1e-12: 2e-12}),
], ids=["periodic2", "knots3", "knots16", "constant-values", "sin",
        "diag"])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_monodromy_matches_an_independent_reference(drift, reference, bounds,
                                                    tol):
    # entrywise relative error against the exact monodromy, or against a
    # solve cut at every kink.  Every knot, uniform or not, falls on a
    # segment edge; one RK45 solve over the whole period at the same tol
    # misses the piecewise-linear drifts' bounds by three orders of
    # magnitude or more
    ref = reference(drift)
    got = monodromy(drift, tol=tol).Psi_T
    np.testing.assert_allclose(got, ref, rtol=bounds[tol], atol=0.0)


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
    # a step length per start: each must be finite and positive, and there
    # must be one per start
    with pytest.raises(ValueError, match="^dt must be finite"):
        step_propagators(drift, [0.0, 0.5], [0.25, math.nan])
    with pytest.raises(ValueError, match="^dt must be positive"):
        step_propagators(drift, [0.0, 0.5], [0.25, 0.0])
    for bad in ([0.25], [0.25, 0.25, 0.25], [[0.25, 0.25]]):
        with pytest.raises(ValueError, match="^dt must be one step length "
                                             "or one per start"):
            step_propagators(drift, [0.0, 0.5], bad)
    for bad in (math.nan, math.inf, 0.0, -1e-10):
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            step_propagators(drift, [0.0], 0.25, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_monodromy_rejects_a_bad_tol(bad):
    # a NaN, zero or infinite tolerance would hold the adjoint solve forever
    drift = _sampled(lambda t: np.diag([-1.0 + math.cos(t), -2.0]), 16)
    with pytest.raises(ValueError, match="^tol must be finite and positive"):
        monodromy(drift, tol=bad)


def test_step_propagators_hold_each_start_to_tol():
    # the solver's error norm is an RMS over all m d^2 components, so the
    # stacked solve of m starts runs at tol / sqrt(m), and each start's
    # transition is within tol of a solve of its own.  The steps of 0.25
    # end on PERIODIC2's knots but cross none
    for m in (1, 4, 64):
        starts = 0.25 * np.arange(m)
        refs = [_dop853_transition(PERIODIC2, t, t + 0.25) for t in starts]
        for tol in (1e-10, 1e-12):
            got = step_propagators(PERIODIC2, starts, 0.25, tol)(0.0)
            err = np.abs(got - refs).max(axis=(1, 2))
            assert np.all(err <= tol), (m, tol, err.max())


# one start over PERIODIC2's whole period crosses both kinks, and each of 8
# steps over the 16-knot drift crosses one, where the solver rejects steps
@pytest.mark.parametrize("drift, m", [(PERIODIC2, 6), (PERIODIC2, 1),
                                      (_knots16_drift(), 64),
                                      (_knots16_drift(), 8)],
                         ids=["periodic2", "periodic2-kinks", "knots16",
                              "knots16-kinks"])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_step_propagators_match_scipy_rk45(drift, m, tol):
    # oracle: scipy's RK45 on the same stacked adjoint equations at the same
    # rtol and atol runs the same Dormand-Prince steps, so its dense output
    # agrees at the transitions, the covariance panel's nodes, u = 1 and
    # the step edges
    d, dt = drift.d, drift.period / m
    starts = dt * np.arange(m)

    def rhs(u, y):
        A = eval_drift(drift, starts + u * dt)
        return -(y.reshape(m, d, d) @ (dt * A)).reshape(-1)

    local = tol / math.sqrt(m)
    sol = solve_ivp(rhs, (1.0, 0.0), np.tile(np.eye(d), (m, 1)).reshape(-1),
                    method="RK45", rtol=local, atol=local, dense_output=True)
    assert sol.success
    u = np.concatenate([[0.0], *(gauss_legendre_rule(k)[0] for k in (0, 1)),
                        [1.0], sol.t])
    ref = np.moveaxis(sol.sol(u), 0, -1).reshape(len(u), m, d, d)
    got = step_propagators(drift, starts, dt, tol)(u)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_step_propagators_raise_on_a_failed_solve(monkeypatch):
    # finite drift entries overflow the stages: the error norm is NaN, the
    # step shrinks below 10 ulp and the solve raises.  At 1e308 over a step
    # of 4, dt A overflows and the first derivative holds 0 * inf = NaN.
    # Either way no RuntimeWarning escapes, and the solve ends after a few
    # drift evaluations
    calls = []
    monkeypatch.setattr(linalg, "eval_drift", lambda drift, t:
                        calls.append(t) or eval_drift(drift, t))
    for d, big, dt, reason in (
            (1, 1e300, 0.25, "step size .* below 10 ulp of t = 1$"),
            (2, 1e300, 0.5, "step size .* below 10 ulp of t = 1$"),
            (2, 1e308, 4.0, "non-finite derivative at t = 1$")):
        drift = PeriodicDrift(period=1.0, times=[0.0, 0.5],
                              values=[np.full((d, d), -big),
                                      np.full((d, d), big)])
        calls.clear()
        with pytest.raises(RuntimeError, match="^fundamental solution "
                                               f"integration failed: {reason}"):
            step_propagators(drift, [0.0, 0.25], dt)
        assert len(calls) <= 16, (d, big)


def test_determinant_identity():
    # det Psi(t) = exp(int_0^t tr A), and int_0^{2 pi} tr A = -6 pi
    drift = _sampled(lambda t: [[-1.0 + math.cos(t), 0.4], [0.0, -2.0]], 4)
    Psi = _fundamental_solution(drift, _TWO_PI, tol=1e-12)
    assert np.linalg.det(Psi) == pytest.approx(math.exp(-3 * _TWO_PI),
                                               rel=1e-7)


def test_monodromy_constant_scalar():
    drift = PeriodicDrift(period=1.0, times=[0.0, 0.5],
                          values=[np.array([[-1.0]]), np.array([[-1.0]])])
    res = monodromy(drift, tol=1e-12)
    assert res.rho == pytest.approx(math.exp(-1.0), rel=1e-8)
    assert abs(np.linalg.det(res.Psi_T)) > 0


def _diagonal_kink(a):
    """The 2-knot drift of period 1 with A(0) = a I and A(1/2) = a I plus
    0.1 above the diagonal: int_0^1 tr A = 2 a, and rho = e^a."""
    return PeriodicDrift(period=1.0, times=[0.0, 0.5],
                         values=[a * np.eye(2), [[a, 0.1], [0.0, a]]])


def test_monodromy_keeps_an_underflowing_determinant():
    # det Psi(1) = e^-800 underflows to 0.0, yet rho = e^-400 ~ 1.9e-174 is
    # a normal double: only a product that is not finite is a failure
    res = monodromy(_diagonal_kink(-400.0), tol=1e-12)
    assert np.linalg.det(res.Psi_T) == 0.0
    assert res.rho == pytest.approx(math.exp(-400.0), rel=1e-9)


def test_monodromy_overflow_is_a_runtime_error():
    # e^800 leaves the doubles: a RuntimeError, with no RuntimeWarning (the
    # suite turns warnings into errors) and no ValueError from the radius
    with pytest.raises(RuntimeError, match="^monodromy matrix is not finite"):
        monodromy(_diagonal_kink(800.0), tol=1e-12)
    # e^400 is finite though its determinant e^800 is not
    assert monodromy(_diagonal_kink(400.0), tol=1e-12).rho == \
        pytest.approx(math.exp(400.0), rel=1e-9)


def test_monodromy_sin_drift_is_neutral():
    drift = _sampled(lambda t: [[math.sin(t)]], 16)
    assert monodromy(drift, tol=1e-12).rho == pytest.approx(1.0, abs=1e-8)


def test_monodromy_diagonal_mixed():
    drift = _sampled(lambda t: np.diag([-1.0 + math.cos(t), -2.0]), 16)
    res = monodromy(drift, tol=1e-12)
    assert res.rho == pytest.approx(math.exp(-_TWO_PI), rel=1e-8)


def test_monodromy_requires_period():
    with pytest.raises(ValueError, match="^monodromy needs a periodic drift"):
        monodromy(ConstantDrift(np.array([[-1.0]])))
