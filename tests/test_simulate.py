import dataclasses
import itertools
import math
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad_vec, solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.stats import kstest

from affinesde.linalg import step_propagators
from affinesde.model import (GL_NODES, ConstantDrift, DiffusionSpec,
                             ExpDecay, LogPower, PeriodicDrift, PowerLaw,
                             QuadratureError, eval_drift, eval_sigma,
                             gauss_legendre_rule)
from affinesde import model, simulate
from affinesde.simulate import (CovarianceError, Setup, SimConfig, prepare,
                                simulate_X, state_norms, step_covariance)
from affinesde.stats import compare

OU_DRIFT = ConstantDrift(np.array([[-1.0]]))
UNIT_SIGMA = DiffusionSpec.constant([[1.0]])


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_end=1.0, paths=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=1.0, t_end=0.5, paths=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_end=1.0, paths=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.3, t_end=1.0, paths=1, seed=0)   # not a multiple


@pytest.mark.parametrize("field, value", [("paths", True), ("seed", False)])
def test_config_rejects_booleans(field, value):
    # bool is an Integral, so True would pass as 1 path and False as seed 0
    args = {"dt": 0.1, "t_end": 1.0, "paths": 1, "seed": 0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SimConfig(**args)


# ---------------------------------------------------------------------------
# step covariance
# ---------------------------------------------------------------------------

def test_step_covariance_ou_closed_form():
    for dt in (0.05, 0.25, 1.0):
        Q = step_covariance(OU_DRIFT, UNIT_SIGMA, 0.0, dt)
        assert Q[0, 0] == pytest.approx((1 - math.exp(-2 * dt)) / 2,
                                        abs=1e-12)


def test_step_covariance_zero_sigma():
    Q = step_covariance(OU_DRIFT, DiffusionSpec.constant([[0.0]]), 1.0, 0.5)
    assert np.all(Q == 0.0)


def test_step_covariance_brownian_increment():
    S = np.array([[1.0, 0.5], [0.0, 2.0]])
    drift = ConstantDrift(np.zeros((2, 2)))
    Q = step_covariance(drift, DiffusionSpec.constant(S), 3.0, 0.7)
    np.testing.assert_allclose(Q, 0.7 * S @ S.T, atol=1e-11)


def test_step_covariance_psd_and_symmetric():
    A = np.array([[-1.0, 2.0], [0.0, -3.0]])
    spec = DiffusionSpec.envelope(ExpDecay(1.0, 0.5), [[1.0, 0.0], [1.0, 1.0]])
    Q = step_covariance(ConstantDrift(A), spec, 2.0, 0.4)
    np.testing.assert_allclose(Q, Q.T)
    assert np.all(np.linalg.eigvalsh(Q) >= 0.0)


@pytest.mark.parametrize("A", [[[-1.0]], [[-1.0, 0.5], [0.0, -2.0]]])
def test_step_covariance_scales_with_sigma_squared(A):
    # the SDE is linear, so Q(sigma = 1e4 I) = 1e8 Q(sigma = I); the error
    # bound tol * max|Q| scales with it instead of rejecting large Q
    drift = ConstantDrift(A)
    eye = np.eye(drift.d)
    q1 = step_covariance(drift, DiffusionSpec.constant(eye), 0.0, 0.125)
    q4 = step_covariance(drift, DiffusionSpec.constant(1e4 * eye), 0.0, 0.125)
    np.testing.assert_allclose(q4, 1e8 * q1, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_covariance_rejects_non_finite_times(bad):
    # caught at the entry, naming the argument, before any exponential
    with pytest.raises(ValueError, match="^t must be finite"):
        step_covariance(OU_DRIFT, UNIT_SIGMA, bad, 0.5)
    with pytest.raises(ValueError, match="^dt must be finite"):
        step_covariance(OU_DRIFT, UNIT_SIGMA, 0.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-10])
def test_step_covariance_rejects_a_bad_tol(bad):
    # caught at the entry, naming the argument: a NaN tolerance passes
    # min(tol, 1e-12) on to the propagator solve
    with pytest.raises(ValueError, match="^tol must be finite and positive"):
        step_covariance(OU_DRIFT, UNIT_SIGMA, 0.0, 0.5, tol=bad)


STIFF_DRIFT = ConstantDrift(np.array([[-200.0]]))


def _stiff_q(sigma: float, dt: float = 1.0) -> float:
    """Closed-form Q = sigma^2 (1 - e^{2 a dt}) / (-2 a) for a = -200."""
    return sigma ** 2 * -math.expm1(-400.0 * dt) / 400.0


def _factor_squares(sigma, times, dt, tol, psis):
    """The step covariances Q_n = F_n^T F_n that the sampler's noise factors
    F_n (transposed roots) stand for."""
    F = simulate._noise_factors(sigma, times, dt, tol, psis)
    return np.swapaxes(F, 1, 2) @ F


@pytest.mark.parametrize("sigma", [1.0, 1e-3, 1e-6])
def test_step_covariances_relative_to_the_size_of_q(sigma):
    # Q ~ 2.5e-3 sigma^2: an absolute error floor of tol would accept a
    # covariance far off for a small sigma, in step_covariance and in the
    # panel checks alike
    spec = DiffusionSpec.constant([[sigma]])
    exact = _stiff_q(sigma)
    Q = step_covariance(STIFF_DRIFT, spec, 0.0, 1.0)
    assert Q[0, 0] == pytest.approx(exact, rel=1e-10, abs=0.0)
    times = np.arange(8.0)
    Q = _factor_squares(spec, times, 1.0, 1e-10,
                        _propagators(STIFF_DRIFT, 1, 1.0))
    np.testing.assert_allclose(Q[:, 0, 0], exact, rtol=1e-10, atol=0.0)


def _counting_step_covariance(monkeypatch) -> list:
    """Patch simulate.step_covariance to record the time of every call: the
    panel's set-up makes none."""
    calls = []
    real = simulate.step_covariance
    monkeypatch.setattr(simulate, "step_covariance",
                        lambda *a, **k: calls.append(a[2]) or real(*a, **k))
    return calls


def _adaptive_step_covariance(drift, sigma, t, dt, tol=1e-10, points=None):
    """Reference Q of one step by scipy's adaptive quad_vec, independent of
    the package's Gauss-Legendre rule; points are the step fractions of
    sigma's kinks."""
    E = step_propagators(drift, [t], dt, min(tol, 1e-12))

    def integrand(u):
        M = E(u)[0] @ eval_sigma(sigma, float(t + u * dt))
        return dt * (M @ M.T)

    Q, err = quad_vec(integrand, 0.0, 1.0, epsabs=1e-300, epsrel=tol,
                      norm="max", points=points)
    assert err <= tol * np.abs(Q).max()
    return Q


def test_panel_raises_its_level_on_a_stiff_drift(monkeypatch):
    # 12 nodes cannot resolve e^{-200 (1 - u)} over dt = 1: the panel's
    # propagator check fails at level 0, so the whole grid takes a finer
    # level
    calls = _counting_step_covariance(monkeypatch)
    times = np.arange(8.0)
    Q = _factor_squares(UNIT_SIGMA, times, 1.0, 1e-10,
                        _propagators(STIFF_DRIFT, 1, 1.0))
    assert calls == []
    np.testing.assert_allclose(Q[:, 0, 0], _stiff_q(1.0), rtol=1e-10, atol=0.0)


def test_panel_check_does_not_depend_on_sigma(monkeypatch):
    # sigma is 0 on the first step, so the first-step check compares 0 with
    # 0; the propagator check still raises the level for the stiff drift.
    # Step 1 holds the knot at 1 + 1e-9 and alone is cut at it
    sigma = DiffusionSpec.table([0.0, 1.0, 1.0 + 1e-9, 8.0],
                                [[[0.0]], [[0.0]], [[1.0]], [[1.0]]])
    calls = _counting_step_covariance(monkeypatch)
    times = np.arange(6.0)
    Q = _factor_squares(sigma, times, 1.0, 1e-10,
                        _propagators(STIFF_DRIFT, 1, 1.0))
    assert calls == []
    assert Q[0, 0, 0] == 0.0
    np.testing.assert_allclose(Q[1:, 0, 0], _stiff_q(1.0), rtol=1e-10, atol=0.0)


def test_panel_checks_every_period_position(monkeypatch):
    # A(t) is -1 on [0, 1] and ramps to -200 and back on [1, 3]: the panel
    # is exact at position 0 and misses positions 1 and 2 at level 0, so
    # their check raises the level of the whole grid; the first step's
    # check alone (position 0) would not
    drift = PeriodicDrift(period=3.0, times=[0.0, 1.0, 2.0],
                          values=[[[-1.0]], [[-1.0]], [[-200.0]]])
    calls = _counting_step_covariance(monkeypatch)
    times = np.arange(9.0)
    Q = _factor_squares(UNIT_SIGMA, times, 1.0, 1e-10,
                        _propagators(drift, 3, 1.0))
    assert calls == []
    for n, t in enumerate(times):
        ref = _adaptive_step_covariance(drift, UNIT_SIGMA, float(t), 1.0)
        assert Q[n, 0, 0] == pytest.approx(ref[0, 0], rel=1e-9, abs=0.0), n


def test_step_with_two_knots_takes_the_raised_level(monkeypatch):
    # step 0 holds the knots 0.98 and 0.99, where e^{-400 (1 - u)} still
    # weighs, and is cut into three pieces, each on the level that the stiff
    # drift raised; it matches scipy's adaptive quadrature told where the
    # knots are
    sigma = DiffusionSpec.table([0.0, 0.98, 0.99, 8.0],
                                [[[1.0]], [[2.0]], [[0.5]], [[1.5]]])
    calls = _counting_step_covariance(monkeypatch)
    times = np.arange(4.0)
    cov_tol = 1e-10
    Q = _factor_squares(sigma, times, 1.0, cov_tol,
                        _propagators(STIFF_DRIFT, 1, 1.0))
    assert calls == []
    for n, t in enumerate(times):
        inside = [k - t for k in (0.98, 0.99) if t < k < t + 1.0]
        ref = _adaptive_step_covariance(STIFF_DRIFT, sigma, float(t), 1.0,
                                        cov_tol, points=inside or None)
        assert np.abs(Q[n] - ref).max() <= cov_tol * np.abs(ref).max(), n


def _stiff_sigma_q(times):
    """Q_n = int_0^1 e^{-2 (1 - u)} e^{-60 (n + u)} du for drift -1 and
    sigma = e^{-30 t}, dt = 1."""
    return np.exp(-60.0 * times - 2.0) * -math.expm1(-58.0) / 58.0


STIFF_SIGMA = DiffusionSpec.envelope(ExpDecay(1.0, 30.0), [[1.0]])


def test_panel_raises_its_level_on_a_stiff_sigma(monkeypatch):
    # the drift is mild, but sigma^2 = e^{-60 t} is too stiff for 12 nodes
    # over dt = 1: the first step's panel disagrees with the next level's
    # at level 0, which raises the level of the whole grid
    drift = ConstantDrift([[-1.0]])
    calls = _counting_step_covariance(monkeypatch)
    times = np.arange(4.0)
    Q = _factor_squares(STIFF_SIGMA, times, 1.0, 1e-10,
                        _propagators(drift, 1, 1.0))
    assert calls == []
    np.testing.assert_allclose(Q[:, 0, 0], _stiff_sigma_q(times), rtol=1e-10,
                               atol=0.0)


def test_stiff_sigma_takes_no_step_covariance_call_on_a_long_grid(
        monkeypatch):
    # a raised level serves every step: the sampler sets up 4,096 steps of
    # the stiff sigma on the panel alone, with no step_covariance call
    calls = _counting_step_covariance(monkeypatch)
    cfg = SimConfig(dt=1.0, t_end=4096.0, paths=1, seed=0)
    prepare(ConstantDrift([[-1.0]]), STIFF_SIGMA, cfg)
    assert calls == []


def test_covariances_past_the_cap_raise(monkeypatch):
    # the stiff drift needs more panels than a cap of 2^2 allows, in the
    # sampler's level search and in step_covariance, which shares it
    monkeypatch.setattr(model, "GL_MAX_LEVEL", 2)
    with pytest.raises(CovarianceError, match="4 panels"):
        simulate._noise_factors(UNIT_SIGMA, np.arange(4.0), 1.0, 1e-10,
                                _propagators(STIFF_DRIFT, 1, 1.0))
    with pytest.raises(CovarianceError, match="4 panels"):
        step_covariance(STIFF_DRIFT, UNIT_SIGMA, 0.0, 1.0)


def test_one_cap_serves_the_quadrature_and_the_panel(monkeypatch):
    # the covariance panel and gauss_legendre share model's level search, so
    # one patched cap stops both, each with its own error class and message
    monkeypatch.setattr(model, "GL_MAX_LEVEL", 2)
    with pytest.raises(CovarianceError, match="^the covariance panel fails "
                       "its checks at 4 panels$"):
        simulate._noise_factors(UNIT_SIGMA, np.arange(4.0), 1.0, 1e-10,
                                _propagators(STIFF_DRIFT, 1, 1.0))
    with pytest.raises(QuadratureError, match=r"^quadrature error \S+ "
                       r"exceeds \S+ at 4 panels$"):
        model.gauss_legendre(lambda u: 1.0 / np.sqrt(u),
                             lambda v: 1e-12 * abs(v))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("drift, scale", [
    (ConstantDrift([[-1.0]]), 1e200),   # sigma^2 = 1e400 overflows the panel
    (ConstantDrift([[460.0]]), 1.0),    # e^{2 * 460} overflows the drift check
], ids=["sigma", "drift"])
def test_covariances_raise_at_the_first_non_finite_level(drift, scale):
    # finer panels do not bring an overflowed check back, so the level
    # search raises at level 0, without a numpy warning, where it climbed
    # to the cap on NaN differences
    with pytest.raises(CovarianceError, match="not finite at 1 panels"):
        step_covariance(drift, DiffusionSpec.constant([[scale]]), 0.0, 1.0)


def _covariance_limit(d):
    """The largest alpha dt the sampler sets up at dimension d: past it the
    level-0 drift check's w_0 E_0[a, c]^2 >= w_0 e^{2 alpha dt (1 - u_0)} / d^2
    leaves the double range, with the set-up's 1e-3 margin."""
    u, w = gauss_legendre_rule(0)
    return (math.log(np.finfo(float).max) + 1e-3 - math.log(w[0])
            + 2.0 * math.log(d)) / (2.0 * (1.0 - u[0]))


class _Solved(Exception):
    pass


@pytest.mark.parametrize("d", [1, 2])
def test_overflowing_covariance_is_refused_before_the_solve(monkeypatch, d):
    # alpha dt about 360 at d = 1: a constant drift just past it raises the
    # level-0 CovarianceError at once, where the adjoint solve stepped for
    # seconds to reach e^{alpha dt}; one just below it reaches the solve,
    # as does a periodic drift of the same matrix
    def solve(*args):
        raise _Solved
    monkeypatch.setattr(simulate, "step_propagators", solve)
    limit = _covariance_limit(d)
    assert 360.0 < limit < 361.0 if d == 1 else limit > 360.5
    sigma = DiffusionSpec.constant(np.eye(d))
    cfg = SimConfig(dt=1.0, t_end=4.0, paths=1, seed=0)

    def drift(alpha):
        return ConstantDrift(np.diag([alpha] + [-1.0] * (d - 1)))
    for run in (lambda A: step_covariance(A, sigma, 0.0, 1.0),
                lambda A: prepare(A, sigma, cfg)):
        with pytest.raises(CovarianceError, match="not finite at 1 panels"):
            run(drift(limit * (1 + 1e-9)))
        with pytest.raises(_Solved):
            run(drift(limit * (1 - 1e-9)))
        with pytest.raises(_Solved):
            run(PeriodicDrift(period=1.0, times=[0.0, 0.5],
                              values=[drift(2 * limit).matrix,
                                      drift(3 * limit).matrix]))


def test_states_scale_with_sigma():
    drift = ConstantDrift([[-1.0, 0.5], [0.0, -2.0]])
    cfg = SimConfig(dt=0.125, t_end=16.0, paths=5, seed=4)
    unit = simulate_X(drift, DiffusionSpec.constant(np.eye(2)), [0.0, 0.0], cfg)
    big = simulate_X(drift, DiffusionSpec.constant(1000.0 * np.eye(2)),
                     [0.0, 0.0], cfg)
    np.testing.assert_allclose(big, 1000.0 * unit, rtol=1e-12,
                               atol=1e-12 * 1000.0 * np.abs(unit).max())


# ---------------------------------------------------------------------------
# auxiliary process Y: dY = -Y dt + sigma dB, Y(0) = 0
# ---------------------------------------------------------------------------

def test_Y_drift_deterministic_decay():
    # Y's drift -I from a non-zero start, without noise
    cfg = SimConfig(dt=0.125, t_end=4.0, paths=3, seed=1)
    states = simulate_X(ConstantDrift(-np.eye(1)),
                        DiffusionSpec.constant([[0.0]]), [2.0], cfg)
    expect = 2.0 * np.exp(-cfg.times)
    for p in range(3):
        np.testing.assert_allclose(states[p, :, 0], expect, atol=1e-12)


def test_Y_stationary_variance():
    cfg = SimConfig(dt=0.25, t_end=16.0, paths=4000, seed=42)
    states = simulate_X(OU_DRIFT, DiffusionSpec.constant([[1.5]]), [0.0], cfg)
    target = 1.5 ** 2 / 2
    final = states[:, -1, 0]
    est = float(np.var(final, ddof=1))
    se = est * math.sqrt(2.0 / (len(final) - 1))
    assert abs(est - target) <= 3 * se


def test_Y_increments_are_gaussian():
    cfg = SimConfig(dt=0.5, t_end=50.0, paths=100, seed=3)
    q = (1 - math.exp(-2 * cfg.dt)) / 2
    y = simulate_X(OU_DRIFT, UNIT_SIGMA, [0.0], cfg)[:, :, 0]
    v = (y[:, 1:] - math.exp(-cfg.dt) * y[:, :-1]) / math.sqrt(q)
    sample = v.ravel()
    assert sample.size == 10_000
    assert kstest(sample, "norm").pvalue > 0.01


# ---------------------------------------------------------------------------
# the main process X
# ---------------------------------------------------------------------------

def test_X_zero_noise_matches_matrix_exponential():
    A = np.array([[-1.0, 0.5], [0.2, -2.0]])
    xi = np.array([1.0, -1.0])
    cfg = SimConfig(dt=0.25, t_end=5.0, paths=2, seed=0)
    states = simulate_X(ConstantDrift(A),
                        DiffusionSpec.constant(np.zeros((2, 2))), xi, cfg)
    for j, t in enumerate(cfg.times):
        np.testing.assert_allclose(states[0, j], expm(A * t) @ xi,
                                   atol=1e-10)


def test_X_reduces_to_Y():
    # drift -I from 0 is the recursion Y_{n+1} = e^{-dt} Y_n + sqrt(q) Z_n,
    # each path drawing its Z_n from its own Philox stream
    cfg = SimConfig(dt=0.5, t_end=8.0, paths=5, seed=9)
    states = simulate_X(OU_DRIFT, DiffusionSpec.constant([[0.7]]), [0.0], cfg)
    q = 0.7 ** 2 * -math.expm1(-2 * cfg.dt) / 2
    gens = simulate._path_generators(cfg.seed, range(cfg.paths))
    for p, g in enumerate(gens):
        y = [0.0]
        for z in g.standard_normal(cfg.n_steps):
            y.append(math.exp(-cfg.dt) * y[-1] + math.sqrt(q) * z)
        np.testing.assert_allclose(states[p, :, 0], y, atol=1e-12)


def test_X_mean_square_matches_analytic():
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    S = np.array([[1.0, 0.0], [0.3, 0.5]])
    xi = np.array([1.0, 2.0])
    t = 2.0
    # oracle: E||X(t)||^2 = ||e^{At} xi||^2 + tr int_0^t e^{As} SS^T e^{A^T s} ds
    det_part = float(np.sum((expm(A * t) @ xi) ** 2))
    integ, err = quad_vec(lambda s: expm(A * s) @ S @ S.T @ expm(A.T * s),
                          0.0, t, epsabs=1e-12, epsrel=0.0, norm="max")
    assert err < 1e-11
    target = det_part + float(np.trace(integ))

    cfg = SimConfig(dt=0.125, t_end=2.0, paths=6000, seed=5)
    states = simulate_X(ConstantDrift(A), DiffusionSpec.constant(S), xi, cfg)
    sq = state_norms(states)[:, -1] ** 2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1)) / math.sqrt(len(sq))
    assert abs(est - target) <= 3 * se


def test_reproducibility_bit_identical():
    spec = DiffusionSpec.envelope(ExpDecay(1.0, 0.2), [[1.0, 0.5], [0.0, 1.0]])
    cfg = SimConfig(dt=0.25, t_end=8.0, paths=7, seed=123)
    A = ConstantDrift(np.array([[-1.0, 0.0], [0.5, -0.5]]))
    a = simulate_X(A, spec, [1.0, 1.0], cfg)
    b = simulate_X(A, spec, [1.0, 1.0], cfg)
    np.testing.assert_array_equal(a, b)


def test_table_sigma_samples_through_the_panel(monkeypatch):
    # a constant-valued table and the equal constant sigma both take the
    # Gauss-Legendre panel, with no step_covariance call; the table's step
    # across its knot at 0.37 is cut at it.  With the same Philox streams
    # both ensembles agree up to the quadratures' rounding
    S = [[1.0, 0.3], [0.0, 0.8]]
    table = DiffusionSpec.table([0.0, 0.37, 5.0], [S, S, S])
    A = ConstantDrift(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    cfg = SimConfig(dt=0.05, t_end=3.2, paths=8, seed=31)
    calls = _counting_step_covariance(monkeypatch)
    ref = simulate_X(A, DiffusionSpec.constant(S), [1.0, -1.0], cfg)
    got = simulate_X(A, table, [1.0, -1.0], cfg)
    assert calls == []
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("budget", [1, 7, 64, 512, 1000, 2048])
def test_chunk_stream_independent_of_chunk_size(monkeypatch, budget):
    # the chunks tile the grid in order and carry the same bits as one
    # ensemble, whatever the number of steps per chunk and paths per group:
    # on two CPUs, with blocks of 64 steps and 160 steps in all, the budgets
    # give chunks of one block, of two (512, and 2048 at a fill of one) and
    # of the whole grid, so a last chunk may end inside a block; a fill of
    # one normal makes the groups as wide as the budget allows
    spec = DiffusionSpec.envelope(ExpDecay(1.0, 0.2), [[1.0, 0.5], [0.0, 1.0]])
    cfg = SimConfig(dt=0.25, t_end=40.0, paths=7, seed=123)
    A = ConstantDrift(np.array([[-1.0, 0.0], [0.5, -0.5]]))
    whole = simulate_X(A, spec, [1.0, 1.0], cfg)
    b = _block_length(A, spec, cfg)
    assert b == 64
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", budget)
    for fill in (1, simulate._FILL):
        monkeypatch.setattr(simulate, "_FILL", fill)
        streamed = _stream_states(prepare(A, spec, cfg).shards([1.0, 1.0]),
                                  cfg, 2, b)
        np.testing.assert_array_equal(streamed, whole)


def _block_length(drift, sigma, cfg):
    """The block length b of the sampler's solve on cfg's grid."""
    return simulate._block_products(prepare(drift, sigma, cfg).trans)[0]


def _stream_states(shards, cfg, r, b):
    """The states of (paths, stream) group pairs, checked to tile the paths
    in group order, each stream as wide as its range, and the grid in chunks
    of the documented length: after X_0, every chunk
    but the last takes k = b max(1, budget // (width r b)) steps, a whole
    number of the solve's blocks of b steps, with budget = _CHUNK_DRAWS // T,
    T = min(CPUs, paths) and width the group's path count; and a chunk draws
    within budget wherever one path's block does."""
    parts = []
    budget = simulate._CHUNK_DRAWS // min(simulate._cpus(), cfg.paths)
    assert [p for paths, _ in shards for p in paths] == list(range(cfg.paths))
    for paths, chunks in shards:
        chunks = list(chunks)
        width = len(paths)
        assert {X.shape[1] for _, X in chunks} == {width}
        k = min(cfg.n_steps, b * max(1, budget // (width * r * b)))
        assert [n0 for n0, _ in chunks] == [0, *range(1, cfg.n_steps + 1, k)]
        assert k % b == 0 or len(chunks) == 2
        if b * r <= budget:
            assert k * width * r <= budget
        parts.append(np.concatenate([X for _, X in chunks]))
    return np.swapaxes(np.concatenate(parts, axis=1), 0, 1)


def test_chunk_stream_rejects_unsampleable_drifts():
    cfg = SimConfig(dt=0.5, t_end=4.0, paths=1, seed=0)
    with pytest.raises(ValueError):  # dt does not divide the period
        prepare(COS_DRIFT, UNIT_SIGMA, cfg)


# ---------------------------------------------------------------------------
# periodic drift
# ---------------------------------------------------------------------------

# a(t) = -1 + cos t sampled at 0 and pi: the triangle wave from 0 down to -2
# at pi and back, whose mean over the period is exactly -1.  Both knots fall
# on step edges for every dt = 2 pi / m with m even, so no step crosses a kink
COS_DRIFT = PeriodicDrift(period=2 * math.pi, times=[0.0, math.pi],
                          values=[[[0.0]], [[-2.0]]])


def _cos_drift_integral(t, pi=math.pi):
    """int_0^t a for t >= 0, in the arithmetic of t and pi: -2 pi a period,
    and within one -r^2 / pi up to pi, -pi - 2 r' + r'^2 / pi after it, with
    r' = r - pi."""
    laps = int(t / (2 * pi))
    r = t - 2 * pi * laps
    within = -r * r / pi if r <= pi else \
        -pi - 2 * (r - pi) + (r - pi) ** 2 / pi
    return -2 * pi * laps + within


def _cos_drift_psi(t, s):
    return math.exp(_cos_drift_integral(t) - _cos_drift_integral(s))


def _cos_drift_q(t, dt):
    """mpmath oracle: Q = int_t^{t+dt} Psi(t + dt, s)^2 ds for sigma = 1, on
    a step that crosses no knot."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        pi, end = mp.mpf(math.pi), mp.mpf(t) + mp.mpf(dt)
        top = _cos_drift_integral(end, pi)
        q = mp.quad(lambda s: mp.exp(2 * (top - _cos_drift_integral(s, pi))),
                    [mp.mpf(t), end])
    return float(q)


def test_periodic_zero_noise_floquet_decay():
    # the transitions over one period multiply to Psi(2 pi, 0) = e^{-2 pi}
    dt = 2 * math.pi / 64
    cfg = SimConfig(dt=dt, t_end=2 * math.pi, paths=1, seed=0)
    states = simulate_X(COS_DRIFT, DiffusionSpec.constant([[0.0]]), [1.0], cfg)
    assert abs(math.log(states[0, -1, 0]) + 2 * math.pi) <= 1e-8


@pytest.mark.parametrize("dt", [2 * math.pi / 64, 1.0])
def test_periodic_step_covariance_exact(dt):
    for t in (0.0, 1.3, 4.0):
        Q = step_covariance(COS_DRIFT, UNIT_SIGMA, t, dt)
        assert Q[0, 0] == pytest.approx(_cos_drift_q(t, dt), rel=1e-10)


@pytest.mark.parametrize("m", [64, 6])
def test_periodic_sampler_covariances_exact(m):
    # a zero-noise run gives the sampler's transitions Psi_n = Y_{n+1} / Y_n;
    # path 0 draws Z_n from Philox(SeedSequence((seed, 0))), so each increment
    # of a noisy run from 0 gives sqrt(Q_n) = (X_{n+1} - Psi_n X_n) / Z_n,
    # which must match the oracle at every step of two periods
    dt = 2 * math.pi / m
    cfg = SimConfig(dt=dt, t_end=4 * math.pi, paths=1, seed=11)
    Y = simulate_X(COS_DRIFT, DiffusionSpec.constant([[0.0]]), [1.0],
                   cfg)[0, :, 0]
    X = simulate_X(COS_DRIFT, UNIT_SIGMA, [0.0], cfg)[0, :, 0]
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(cfg.seed, 0))))
    Z = gen.standard_normal((cfg.n_steps, 1))[:, 0]
    assert np.abs(Z).min() > 1e-3   # rounding in X is not amplified
    for n in range(cfg.n_steps):
        t = n * dt
        psi = Y[n + 1] / Y[n]
        assert psi == pytest.approx(_cos_drift_psi(t + dt, t), rel=1e-10), n
        q = ((X[n + 1] - psi * X[n]) / Z[n]) ** 2
        assert q == pytest.approx(_cos_drift_q(t, dt), rel=1e-10), n


def _level0_propagators(psis):
    """E[j, k] = Psi(t_j + dt, t_j + u_k dt) at the level-0 nodes u_k."""
    u, _ = gauss_legendre_rule(0)
    return np.moveaxis(psis(u), 1, 0)


def _one_shot_covariances(sigma, times, dt, psis):
    """The level-0 panel's covariance stack over every step at once, from
    its formula: Q_n = sum_k w_k dt (E[j, k] s_nk)(E[j, k] s_nk)^T with the
    node values s_nk = sigma(t_n + u_k dt) and j = n % m."""
    u, w = gauss_legendre_rule(0)
    E = _level0_propagators(psis)
    S = eval_sigma(sigma, times[:, None] + u * dt)
    P = E[np.arange(len(times)) % len(E)] @ S
    return np.einsum("k,nkaq,nkbq->nab", w * dt, P, P)


def _envelope_covariances(sigma, times, dt, psis):
    """An envelope sigma's level-0 covariance stack from its separable form:
    the squared envelope at the nodes weighs the pattern's per-node
    covariances, Q_n = sum_k w_k g(t_n + u_k dt)^2 dt (E[j, k] p)(E[j, k] p)^T."""
    u, w = gauss_legendre_rule(0)
    g = np.asarray(sigma.envelope.value(times[:, None] + u * dt)) ** 2
    M = _level0_propagators(psis) @ sigma.pattern
    C = (dt * M) @ np.swapaxes(M, -1, -2)
    m = len(M)
    Q = np.empty((len(times), sigma.d, sigma.d))
    for j in range(m):
        Q[j::m] = np.einsum("k,nk,kij->nij", w, g[j::m], C[j])
    return Q


def _propagators(drift, m, dt):
    """The step propagators of the m period positions of a grid from 0, as
    the sampler builds them."""
    return step_propagators(drift, dt * np.arange(m), dt, 1e-12)


A2 = np.array([[-1.0, 0.5], [0.0, -2.0]])
PERIODIC2 = PeriodicDrift(period=1.5, times=[0.0, 0.5],
                          values=[A2, np.array([[-2.0, 0.0], [0.3, -0.5]])])


@pytest.mark.parametrize("drift, m, dt, block, n_steps", [
    (ConstantDrift(A2), 1, 0.05, 8192, 2 * 8192 + 5),
    (ConstantDrift(A2), 1, 0.05, 16, 5 * 16 + 1),
    (PERIODIC2, 6, 0.25, 16, 4 * 18 + 7),
    (PERIODIC2, 6, 0.25, 8192, 8196 + 11),
], ids=["m1", "m1-small-block", "m6-small-block", "m6"])
def test_step_covariances_blocked_equal_one_shot(monkeypatch, drift, m, dt,
                                                 block, n_steps):
    # each period position takes its steps in blocks of _COV_BLOCK // (d r),
    # a short last block included, each rooted as it is built; the factors
    # equal one block per position bit for bit, and their squares the
    # panel's formula over every step at once and, for an envelope, its
    # separable form to 1e-14.  The table's knots lie beyond the grid, so
    # every step takes the panel, at level 0
    times = dt * np.arange(n_steps)
    psis = _propagators(drift, m, dt)
    pattern = [[1.0, 0.5], [0.0, 1.0]]
    envelopes = [DiffusionSpec.envelope(env, pattern) for env in (
        LogPower(1.0), ExpDecay(1.0, 0.01), PowerLaw(1.0, -0.3),
        PowerLaw(2.0, 0.0))]
    table = DiffusionSpec.table(
        [0.0, 1e5], [[[1.0, 0.5, 0.0], [0.0, 1.0, 2.0]],
                     [[0.0, 3.0, 1.0], [1.0, -1.0, 0.5]]])
    for sigma in [*envelopes, table]:
        monkeypatch.setattr(simulate, "_COV_BLOCK", block)
        F = simulate._noise_factors(sigma, times, dt, 1e-10, psis)
        monkeypatch.setattr(simulate, "_COV_BLOCK", 6 * n_steps)
        assert np.array_equal(
            F, simulate._noise_factors(sigma, times, dt, 1e-10, psis))
        Q = np.swapaxes(F, 1, 2) @ F
        refs = [_one_shot_covariances(sigma, times, dt, psis)]
        if sigma is not table:
            refs.append(_envelope_covariances(sigma, times, dt, psis))
        for ref in refs:
            assert np.abs(Q - ref).max() <= 1e-14 * np.abs(ref).max()


def test_table_covariances_match_adaptive_quadrature(monkeypatch):
    # knots on the grid (0, 0.5, 2) and off it (0.6, 1.3, and 2.1 and 2.2
    # inside one step): a table is linear between knots, so the panel is
    # exact there; the steps 2, 5 and 8 with a knot inside are cut at the
    # knots, and each piece takes the panel.  Each factor's square matches
    # scipy's adaptive quadrature told where the knots are, so a cut step is
    # rooted from the sum of its pieces
    dt, cov_tol = 0.25, 1e-10
    knots = [0.0, 0.5, 0.6, 1.3, 2.0, 2.1, 2.2]
    values = np.random.default_rng(5).normal(size=(len(knots), 2, 3))
    sigma = DiffusionSpec.table(knots, values)
    drift = ConstantDrift(A2)
    times = dt * np.arange(16)
    calls = _counting_step_covariance(monkeypatch)
    Q = _factor_squares(sigma, times, dt, cov_tol,
                        _propagators(drift, 1, dt))
    assert calls == []
    for n, t in enumerate(times):
        inside = [(k - t) / dt for k in knots if t < k < t + dt]
        ref = _adaptive_step_covariance(drift, sigma, float(t), dt, cov_tol,
                                        points=inside or None)
        assert np.abs(Q[n] - ref).max() <= cov_tol * np.abs(ref).max(), n


def _sampled_covariances(setup):
    """Cov X_n of the sampled law of a Setup from X_0 = 0: C_0 = 0 and
    C_{n+1} = Phi_n C_n Phi_n^T + Q_n, Phi_n = trans[n % m] and
    Q_n = F_n F_n^T, noise[n] being F_n^T."""
    trans = setup.trans
    C = [np.zeros(trans.shape[1:])]
    for n, f in enumerate(setup.noise):
        phi = trans[n % len(trans)]
        C.append(phi @ C[-1] @ phi.T + f.T @ f)
    return np.array(C)


@pytest.mark.parametrize("drift, dt", [(PERIODIC2, 0.25),
                                       (ConstantDrift(A2), 0.05)],
                         ids=["periodic", "constant"])
def test_sampled_covariances_solve_the_moment_ode(drift, dt):
    # the covariance of the exact law solves C' = A C + C A^T + sigma sigma^T;
    # scipy's DOP853 integrates it independently of the panel, here for a
    # time-varying sigma under a matrix periodic drift and a constant one
    sigma = DiffusionSpec.envelope(LogPower(1.0), [[1.0, 0.5], [0.0, 1.0]])
    cfg = SimConfig(dt=dt, t_end=12.0, paths=1, seed=0)
    C = _sampled_covariances(prepare(drift, sigma, cfg))

    def rhs(t, c):
        C, A, S = c.reshape(2, 2), eval_drift(drift, t), eval_sigma(sigma, t)
        return (A @ C + C @ A.T + S @ S.T).ravel()

    sol = solve_ivp(rhs, (0.0, cfg.t_end), np.zeros(4), t_eval=cfg.times,
                    method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success
    ref = sol.y.T.reshape(-1, 2, 2)
    assert np.abs(C - ref).max() <= 1e-9 * np.abs(ref).max()


def test_sampled_covariance_reaches_the_lyapunov_solution():
    # a constant sigma S on the stable A2: Cov X_n tends to the solution of
    # A2 C + C A2^T = -S S^T, which it meets to rounding by t = 20
    S = np.array([[1.0, 0.3], [0.0, 0.8]])
    cfg = SimConfig(dt=0.05, t_end=20.0, paths=1, seed=0)
    C = _sampled_covariances(prepare(ConstantDrift(A2),
                                     DiffusionSpec.constant(S), cfg))
    ref = solve_continuous_lyapunov(A2, -S @ S.T)
    assert np.abs(C[400] - ref).max() <= 1e-9 * np.abs(ref).max()


def test_step_covariances_never_build_the_node_table():
    # sigma's values at the panel nodes live one step block at a time
    dt, n_steps = 0.05, 8 * simulate._COV_BLOCK
    times = dt * np.arange(n_steps)
    psis = _propagators(ConstantDrift(A2), 1, dt)
    sigma = DiffusionSpec.envelope(LogPower(1.0), np.eye(2))
    tracemalloc.start()
    try:
        Q = simulate._noise_factors(sigma, times, dt, 1e-10, psis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    node_table = n_steps * GL_NODES * 8
    assert peak < Q.nbytes + node_table, (peak, Q.nbytes, node_table)


@pytest.mark.parametrize("block", [7, 8192])
def test_noise_factors_blocked_equal_one_shot(monkeypatch, block):
    # the Setup's noise stack, built at a set-up block of one step per
    # position and of whole periods alike, equals a one-block build bit for
    # bit
    monkeypatch.setattr(simulate, "_COV_BLOCK", block)
    sigma = DiffusionSpec.envelope(LogPower(1.0), [[1.0, 0.5], [0.0, 1.0]])
    cfg = SimConfig(dt=0.25, t_end=0.25 * 8200, paths=1, seed=0)
    noise = prepare(PERIODIC2, sigma, cfg).noise
    monkeypatch.setattr(simulate, "_COV_BLOCK", 6 * cfg.n_steps)
    assert np.array_equal(noise, simulate._noise_factors(
        sigma, cfg.dt * np.arange(cfg.n_steps), cfg.dt, simulate._COV_TOL,
        _propagators(PERIODIC2, 6, cfg.dt)))


def test_periodic_constant_reduces_bit_identically():
    A = np.array([[-1.0, 0.3], [0.0, -0.5]])
    periodic = PeriodicDrift(period=1.0, times=[0.0, 0.5], values=[A, A])
    spec = DiffusionSpec.envelope(ExpDecay(1.0, 0.5), np.eye(2))
    cfg = SimConfig(dt=0.25, t_end=4.0, paths=4, seed=31)
    a = simulate_X(periodic, spec, [1.0, 0.0], cfg)
    b = simulate_X(ConstantDrift(A), spec, [1.0, 0.0], cfg)
    np.testing.assert_array_equal(a, b)


def test_periodic_requires_dt_dividing_period():
    cfg = SimConfig(dt=0.25, t_end=8.0, paths=1, seed=0)
    with pytest.raises(ValueError):
        simulate_X(COS_DRIFT, UNIT_SIGMA, [0.0], cfg)


def test_periodic_stable_with_fading_noise_decays():
    dt = 2 * math.pi / 32
    cfg = SimConfig(dt=dt, t_end=64 * 2 * math.pi, paths=40, seed=8)
    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 0.1), [[1.0]])
    norms = state_norms(simulate_X(COS_DRIFT, sigma, [1.0], cfg))
    T = cfg.times[-1]
    cps = [T / 16, T / 8, T / 4, T / 2]
    meds = []
    for c in cps:
        i = int(np.searchsorted(cfg.times, c))
        meds.append(float(np.median(np.max(norms[:, i:], axis=1))))
    assert all(b < a for a, b in zip(meds, meds[1:]))


# ---------------------------------------------------------------------------
# the blocked recursion
# ---------------------------------------------------------------------------

def _sequential_states(trans, noise, xi, cfg):
    """Reference: X_{n+1} = trans[n % m] X_n + noise[n] Z_n one step at a time,
    path p drawing its Z_n from Philox(SeedSequence((seed, p)))."""
    N, d, r = noise.shape
    states = np.empty((cfg.paths, N + 1, d))
    for p in range(cfg.paths):
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(cfg.seed, p))))
        Z = gen.standard_normal((N, r))
        x = states[p, 0] = xi
        for n in range(N):
            x = states[p, n + 1] = trans[n % len(trans)] @ x + noise[n] @ Z[n]
    return states


def _states(shards):
    """The (paths, N+1, d) states of (paths, stream) pairs in path order."""
    return np.swapaxes(np.concatenate(
        [np.concatenate([X for _, X in chunks]) for _, chunks in shards],
        axis=1), 0, 1)


EYE2_SIGMA = DiffusionSpec.constant(np.eye(2))


@pytest.mark.parametrize("drift, sigma, xi, dt, t_end", [
    (ConstantDrift(np.array([[-1.0, 0.5], [0.0, -2.0]])),
     DiffusionSpec.envelope(ExpDecay(1.0, 0.1), [[1.0, 0.5], [0.0, 1.0]]),
     [1.0, -1.0], 0.25, 75.0),
    (COS_DRIFT, UNIT_SIGMA, [1.0], 2 * math.pi / 6, 100 * math.pi),
    (COS_DRIFT, UNIT_SIGMA, [1.0], 2 * math.pi / 64, 12 * math.pi),
    (ConstantDrift(np.array([[-1.0, 400.0], [0.0, -1.0]])), EYE2_SIGMA,
     [1.0, 1.0], 0.05, 20.0),
], ids=["constant", "periodic-m6", "periodic-m64", "non-normal"])
def test_blocked_solve_matches_sequential(monkeypatch, drift, sigma, xi, dt,
                                          t_end):
    # a small draw budget makes every chunk a single block
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 100)
    cfg = SimConfig(dt=dt, t_end=t_end, paths=3, seed=17)
    setup = prepare(drift, sigma, cfg)
    states = _states(setup.shards(xi))
    assert cfg.n_steps >= 300
    ref = _sequential_states(setup.trans, np.swapaxes(setup.noise, 1, 2),
                             np.asarray(xi, float), cfg)
    assert np.abs(states - ref).max() <= 1e-13 * np.abs(ref).max()


def test_blocked_solve_no_spurious_overflow():
    # e^{50 i} overflows for i > 14: a block product that is inf would make
    # the exact zero states inf * 0 = nan
    drift = ConstantDrift(np.array([[50.0]]))
    cfg = SimConfig(dt=1.0, t_end=128.0, paths=2, seed=0)
    zero = DiffusionSpec.constant([[0.0]])
    assert np.all(simulate_X(drift, zero, [0.0], cfg) == 0.0)
    with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
        simulate_X(drift, zero, [1.0], cfg)
    # a period of m = 2 steps whose product overflows already: the blocks
    # are single steps
    shards = Setup(SimConfig(dt=1.0, t_end=8.0, paths=2, seed=0),
                   np.full((2, 1, 1), 1e200),
                   np.zeros((8, 1, 1))).shards(np.zeros(1))
    assert all(np.all(X == 0.0) for _, chunks in shards for _, X in chunks)


@pytest.mark.parametrize("budget", [1, 7 * 65, 7 * 67, 7 * 200])
def test_chunk_stream_independent_of_chunk_size_periodic(monkeypatch, budget):
    # m = 6 gives blocks of 66 steps, 240 steps in all.  On one CPU with a
    # fill of one normal, 7 * 67 gives one group of 7 paths and chunks of
    # one block, 7 * 200 chunks of three (198 steps, then 42), and 7 * 65
    # groups of 3 and 4 paths with chunks of two blocks and of one; at the
    # full fill every path is a group of its own
    cfg = SimConfig(dt=2 * math.pi / 6, t_end=80 * math.pi, paths=7, seed=5)
    whole = simulate_X(COS_DRIFT, UNIT_SIGMA, [1.0], cfg)
    b = _block_length(COS_DRIFT, UNIT_SIGMA, cfg)
    assert b == 66
    monkeypatch.setattr(simulate, "_cpus", lambda: 1)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", budget)
    for fill in (1, simulate._FILL):
        monkeypatch.setattr(simulate, "_FILL", fill)
        streamed = _stream_states(
            prepare(COS_DRIFT, UNIT_SIGMA, cfg).shards([1.0]), cfg, 1, b)
        np.testing.assert_array_equal(streamed, whole)


@pytest.mark.parametrize("trans, b", [
    (np.array([np.diag([math.exp(50.0), math.exp(-1.0)])]), 14),
    (np.array([np.diag([1e200, 0.5]), np.diag([1e200, 0.25])]), 1),
], ids=["cut-back", "single-step"])
def test_blocked_solve_overflowing_products_match_sequential(monkeypatch,
                                                             trans, b):
    # the first coordinate's block products overflow: e^{50 i} past i = 14
    # cuts the blocks back to 14 steps, and a period of two steps whose
    # product overflows already makes them single steps.  The start and the
    # noise keep that coordinate at exact zero, so the states stay finite.
    # Chunks of one block and of three, the last ending inside a block,
    # carry the bits of one chunk, and those match the one-step recursion
    assert simulate._block_products(trans)[0] == b
    cfg = SimConfig(dt=1.0, t_end=100.0, paths=3, seed=4)
    noise_t = np.zeros((cfg.n_steps, 1, 2))
    noise_t[:, 0, 1] = 1.0
    xi = np.array([0.0, 1.0])
    monkeypatch.setattr(simulate, "_cpus", lambda: 1)
    monkeypatch.setattr(simulate, "_FILL", 1)
    runs = []
    for budget in (1, 3 * 3 * b, 2 ** 20):
        monkeypatch.setattr(simulate, "_CHUNK_DRAWS", budget)
        runs.append(_stream_states(Setup(cfg, trans, noise_t).shards(xi),
                                   cfg, 1, b))
    for states in runs[:-1]:
        np.testing.assert_array_equal(states, runs[-1])
    ref = _sequential_states(trans, np.swapaxes(noise_t, 1, 2), xi, cfg)
    assert np.all(runs[-1][:, :, 0] == 0.0)
    assert np.abs(runs[-1] - ref).max() <= 1e-13 * np.abs(ref).max()


EVIDENCE_ARRAYS = ("tail_sups", "running_max_at", "window_inf_final",
                   "avg_sq_half", "avg_sq_final")


@pytest.mark.parametrize("drift, sigma, xi, dt, t_end, paths, budget", [
    (ConstantDrift(np.array([[-1.0, 0.5], [0.0, -2.0]])),
     DiffusionSpec.envelope(ExpDecay(1.0, 0.1), [[1.0, 0.5], [0.0, 1.0]]),
     [1.0, -1.0], 0.25, 75.0, 7, 3 * 7 * 2 * 64),
    (COS_DRIFT, UNIT_SIGMA, [1.0], 2 * math.pi / 6, 80 * math.pi, 7,
     2 * 7 * 66),
    (COS_DRIFT, UNIT_SIGMA, [1.0], 2 * math.pi / 6, 80 * math.pi, 2, 2 ** 20),
], ids=["constant", "periodic", "fewer-paths-than-shards"])
def test_results_independent_of_shard_count(monkeypatch, drift, sigma, xi,
                                            dt, t_end, paths, budget):
    # each path's arithmetic is the same in any shard: simulate_X's states and
    # compare's per-path arrays equal the one-shard run's bit for bit.  The
    # budgets afford all 7 paths three blocks of 64 steps (r = 2), or two
    # of 66 (r = 1), so the groups take chunks of one block and of several;
    # a small fill lets a group be as wide as the budget allows, so here
    # there is one group per CPU
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", budget)
    monkeypatch.setattr(simulate, "_FILL", 8)
    cfg = SimConfig(dt=dt, t_end=t_end, paths=paths, seed=29)
    undecided = SimpleNamespace(regime="Undecided")
    setup, runs = prepare(drift, sigma, cfg), []
    for n in (1, 2, 3):
        monkeypatch.setattr(simulate, "_cpus", lambda: n)
        assert len(setup.shards(xi)) == min(n, paths)
        states = simulate_X(drift, sigma, xi, cfg)
        ev = compare(undecided, cfg, setup.shards(xi))
        runs.append((states, *(getattr(ev, a) for a in EVIDENCE_ARRAYS)))
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("cpus, groups", [(1, 3), (2, 6), (3, 9)])
def test_group_ranges_tile_the_paths_in_order(monkeypatch, cpus, groups):
    # 600 paths at the full fill are 3 groups of at most 256 paths on one
    # CPU, and on two and three CPUs 5 and 8, rounded up to a multiple of
    # the CPUs.  The pairs' ranges are contiguous and in path order, cover
    # every path once, and each stream is as wide as its range; map_shards
    # hands each consumer its own range.  compare places a group's columns
    # by its range alone, so the pairs in reverse order give the same
    # evidence
    monkeypatch.setattr(simulate, "_cpus", lambda: cpus)
    cfg = SimConfig(dt=0.25, t_end=16.0, paths=600, seed=2)
    drift = ConstantDrift(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    setup = prepare(drift, EYE2_SIGMA, cfg)
    shards = setup.shards([1.0, 1.0])
    ranges = [paths for paths, _ in shards]
    assert len(ranges) == groups
    assert [p for paths in ranges for p in paths] == list(range(cfg.paths))
    assert all(paths.step == 1 for paths in ranges)
    widths = simulate.map_shards(
        lambda paths, chunks: (paths, {X.shape[1] for _, X in chunks}),
        shards)
    assert widths == [(paths, {len(paths)}) for paths in ranges]
    undecided = SimpleNamespace(regime="Undecided")
    want = compare(undecided, cfg, setup.shards([1.0, 1.0]))
    got = compare(undecided, cfg, setup.shards([1.0, 1.0])[::-1])
    for name in EVIDENCE_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_one_setup_samples_as_fresh_ones():
    # a Setup is a value: sampled twice from one initial state and once
    # from another, it gives the states of a fresh prepare each time, bit
    # for bit, and its stacks equal the fresh ones
    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 0.2), [[1.0, 0.5], [0.0, 1.0]])
    cfg = SimConfig(dt=0.25, t_end=0.25 * 300, paths=5, seed=9)
    setup = prepare(PERIODIC2, sigma, cfg)
    runs = []
    for xi in ([1.0, -1.0], [0.0, 2.0], [1.0, -1.0]):
        fresh = prepare(PERIODIC2, sigma, cfg)
        assert np.array_equal(setup.trans, fresh.trans)
        assert np.array_equal(setup.noise, fresh.noise)
        runs.append(_states(setup.shards(xi)))
        assert np.array_equal(runs[-1], _states(fresh.shards(xi)))
    assert np.array_equal(runs[0], runs[2])
    assert not np.array_equal(runs[0], runs[1])


def test_setup_stacks_are_read_only():
    # shards reads the stacks and never writes them, so nothing can change
    # a set-up between two samplings
    cfg = SimConfig(dt=0.25, t_end=4.0, paths=1, seed=0)
    setup = prepare(PERIODIC2, EYE2_SIGMA, cfg)
    for stack in (setup.trans, setup.noise):
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        setup.noise = np.zeros_like(setup.noise)


def test_map_shards_runs_workers_in_callers_context(monkeypatch):
    # two CPUs: the calling thread runs shards 0 and 2, one worker shard 1;
    # the worker sees the caller's numpy error state, so an overflow behaves
    # on every shard as on the calling thread, and it is gone on return
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)

    def probe(paths, chunks):
        return paths, list(chunks), np.geterr()["over"], \
            threading.current_thread() is threading.main_thread()

    shards = [(range(0, 1), [0]), (range(1, 3), [1, 2]), (range(3, 4), [3])]
    with np.errstate(over="raise"):
        got = simulate.map_shards(probe, shards)
    assert got == [(range(0, 1), [0], "raise", True),
                   (range(1, 3), [1, 2], "raise", False),
                   (range(3, 4), [3], "raise", True)]
    assert not [t for t in threading.enumerate()
                if t.name.startswith("affinesde-shard")]


def test_wide_ensemble_draws_in_long_fills_on_a_cpu_sized_pool(monkeypatch):
    # 1024 paths on two CPUs: eight groups of 128 paths with chunks of 1024
    # steps, so each of a path's two draw calls fills _FILL = 2048 normals
    # (one chunk of 2**19 draws over all the paths would fill 512), and no
    # more than two groups run at once
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    fills, lock = _counted_fills(monkeypatch)
    cfg = SimConfig(dt=0.25, t_end=512.0, paths=1024, seed=8)
    shards = prepare(ConstantDrift(-np.eye(2)), EYE2_SIGMA,
                     cfg).shards([1.0, 1.0])
    running, most = set(), [0]

    def consume(paths, chunks):
        with lock:
            running.add(paths.start)
            most[0] = max(most[0], len(running))
        steps = sum(len(X) for n0, X in chunks if n0)
        with lock:
            running.discard(paths.start)
        return steps

    assert simulate.map_shards(consume, shards) == [cfg.n_steps] * 8
    assert min(fills) >= simulate._FILL == 2048
    assert len(fills) == cfg.paths * cfg.n_steps * 2 // simulate._FILL
    assert most[0] <= simulate._cpus()


def _counted_fills(monkeypatch):
    """The size of every draw call the sampler's path generators make from
    now on, and the lock that guards the list."""
    fills, lock = [], threading.Lock()
    make = simulate._path_generators

    class Counted:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, out):
            with lock:
                fills.append(out.size)
            return self.gen.standard_normal(out=out)

    monkeypatch.setattr(simulate, "_path_generators",
                        lambda seed, paths: [Counted(g)
                                             for g in make(seed, paths)])
    return fills, lock


@pytest.mark.parametrize("drift, xi, dt, n_steps, paths, budget, blocks", [
    (ConstantDrift([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.0, 0.0, -1.0]]),
     [1.0, -1.0, 0.5], 0.25, 2048, 6, 6200, 64),
    (COS_DRIFT, [1.0], 2 * math.pi / 100, 8200, 3, 4100, 100),
], ids=["r3", "periodic-m100"])
def test_whole_block_chunks_keep_the_fill_and_the_budget(
        monkeypatch, drift, xi, dt, n_steps, paths, budget, blocks):
    # a step draws r = d normals, one per column of its noise factor (the
    # d x d root of Q_n).  Chunks of whole blocks (64 steps at r = 3, 100
    # at m = 100) still let every draw call fill _FILL normals, within the
    # budget of one CPU.  Only rounding a group's chunk down to whole blocks
    # would not: at r = 3 groups of 3 paths would fill 640 * 3 = 1920
    # normals, at m = 100 groups of 2 paths 2000.  The groups' chunks divide
    # the grid, so no call is a short last one
    cfg = SimConfig(dt=dt, t_end=n_steps * dt, paths=paths, seed=12)
    sigma = DiffusionSpec.constant(np.eye(drift.d))
    whole = simulate_X(drift, sigma, xi, cfg)
    b = _block_length(drift, sigma, cfg)
    assert b == blocks
    monkeypatch.setattr(simulate, "_cpus", lambda: 1)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", budget)
    fills, _ = _counted_fills(monkeypatch)
    streamed = _stream_states(prepare(drift, sigma, cfg).shards(xi), cfg,
                              drift.d, b)
    assert min(fills) >= simulate._FILL == 2048
    assert max(fills) * paths > budget   # no group takes every path
    np.testing.assert_array_equal(streamed, whole)


@pytest.mark.parametrize("paths", [7, 101])
def test_staging_width_moves_no_bit(monkeypatch, paths):
    # a group draws and transforms its paths a staging slice at a time; a
    # path's increments are the same in a slice of 1, of 3 (the last one
    # shorter), of 32 or of the whole group, on one CPU and on two
    cfg = SimConfig(dt=0.25, t_end=0.25 * 300, paths=paths, seed=17)
    whole = simulate_X(PERIODIC2, EYE2_SIGMA, [1.0, -1.0], cfg)
    for stage, cpus in itertools.product((1, 3, 32, 1000), (1, 2)):
        monkeypatch.setattr(simulate, "_STAGE", stage)
        monkeypatch.setattr(simulate, "_cpus", lambda: cpus)
        states = simulate_X(PERIODIC2, EYE2_SIGMA, [1.0, -1.0], cfg)
        assert np.array_equal(states, whole), (stage, cpus)


def _chunk_lengths(paths, chunks):
    """The length of every chunk of a stream, each dropped before the
    stream draws the next."""
    lengths = []
    for _, X in chunks:
        lengths.append(len(X))
        del X
    return lengths


def test_running_group_holds_one_chunk_plus_a_staging_slice(monkeypatch):
    # on one CPU 256 paths make one group with chunks of k = 1024 steps at
    # 4096 steps.  Drained by a consumer that keeps nothing, the sampler's
    # traced peak, less its N d d doubles of noise factors, stays below 1.5
    # chunks: the chunk, and a staging slice of 32 paths' draws an eighth
    # of its size, where a whole chunk's draws took a second chunk
    monkeypatch.setattr(simulate, "_cpus", lambda: 1)
    cfg = SimConfig(dt=0.25, t_end=0.25 * 4096, paths=256, seed=3)
    k, w, d = 1024, 256, 2
    tracemalloc.start()
    try:
        shards = prepare(ConstantDrift(np.array([[-1.0, 0.5],
                                                 [0.0, -2.0]])),
                         EYE2_SIGMA, cfg).shards([1.0, 1.0])
        assert len(shards) == 1
        sizes = simulate.map_shards(_chunk_lengths, shards)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [[1] + [k] * 4]
    factors = cfg.n_steps * d * d * 8
    assert peak - factors < 1.5 * k * w * d * 8, (peak, factors)


def test_groups_beyond_the_shared_buffers_draw_into_fresh_ones(monkeypatch):
    # a consumer that advances every group in turn keeps more groups started
    # than map_shards would, and so than there are shared draw buffers; the
    # groups beyond those take fresh ones, and the states stay the
    # ensemble's
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 7 * 40)
    spec = DiffusionSpec.envelope(ExpDecay(1.0, 0.2), [[1.0, 0.5], [0.0, 1.0]])
    cfg = SimConfig(dt=0.25, t_end=40.0, paths=7, seed=123)
    A = ConstantDrift(np.array([[-1.0, 0.0], [0.5, -0.5]]))
    whole = simulate_X(A, spec, [1.0, 1.0], cfg)
    shards = prepare(A, spec, cfg).shards([1.0, 1.0])
    assert len(shards) > 2
    parts = [[] for _ in shards]
    for chunks in itertools.zip_longest(*(s for _, s in shards)):
        for part, chunk in zip(parts, chunks):
            if chunk is not None:
                part.append(chunk[1])
    states = np.concatenate([np.concatenate(p) for p in parts], axis=1)
    np.testing.assert_array_equal(np.swapaxes(states, 0, 1), whole)


# ---------------------------------------------------------------------------
# benchmark scenario
# ---------------------------------------------------------------------------

def test_bessel_decaying_noise_shrinks():
    # A = -I_5, sigma(t) = (1 + t)^-1 I_5
    cfg = SimConfig(dt=0.05, t_end=128.0, paths=30, seed=4)
    norms = state_norms(simulate_X(
        ConstantDrift(-np.eye(5)),
        DiffusionSpec.envelope(PowerLaw(1.0, -1.0), np.eye(5)), np.ones(5),
        cfg))
    early = float(np.median(np.max(norms[:, :200], axis=1)))
    late = float(np.median(norms[:, -1]))
    assert late < 0.1 * early


def test_derived_series():
    cfg = SimConfig(dt=0.5, t_end=4.0, paths=2, seed=6)
    states = simulate_X(OU_DRIFT, UNIT_SIGMA, [0.0], cfg)
    norms = state_norms(states)
    np.testing.assert_allclose(norms, np.abs(states[:, :, 0]))
    # the time-average compare reads from the same stream, against a direct
    # trapezoid average of the gathered norms at the final time
    ev = compare(SimpleNamespace(regime="Undecided"), cfg,
                 prepare(ConstantDrift(-np.eye(1)), UNIT_SIGMA,
                         cfg).shards([0.0]))
    assert np.all(ev.avg_sq_final >= 0)
    direct = np.trapezoid(norms ** 2, cfg.times, axis=1) / cfg.times[-1]
    np.testing.assert_allclose(ev.avg_sq_final, direct, rtol=1e-12)
