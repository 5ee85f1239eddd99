"""End-to-end acceptance checks, one test per criterion.

Each test name carries the criterion number, so the verbose test report
gives one pass/fail line per criterion.  Tolerances are pinned in the
assertions; ensembles are seeded and fully reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kstest

from affinesde.criteria import (classify, decide_I, decide_Sprime,
                                build_max_sequence, build_min_sequence,
                                mean_square_equiv, term_S, term_Sprime)
from affinesde.linalg import monodromy, solve_lyapunov
from affinesde.model import (CallableDrift, ConstantDrift, DiffusionSpec,
                             ExpDecay, LogGrow, LogPower, PowerLaw,
                             window_intensity)
from affinesde.simulate import (SimConfig, bessel_scenario, simulate_X,
                                simulate_X_periodic, step_covariance)
from affinesde.stats import compare, dyadic_checkpoints, ensemble_mean_sq

A2 = np.array([[-1.0, 0.5], [0.0, -2.0]])
DRIFT2 = ConstantDrift(A2)
BIG = dict(dt=0.05, t_end=4096.0, paths=200)


def _checkpoint_medians(ens, series):
    cps = dyadic_checkpoints(float(ens.times[-1]))
    out = []
    for c in cps:
        i = int(np.searchsorted(ens.times, c - 1e-9))
        out.append(float(np.median(series[:, i])))
    return np.array(out)


# ---------------------------------------------------------------------------
# 1. regime trichotomy end-to-end
# ---------------------------------------------------------------------------

def test_criterion_01a_stable_regime():
    start = time.time()
    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 1.0), np.eye(2))
    verdict = classify(sigma, DRIFT2)
    assert verdict.regime == "StableAS"
    ens = simulate_X(DRIFT2, sigma, [1.0, 1.0], SimConfig(seed=101, **BIG))
    ev = compare(verdict, ens)
    # per-path decay between the first and last checkpoints
    frac = float(np.mean(ev.tail_sups[:, -1] < ev.tail_sups[:, 0]))
    assert frac >= 0.95
    assert ev.trends["tail_sup_median"].label == "Decreasing"
    assert float(np.median(ens.norms[:, -1])) < 0.05
    assert ev.agreement == "Consistent"
    assert time.time() - start < 120.0


def test_criterion_01b_bounded_regime():
    r = 1.0 / math.sqrt(2.0)
    sigma = DiffusionSpec.envelope(LogPower(1.0), r * np.eye(2))
    verdict = classify(sigma, DRIFT2)
    assert verdict.regime == "BoundedNonConvergent"
    lo, hi = verdict.epsilon_star_bracket
    root2 = math.sqrt(2.0)
    assert lo <= root2 + 1e-3 and hi >= root2 - 1e-3
    ens = simulate_X(DRIFT2, sigma, [1.0, 1.0], SimConfig(seed=102, **BIG))
    ev = compare(verdict, ens)
    band = float(np.median(ev.tail_sups[:, 0]))
    ratio = float(np.median(ev.tail_sups[:, -1])) / band
    assert 0.5 <= ratio <= 2.0
    assert float(np.median(ev.window_inf_final)) < 0.1 * band
    assert float(np.median(ev.avg_sq_final)) < float(np.median(ev.avg_sq_half))
    assert ev.agreement == "Consistent"


def test_criterion_01c_unbounded_regime():
    sigma = DiffusionSpec.constant(np.eye(2))
    verdict = classify(sigma, DRIFT2)
    assert verdict.regime == "Unbounded"
    ens = simulate_X(DRIFT2, sigma, [1.0, 1.0], SimConfig(seed=103, **BIG))
    meds = _checkpoint_medians(ens, ens.running_sup)
    assert np.all(np.diff(meds) > 0)
    assert compare(verdict, ens).agreement == "Consistent"


# ---------------------------------------------------------------------------
# 2. Mills equivalence band
# ---------------------------------------------------------------------------

def test_criterion_02_mills_band():
    # For x = eps/theta(n), r = term_S / term_Sprime * eps * sqrt(2 pi)
    # equals the Mills ratio x (1 - Phi(x)) / phi(x), whose asymptotic series
    # is 1 - x^-2 + 3 x^-4 - 15 x^-6 + ...  For real x the remainder after
    # any term is smaller than the first omitted term and has its sign
    # (Abramowitz & Stegun 7.1.23), so every window with x > 8 satisfies
    #     1 - x^-2 + 3 x^-4 - 15 x^-6 <= r <= 1 - x^-2 + 3 x^-4,
    # an enclosure of width 15 x^-6 <= 5.8e-5.  A fixed 1% band around 1 is
    # out of reach here: the upper bound stays below 0.99 until x ~ 9.96
    # (the companion unit test checks the 1% band once x > 10.1).
    eps, h = 3.0, 1.0
    spec = DiffusionSpec.envelope(LogPower(1.0), [[1.0]])
    th2 = window_intensity(spec, h, 100_001).values[1:]
    x = eps / np.sqrt(th2)
    sel = x > 8.0
    assert np.any(sel)
    xs = x[sel]
    ratios = np.array([term_S(eps, t) / term_Sprime(eps, t) * eps
                       * math.sqrt(2 * math.pi) for t in th2[sel]])
    upper = 1.0 - xs**-2 + 3.0 * xs**-4
    lower = upper - 15.0 * xs**-6
    below, above = lower - ratios, ratios - upper
    i = int(np.argmax(np.maximum(below, above)))
    bound, value = (("lower", lower[i]) if below[i] >= above[i]
                    else ("upper", upper[i]))
    assert np.all((ratios >= lower) & (ratios <= upper)), (
        f"Mills ratio leaves its series enclosure: r = {ratios[i]:.12f} at "
        f"x = {xs[i]:.6f}, {bound} bound {value:.12f}")


# ---------------------------------------------------------------------------
# 3. h-independence
# ---------------------------------------------------------------------------

def test_criterion_03_h_independence():
    families = [
        (DiffusionSpec.envelope(ExpDecay(1.0, 1.0), np.eye(2)), "StableAS"),
        (DiffusionSpec.envelope(LogPower(1.0), np.eye(2) / math.sqrt(2)),
         "BoundedNonConvergent"),
        (DiffusionSpec.constant(np.eye(2)), "Unbounded"),
    ]
    for sigma, expected in families:
        for h in (0.5, 1.0, 2.0):
            assert classify(sigma, DRIFT2, h=h).regime == expected


# ---------------------------------------------------------------------------
# 4. window-sum vs integral criterion agreement
# ---------------------------------------------------------------------------

def test_criterion_04_sum_integral_agreement():
    specs = [
        DiffusionSpec.envelope(ExpDecay(1.0, 1.0), [[1.0]]),
        DiffusionSpec.envelope(PowerLaw(1.0, -0.8), [[1.0]]),
        DiffusionSpec.envelope(PowerLaw(1.0, -0.25), [[1.0]]),
        DiffusionSpec.envelope(PowerLaw(1.0, 0.5), [[1.0]]),
        DiffusionSpec.envelope(LogPower(1.0), [[1.0]]),
        DiffusionSpec.envelope(LogGrow(1.0, 0.5), [[1.0]]),
        DiffusionSpec.constant([[1.0]]),
        DiffusionSpec.constant([[0.0]]),
    ]
    grid = np.geomspace(2.0 ** -8, 2.0 ** 8, 33)
    for spec in specs:
        for eps in grid:
            a = decide_Sprime(spec, float(eps), 1.0, n_terms=16)
            b = decide_I(spec, float(eps), 1.0, t_max=16.0, tol=1e-6)
            assert a.status == b.status, (spec.form, eps, a.status, b.status)


# ---------------------------------------------------------------------------
# 5. Lyapunov solve
# ---------------------------------------------------------------------------

def test_criterion_05_lyapunov():
    np.testing.assert_allclose(solve_lyapunov(-np.eye(4)).M, np.eye(4) / 2,
                               atol=1e-14)
    rng = np.random.default_rng(555)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        eigs = rng.uniform(-5.0, -0.1, size=d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = Q @ np.diag(eigs) @ Q.T
        assert solve_lyapunov(A).residual <= 1e-10


# ---------------------------------------------------------------------------
# 6. Floquet
# ---------------------------------------------------------------------------

def test_criterion_06_floquet():
    drift = CallableDrift(fn=lambda t: np.array([[-1.0 + math.cos(t)]]), d=1,
                          period=2 * math.pi)
    rho = monodromy(drift, tol=1e-12).rho
    assert rho == pytest.approx(math.exp(-2 * math.pi), abs=1e-8)

    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 1.0), [[1.0]])
    verdict = classify(sigma, drift)
    assert verdict.regime == "StableAS"
    dt = 2 * math.pi / 64
    cfg = SimConfig(dt=dt, t_end=128 * math.pi, paths=100, seed=606)
    ens = simulate_X_periodic(drift, sigma, [1.0], cfg)
    assert compare(verdict, ens).agreement == "Consistent"


# ---------------------------------------------------------------------------
# 7. simulator exactness (scalar OU)
# ---------------------------------------------------------------------------

def test_criterion_07_ou_exactness():
    drift = ConstantDrift(np.array([[-1.0]]))
    sigma = DiffusionSpec.constant([[1.0]])
    for dt in (0.05, 0.25, 1.0):
        Q = step_covariance(drift, sigma, 0.0, dt)
        assert Q[0, 0] == pytest.approx((1 - math.exp(-2 * dt)) / 2,
                                        abs=1e-12)
    cfg = SimConfig(dt=0.5, t_end=50.0, paths=100, seed=707)
    ens = simulate_X(drift, sigma, [0.0], cfg)
    q = (1 - math.exp(-2 * cfg.dt)) / 2
    y = ens.states[:, :, 0]
    incr = (y[:, 1:] - math.exp(-cfg.dt) * y[:, :-1]) / math.sqrt(q)
    assert incr.size == 10_000
    assert kstest(incr.ravel(), "norm").pvalue > 0.01

    cfg = SimConfig(dt=0.25, t_end=16.0, paths=4000, seed=708)
    ens = simulate_X(drift, sigma, [0.0], cfg)
    final = ens.states[:, -1, 0]
    est = float(np.var(final, ddof=1))
    se = est * math.sqrt(2.0 / (len(final) - 1))
    assert abs(est - 0.5) <= 3 * se


# ---------------------------------------------------------------------------
# 8. mean-square equivalence
# ---------------------------------------------------------------------------

def test_criterion_08_mean_square_equivalence():
    drift = ConstantDrift(np.array([[-1.0]]))
    fading = DiffusionSpec.envelope(LogPower(1.0), [[1.0]])
    rep = mean_square_equiv(fading)
    assert rep.fading_single_h and rep.fading_all_h and \
        rep.unit_window_limit_zero
    ens = simulate_X(drift, fading, [0.0],
                     SimConfig(dt=0.25, t_end=512.0, paths=2000, seed=808))
    msq, _ = ensemble_mean_sq(ens)
    cps_idx = [int(np.searchsorted(ens.times, c - 1e-9))
               for c in dyadic_checkpoints(512.0)]
    vals = msq[cps_idx]
    assert np.all(np.diff(vals) < 0)

    const = DiffusionSpec.constant([[1.0]])
    rep = mean_square_equiv(const)
    assert not rep.fading_single_h and not rep.fading_all_h and \
        not rep.unit_window_limit_zero
    ens = simulate_X(drift, const, [0.0],
                     SimConfig(dt=0.125, t_end=16.0, paths=2000, seed=809))
    msq, se = ensemble_mean_sq(ens)
    cps_idx = [int(np.searchsorted(ens.times, c - 1e-9))
               for c in dyadic_checkpoints(16.0)]
    vals, errs = msq[cps_idx], se[cps_idx]
    # non-decreasing up to sampling noise
    for j in range(len(vals) - 1):
        assert vals[j + 1] >= vals[j] - 3 * errs[j + 1]


# ---------------------------------------------------------------------------
# 9. noise cannot stabilise
# ---------------------------------------------------------------------------

def test_criterion_09_non_stabilisation():
    drift = ConstantDrift(np.array([[0.1]]))
    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 1.0), [[1.0]])
    for s in (sigma, DiffusionSpec.constant([[1.0]])):
        verdict = classify(s, drift)
        assert verdict.regime == "Undecided"
        assert verdict.drift_stable is False
    ens = simulate_X(drift, sigma, [1.0],
                     SimConfig(dt=0.05, t_end=200.0, paths=50, seed=909))
    meds = _checkpoint_medians(ens, ens.running_sup)
    assert np.all(np.diff(meds) > 0)


# ---------------------------------------------------------------------------
# 10. extremal sequence constructions
# ---------------------------------------------------------------------------

def test_criterion_10_sequence_constructions():
    f = lambda t: (2.0 + math.sin(t)) / (1.0 + t)
    h, n = 1.0, 500
    ts = build_min_sequence(f, h, n)
    gaps = np.diff(ts)
    assert len(gaps) == n
    assert np.all(gaps >= h - 1e-9) and np.all(gaps <= 2 * h + 1e-9)
    res = build_max_sequence(f, h, n)
    dgaps = np.diff(res.t_times)
    assert np.all(dgaps >= h - 1e-9) and np.all(dgaps <= 3 * h + 1e-9)


# ---------------------------------------------------------------------------
# 11. square-Bessel benchmark
# ---------------------------------------------------------------------------

def test_criterion_11_bessel_scenarios():
    d = 5
    drift = ConstantDrift(-np.eye(d))

    # alpha = -1: noise in L^2, convergent
    sigma = DiffusionSpec.envelope(PowerLaw(1.0, -1.0), np.eye(d))
    verdict = classify(sigma, drift)
    assert verdict.regime == "StableAS"
    ens = bessel_scenario(d, -1.0, SimConfig(dt=0.05, t_end=256.0, paths=100,
                                             seed=111))
    assert compare(verdict, ens).agreement == "Consistent"

    # alpha = 0: constant noise, unbounded with liminf collapsing to zero
    sigma = DiffusionSpec.envelope(PowerLaw(1.0, 0.0), np.eye(d))
    verdict = classify(sigma, drift)
    assert verdict.regime == "Unbounded"
    ens = bessel_scenario(d, 0.0, SimConfig(dt=0.05, t_end=512.0, paths=100,
                                            seed=112))
    ev = compare(verdict, ens)
    band = float(np.median(ev.tail_sups[:, -1]))
    assert float(np.median(ev.window_inf_final)) < 0.5 * band

    # alpha = 1: growing noise, window infima grow too
    sigma = DiffusionSpec.envelope(PowerLaw(1.0, 1.0), np.eye(d))
    verdict = classify(sigma, drift)
    assert verdict.regime == "Unbounded"
    ens = bessel_scenario(d, 1.0, SimConfig(dt=0.05, t_end=512.0, paths=100,
                                            seed=113))
    from affinesde.stats import window_inf
    _, winf = window_inf(ens.norms, ens.times, 64.0)
    early = float(np.median(winf[:, winf.shape[1] // 2]))
    late = float(np.median(winf[:, -1]))
    assert late > early
