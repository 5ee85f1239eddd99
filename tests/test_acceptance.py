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
                                check_fading, term_S, term_Sprime)
from affinesde.linalg import monodromy, solve_lyapunov
from affinesde.model import (ConstantDrift, DiffusionSpec, ExpDecay, LogPower,
                             PeriodicDrift, PowerLaw, interval_integrals)
from affinesde.simulate import (SimConfig, prepare, simulate_X,
                                squared_norms, state_norms, step_covariance)
from affinesde.stats import compare

A2 = np.array([[-1.0, 0.5], [0.0, -2.0]])
DRIFT2 = ConstantDrift(A2)
BIG = dict(dt=0.05, t_end=4096.0, paths=200)


def _evidence(verdict, drift, sigma, xi, cfg):
    """compare on the sampler's stream; no ensemble is held."""
    return compare(verdict, cfg, prepare(drift, sigma, cfg).shards(xi))


# ---------------------------------------------------------------------------
# 1. regime trichotomy end-to-end
# ---------------------------------------------------------------------------

def test_criterion_01a_stable_regime():
    start = time.time()
    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 1.0), np.eye(2))
    verdict = classify(sigma, DRIFT2)
    assert verdict.regime == "StableAS"
    ev = _evidence(verdict, DRIFT2, sigma, [1.0, 1.0],
                   SimConfig(seed=101, **BIG))
    # per-path decay between the first and last checkpoints
    frac = float(np.mean(ev.tail_sups[:, -1] < ev.tail_sups[:, 0]))
    assert frac >= 0.95
    assert ev.trends["tail_sup_median"].label == "Decreasing"
    # each path's sup over [T/2, T] bounds its final norm
    assert float(np.median(ev.tail_sups[:, -1])) < 0.05
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
    ev = _evidence(verdict, DRIFT2, sigma, [1.0, 1.0],
                   SimConfig(seed=102, **BIG))
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
    ev = _evidence(verdict, DRIFT2, sigma, [1.0, 1.0],
                   SimConfig(seed=103, **BIG))
    assert np.all(np.diff(np.median(ev.running_max_at, axis=0)) > 0)
    assert ev.agreement == "Consistent"


@pytest.mark.parametrize("seed", [7, 8])
def test_criterion_01d_fading_unbounded_regime(seed):
    # the abstract's a.s. unstable solutions that are asymptotically stable
    # in mean square: ||sigma||^2 = 1 / sqrt(ln(e+t)) fades, yet the window
    # sums diverge at every eps
    sigma = DiffusionSpec.envelope(LogPower(0.5, 0.5), np.eye(2))
    verdict = classify(sigma, DRIFT2)
    assert verdict.regime == "Unbounded"
    assert verdict.fading_noise and verdict.mean_square_stable
    assert verdict.liminf_zero_predicted and verdict.avg_sq_zero_predicted
    ev = _evidence(verdict, DRIFT2, sigma, [1.0, 1.0],
                   SimConfig(seed=seed, **BIG))
    assert np.all(np.diff(np.median(ev.running_max_at, axis=0)) > 0)
    assert ev.agreement == "Consistent"


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
    n = 100_001
    th2 = interval_integrals(spec, h * np.arange(n),
                             h * np.arange(1, n + 1))[1:]
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
        DiffusionSpec.envelope(LogPower(1.0, 0.5), [[1.0]]),
        DiffusionSpec.envelope(LogPower(1.0, -1.0), [[1.0]]),   # ln(e+t)^0.5
        DiffusionSpec.constant([[1.0]]),
        DiffusionSpec.constant([[0.0]]),
    ]
    grid = np.geomspace(2.0 ** -8, 2.0 ** 8, 33)
    for spec in specs:
        for eps in grid:
            a = decide_Sprime(spec, float(eps), 1.0, n_terms=16)
            b = decide_I(spec, float(eps), 1.0, t_max=16.0, tol=1e-6)
            assert a.status == b.status, (spec, eps, a.status, b.status)


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
    # -1 + cos t on 64 uniform knots, one a step: the trapezoid mean over a
    # period is exactly -1, so Psi(2 pi, 0) = e^{-2 pi}
    times = [2 * math.pi * k / 64 for k in range(64)]
    drift = PeriodicDrift(period=2 * math.pi, times=times,
                          values=[[[-1.0 + math.cos(t)]] for t in times])
    rho = monodromy(drift, tol=1e-12).rho
    assert rho == pytest.approx(math.exp(-2 * math.pi), abs=1e-8)

    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 1.0), [[1.0]])
    verdict = classify(sigma, drift)
    assert verdict.regime == "StableAS"
    dt = 2 * math.pi / 64
    cfg = SimConfig(dt=dt, t_end=128 * math.pi, paths=100, seed=606)
    assert _evidence(verdict, drift, sigma, [1.0], cfg).agreement == \
        "Consistent"


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
    q = (1 - math.exp(-2 * cfg.dt)) / 2
    y = simulate_X(drift, sigma, [0.0], cfg)[:, :, 0]
    incr = (y[:, 1:] - math.exp(-cfg.dt) * y[:, :-1]) / math.sqrt(q)
    assert incr.size == 10_000
    assert kstest(incr.ravel(), "norm").pvalue > 0.01

    cfg = SimConfig(dt=0.25, t_end=16.0, paths=4000, seed=708)
    final = simulate_X(drift, sigma, [0.0], cfg)[:, -1, 0]
    est = float(np.var(final, ddof=1))
    se = est * math.sqrt(2.0 / (len(final) - 1))
    assert abs(est - 0.5) <= 3 * se


# ---------------------------------------------------------------------------
# 8. mean-square equivalence
# ---------------------------------------------------------------------------

def test_criterion_08_mean_square_equivalence():
    drift = ConstantDrift(np.array([[-1.0]]))
    fading = DiffusionSpec.envelope(LogPower(1.0), [[1.0]])
    assert all(check_fading(fading, h) for h in (0.5, 1.0, 2.0))
    cfg = SimConfig(dt=0.25, t_end=512.0, paths=2000, seed=808)
    msq = squared_norms(simulate_X(drift, fading, [0.0], cfg)).mean(axis=0)
    cps_idx = [int(np.searchsorted(cfg.times, c - 1e-9))
               for c in 512.0 / np.array([16, 8, 4, 2])]
    vals = msq[cps_idx]
    assert np.all(np.diff(vals) < 0)

    const = DiffusionSpec.constant([[1.0]])
    assert not any(check_fading(const, h) for h in (0.5, 1.0, 2.0))
    cfg = SimConfig(dt=0.125, t_end=16.0, paths=2000, seed=809)
    sq = squared_norms(simulate_X(drift, const, [0.0], cfg))
    msq, se = sq.mean(axis=0), sq.std(axis=0, ddof=1) / math.sqrt(cfg.paths)
    cps_idx = [int(np.searchsorted(cfg.times, c - 1e-9))
               for c in 16.0 / np.array([16, 8, 4, 2])]
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
    ev = _evidence(verdict, drift, sigma, [1.0],
                   SimConfig(dt=0.05, t_end=200.0, paths=50, seed=909))
    assert np.all(np.diff(np.median(ev.running_max_at, axis=0)) > 0)


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
    cfg = SimConfig(dt=0.05, t_end=256.0, paths=100, seed=111)
    assert _evidence(verdict, drift, sigma, np.ones(d), cfg).agreement == \
        "Consistent"

    # alpha = 0: constant noise, unbounded with liminf collapsing to zero
    sigma = DiffusionSpec.envelope(PowerLaw(1.0, 0.0), np.eye(d))
    verdict = classify(sigma, drift)
    assert verdict.regime == "Unbounded"
    cfg = SimConfig(dt=0.05, t_end=512.0, paths=100, seed=112)
    ev = _evidence(verdict, drift, sigma, np.ones(d), cfg)
    band = float(np.median(ev.tail_sups[:, -1]))
    assert float(np.median(ev.window_inf_final)) < 0.5 * band

    # alpha = 1: growing noise, window infima grow too
    sigma = DiffusionSpec.envelope(PowerLaw(1.0, 1.0), np.eye(d))
    verdict = classify(sigma, drift)
    assert verdict.regime == "Unbounded"
    norms = state_norms(simulate_X(
        drift, sigma, np.ones(d),
        SimConfig(dt=0.05, t_end=512.0, paths=100, seed=113)))
    # minima over the trailing 64-unit windows ending at T/2 + 32 and at T
    w = int(round(64.0 / 0.05))
    n = norms.shape[1]
    mid = w + (n - w) // 2
    early = float(np.median(norms[:, mid - w:mid + 1].min(axis=1)))
    late = float(np.median(norms[:, n - 1 - w:].min(axis=1)))
    assert late > early
