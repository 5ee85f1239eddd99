import math

import numpy as np
import pytest
from scipy.integrate import quad

from affinesde import criteria
from affinesde.criteria import (FINITE, INFINITE, UNDECIDED, build_max_sequence,
                                build_min_sequence, check_fading, classify,
                                decide_I, decide_Sprime, integral_I, limit_Lh,
                                mean_square_equiv, mills_tail,
                                norm_equiv_check, partial_sum_Sprime,
                                row_interval_integrals, rowwise_sum_S1,
                                sum_general_grid, term_S, term_Sprime)
from affinesde.model import (ConstantDrift, DiffusionSpec, ExpDecay, LogGrow,
                             LogPower, PeriodicDrift, PowerLaw, QuadratureError)

SQRT_2PI = math.sqrt(2 * math.pi)


def scalar(env):
    return DiffusionSpec.envelope(env, [[1.0]])


# ---------------------------------------------------------------------------
# normal tail
# ---------------------------------------------------------------------------

def test_mills_tail_basic():
    assert mills_tail(0.0) == pytest.approx(0.5)
    assert mills_tail(1.96) == pytest.approx(0.0249979, abs=1e-7)
    assert mills_tail(math.inf) == 0.0
    assert mills_tail(-math.inf) == 1.0
    with pytest.raises(ValueError):
        mills_tail(math.nan)


def test_mills_tail_asymptotic_ratio_at_ten():
    x = 10.0
    ratio = mills_tail(x) / (math.exp(-x * x / 2) / x)
    assert ratio == pytest.approx(1.0 / SQRT_2PI, rel=1e-2)


def test_mills_tail_high_precision_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    for x in [0.0, 0.5, 1.0, 2.0, 5.0, 8.0, 12.0, 20.0, 30.0, 37.0,
              -0.5, -3.0, -20.0]:
        oracle = float(mp.ncdf(-mp.mpf(x)))
        assert mills_tail(x) == pytest.approx(oracle, rel=1e-12)


def test_mills_tail_beyond_double_underflow():
    # at x = 38 the value (~2.9e-316) is subnormal; only the log-continued
    # branch keeps it positive and monotone
    a, b = mills_tail(37.5), mills_tail(38.0)
    assert a > b > 0.0
    assert mills_tail(40.0) == 0.0    # true value ~1e-350: below any double
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 400
    oracle = float(mp.ncdf(-mp.mpf(38)))
    assert b == pytest.approx(oracle, rel=1e-6)


def test_terms():
    assert term_S(1.0, 0.0) == 0.0
    assert term_S(2.0, 4.0) == pytest.approx(0.158655, abs=1e-6)
    assert term_S(1.0, 1e12) == pytest.approx(0.5, abs=1e-5)
    assert term_Sprime(1.0, 0.0) == 0.0
    assert term_Sprime(1.0, 1.0) == pytest.approx(math.exp(-0.5))
    eps = 1.7
    assert term_Sprime(eps, eps * eps) == pytest.approx(eps * math.exp(-0.5))
    with pytest.raises(ValueError):
        term_S(0.0, 1.0)
    with pytest.raises(ValueError):
        term_Sprime(1.0, -1.0)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------

def test_partial_sum_zero_sigma():
    spec = DiffusionSpec.constant([[0.0]])
    val, terms = partial_sum_Sprime(spec, 1.0, 1.0, 50)
    assert val == 0.0 and np.all(terms == 0.0)


def test_partial_sum_constant_windows():
    spec = DiffusionSpec.constant([[1.0]])   # theta^2 = 1 per unit window
    val, terms = partial_sum_Sprime(spec, 1.0, 1.0, 100)
    assert val == pytest.approx(100 * math.exp(-0.5), rel=1e-12)
    assert len(terms) == 100


def test_partial_sum_logpower_against_per_window_oracle():
    spec = scalar(LogPower(1.0))
    eps, N = 2.0, 10_000
    val, _ = partial_sum_Sprime(spec, eps, 1.0, N, tol=1e-11)
    # independent oracle: adaptive quadrature window by window, then sum
    oracle = 0.0
    for n in range(1, N + 1):
        th2, _ = quad(lambda s: 1.0 / math.log(math.e + s), n, n + 1,
                      epsabs=1e-13, epsrel=1e-13)
        oracle += math.sqrt(th2) * math.exp(-eps * eps / (2 * th2))
    assert val == pytest.approx(oracle, abs=1e-8)


def test_partial_sum_monotone_in_eps():
    spec = scalar(LogPower(1.0))
    _, t1 = partial_sum_Sprime(spec, 1.0, 1.0, 64)
    _, t2 = partial_sum_Sprime(spec, 1.5, 1.0, 64)
    assert np.all(t1 >= t2)


# ---------------------------------------------------------------------------
# finiteness rulings (window sums)
# ---------------------------------------------------------------------------

def test_decide_expdecay_finite_all_eps():
    spec = scalar(ExpDecay(1.0, 1.0))
    for eps in (0.01, 0.5, 1.0, 10.0):
        r = decide_Sprime(spec, eps, 1.0)
        assert r.status == FINITE
        assert math.isfinite(r.tail_bound) and r.total_upper is not None


def test_decide_logpower_threshold():
    spec = scalar(LogPower(1.0))       # threshold eps' = sqrt(2)
    assert decide_Sprime(spec, 1.0, 1.0).status == INFINITE
    assert decide_Sprime(spec, 2.0, 1.0).status == FINITE
    boundary = decide_Sprime(spec, math.sqrt(2.0) * (1 - 1e-14), 1.0)
    assert boundary.status == INFINITE          # boundary defaults infinite
    assert "diverges" in boundary.witness
    # at eps = sqrt(2) rounding gives p = 1 + 2^-52; the series diverges at p = 1
    exact = decide_Sprime(spec, math.sqrt(2.0), 1.0)
    assert exact.status == INFINITE and "within rounding" in exact.witness
    assert decide_I(spec, math.sqrt(2.0), 1.0, 8.0).status == INFINITE


def test_decide_constant_infinite():
    spec = DiffusionSpec.constant([[1.0]])
    for eps in (0.1, 1.0, 30.0):
        r = decide_Sprime(spec, eps, 1.0)
        assert r.status == INFINITE and r.witness


def test_decide_table_undecided():
    spec = DiffusionSpec.table([0.0, 1.0], [[[1.0]], [[0.5]]])
    r = decide_Sprime(spec, 1.0, 1.0)
    assert r.status == UNDECIDED
    assert r.tail_bound is None and r.witness is None


@pytest.mark.parametrize("spec,eps", [
    (scalar(ExpDecay(1.0, 0.7)), 0.8),
    (scalar(PowerLaw(1.0, -0.8)), 1.2),
    (scalar(PowerLaw(1.0, -0.3)), 0.7),
    (scalar(LogPower(1.0)), 2.0),
])
def test_tail_bound_actually_bounds_the_tail(spec, eps):
    short = decide_Sprime(spec, eps, 1.0, n_terms=128)
    long, _ = partial_sum_Sprime(spec, eps, 1.0, 4096)
    assert long <= short.partial_value + short.tail_bound + 1e-12
    assert long >= short.partial_value


def test_zero_sigma_finite():
    r = decide_Sprime(DiffusionSpec.constant([[0.0]]), 1.0, 1.0)
    assert r.status == FINITE and r.tail_bound == 0.0


# ---------------------------------------------------------------------------
# integral criterion
# ---------------------------------------------------------------------------

def test_integral_zero_sigma():
    assert integral_I(DiffusionSpec.constant([[0.0]]), 1.0, 1.0, 10.0) == 0.0


def test_integral_constant_sigma():
    spec = DiffusionSpec.constant([[1.5]])
    eps, c, t_max = 1.0, 2.0, 10.0
    v = 1.5 ** 2 * c
    expect = t_max * math.sqrt(v) * math.exp(-eps * eps / (2 * v))
    assert integral_I(spec, eps, c, t_max) == pytest.approx(expect, rel=1e-9)


def test_integral_logpower_against_midpoint_oracle():
    # independent oracle: composite midpoint rule at steps h and h/2 with
    # Richardson extrapolation of the O(h^2) error
    from affinesde.model import interval_integrals

    def midpoint(step):
        mids = np.arange(step / 2, 1000.0, step)
        vs = interval_integrals(scalar(LogPower(1.0)), mids, mids + 1.0, 1e-11)
        return step * sum(term_Sprime(2.0, v) for v in vs)

    m1, m2 = midpoint(0.25), midpoint(0.125)
    oracle = (4.0 * m2 - m1) / 3.0
    val = integral_I(scalar(LogPower(1.0)), 2.0, 1.0, 1000.0, tol=1e-10)
    assert val == pytest.approx(oracle, rel=1e-6)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_integral_raises_on_quadrature_error():
    # a rough table makes the running energy kinked at every knot, far more
    # than quad's 400 subintervals can resolve to tol
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 200.0, 400)
    spec = DiffusionSpec.table(t, rng.uniform(-1.0, 1.0, size=(400, 1, 1)))
    with pytest.raises(QuadratureError, match="quadrature error"):
        integral_I(spec, 1.0, 0.37, 200.0, tol=1e-12)


@pytest.mark.parametrize("spec", [
    scalar(ExpDecay(1.0, 1.0)),
    scalar(PowerLaw(1.0, -0.8)),
    scalar(PowerLaw(1.0, -0.25)),
    scalar(LogPower(1.0)),
    scalar(LogGrow(1.0, 0.5)),
    scalar(PowerLaw(1.0, 0.5)),
    DiffusionSpec.constant([[1.0]]),
    DiffusionSpec.constant([[0.0]]),
])
def test_sum_and_integral_rulings_agree(spec):
    for eps in (0.25, 1.0, 1.4, 1.5, 4.0):
        a = decide_Sprime(spec, eps, 1.0, n_terms=32)
        b = decide_I(spec, eps, 1.0, t_max=16.0, tol=1e-6)
        assert a.status == b.status


def test_decide_I_examples():
    assert decide_I(scalar(ExpDecay(1.0, 1.0)), 0.3, 1.0, 8.0).status == FINITE
    assert decide_I(scalar(LogPower(1.0)), 1.0, 1.0, 8.0).status == INFINITE
    assert decide_I(DiffusionSpec.constant([[1.0]]), 5.0, 1.0, 8.0).status == INFINITE


# ---------------------------------------------------------------------------
# general grids and row-wise sums
# ---------------------------------------------------------------------------

def test_sum_general_grid_uniform_matches_terms():
    spec = scalar(ExpDecay(1.0, 0.5))
    grid = np.arange(0.0, 9.0)
    from affinesde.model import interval_integrals
    th2 = interval_integrals(spec, grid[:-1], grid[1:])
    direct = sum(term_S(1.0, t) for t in th2)
    assert sum_general_grid(spec, 1.0, grid) == pytest.approx(direct, rel=1e-12)


def test_sum_general_grid_alternating_spacing():
    spec = DiffusionSpec.constant([[1.0]])
    grid = [0.0, 1.0, 3.0, 4.0, 6.0, 7.0, 9.0]
    gaps = np.diff(grid)
    direct = sum(term_S(1.5, g) for g in gaps)   # theta^2 = gap for unit sigma
    val = sum_general_grid(spec, 1.5, grid, alpha=1.0, beta=2.0)
    assert val == pytest.approx(direct, rel=1e-12)


def test_sum_general_grid_validation():
    spec = DiffusionSpec.constant([[1.0]])
    with pytest.raises(ValueError):
        sum_general_grid(spec, 1.0, [1.0, 2.0])          # must start at 0
    with pytest.raises(ValueError):
        sum_general_grid(spec, 1.0, [0.0, 2.0, 1.0])     # not increasing
    with pytest.raises(ValueError):
        sum_general_grid(spec, 1.0, [0.0, 0.5, 1.0], alpha=0.9)
    with pytest.raises(ValueError):
        sum_general_grid(spec, 1.0, [0.0, 3.0], beta=2.0)
    assert sum_general_grid(DiffusionSpec.constant([[0.0]]), 1.0,
                            [0.0, 1.0, 2.0]) == 0.0


def test_rowwise_single_row_reduces():
    spec = scalar(ExpDecay(1.0, 0.3))
    grid = np.arange(0.0, 6.0)
    assert rowwise_sum_S1(spec, 1.0, grid) == \
        pytest.approx(sum_general_grid(spec, 1.0, grid), rel=1e-9)


def test_rowwise_equal_rows_scales_by_d():
    # diagonal sigma with identical rows: each row contributes the same sum
    spec = DiffusionSpec.envelope(ExpDecay(1.0, 0.5), np.eye(3))
    row = scalar(ExpDecay(1.0, 0.5))
    grid = np.arange(0.0, 5.0)
    assert rowwise_sum_S1(spec, 1.0, grid) == \
        pytest.approx(3 * rowwise_sum_S1(row, 1.0, grid), rel=1e-9)


def test_sandwich_inequalities_on_random_tables():
    rng = np.random.default_rng(11)
    times = np.array([0.0, 0.8, 1.7, 3.0, 4.5])
    vals = rng.uniform(-1.0, 1.0, size=(5, 2, 2))
    spec = DiffusionSpec.table(times, vals)
    grid = np.arange(0.0, 5.0)
    eps, d = 1.3, 2
    rows = row_interval_integrals(spec, grid[:-1], grid[1:])
    from affinesde.model import interval_integrals
    tots = interval_integrals(spec, grid[:-1], grid[1:])
    for th_i, th in zip(rows, tots):
        lhs = sum(term_S(eps, t) for t in th_i)
        assert lhs <= d * term_S(eps, th) + 1e-15
        assert term_S(eps, th) <= \
            sum(term_S(eps / d, t) for t in th_i) + 1e-15


# ---------------------------------------------------------------------------
# extremal sequences
# ---------------------------------------------------------------------------

def test_min_sequence_monotone_integrands():
    dec = build_min_sequence(lambda t: math.exp(-t), 1.0, 20)
    np.testing.assert_allclose(np.diff(dec), 2.0, atol=1e-9)
    inc = build_min_sequence(lambda t: t, 1.0, 20)
    np.testing.assert_allclose(np.diff(inc), 1.0, atol=1e-9)


def test_min_sequence_oscillatory_spacing():
    f = lambda t: math.exp(-0.1 * t) * math.sin(t) ** 2
    ts = build_min_sequence(f, 1.0, 60)
    gaps = np.diff(ts)
    assert np.all(gaps >= 1.0 - 1e-9) and np.all(gaps <= 2.0 + 1e-9)


def test_max_sequence_constant_leftmost():
    res = build_max_sequence(lambda t: 1.0, 1.0, 10)
    np.testing.assert_allclose(res.s_times, np.arange(11.0), atol=1e-12)


def test_max_sequence_increasing():
    res = build_max_sequence(lambda t: t, 1.0, 10)
    np.testing.assert_allclose(res.s_times[1:], np.arange(2.0, 12.0), atol=1e-9)


def test_max_sequence_derived_spacing():
    f = lambda t: (2 + math.sin(3 * t)) / (1 + 0.05 * t)
    res = build_max_sequence(f, 1.0, 80)
    gaps = np.diff(res.t_times)
    assert np.all(gaps >= 1.0 - 1e-9) and np.all(gaps <= 3.0 + 1e-9)
    assert res.case in ("even", "odd")


# ---------------------------------------------------------------------------
# fading, mean-square report, L_h
# ---------------------------------------------------------------------------

def test_check_fading_analytic():
    assert check_fading(scalar(ExpDecay(1.0, 1.0)), 1.0).fading is True
    assert check_fading(DiffusionSpec.constant([[1.0]]), 1.0).fading is False
    assert check_fading(scalar(LogPower(1.0)), 1.0).fading is True
    assert check_fading(scalar(LogGrow(1.0, 1.0)), 1.0).fading is False


def test_check_fading_table_trend():
    t = np.linspace(0.0, 200.0, 100)
    decaying = DiffusionSpec.table(t, np.exp(-0.1 * t)[:, None, None])
    assert check_fading(decaying, 1.0, n_probe=128).fading is True
    flat = DiffusionSpec.table([0.0, 1.0], [[[1.0]], [[1.0]]])
    assert check_fading(flat, 1.0, n_probe=128).fading is False


def test_mean_square_equiv():
    rep = mean_square_equiv(scalar(ExpDecay(1.0, 1.0)))
    assert rep.all_equivalent and rep.fading_all_h
    rep = mean_square_equiv(DiffusionSpec.constant([[2.0]]))
    assert rep.all_equivalent and not rep.fading_all_h
    rep = mean_square_equiv(scalar(LogGrow(1.0, 1.0)))
    assert rep.all_equivalent and not rep.fading_single_h


def test_limit_Lh():
    assert limit_Lh(scalar(LogPower(2.0)), 1.0) == pytest.approx(2.0)
    assert limit_Lh(scalar(LogPower(1.0)), 2.0) == pytest.approx(2.0)
    assert limit_Lh(scalar(ExpDecay(1.0, 1.0)), 1.0) == 0.0
    assert limit_Lh(DiffusionSpec.constant([[1.0]]), 1.0) == math.inf
    hold = DiffusionSpec.table([0.0, 1.0], [[[1.0]], [[0.5]]])
    assert limit_Lh(hold, 1.0) == math.inf
    dead = DiffusionSpec.table([0.0, 1.0], [[[1.0]], [[0.0]]])
    assert limit_Lh(dead, 1.0) == 0.0


def test_limit_Lh_window_oracle_at_large_n():
    # theta^2(n) * ln n at n = 10^6 for LogPower(2) is close to 2
    from affinesde.model import interval_integrals
    spec = scalar(LogPower(2.0))
    n = 10 ** 6
    est = float(interval_integrals(spec, [float(n)], [float(n + 1)])[0]) \
        * math.log(n)
    assert est == pytest.approx(2.0, rel=1e-2)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_three_regimes():
    drift = ConstantDrift(-np.eye(1))
    v = classify(scalar(ExpDecay(1.0, 1.0)), drift)
    assert v.regime == "StableAS" and v.drift_stable and v.fading_noise

    v = classify(scalar(LogPower(1.0)), drift)
    assert v.regime == "BoundedNonConvergent"
    lo, hi = v.epsilon_star_bracket
    root2 = math.sqrt(2.0)
    assert lo <= root2 + 1e-3 and hi >= root2 - 1e-3
    assert (hi - lo) <= 1.5e-3 * root2
    assert v.liminf_zero_predicted and v.avg_sq_zero_predicted

    v = classify(DiffusionSpec.constant([[1.0]]), drift)
    assert v.regime == "Unbounded" and not v.fading_noise


def test_classify_unstable_drift_gate():
    v = classify(scalar(ExpDecay(1.0, 1.0)), ConstantDrift([[0.1]]))
    assert v.regime == "Undecided" and not v.drift_stable
    assert "stabilise" in v.note


def test_classify_periodic_gate():
    from affinesde.model import CallableDrift
    stable = CallableDrift(fn=lambda t: np.array([[-1.0 + math.cos(t)]]),
                           d=1, period=2 * math.pi)
    v = classify(scalar(ExpDecay(1.0, 1.0)), stable)
    assert v.regime == "StableAS"
    neutral = CallableDrift(fn=lambda t: np.array([[math.sin(t)]]), d=1,
                            period=2 * math.pi)
    v = classify(scalar(ExpDecay(1.0, 1.0)), neutral)
    assert v.regime == "Undecided" and not v.drift_stable


def test_classify_table_undecided():
    spec = DiffusionSpec.table([0.0, 1.0], [[[1.0]], [[0.5]]])
    v = classify(spec, ConstantDrift([[-1.0]]))
    assert v.regime == "Undecided" and v.drift_stable


@pytest.mark.parametrize("spec,regime", [
    (scalar(ExpDecay(1.0, 1.0)), "StableAS"),
    (scalar(LogPower(1.0)), "BoundedNonConvergent"),
    (DiffusionSpec.constant([[1.0]]), "Unbounded"),
    # eps* = sqrt(2 h gamma) far outside [2^-8, 2^8]
    (scalar(LogPower(1e-6)), "BoundedNonConvergent"),
    (scalar(LogPower(1e5)), "BoundedNonConvergent"),
])
def test_classify_h_independent(spec, regime):
    drift = ConstantDrift([[-1.0]])
    for h in (1.0, 2.0):
        v = classify(spec, drift, h=h)
        assert v.regime == regime
        if regime == "BoundedNonConvergent":
            F = float(np.sum(spec.form.pattern ** 2))
            eps_star = math.sqrt(2.0 * h * spec.form.envelope.gamma * F)
            lo, hi = v.epsilon_star_bracket
            assert lo <= eps_star * (1 + 1e-3) and hi >= eps_star * (1 - 1e-3)


def test_mills_band_once_ratio_large():
    # Mills equivalence: term_S / term_Sprime * eps * sqrt(2 pi) enters the
    # 1% band once eps/theta clears ~10 (see the asymptotic series
    # 1 - x^-2 + 3 x^-4 - ...)
    spec = scalar(LogPower(1.0))
    eps, h = 3.0, 1.0
    from affinesde.model import window_intensity
    th2 = window_intensity(spec, h, 200_000).values[1:]
    x = eps / np.sqrt(th2)
    sel = x > 10.1
    assert np.any(sel)
    ratios = np.array([term_S(eps, t) / term_Sprime(eps, t) * eps * SQRT_2PI
                       for t in th2[sel]])
    assert np.all((ratios > 0.99) & (ratios < 1.01))


# ---------------------------------------------------------------------------
# norm independence
# ---------------------------------------------------------------------------

def test_norm_equiv_logpower():
    spec = DiffusionSpec.envelope(LogPower(1.0), [[1.0, 0.5], [0.0, 1.0]])
    for alt in ("max-entry", "spectral"):
        rep = norm_equiv_check(spec, 1.0, alt)
        assert rep.classes_agree and rep.class_frobenius == "mixed"


def test_norm_equiv_trivial_cases():
    zero = DiffusionSpec.constant(np.zeros((2, 2)))
    rep = norm_equiv_check(zero, 1.0, "max-entry")
    assert rep.status_frobenius == FINITE and rep.status_alt == FINITE
    const = DiffusionSpec.constant(np.eye(2))
    rep = norm_equiv_check(const, 1.0, "spectral")
    assert rep.status_frobenius == INFINITE and rep.status_alt == INFINITE
    assert rep.classes_agree


def test_criterion_report_roundtrip():
    rep = criteria.criterion_report(scalar(ExpDecay(1.0, 1.0)), n_terms=32,
                                    t_max=8.0)
    d = rep.to_dict()
    assert d["fading"] is True and d["L_h"] == 0.0
    assert all(r["status"] == "finite" for r in d["sum_rulings"])
    assert all(r["status"] == "finite" for r in d["integral_rulings"])
