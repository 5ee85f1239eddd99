import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from affinesde import criteria, model
from affinesde.criteria import (BOUNDED, FINITE, INFINITE, REGIME_UNDECIDED,
                                STABLE, UNBOUNDED, UNDECIDED, RegimeVerdict,
                                build_max_sequence,
                                build_min_sequence, check_fading, classify,
                                decide_I, decide_Sprime, integral_I, limit_Lh,
                                mills_tail,
                                norm_equiv_check, partial_sum_Sprime,
                                rowwise_sum_S1, sum_general_grid, term_S,
                                term_Sprime)
from affinesde.linalg import monodromy, step_propagators
from affinesde.model import (ConstantDrift, DiffusionSpec, ExpDecay, LogPower,
                             PeriodicDrift, PowerLaw,
                             QuadratureError, eval_drift, interval_integrals,
                             row_interval_integrals)
from affinesde.simulate import SimConfig, prepare, step_covariance

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
    # at x = 38 the value (~2.9e-316) is subnormal; erfc keeps it positive,
    # monotone and accurate there
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
    # elementwise over an array, with the same values as the scalar calls
    th2 = np.array([0.0, 1.0, eps * eps, 1e-300])
    np.testing.assert_array_equal(term_Sprime(eps, th2),
                                  [term_Sprime(eps, v) for v in th2])
    with pytest.raises(ValueError):
        term_S(0.0, 1.0)
    with pytest.raises(ValueError):
        term_Sprime(1.0, -1.0)
    with pytest.raises(ValueError):
        term_Sprime(1.0, np.array([1.0, -1.0]))
    # a NaN energy (an overflowed table energy once was one) is no zero term
    with pytest.raises(ValueError, match="not NaN"):
        term_Sprime(1.0, [1.0, math.nan])


def test_term_sprime_takes_an_array_of_eps():
    # one row of terms per eps, each bit for bit the scalar eps's row
    eps = np.array([0.25, 1.0, 1.7, 40.0])
    th2 = np.array([0.0, 1.0, 2.89, 1e-300, 1e3])
    rows = term_Sprime(eps, th2)
    assert rows.shape == (4, 5)
    for e, row in zip(eps, rows):
        np.testing.assert_array_equal(row, term_Sprime(e, th2))
    np.testing.assert_array_equal(term_Sprime(eps, 2.89),
                                  [term_Sprime(e, 2.89) for e in eps])
    for bad in ([1.0, 0.0], [[1.0]], [1.0, math.nan]):
        with pytest.raises(ValueError):
            term_Sprime(bad, th2)


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


def _least_m(q):
    """The least m >= 1 with q (m + 1/2) > 1.25, by counting."""
    m = 1
    while q * (m + 0.5) <= 1.25:
        m += 1
    return m


def test_power_bound_takes_the_least_m_in_closed_form():
    # q (m + 1/2) > 1.25 strictly: q = 0.5, from PowerLaw(1, -0.25), takes
    # m = 3, where ceil(1.25/q - 0.5) gives 2.  The q where 1.25/q - 0.5 is
    # whole, and their neighbours a rounding away, are where a closed form
    # slips
    qs = [0.5, 2.5, 1.3, 0.003, 1e-3]
    for k in range(1, 400):
        q = 1.25 / (k + 0.5)
        qs += [q, math.nextafter(q, 0.0), math.nextafter(q, 1.0)]
    for q in qs:
        m = _least_m(q)
        assert model._exp_minus_power_bound(1.0, 0.0, q)[1] == q * (m + 0.5), q
    log_coeff, p = model._exp_minus_power_bound(0.5, math.log(3.0), 0.5)
    assert p == 1.75
    assert log_coeff == pytest.approx(math.log(6.0 * 8.0 ** 3 * 3.0 ** 3.5),
                                      rel=1e-14)


@pytest.mark.parametrize("alpha", [-1e-12, -1e-6, -0.001, -0.003])
def test_slow_power_law_tail_bound_beyond_the_double_range(alpha):
    # the tail bound m! (2/eps^2)^m base^(m+1/2) (1+T)^(1-p) / (p-1) / h
    # leaves the double range as alpha -> 0 (m ~ 0.6/|alpha|), but stays
    # finite: its log10 is reported, here against mpmath at the counted m
    # (the count takes seconds at alpha = -1e-6, so that one is checked in
    # closed form)
    mp = pytest.importorskip("mpmath")
    spec = DiffusionSpec.envelope(PowerLaw(1.0, alpha), np.eye(2))
    assert classify(spec, _A2).regime == STABLE
    eps, h, N = 1.0, 1.0, 256
    r = decide_Sprime(spec, eps, h, N)
    assert r.status == FINITE and r.tail_bound is None
    assert r.total_upper is None
    q = -2.0 * alpha
    m = _least_m(q) if alpha <= -1e-3 else math.floor(1.25 / q - 0.5) + 1
    p = q * (m + 0.5)
    base = 2.0 * h             # mass = h F with F = 2 for I
    exact = (mp.loggamma(m + 1) + m * mp.log(2 / mp.mpf(eps) ** 2)
             + (m + 0.5) * mp.log(base) + (1 - p) * mp.log(1 + N * h)
             - mp.log(p - 1) - mp.log(h)) / mp.log(10)
    assert r.tail_bound_log10 > 308
    assert r.tail_bound_log10 == pytest.approx(float(exact), rel=1e-12)
    # in the report, a finite ruling gives its bound or, where that leaves
    # the double range, the bound's log10
    rep = criteria.criterion_report(spec).to_dict()
    for ruling in rep["sum_rulings"] + rep["integral_rulings"]:
        assert ruling["status"] == FINITE
        assert ("tail_bound" in ruling) != ("tail_bound_log10" in ruling)
        assert ruling.get("tail_bound_log10", math.inf) > 308


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


def test_integral_expdecay_against_mpmath_oracle():
    # a narrow peak at t = 0 that a coarse rule misses
    mp = pytest.importorskip("mpmath")

    def g(t):   # the window energy at t is (1 - e^-2) e^{-2t} for this sigma
        v = (1 - mp.e ** -2) * mp.e ** (-2 * t)
        return mp.sqrt(v) * mp.e ** (-8 / v)

    with mp.workdps(30):
        oracle = float(mp.quad(g, [0, 0.25, 0.5, 1, 2, 4, 8, 256]))
    assert oracle == pytest.approx(4.1943e-6, rel=1e-4)
    spec = DiffusionSpec.envelope(ExpDecay(1.0, 1.0), np.eye(2))
    # an absolute error of tol * t_max would be most of I at tol = 1e-8
    for tol in (1e-8, 1e-10):
        val = integral_I(spec, 4.0, 1.0, 256.0, tol=tol)
        assert val == pytest.approx(oracle, rel=1e-6), tol


@pytest.mark.parametrize("lam", [10.0, 20.0, 30.0, 60.0, 300.0])
def test_integral_fast_fading_against_mpmath_oracle(lam):
    # ExpDecay(1, lam) on I_2 has window energy v0 e^{-2 lam t}, with
    # v0 = (1 - e^{-2 lam}) / lam.  With the energy s as variable, I over
    # [0, inf) is G(v0) / (2 lam) for G(s) = 2 sqrt(s) e^{-a/s} -
    # 2 sqrt(pi a) erfc(sqrt(a/s)), a = eps^2 / 2, G(0) = 0; the part past
    # t_max = 256 is below exp(-a e^{512 lam} / v0), nothing in double.
    # The peak at t = 0 narrows as lam grows: uniform panels in t either
    # never converged (lam 10 to 30) or saw only zeros (lam >= 60).
    mp = pytest.importorskip("mpmath")
    eps = np.array([0.5, 1.0, 2.0, 4.0])
    spec = DiffusionSpec.envelope(ExpDecay(1.0, lam), np.eye(2))
    val = integral_I(spec, eps, 1.0, 256.0, tol=1e-8)
    with mp.workdps(80):
        L = mp.mpf(lam)
        v0 = (1 - mp.exp(-2 * L)) / L

        def G(s, a):
            return 2 * mp.sqrt(s) * mp.exp(-a / s) - \
                2 * mp.sqrt(mp.pi * a) * mp.erfc(mp.sqrt(a / s))

        for e, v in zip(eps, val):
            a = mp.mpf(e) ** 2 / 2
            oracle = float(G(v0, a) / (2 * L))
            if oracle == 0.0:      # below the double range: nothing to see
                assert v == 0.0
            else:
                assert v == pytest.approx(oracle, rel=1e-8), (lam, e)


def test_integral_logpower_against_midpoint_oracle():
    # independent oracle: composite midpoint rule at steps h and h/2 with
    # Richardson extrapolation of the O(h^2) error

    def midpoint(step):
        mids = np.arange(step / 2, 1000.0, step)
        vs = interval_integrals(scalar(LogPower(1.0)), mids, mids + 1.0, 1e-11)
        return step * sum(term_Sprime(2.0, v) for v in vs)

    m1, m2 = midpoint(0.25), midpoint(0.125)
    oracle = (4.0 * m2 - m1) / 3.0
    val = integral_I(scalar(LogPower(1.0)), 2.0, 1.0, 1000.0, tol=1e-10)
    assert val == pytest.approx(oracle, rel=1e-6)


def test_integral_raises_on_quadrature_error():
    # a rough table makes the running energy kinked at every knot and at
    # every knot minus c: at 2^12 panels two levels still differ by ~7e-6,
    # far above the allowed ~2e-9
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
    scalar(LogPower(1.0, -1.0)),    # ln(e+t)^0.5
    scalar(PowerLaw(1.0, 0.5)),
    DiffusionSpec.constant([[1.0]]),
    DiffusionSpec.constant([[0.0]]),
])
def test_sum_and_integral_rulings_agree(spec):
    eps = [0.25, 1.0, 1.4, 1.5, 4.0]
    sums = decide_Sprime(spec, eps, 1.0, n_terms=32)
    ints = decide_I(spec, eps, 1.0, t_max=16.0, tol=1e-6)
    assert len(sums) == len(ints) == len(eps)
    for e, a, b in zip(eps, sums, ints):
        assert a.status == b.status
        # the array path gives each eps the ruling of its own call: the sum
        # bit for bit, and the integral the same ruling on a partial value
        # that the shared level sequence may refine further
        assert a == decide_Sprime(spec, e, 1.0, n_terms=32)
        one = decide_I(spec, e, 1.0, t_max=16.0, tol=1e-6)
        assert (b.eps, b.status, b.n_terms, b.tail_bound, b.witness) == \
            (one.eps, one.status, one.n_terms, one.tail_bound, one.witness)
        assert b.partial_value == pytest.approx(
            one.partial_value, rel=1e-6 * 16.0, abs=1e-6 * 16.0)


def test_partial_sum_and_integral_take_an_array_of_eps():
    spec = scalar(LogPower(1.0))
    eps = np.array([0.5, 2.0, 4.0])
    val, terms = partial_sum_Sprime(spec, eps, 1.0, 64)
    assert val.shape == (3,) and terms.shape == (3, 64)
    for e, v, row in zip(eps, val, terms):
        one, one_terms = partial_sum_Sprime(spec, e, 1.0, 64)
        assert isinstance(one, float) and v == one
        np.testing.assert_array_equal(row, one_terms)
    ints = integral_I(spec, eps, 1.0, 64.0)
    assert ints.shape == (3,)
    for e, v in zip(eps, ints):
        assert v == pytest.approx(integral_I(spec, e, 1.0, 64.0), rel=1e-9)
    assert isinstance(integral_I(spec, 2.0, 1.0, 64.0), float)


@pytest.mark.parametrize("spec", [
    scalar(ExpDecay(1.0, 1.0)),                # StableAS
    scalar(LogPower(1.0)),                     # BoundedNonConvergent
    scalar(PowerLaw(1.0, 0.5)),                # Unbounded: a witness floor
    DiffusionSpec.constant([[1.0]]),
])
def test_report_computes_the_energies_once_for_every_eps(spec, monkeypatch):
    # the window energies do not depend on eps: a report over 8 eps makes
    # as many interval_integrals calls as a report over one
    real, calls, counts = criteria.interval_integrals, [], []
    monkeypatch.setattr(criteria, "interval_integrals",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    for eps in ([2.0], 2.0 ** np.arange(-3, 5)):
        calls.clear()
        criteria.criterion_report(spec, eps_values=eps, n_terms=32,
                                  t_max=16.0)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_fading_unbounded_noise_has_a_decay_witness():
    # LogPower(1, 1/2): window energies theta^2(n) >= 1 / ln(e+t+1)^(1/2)
    # with t = n h, L_w = 1, so at eps = 1 (start 1 <= ln(e+t+1) always)
    # every term is at least ln(e+t+1)^(-1/4) (e+t+1)^(-1/2), a divergent
    # sum; the floor witness of non-fading noise (a constant energy) would
    # be false here
    spec = scalar(LogPower(1.0, 0.5))
    eps = [0.5, 1.0, 4.0]
    for rulings in (decide_Sprime(spec, eps, 1.0, n_terms=32),
                    decide_I(spec, eps, 1.0, t_max=16.0, tol=1e-6)):
        for r in rulings:
            assert r.status == INFINITE
            assert r.witness.startswith("window energies are >= "
                                        "L_w/ln(e+t+w)^q with L_w = 1 and "
                                        "q = 0.5 < 1, so once ln(e+t+w) >= ")
    assert "(eps^2/L_w)^(1/(1-q)) = 1 each term" in rulings[1].witness
    assert "(eps^2/L_w)^(1/(1-q)) = 256 each term" in rulings[2].witness
    n = np.array([1.0, 10.0, 1e3, 1e6, 1e9])
    theta_sq = interval_integrals(spec, n, n + 1.0, 1e-12)
    span = math.e + n + 1.0
    assert np.all(theta_sq >= 1.0 / np.sqrt(np.log(span)))
    assert np.all(term_Sprime(1.0, theta_sq)
                  >= np.log(span) ** -0.25 * span ** -0.5)
    # a start beyond the double range is given as a power of e
    r = decide_Sprime(spec, 1e80, 1.0, n_terms=4)
    assert "(eps^2/L_w)^(1/(1-q)) = e^736.827 each term" in r.witness


@pytest.mark.parametrize("gamma", [1e-6, 0.01, 1.0, 100.0, 1e5])
def test_criterion_report_brackets_eps_star(gamma):
    # eps* = sqrt(2 h gamma F) with F = 1 for I / sqrt(2), wherever it
    # falls against the fixed eps values (0.5, 1, 2, 4): the rulings turn
    # from Infinite at eps* and below to Finite above, in both criteria
    spec = DiffusionSpec.envelope(LogPower(gamma), np.eye(2) / math.sqrt(2.0))
    star = classify(spec, _A2).epsilon_star_bracket[0]
    rep = criteria.criterion_report(spec)
    assert rep.eps_values == (0.5, 1.0, 2.0, 4.0, star / 2, star, 2 * star)
    for rulings in (rep.sum_rulings, rep.integral_rulings):
        status = {r.eps: r.status for r in rulings}
        assert status[star] == INFINITE
        assert all(s == (FINITE if e > star else INFINITE)
                   for e, s in status.items())


def test_criterion_report_eps_values():
    # h and c have a threshold each; a value already present is not
    # repeated; given values are reported as given; other regimes keep the
    # fixed four
    spec = DiffusionSpec.envelope(LogPower(2.0), [[1.0]])
    rep = criteria.criterion_report(spec, h=1.0, c=4.0, n_terms=16,
                                    t_max=16.0)
    assert rep.eps_values == (0.5, 1.0, 2.0, 4.0, 8.0)
    sums = {r.eps: r.status for r in rep.sum_rulings}
    ints = {r.eps: r.status for r in rep.integral_rulings}
    assert sums == {0.5: INFINITE, 1.0: INFINITE, 2.0: INFINITE,
                    4.0: FINITE, 8.0: FINITE}
    assert ints == {0.5: INFINITE, 1.0: INFINITE, 2.0: INFINITE,
                    4.0: INFINITE, 8.0: FINITE}
    rep = criteria.criterion_report(spec, eps_values=(3.0, 0.25), n_terms=16,
                                    t_max=16.0)
    assert rep.eps_values == (3.0, 0.25)
    assert [r.eps for r in rep.sum_rulings] == [3.0, 0.25]
    for other in (scalar(ExpDecay(1.0, 1.0)), scalar(LogPower(1.0, 0.5)),
                  DiffusionSpec.constant([[1.0]])):
        rep = criteria.criterion_report(other, n_terms=16, t_max=16.0)
        assert rep.eps_values == (0.5, 1.0, 2.0, 4.0)


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
    assert check_fading(scalar(ExpDecay(1.0, 1.0)), 1.0) is True
    assert check_fading(DiffusionSpec.constant([[1.0]]), 1.0) is False
    assert check_fading(scalar(LogPower(1.0)), 1.0) is True
    assert check_fading(scalar(LogPower(1.0, 0.5)), 1.0) is True
    assert check_fading(scalar(LogPower(1.0, -2.0)), 1.0) is False  # ln(e+t)


def test_check_fading_table_trend():
    # hold-last extrapolation makes a table's far tail its last value, so it
    # fades exactly when that value is zero, whatever the knots before it
    t = np.linspace(0.0, 200.0, 100)
    decaying = DiffusionSpec.table(t, np.exp(-0.1 * t)[:, None, None])
    flat = DiffusionSpec.table([0.0, 1.0], [[[1.0]], [[1.0]]])
    dead = DiffusionSpec.table([0.0, 1.0, 3.0], [[[1.0]], [[2.0]], [[0.0]]])
    for h in (0.25, 1.0, 8.0):
        assert check_fading(decaying, h) is False
        assert check_fading(flat, h) is False
        assert check_fading(dead, h) is True


def _step_table(hold):
    # 10 I up to t = 2, falling to hold * I at t = 4 and held there
    return DiffusionSpec.table([0.0, 1.0, 2.0, 4.0],
                               [10.0 * np.eye(2)] * 3 + [hold * np.eye(2)])


def test_table_fading_and_L_h_follow_the_hold_value():
    drift = ConstantDrift([[-1.0, 0.5], [0.0, -2.0]])
    for hold, fading, L_h in ((1.0, False, math.inf), (0.0, True, 0.0)):
        spec = _step_table(hold)
        v = classify(spec, drift)
        assert v.regime == REGIME_UNDECIDED
        assert v.fading_noise is fading and v.mean_square_stable is fading
        rep = criteria.criterion_report(spec, n_terms=16, t_max=16.0).to_dict()
        assert rep["fading"] is fading and rep["L_h"] == L_h
        for h in (0.5, 1.0, 2.0):
            assert check_fading(spec, h) is fading
            assert limit_Lh(spec, h) == L_h


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
    # -1 + cos t on 16 uniform knots has the trapezoid mean -1, so the
    # multiplier e^{-2 pi}; a zero drift's is 1 exactly, which the gate
    # refuses
    period = 2 * math.pi
    times = [period * k / 16 for k in range(16)]
    stable = PeriodicDrift(period=period, times=times,
                           values=[[[-1.0 + math.cos(t)]] for t in times])
    v = classify(scalar(ExpDecay(1.0, 1.0)), stable)
    assert v.regime == "StableAS"
    neutral = PeriodicDrift(period=period, times=[0.0], values=[[[0.0]]])
    v = classify(scalar(ExpDecay(1.0, 1.0)), neutral)
    assert v.regime == "Undecided" and not v.drift_stable
    assert v.note.startswith("Floquet multiplier spectral radius 1 >= 1")


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
            F = float(np.sum(spec.pattern ** 2))
            eps_star = math.sqrt(2.0 * h * spec.envelope.gamma * F)
            lo, hi = v.epsilon_star_bracket
            assert lo <= eps_star * (1 + 1e-3) and hi >= eps_star * (1 - 1e-3)


_A2 = ConstantDrift([[-1.0, 0.5], [0.0, -2.0]])
_GATE_NOTE = ("spectral abscissa >= 0: the unperturbed system is not "
              "asymptotically stable and additive noise cannot stabilise it")


@pytest.mark.parametrize("sigma,drift,expected", [
    (scalar(ExpDecay(1.0, 1.0)), ConstantDrift([[-1.0]]),
     RegimeVerdict(STABLE, True, True, True, True, True)),
    (DiffusionSpec.constant([[0.0]]), ConstantDrift([[-1.0]]),
     RegimeVerdict(STABLE, True, True, True, True, True)),
    (DiffusionSpec.envelope(LogPower(1.0), np.eye(2) / math.sqrt(2.0)), _A2,
     RegimeVerdict(BOUNDED, True, True, True, True, True,
                   (math.sqrt(2.0), math.sqrt(2.0)))),
    (DiffusionSpec.constant([[1.0]]), ConstantDrift([[-1.0]]),
     RegimeVerdict(UNBOUNDED, True, False, False, False, False)),
    (DiffusionSpec.table([0.0, 1.0], [[[1.0]], [[0.5]]]),
     ConstantDrift([[-1.0]]),
     RegimeVerdict(REGIME_UNDECIDED, True, False, False, False, False,
                   note="finiteness undecided for this sigma form")),
    # fading noise on a drift that is not stable: E X^2 grows like e^{0.2 t}
    # on [[0.1]] and stays at least x0^2 on [[0]], so no mean-square
    # stability
    (scalar(ExpDecay(1.0, 1.0)), ConstantDrift([[0.1]]),
     RegimeVerdict(REGIME_UNDECIDED, False, True, False, False, False,
                   note=_GATE_NOTE)),
    (scalar(ExpDecay(1.0, 1.0)), ConstantDrift([[0.0]]),
     RegimeVerdict(REGIME_UNDECIDED, False, True, False, False, False,
                   note=_GATE_NOTE)),
    # ||sigma||^2 = 2 / ln(e+t)^p on I: the threshold eps* = sqrt(2 h 2) at
    # p = 1, the abstract's a.s. unstable solutions that are mean-square
    # stable for p in (0, 1), and noise that does not fade for p <= 0
    (DiffusionSpec.envelope(LogPower(1.0, 1.0), np.eye(2)), _A2,
     RegimeVerdict(BOUNDED, True, True, True, True, True, (2.0, 2.0))),
    (DiffusionSpec.envelope(LogPower(1.0, 0.5), np.eye(2)), _A2,
     RegimeVerdict(UNBOUNDED, True, True, True, True, True)),
    (DiffusionSpec.envelope(LogPower(1.0, -1.0), np.eye(2)), _A2,
     RegimeVerdict(UNBOUNDED, True, False, False, False, False)),
], ids=["exp-decay", "zero", "log-power", "constant", "table",
        "unstable-drift", "marginal-drift", "log-power-1", "log-power-half",
        "log-power-minus-1"])
def test_classify_verdict_table(sigma, drift, expected):
    v = classify(sigma, drift)
    bracket = expected.epsilon_star_bracket
    if bracket is not None:
        assert v.epsilon_star_bracket == pytest.approx(bracket, rel=1e-12)
        v = dataclasses.replace(v, epsilon_star_bracket=bracket)
    assert v == expected


def test_zero_claims_follow_the_abstract():
    # "In the case of stable or bounded solutions, or when solutions are
    # a.s. unstable asymptotically stable in mean square, it follows that the
    # norm of the solution has zero liminf, by virtue of the fact that
    # ||X||^2 has zero pathwise average a.s." (the paper's abstract).  Each
    # row gives (liminf_zero_predicted, avg_sq_zero_predicted); StableAS and
    # BoundedNonConvergent come with fading noise only
    assert criteria._ZERO_CLAIMS == {
        (STABLE, True): (True, True),               # stable solutions
        (BOUNDED, True): (True, True),              # bounded solutions
        (UNBOUNDED, True): (True, True),     # unstable, mean-square stable
        (UNBOUNDED, False): (False, False),         # nothing claimed
        (REGIME_UNDECIDED, True): (False, False),   # not predicted
        (REGIME_UNDECIDED, False): (False, False),  # not predicted
    }


@pytest.mark.parametrize("sigma", [
    DiffusionSpec.envelope(PowerLaw(1.0, -0.8), np.eye(2)),
    DiffusionSpec.envelope(ExpDecay(1.0, 1.0), np.eye(2)),
    DiffusionSpec.constant(np.zeros((2, 2))),
], ids=["power-law", "exp-decay", "zero"])
def test_stable_verdicts_predict_zero_liminf_and_average(sigma):
    # X -> 0 a.s. gives liminf ||X|| = 0 and a zero average of ||X||^2
    v = classify(sigma, _A2)
    assert v.regime == STABLE
    assert v.liminf_zero_predicted and v.avg_sq_zero_predicted


class _MatrixOfTime:
    """A drift-like object that is neither a ConstantDrift nor a
    PeriodicDrift, with a period and a dimension for code that looks."""

    d, period, times = 1, 1.0, np.zeros(1)


@pytest.mark.parametrize("call", [
    lambda drift: eval_drift(drift, 0.5),
    lambda drift: classify(scalar(ExpDecay(1.0, 1.0)), drift),
    lambda drift: monodromy(drift),
    lambda drift: prepare(drift, scalar(ExpDecay(1.0, 1.0)),
                          SimConfig(dt=0.5, t_end=1.0, paths=1, seed=0)),
    lambda drift: step_covariance(drift, scalar(ExpDecay(1.0, 1.0)), 0.0, 0.5),
    lambda drift: step_propagators(drift, [0.0], 0.5),
], ids=["eval_drift", "classify", "monodromy", "prepare",
        "step_covariance", "step_propagators"])
def test_other_drifts_raise_a_type_error(call):
    # the classification covers constant and periodic drifts only: any other
    # object raises one TypeError naming its type, before any work
    with pytest.raises(TypeError, match="^drift must be a ConstantDrift or "
                                        "a PeriodicDrift, got _MatrixOfTime$"):
        call(_MatrixOfTime())


def test_mills_band_once_ratio_large():
    # Mills equivalence: term_S / term_Sprime * eps * sqrt(2 pi) enters the
    # 1% band once eps/theta clears ~10 (see the asymptotic series
    # 1 - x^-2 + 3 x^-4 - ...)
    spec = scalar(LogPower(1.0))
    eps, h = 3.0, 1.0
    n = 200_000
    th2 = interval_integrals(spec, h * np.arange(n),
                             h * np.arange(1, n + 1))[1:]
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
        assert rep.classes_agree and rep.class_frobenius == BOUNDED


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


def test_classify_rejects_a_sigma_that_is_no_form():
    with pytest.raises(TypeError, match="EnvelopePattern or a TableSigma, "
                                        "got object"):
        classify(object(), _A2)
