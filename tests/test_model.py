import dataclasses
import math

import numpy as np
import pytest

from affinesde.model import (ENVELOPE_FAMILIES, GL_MAX_LEVEL, GL_NODES,
                             ConstantDrift, DiffusionSpec, EnvelopePattern,
                             ExpDecay, LogPower, PeriodicDrift,
                             PowerLaw, QuadratureError, TableSigma, _table_at,
                             eval_drift, eval_sigma, frobenius_sq,
                             gauss_legendre, gauss_legendre_rule,
                             interval_integrals, row_interval_integrals,
                             sigma_fro_sq, sigma_row_sq)


# ---------------------------------------------------------------------------
# envelopes and pointwise evaluation
# ---------------------------------------------------------------------------

def test_envelope_values_at_zero():
    assert PowerLaw(2.0, -1.0).value(0.0) == pytest.approx(2.0)
    assert LogPower(2.0).value(0.0) == pytest.approx(math.sqrt(2.0))
    assert ExpDecay(3.0, 1.0).value(0.0) == pytest.approx(3.0)
    assert LogPower(1.0, -2.0).value(0.0) == pytest.approx(1.0)   # ln(e+t)


def test_envelope_values_vectorized():
    t = np.array([0.0, 1.0, 4.0])
    np.testing.assert_allclose(PowerLaw(1.0, -0.5).value(t), (1 + t) ** -0.5)
    np.testing.assert_allclose(ExpDecay(2.0, 0.5).value(t), 2 * np.exp(-0.5 * t))


def test_logpower_power_one_is_the_default_bit_for_bit():
    t = np.array([0.0, 0.37, 1.0, 4.0, 1e3, 1e6])
    for gamma in (1e-6, 0.5, 1.0, 1e5):
        bare = np.sqrt(gamma / np.log(math.e + t))
        np.testing.assert_array_equal(LogPower(gamma).value(t), bare)
        np.testing.assert_array_equal(LogPower(gamma, 1.0).value(t), bare)
    np.testing.assert_allclose(LogPower(2.0, 0.5).value(t),
                               np.sqrt(2.0 / np.sqrt(np.log(math.e + t))),
                               rtol=1e-15)


def test_logpower_profile_per_power_range():
    # (regime, L per unit squared pattern norm, fading)
    assert LogPower(2.0).profile() == ("BoundedNonConvergent", 2.0, True)
    assert LogPower(2.0, 0.5).profile() == ("Unbounded", math.inf, True)
    assert LogPower(2.0, 1e-9).profile() == ("Unbounded", math.inf, True)
    assert LogPower(2.0, 0.0).profile() == ("Unbounded", math.inf, False)
    assert LogPower(2.0, -1.0).profile() == ("Unbounded", math.inf, False)
    assert LogPower(0.0, 0.5).profile() == ("zero", 0.0, True)


@pytest.mark.parametrize("power", [1.5, float(np.nextafter(1.0, 2.0))])
def test_logpower_power_above_one_raises(power):
    # StableAS log noise, whose tail bound is still open
    with pytest.raises(ValueError, match="ROADMAP item 2"):
        LogPower(1.0, power)


_VALID_ENVELOPES = {PowerLaw: PowerLaw(1.0, -0.5), LogPower: LogPower(1.0),
                    ExpDecay: ExpDecay(1.0, 1.0)}

# the growing log envelope k ln(e+t)^beta is spelled LogPower(1, -2 beta) on
# the pattern k P: a non-finite beta is a non-finite power, a non-finite k a
# non-finite pattern
_LOGGROW_SPELLING = {
    "scale": ("matrix entries must be finite",
              lambda k: DiffusionSpec.envelope(LogPower(1.0, -1.0), [[k]])),
    "exponent": ("LogPower power must be finite",
                 lambda beta: LogPower(1.0, -2.0 * beta)),
}


@pytest.mark.parametrize("family,field", [
    (family, f.name) for family in ENVELOPE_FAMILIES
    for f in dataclasses.fields(family)] + [
    ("LogGrow", field) for field in _LOGGROW_SPELLING],
    ids=lambda x: x if isinstance(x, str) else x.__name__)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_envelope_rejects_nonfinite_parameters(family, field, bad):
    if family == "LogGrow":
        message, build = _LOGGROW_SPELLING[field]
        with pytest.raises(ValueError, match=message):
            build(bad)
        return
    valid = _VALID_ENVELOPES[family]
    message = f"{family.__name__} {field} must be finite"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(valid, **{field: bad})


def test_eval_sigma_constant():
    spec = DiffusionSpec.constant([[0.3]])
    np.testing.assert_allclose(eval_sigma(spec, 5.0), [[0.3]])


def test_eval_sigma_logpower_at_zero():
    spec = DiffusionSpec.envelope(LogPower(2.0), [[1.0]])
    np.testing.assert_allclose(eval_sigma(spec, 0.0), [[math.sqrt(2.0)]])


def test_eval_sigma_table_midpoint():
    spec = DiffusionSpec.table([0.0, 2.0], [[[0.0]], [[4.0]]])
    np.testing.assert_allclose(eval_sigma(spec, 1.0), [[2.0]])


def test_eval_sigma_table_holds_last_value():
    spec = DiffusionSpec.table([0.0, 2.0], [[[0.0]], [[4.0]]])
    np.testing.assert_allclose(eval_sigma(spec, 100.0), [[4.0]])


def test_eval_sigma_rejects_bad_times():
    spec = DiffusionSpec.constant([[1.0]])
    with pytest.raises(ValueError):
        eval_sigma(spec, -1.0)
    with pytest.raises(ValueError):
        eval_sigma(spec, math.nan)


_VEC_TIMES = np.array([[0.0, 0.1, 0.37, 0.5],      # before the first knot,
                      [1.2, 2.0, 3.3, 5.0],        # on knots, between knots
                      [7.25, 40.0, 1e3, 0.2]])     # and after the last one
_VEC_SPECS = {
    "envelope": DiffusionSpec.envelope(PowerLaw(1.3, -0.3),
                                       [[1.0, 0.2, 0.0], [0.5, -1.0, 0.3]]),
    "constant": DiffusionSpec.constant([[1.0, 0.3], [0.0, 0.8]]),
    "table": DiffusionSpec.table([0.37, 1.2, 2.0, 5.0],
                                 [[[1.0, 0.0]], [[0.3, -2.0]],
                                  [[0.7, 0.1]], [[-0.5, 1.5]]]),
}


@pytest.mark.parametrize("name", sorted(_VEC_SPECS))
def test_eval_sigma_array_matches_scalar_calls(name):
    spec = _VEC_SPECS[name]
    got = eval_sigma(spec, _VEC_TIMES)
    assert got.shape == _VEC_TIMES.shape + (spec.d, spec.r)
    stacked = np.array([[eval_sigma(spec, float(t)) for t in row]
                        for row in _VEC_TIMES])
    assert np.array_equal(got, stacked)
    assert eval_sigma(spec, 0.5).shape == (spec.d, spec.r)
    fro, rows = sigma_fro_sq(spec, _VEC_TIMES), sigma_row_sq(spec, _VEC_TIMES)
    assert fro.shape == _VEC_TIMES.shape
    assert rows.shape == _VEC_TIMES.shape + (spec.d,)
    np.testing.assert_allclose(fro, np.sum(stacked ** 2, axis=(-2, -1)),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(rows, np.sum(stacked ** 2, axis=-1),
                               rtol=1e-15, atol=0.0)


def test_eval_sigma_table_knots_and_holds_are_exact():
    spec = _VEC_SPECS["table"]
    vals = spec.values
    got = eval_sigma(spec, np.array([0.0, 0.37, 1.2, 2.0, 5.0, 9.0]))
    assert np.array_equal(got, vals[[0, 0, 1, 2, 3, 3]])


@pytest.mark.parametrize("name", sorted(_VEC_SPECS))
def test_eval_sigma_array_rejects_bad_times(name):
    spec = _VEC_SPECS[name]
    for bad in (-1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="time must be"):
            eval_sigma(spec, np.array([0.0, 1.0, bad, 2.0]))


def test_constant_sigma_is_zero_exponent_powerlaw():
    spec = DiffusionSpec.constant([[1.0, 0.3], [0.0, 0.8]])
    assert spec.envelope == PowerLaw(1.0, 0.0)
    assert np.array_equal(spec.pattern, [[1.0, 0.3], [0.0, 0.8]])
    t = np.array([0.0, 1.0, 1e6])
    assert np.array_equal(eval_sigma(spec, t),
                          np.broadcast_to(spec.pattern, (3, 2, 2)))


def test_table_continuity_lipschitz():
    times = np.array([0.0, 1.0, 3.0])
    vals = np.array([[[0.0, 1.0]], [[2.0, -1.0]], [[2.0, 0.0]]])
    spec = DiffusionSpec.table(times, vals)
    # largest slope magnitude over any table segment bounds the modulus
    slopes = np.diff(vals, axis=0) / np.diff(times)[:, None, None]
    L = float(np.sqrt(np.max(np.sum(slopes ** 2, axis=(1, 2)))))
    delta = 1e-3
    for t in np.linspace(0.0, 4.0, 57):
        gap = eval_sigma(spec, t + delta) - eval_sigma(spec, t)
        assert math.sqrt(frobenius_sq(gap)) <= L * delta + 1e-12


def test_frobenius_sq():
    assert frobenius_sq([[3.0, 4.0]]) == pytest.approx(25.0)
    assert frobenius_sq(np.zeros((3, 2))) == 0.0
    assert frobenius_sq(np.eye(2)) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# windowed and weighted intensities
# ---------------------------------------------------------------------------

def windows(spec, h, n, tol=1e-10):
    """theta^2(k) = energy of [k h, (k+1) h] for k = 0..n-1."""
    return interval_integrals(spec, h * np.arange(n), h * np.arange(1, n + 1),
                              tol)


def test_window_intensity_constant():
    spec = DiffusionSpec.constant([[2.0]])
    wi = windows(spec, 0.5, 8)
    np.testing.assert_allclose(wi, 4.0 * 0.5)


def test_window_intensity_exponential_closed_form():
    spec = DiffusionSpec.envelope(ExpDecay(1.0, 1.0), [[1.0]])
    wi = windows(spec, 1.0, 3)
    e = math.e
    expect = [(1 - e ** -2) / 2 * e ** (-2 * n) for n in range(3)]
    np.testing.assert_allclose(wi, expect, atol=1e-10)


def test_window_intensity_zero():
    spec = DiffusionSpec.constant(np.zeros((2, 2)))
    wi = windows(spec, 1.0, 5)
    assert np.all(wi == 0.0)


@pytest.mark.parametrize("spec", [
    DiffusionSpec.envelope(LogPower(1.5), [[1.0, 0.5], [0.0, 1.0]]),
    DiffusionSpec.envelope(PowerLaw(2.0, -0.3), [[1.0]]),
    DiffusionSpec.table([0.0, 0.7, 2.0], [[[1.0]], [[0.2]], [[0.9]]]),
    DiffusionSpec.constant([[1.3]]),
])
def test_window_intensity_halving_additivity(spec):
    h = 0.5
    fine = windows(spec, h, 16, tol=1e-11)
    coarse = windows(spec, 2 * h, 8, tol=1e-11)
    np.testing.assert_allclose(coarse, fine[0::2] + fine[1::2],
                               atol=2e-11)


def test_window_intensity_matches_mpmath_for_logpower():
    mp = pytest.importorskip("mpmath")
    spec = DiffusionSpec.envelope(LogPower(1.0), [[1.0]])
    wi = windows(spec, 1.0, 3, tol=1e-12)
    for n in range(3):
        oracle = mp.quad(lambda s: 1.0 / mp.log(mp.e + s), [n, n + 1])
        assert wi[n] == pytest.approx(float(oracle), abs=1e-11)


# the squared envelopes, for mpmath at any precision; the id LogGrow names
# the growing case ln(e+t)^0.5, spelled LogPower(1, -1)
_MP_SQUARED = {
    LogPower(1.0): lambda mp, s: 1 / mp.log(mp.e + s),
    LogPower(1.0, -1.0): lambda mp, s: mp.log(mp.e + s),
    LogPower(1.0, 0.5): lambda mp, s: 1 / mp.sqrt(mp.log(mp.e + s)),
}


@pytest.mark.parametrize("env", list(_MP_SQUARED),
                         ids=["LogPower", "LogGrow", "LogPower-half"])
@pytest.mark.parametrize("t", [0.0, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("w", [1e-3, 1.0])
def test_window_energies_match_mpmath(env, t, w):
    # the documented tolerance: absolute tol, relative once the energy
    # exceeds 1
    mp = pytest.importorskip("mpmath")
    tol = 1e-12
    right = t + w   # the float window edge, which the oracle takes too
    got = interval_integrals(DiffusionSpec.envelope(env, [[1.0]]), [t],
                             [right], tol)[0]
    with mp.workdps(30):
        oracle = float(mp.quad(lambda s: _MP_SQUARED[env](mp, s),
                               [mp.mpf(t), mp.mpf(right)]))
    assert abs(got - oracle) <= tol * max(1.0, oracle)


def test_gauss_legendre_rule_levels():
    # level 0 is exact for polynomials of degree 2 GL_NODES - 1, and each
    # level halves the panels of the one before
    u, w = gauss_legendre_rule(0)
    assert len(u) == GL_NODES and np.sum(w) == pytest.approx(1.0, abs=1e-15)
    assert np.dot(w, u ** 23) == pytest.approx(1.0 / 24.0, rel=1e-14)
    u1, w1 = gauss_legendre_rule(1)
    np.testing.assert_array_equal(u1, np.concatenate([0.5 * u, 0.5 + 0.5 * u]))
    np.testing.assert_array_equal(w1, 0.5 * np.concatenate([w, w]))


def test_gauss_legendre_ends_a_zero_integrand_after_one_pair_of_levels():
    calls = []
    val = gauss_legendre(
        lambda u: calls.append(len(u)) or np.zeros((len(u), 2)),
        lambda v: 0.0)
    assert calls == [GL_NODES, 2 * GL_NODES]
    np.testing.assert_array_equal(val, [0.0, 0.0])
    zero = DiffusionSpec.constant(np.zeros((2, 2)))
    assert np.all(interval_integrals(zero, [0.0, 5.0], [1.0, 1e6]) == 0.0)


def test_gauss_legendre_rule_matches_leggauss():
    # the rule's literal nodes and weights are numpy's leggauss(12), within
    # 2 ulp for LAPACK builds whose eigensolver rounds differently
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    u, v = gauss_legendre_rule(0)
    for got, ref in ((u, 0.5 * (x + 1.0)), (v, 0.5 * w)):
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))


def test_gauss_legendre_raises_on_a_non_finite_level():
    # an overflowing integrand raises at the first level, whose value is
    # inf or NaN, instead of doubling the panels to the cap on NaN errors
    for bad in (math.inf, math.nan):
        calls = []
        with pytest.raises(QuadratureError, match="not finite at 1 panels"):
            gauss_legendre(lambda u: calls.append(len(u)) or
                           np.where(u > 0.5, bad, 1.0), lambda v: 1e-10)
        assert calls == [GL_NODES]
    # energies of 1e400 overflow at once
    with pytest.raises(QuadratureError, match="not finite"):
        interval_integrals(DiffusionSpec.envelope(PowerLaw(1e200, -0.5),
                                                  np.eye(2)), [0.0], [1.0])


def test_gauss_legendre_raises_past_its_cap():
    # 1/sqrt(u) is integrable, but the panel at 0 never converges
    with pytest.raises(QuadratureError, match=f"{2 ** GL_MAX_LEVEL} panels"):
        gauss_legendre(lambda u: 1.0 / np.sqrt(u), lambda v: 1e-12 * abs(v))


def test_gauss_legendre_compares_each_entry_with_its_own_bound():
    def f(u):
        return np.stack([np.exp(u), np.sqrt(u)], axis=-1)

    # one bound for every entry and the same bound per entry decide alike
    np.testing.assert_array_equal(
        gauss_legendre(f, lambda v: 1e-9),
        gauss_legendre(f, lambda v: np.full(2, 1e-9)))
    # a loose bound on the rough entry leaves the smooth one to its own
    val = gauss_legendre(f, lambda v: np.array([1e-13, 1e-4]))
    assert val[0] == pytest.approx(math.e - 1.0, rel=1e-13)
    assert val[1] == pytest.approx(2.0 / 3.0, abs=1e-4)
    # past the cap the error names the entry that misses its bound
    with pytest.raises(QuadratureError, match=r"exceeds 1\.000e-30 at 4096"):
        gauss_legendre(f, lambda v: np.array([1.0, 1e-30]))


def test_table_integral_exact_quadratic():
    # sigma(t) = 2t on [0, 2]: integral of (2t)^2 over [0, 1] is 4/3
    spec = DiffusionSpec.table([0.0, 2.0], [[[0.0]], [[4.0]]])
    assert interval_integrals(spec, [0.0], [1.0])[0] == \
        pytest.approx(4.0 / 3.0, abs=1e-13)


def _piecewise_simpson(spec, a, b):
    """Reference: Simpson's rule on every piece of [a, b] between knots."""
    ts = spec.times
    pts = np.concatenate(([a], ts[(ts > a) & (ts < b)], [b]))
    mids = 0.5 * (pts[:-1] + pts[1:])
    f0, fm, f1 = (sigma_fro_sq(spec, x) for x in (pts[:-1], mids, pts[1:]))
    return float(np.sum(np.diff(pts) * (f0 + 4.0 * fm + f1)) / 6.0)


def test_table_energies_match_piecewise_simpson_loop():
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(0.5, 30.0, size=40))
    spec = DiffusionSpec.table(times, rng.uniform(-1.0, 1.0, size=(40, 2, 3)))
    left = rng.uniform(0.0, 35.0, size=300)
    right = left + rng.exponential(4.0, size=300)
    # knots as end points, intervals inside one piece, and empty intervals
    left[:3], right[:3] = times[[0, 3, 9]], times[[1, 9, 39]]
    right[3:6] = left[3:6] + 1e-3
    right[6] = left[6]
    got = interval_integrals(spec, left, right)
    ref = np.array([_piecewise_simpson(spec, a, b) for a, b in zip(left, right)])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_table_row_energies_sum_to_frobenius_energies():
    rng = np.random.default_rng(6)
    times = np.sort(rng.uniform(0.0, 20.0, size=25))
    spec = DiffusionSpec.table(times, rng.uniform(-1.0, 1.0, size=(25, 3, 2)))
    left = rng.uniform(0.0, 25.0, size=100)
    right = left + rng.uniform(0.0, 5.0, size=100)
    rows = row_interval_integrals(spec, left, right)
    assert rows.shape == (100, 3)
    np.testing.assert_allclose(rows.sum(axis=1),
                               interval_integrals(spec, left, right),
                               rtol=1e-13, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("values", [[1e200, 1e200], [1e154, 1e154, 1.0]],
                         ids=["squares", "simpson-sum"])
def test_overflowing_table_energies_raise(values):
    # 1e200^2 overflows sigma^2 itself and 1e154^2 = 1e308 the Simpson sum;
    # either gave NaN energies (inf - inf, 0 inf) and two warnings
    spec = DiffusionSpec.table(np.arange(len(values), dtype=float), values)
    with pytest.raises(QuadratureError, match="table energy is not finite"):
        interval_integrals(spec, [0.0, 0.5], [1.0, 2.0])
    with pytest.raises(QuadratureError, match="table energy is not finite"):
        row_interval_integrals(spec, [0.0], [1.0])


def test_table_energies_keep_the_precision_of_the_covered_pieces():
    # the energy 1e10 of the knot pieces before the interval must not enter
    # its sum: [1.5, 2], [2, 3] and [3, 3.5] hold 0.5, 1 and 0.5 exactly
    spec = DiffusionSpec.table([0.0, 1.0, 1.000001, 2.0, 3.0, 4.0],
                               [[[1e10]], [[1e10]], [[1.0]], [[1.0]], [[1.0]],
                                [[1.0]]])
    assert interval_integrals(spec, [1.5, 2.0], [3.5, 4.0]).tolist() \
        == [2.0, 2.0]
    assert row_interval_integrals(spec, [1.5], [3.5]).tolist() == [[2.0]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_table_energies_away_from_an_overflowing_piece_are_finite():
    # the piece [0, 1] overflows sigma^2; the intervals after it do not
    # cover it and keep their energies, quietly, while one that covers any
    # of it still raises
    spec = DiffusionSpec.table([0.0, 1.0, 2.0, 3.0],
                               [[[1e200]], [[1e200]], [[1.0]], [[1.0]]])
    assert interval_integrals(spec, [2.0, 2.0], [2.5, 3.0]).tolist() \
        == [0.5, 1.0]
    assert row_interval_integrals(spec, [2.0], [2.5]).tolist() == [[0.5]]
    for left in (0.5, 1.5):
        with pytest.raises(QuadratureError, match="table energy is not "
                           "finite"):
            interval_integrals(spec, [2.0, left], [2.5, 3.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frobenius_sq_overflows_to_inf_quietly():
    assert frobenius_sq([[1e200, 0.0]]) == math.inf


def test_interval_integrals_validation():
    spec = DiffusionSpec.constant([[1.0]])
    with pytest.raises(ValueError):
        interval_integrals(spec, [-1.0], [0.0])
    with pytest.raises(ValueError):
        interval_integrals(spec, [1.0], [0.5])
    with pytest.raises(ValueError):
        interval_integrals(spec, [0.0], [1.0], tol=0.0)


# ---------------------------------------------------------------------------
# drifts
# ---------------------------------------------------------------------------

def test_constant_drift():
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    drift = ConstantDrift(A)
    assert drift.d == 2
    np.testing.assert_allclose(eval_drift(drift, 17.3), A)


def test_periodic_drift_wraps_exactly():
    drift = PeriodicDrift(period=2.0, times=[0.0, 1.0],
                          values=[np.array([[1.0]]), np.array([[-1.0]])])
    # dyadic offsets keep t + k*T exactly representable
    for t in (0.25, 0.75, 1.5):
        np.testing.assert_array_equal(eval_drift(drift, t),
                                      eval_drift(drift, t + 2.0))
        np.testing.assert_array_equal(eval_drift(drift, t),
                                      eval_drift(drift, t + 20.0))


def _searchsorted_drift(drift, t):
    """The periodic interpolation as a searchsorted lookup over the arrays."""
    tm = math.fmod(float(t), drift.period)
    if tm < 0:
        tm += drift.period
    ts, vs = drift.times, drift.values
    if tm >= ts[-1]:
        w = (tm - ts[-1]) / (drift.period - ts[-1])
        return np.array((1.0 - w) * vs[-1] + w * vs[0])
    i = int(np.searchsorted(ts, tm, side="right")) - 1
    w = (tm - ts[i]) / (ts[i + 1] - ts[i])
    return np.array((1.0 - w) * vs[i] + w * vs[i + 1])


def test_periodic_drift_matches_searchsorted_lookup_bit_for_bit():
    T = 2 * math.pi
    knots = [T * k / 16 for k in range(16)]
    drift = PeriodicDrift(
        period=T, times=knots,
        values=[np.array([[-1.0 + math.cos(t), 0.5], [0.0, -2.0 + math.sin(t)]])
                for t in knots])
    one = PeriodicDrift(period=3.0, times=[0.0], values=[[[-0.5]]])
    mids = [0.5 * (a + b) for a, b in zip(knots, knots[1:] + [T])]
    wrap = [knots[-1] + f * (T - knots[-1]) for f in (0.0, 0.3, 0.999)]
    ts = knots + mids + wrap + [-x for x in mids + wrap] + \
        [k * T for k in (-3, -1, 0, 1, 2, 7)] + [-1e-300, math.nextafter(T, 0)] + \
        [math.nextafter(k * T, s) for k in (-7, -1, 0, 1, 2, 1000)
         for s in (-math.inf, math.inf)]   # one ulp either side of k T
    for d in (drift, one):
        for t in ts + [0.7, 1.5, 2.9, -4.1, 1e6 + 0.1]:
            a, b = eval_drift(d, t), _searchsorted_drift(d, t)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b), (t, a, b)


def test_eval_drift_array_matches_scalar_calls():
    # an array of times gives t.shape + (d, d), each entry the scalar call's
    # bit for bit: on knots, at whole periods, at negative times and on the
    # wrap segment from the last knot back to the period
    T = 2 * math.pi
    knots = [T * k / 16 for k in range(16)]
    periodic = PeriodicDrift(
        period=T, times=knots,
        values=[np.array([[-1.0 + math.cos(t), 0.5], [0.0, -2.0 + math.sin(t)]])
                for t in knots])
    wrap = [knots[-1] + f * (T - knots[-1]) for f in (0.0, 0.3, 0.999)]
    ts = np.array(knots + wrap + [k * T for k in (-3, -1, 0, 1, 2, 7)] +
                  [-x for x in knots[1:] + wrap] +
                  [-1e-300, math.nextafter(T, 0), 0.7, 1e6 + 0.1])
    drifts = [
        periodic,
        PeriodicDrift(period=3.0, times=[0.0], values=[[[-0.5]]]),
        ConstantDrift([[-1.0, 0.5], [0.0, -2.0]])]
    for drift in drifts:
        got = eval_drift(drift, ts)
        assert got.shape == ts.shape + (drift.d, drift.d)
        for t, a in zip(ts, got):
            assert np.array_equal(a, eval_drift(drift, float(t))), (drift, t)
        assert eval_drift(drift, ts[:0]).shape == (0, drift.d, drift.d)


def test_periodic_drift_rejects_non_finite_times():
    drift = PeriodicDrift(period=2.0, times=[0.0, 1.0],
                          values=[[[1.0]], [[-1.0]]])
    for bad in (math.nan, math.inf, [0.5, -math.inf]):
        with pytest.raises(ValueError, match="drift times must be finite"):
            eval_drift(drift, bad)


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_drift_period_must_be_finite_and_positive(period):
    # a NaN period passes `period <= 0`; classify's monodromy then never
    # ends, and an infinite one fails deep inside the sampler
    with pytest.raises(ValueError, match="period must be finite and positive"):
        PeriodicDrift(period=period, times=[0.0], values=[[[-1.0]]])


def test_spec_shape_validation():
    # the forms are the specs: any other object is a TypeError where sigma
    # is read
    with pytest.raises(TypeError, match="EnvelopePattern or a TableSigma"):
        eval_sigma(object(), 0.0)
    with pytest.raises(TypeError, match="EnvelopePattern or a TableSigma"):
        interval_integrals(object(), [0.0], [1.0])
    with pytest.raises(ValueError):
        DiffusionSpec.table([0.0], [[[1.0]]])        # one sample only
    with pytest.raises(ValueError):
        DiffusionSpec.table([1.0, 0.0], [[[1.0]], [[2.0]]])


# ---------------------------------------------------------------------------
# the forms are the specs
# ---------------------------------------------------------------------------

def test_constructors_return_the_forms():
    env = DiffusionSpec.envelope(PowerLaw(1.0, -0.5),
                                 [[1.0, 0.2, 0.0], [0.5, -1.0, 0.3]])
    const = DiffusionSpec.constant([[1.0, 0.3], [0.0, 0.8]])
    table = DiffusionSpec.table([0.5, 1.0, 3.0], np.zeros((3, 2, 4)))
    scalar_table = DiffusionSpec.table([0.0, 1.0], [1.0, 2.0])
    for spec, form in ((env, EnvelopePattern), (const, EnvelopePattern),
                       (table, TableSigma), (scalar_table, TableSigma)):
        assert type(spec) is form and isinstance(spec, DiffusionSpec)
    # d, r and the knots are read from the pattern or the table
    assert [(s.d, s.r) for s in (env, const, table, scalar_table)] == \
        [(2, 3), (2, 2), (2, 4), (1, 1)]
    assert env.knots.shape == (0,) and const.knots.shape == (0,)
    assert table.knots is table.times
    assert np.array_equal(table.knots, [0.5, 1.0, 3.0])
    # the base holds no data, and the forms stay frozen
    assert not dataclasses.is_dataclass(DiffusionSpec)
    assert [f.name for f in dataclasses.fields(EnvelopePattern)] == \
        ["envelope", "pattern"]
    assert [f.name for f in dataclasses.fields(TableSigma)] == \
        ["times", "values"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.pattern = np.eye(2)
    # the envelope field takes no default from the DiffusionSpec.envelope
    # constructor it shadows
    with pytest.raises(TypeError, match="envelope"):
        EnvelopePattern(pattern=np.eye(2))


@pytest.mark.parametrize("build", [
    lambda: DiffusionSpec.constant(np.zeros((2, 0))),
    lambda: DiffusionSpec.envelope(ExpDecay(1.0, 1.0), np.zeros((0, 3))),
    lambda: DiffusionSpec.table([0.0, 1.0], np.zeros((2, 0, 1))),
    lambda: DiffusionSpec.table([0.0, 1.0], np.zeros((2, 3, 0))),
], ids=["constant", "envelope", "table-rows", "table-columns"])
def test_zero_size_sigma_rejected(build):
    with pytest.raises(ValueError, match="d, r"):
        build()


def test_nan_table_time_is_a_bad_time():
    with pytest.raises(ValueError, match="table times must be finite"):
        DiffusionSpec.table([0.0, math.nan], [[[1.0]], [[2.0]]])


def _point(ts, vs, t):
    """Per-point reference of `_table_at`: hold the end values beyond the
    knots, else interpolate between the knots that bracket t."""
    if t <= ts[0]:
        return vs[0]
    if t >= ts[-1]:
        return vs[-1]
    i = int(np.searchsorted(ts, t, side="right")) - 1
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return (1.0 - w) * vs[i] + w * vs[i + 1]


def test_table_at_matches_the_per_point_formula():
    rng = np.random.default_rng(11)
    ts = np.array([0.37, 1.2, 2.0, 5.0])
    vs = rng.uniform(-1.0, 1.0, size=(4, 2, 3))
    t = np.concatenate([ts, np.nextafter(ts, 0.0), np.nextafter(ts, 9.0),
                        [0.0, 0.1, 0.8, 3.3, 5.5, 1e9]])
    got = _table_at(ts, vs, t)
    assert got.shape == t.shape + (2, 3)
    for x, g in zip(t, got):
        assert np.array_equal(g, _point(ts, vs, x)), x
    # on the knots and at the holds the samples come back exactly
    assert np.array_equal(got[:4], vs)
    assert np.array_equal(got[-6], vs[0]) and np.array_equal(got[-1], vs[-1])
    assert np.array_equal(_table_at(ts, vs, np.array(0.8)),
                          _point(ts, vs, 0.8))
