import dataclasses
import math
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from affinesde.criteria import classify
from affinesde.model import ConstantDrift, DiffusionSpec, ExpDecay, LogPower
from affinesde import simulate
from affinesde.simulate import (SimConfig, prepare, simulate_X,
                                squared_norms, state_norms)
from affinesde.stats import (CONSISTENT, DECREASING, FLAT, INCONCLUSIVE,
                             INCONSISTENT, INCREASING, EvidenceAccumulator,
                             compare, log_trend)

# a verdict without a prediction: compare reports the evidence, no rules
UNDECIDED = SimpleNamespace(regime="Undecided")


def _grid(t_end, n_steps, paths=1):
    """The config of the uniform grid of n_steps steps over [0, t_end]."""
    return SimConfig(dt=t_end / n_steps, t_end=t_end, paths=paths, seed=0)


def _signal_evidence(cfg, x):
    """compare's evidence on scalar signals x[path, time] on cfg's grid,
    fed as one chunk of one shard of every path."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return compare(UNDECIDED, dataclasses.replace(cfg, paths=len(x)),
                   [(range(len(x)), [(0, x.T[:, :, None])])])


# ---------------------------------------------------------------------------
# reductions on analytic signals
# ---------------------------------------------------------------------------

def test_tail_sup_exponential():
    cfg = _grid(16.0, 2048)
    t = cfg.times
    ev = _signal_evidence(cfg, np.exp(-t))
    np.testing.assert_array_equal(ev.checkpoints, [1.0, 2.0, 4.0, 8.0])
    np.testing.assert_allclose(ev.tail_sups[0], np.exp(-ev.checkpoints),
                               rtol=1e-12)
    np.testing.assert_array_equal(ev.running_max_at[0], 1.0)


def test_tail_sup_periodic():
    cfg = _grid(40.0, 8000)
    t = cfg.times
    ev = _signal_evidence(cfg, np.sin(t))
    np.testing.assert_allclose(ev.tail_sups[0], 1.0, atol=1e-3)


def test_tail_sup_non_increasing_in_checkpoint():
    rng = np.random.default_rng(0)
    cfg = _grid(8.0, 512)
    ev = _signal_evidence(cfg, rng.standard_normal((5, cfg.n_steps + 1)))
    assert np.all(np.diff(ev.tail_sups, axis=-1) <= 0)
    assert np.all(np.diff(ev.running_max_at, axis=-1) >= 0)


def test_window_inf_signals():
    cfg = _grid(10.0, 2000)
    t = cfg.times
    ev = _signal_evidence(cfg, np.exp(-t))
    assert ev.window_inf_final[0] == pytest.approx(math.exp(-t[-1]), rel=1e-9)
    ev = _signal_evidence(cfg, np.ones_like(t))
    np.testing.assert_allclose(ev.window_inf_final, 1.0)


@pytest.mark.parametrize("dt", [0.25, 0.7])
@pytest.mark.parametrize("n_steps", [12, 28])
def test_window_inf_is_exactly_the_last_eighth(n_steps, dt):
    # the window [7T/8, T] starts at the first grid point at or after 7T/8,
    # index N - N // 8 = ceil(7N/8), whatever dt: here 7N/8 is a half-step,
    # so a step count of T/8 over dt, rounded, would start it one early
    cfg = SimConfig(dt=dt, t_end=dt * n_steps, paths=1, seed=0)
    start = n_steps - max(n_steps // 8, 1)
    assert start == math.ceil(7 * n_steps / 8)
    for dip, want in ((start - 1, 1.0), (start, 0.0)):
        x = np.ones(n_steps + 1)
        x[dip] = 0.0
        assert _signal_evidence(cfg, x).window_inf_final[0] == want


def test_avg_sq_constant_and_exponential():
    cfg = _grid(4.0, 4000)
    ev = _signal_evidence(cfg, 3.0 * np.ones_like(cfg.times))
    np.testing.assert_allclose([ev.avg_sq_half, ev.avg_sq_final], 9.0)
    cfg = _grid(5.0, 5000)
    t = cfg.times
    ev = _signal_evidence(cfg, np.exp(-t))
    for got, upto in ((ev.avg_sq_half, 2.5), (ev.avg_sq_final, 5.0)):
        expect = (1 - math.exp(-2 * upto)) / (2 * upto)
        np.testing.assert_allclose(got, expect, atol=1e-6)


def test_avg_sq_sine_approaches_half():
    cfg = _grid(200.0, 200_000)
    ev = _signal_evidence(cfg, np.sin(cfg.times))
    assert ev.avg_sq_final[0] == pytest.approx(0.5, abs=2e-3)


def _mean_sq(states):
    """E||X(t)||^2 over the paths with its per-time standard errors."""
    sq = squared_norms(states)
    return sq.mean(axis=0), sq.std(axis=0, ddof=1) / math.sqrt(len(states))


def test_ensemble_mean_sq_deterministic():
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    xi = np.array([1.0, -1.0])
    cfg = SimConfig(dt=0.25, t_end=3.0, paths=3, seed=0)
    mean, se = _mean_sq(simulate_X(
        ConstantDrift(A), DiffusionSpec.constant(np.zeros((2, 2))), xi, cfg))
    from scipy.linalg import expm
    expect = [float(np.sum((expm(A * t) @ xi) ** 2)) for t in cfg.times]
    np.testing.assert_allclose(mean, expect, atol=1e-12)
    np.testing.assert_allclose(se, 0.0, atol=1e-15)


def test_ensemble_mean_sq_ou_stationary():
    cfg = SimConfig(dt=0.25, t_end=16.0, paths=3000, seed=21)
    mean, se = _mean_sq(simulate_X(ConstantDrift(-np.eye(1)),
                                   DiffusionSpec.constant([[1.0]]), [0.0],
                                   cfg))
    assert abs(mean[-1] - 0.5) <= 3 * se[-1]


def test_trend_labels():
    t = np.geomspace(1.0, 100.0, 24)
    assert log_trend(t, np.exp(2.0 * np.log(t) + 1)).label == INCREASING
    assert log_trend(t, np.exp(-0.5 * np.log(t))).label == DECREASING
    rng = np.random.default_rng(2)
    assert log_trend(t, np.exp(5.0 + 1e-6 * rng.standard_normal(24))).label \
        == FLAT


@pytest.mark.parametrize("t_end, n_steps, level",
                         [(140.0, 560, 100.0), (64.0, 256, 10.0)])
def test_constant_series_trend_is_exactly_flat(t_end, n_steps, level):
    # a constant series has no slope to fit: it reads Flat with slope and
    # stderr 0 at the checkpoints of any grid, not the sign of rounding noise
    cps = EvidenceAccumulator(_grid(t_end, n_steps), 1).checkpoints
    res = log_trend(cps, np.full(len(cps), level))
    assert (res.label, res.slope, res.stderr) == (FLAT, 0.0, 0.0)


@pytest.mark.parametrize("vals", [[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 0.0],
                                  [5.0, 5.0, 5.0]])
def test_points_at_one_time_trend_is_exactly_flat(vals):
    # the checkpoints of a one- or two-step grid all fall on grid point 1:
    # times without spread carry no slope, whatever the values, and a series
    # that reaches zero there has not decayed over time
    res = log_trend(np.ones(len(vals)), vals)
    assert (res.label, res.slope, res.stderr) == (FLAT, 0.0, 0.0)
    cps = EvidenceAccumulator(_grid(2.0, 2), 1).checkpoints
    assert cps.tolist() == [1.0] * 4
    assert log_trend(cps, [1.0, 2.0, 3.0, 4.0]).label == FLAT


def test_checkpoints_are_the_grid_times_read():
    # the checkpoints are the times dt ceil(N/q) of the grid points the
    # statistics are read at, and the trends are fitted on them; where q
    # divides N they are T/16 ... T/2
    assert EvidenceAccumulator(_grid(16.0, 16), 1).checkpoints.tolist() \
        == [1.0, 2.0, 4.0, 8.0]
    cfg = SimConfig(dt=0.5, t_end=50.0, paths=1, seed=0)
    t = cfg.times
    sq = 1.0 + t ** 2
    acc = EvidenceAccumulator(cfg, 1)
    acc.add(0, sq[:, None])
    ev = acc.evidence(UNDECIDED)
    assert ev.checkpoints.tolist() == [3.5, 6.5, 12.5, 25.0]
    cps = [7, 13, 25, 50]
    slope = np.polyfit(np.log(t[cps]), np.log(sq[cps]), 1)[0]
    assert ev.trends["mean_sq_checkpoints"].slope == pytest.approx(slope,
                                                                   rel=1e-9)


def test_unbounded_growth_without_collapse_notes_only_the_collapse():
    # running maxima that grow at every checkpoint, under fading noise whose
    # collapse statistics are missing: Inconclusive, for the collapse alone
    cfg = _grid(64.0, 256)
    acc = EvidenceAccumulator(cfg, 1)
    acc.add(0, (1.0 + cfg.times)[:, None])
    ev = acc.evidence(SimpleNamespace(regime="Unbounded", fading_noise=True))
    assert ev.agreement == INCONCLUSIVE
    assert ev.notes == ("fading-noise collapse statistics missing",)


# ---------------------------------------------------------------------------
# verdict comparison (end-to-end, small ensembles)
# ---------------------------------------------------------------------------

DRIFT = ConstantDrift(-np.eye(1))


def _config(t_end=256.0, dt=0.125, paths=60, seed=13):
    return SimConfig(dt=dt, t_end=t_end, paths=paths, seed=seed)


def _compare(verdict, sigma, cfg):
    """compare on the sampler's stream of dX = -X dt + sigma dB, X(0) = 1."""
    return compare(verdict, cfg, prepare(DRIFT, sigma, cfg).shards([1.0]))


def test_compare_stable_consistent():
    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 0.5), [[1.0]])
    ev = _compare(classify(sigma, DRIFT), sigma, _config())
    assert ev.agreement == CONSISTENT
    assert ev.trends["tail_sup_median"].label == DECREASING


def test_compare_unbounded_consistent():
    sigma = DiffusionSpec.constant([[1.0]])
    ev = _compare(classify(sigma, DRIFT), sigma, _config(t_end=512.0, paths=80))
    assert ev.agreement == CONSISTENT
    meds = np.median(ev.running_max_at, axis=0)
    assert np.all(np.diff(meds) > 0)


def test_compare_negative_control_inconsistent():
    # deliberate mismatch: a StableAS verdict judged against a stationary
    # constant-noise ensemble
    sigma_exp = DiffusionSpec.envelope(ExpDecay(1.0, 0.5), [[1.0]])
    verdict = classify(sigma_exp, DRIFT)
    assert verdict.regime == "StableAS"
    ev = _compare(verdict, DiffusionSpec.constant([[1.0]]), _config())
    assert ev.agreement == INCONSISTENT


def test_compare_short_horizon_inconclusive():
    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 0.5), [[1.0]])
    cfg = SimConfig(dt=0.125, t_end=2.0, paths=10, seed=1)
    ev = _compare(classify(sigma, DRIFT), sigma, cfg)
    assert ev.agreement == INCONCLUSIVE


def test_compare_undecided_inconclusive():
    sigma = DiffusionSpec.envelope(ExpDecay(1.0, 0.5), [[1.0]])
    verdict = classify(sigma, ConstantDrift([[0.1]]))
    assert verdict.regime == "Undecided"
    assert _compare(verdict, sigma, _config()).agreement == INCONCLUSIVE


def test_compare_deterministic_and_evidence_invariants():
    sigma = DiffusionSpec.envelope(LogPower(1.0), [[1.0]])
    verdict = classify(sigma, DRIFT)
    cfg = _config(t_end=512.0, paths=100, seed=99)
    ev1 = _compare(verdict, sigma, cfg)
    ev2 = _compare(verdict, sigma, cfg)
    assert ev1.agreement == ev2.agreement
    assert np.array_equal(ev1.tail_sups, ev2.tail_sups)
    assert np.all(ev1.avg_sq_final >= 0)
    assert np.all(np.diff(ev1.tail_sups, axis=-1) <= 0)
    summary = ev1.summary()
    assert summary["regime"] == "BoundedNonConvergent"


def test_bounded_regime_liminf_fraction():
    # across >= 100 paths most trailing-window infima collapse well below
    # the tail-sup band
    sigma = DiffusionSpec.envelope(LogPower(1.0), [[1.0]])
    cfg = _config(t_end=1024.0, dt=0.25, paths=120, seed=5)
    ev = _compare(classify(sigma, DRIFT), sigma, cfg)
    band = float(np.median(ev.tail_sups[:, 0]))
    frac = float(np.mean(ev.window_inf_final < 0.1 * band))
    assert frac > 0.9
    assert ev.agreement == CONSISTENT


# the ensemble of the brute-force tests; simulate_X gathers the same
# per-path Philox streams that compare reads from Setup.shards
BRUTE_SIGMA = DiffusionSpec.envelope(LogPower(1.0), [[1.0]])
BRUTE_CFG = _config(t_end=64.0, dt=0.25, paths=9, seed=3)


def test_compare_statistics_match_brute_force():
    # every per-path array compare reports, against its definition on the
    # grid: sup over [t_i, T], max over [0, t_i], min over [T - T/8, T] and
    # the trapezoid average of ||X||^2 over [0, t]
    norms = state_norms(simulate_X(DRIFT, BRUTE_SIGMA, [1.0], BRUTE_CFG))
    ev = _compare(classify(BRUTE_SIGMA, DRIFT), BRUTE_SIGMA, BRUTE_CFG)
    t = BRUTE_CFG.times
    T = t[-1]
    np.testing.assert_array_equal(ev.checkpoints, [T / 16, T / 8, T / 4, T / 2])
    for j, c in enumerate(ev.checkpoints):
        i = int(np.flatnonzero(t == c)[0])
        for p in range(BRUTE_CFG.paths):
            assert ev.tail_sups[p, j] == max(norms[p, i:])
            assert ev.running_max_at[p, j] == max(norms[p, :i + 1])
    last = t >= T - T / 8
    assert np.count_nonzero(last) == 33
    for p in range(BRUTE_CFG.paths):
        assert ev.window_inf_final[p] == min(norms[p, last])
        for got, upto in ((ev.avg_sq_half[p], T / 2), (ev.avg_sq_final[p], T)):
            keep = t <= upto
            want = np.trapezoid(norms[p, keep] ** 2, t[keep]) / upto
            assert got == pytest.approx(want, rel=1e-12)


def _assert_brute_force(ev, t, norms):
    # the per-path arrays against their whole-series definitions, as in
    # test_compare_statistics_match_brute_force
    T = t[-1]
    last = t >= T - T / 8
    for j, c in enumerate(ev.checkpoints):
        i = int(np.flatnonzero(t == c)[0])
        np.testing.assert_allclose(ev.tail_sups[:, j],
                                   np.max(norms[:, i:], axis=1), rtol=1e-12)
        np.testing.assert_allclose(ev.running_max_at[:, j],
                                   np.max(norms[:, :i + 1], axis=1), rtol=1e-12)
    np.testing.assert_allclose(ev.window_inf_final,
                               np.min(norms[:, last], axis=1), rtol=1e-12)
    for got, upto in ((ev.avg_sq_half, T / 2), (ev.avg_sq_final, T)):
        keep = t <= upto
        want = np.trapezoid(norms[:, keep] ** 2, t[keep], axis=1) / upto
        np.testing.assert_allclose(got, want, rtol=1e-12)


def _splits(n_points, cuts):
    """Chunks [a, b) of range(n_points) cut at the sorted points cuts."""
    edges = [0, *sorted({c for c in cuts if 0 < c < n_points}), n_points]
    return list(zip(edges, edges[1:]))


def test_accumulator_matches_brute_force_any_chunking():
    states = simulate_X(DRIFT, BRUTE_SIGMA, [1.0], BRUTE_CFG)
    verdict = classify(BRUTE_SIGMA, DRIFT)
    t, norms = BRUTE_CFG.times, state_norms(states)
    n = len(t)
    T = t[-1]
    # grid indices of the checkpoints, T/2 and the window start 7T/8
    marks = [int(np.flatnonzero(t == c)[0])
             for c in (T / 16, T / 8, T / 4, T / 2, T - T / 8)]
    splits = {
        "single steps": _splits(n, range(n)),
        "cut at and around each mark": _splits(
            n, [m + e for m in marks for e in (-1, 0, 1)]),
        "uneven": _splits(n, range(0, n, 7)),
        "one chunk": _splits(n, []),
    }
    sq = squared_norms(states)
    streamed = _compare(verdict, BRUTE_SIGMA, BRUTE_CFG)
    for name, chunks in splits.items():
        for paths in (slice(None), slice(4, 5)):   # all paths and one path
            acc = EvidenceAccumulator(BRUTE_CFG, norms[paths].shape[0])
            for a, b in chunks:
                acc.add(a, sq[paths, a:b].T)
            ev = acc.evidence(verdict)
            _assert_brute_force(ev, t, norms[paths])
            if paths == slice(None):
                assert ev.summary() == streamed.summary(), name


@pytest.mark.parametrize("paths", [1, 6])
def test_accumulator_on_squared_norms_matches_numpy(paths):
    # squared norms fed in uneven chunks against whole-series numpy: the
    # square roots of the maxima, minima and checkpoint values are exact,
    # the trapezoid averages agree to rounding and do not depend on the
    # chunking
    rng = np.random.default_rng(11)
    cfg = _grid(64.0, 512)
    t = cfg.times
    sq = rng.exponential(size=(len(t), paths)) * (1.0 + t[:, None])
    norms = np.sqrt(sq)
    cps = [32, 64, 128, 256]   # the checkpoints T/16 ... T/2
    runs = []
    for cuts in (range(0, len(t), 37), [1, 32, 33, 256, 257, 448, 449], []):
        acc = EvidenceAccumulator(cfg, paths)
        for a, b in _splits(len(t), cuts):
            acc.add(a, sq[a:b])
        ev = acc.evidence(UNDECIDED)
        for j, i in enumerate(cps):
            assert np.array_equal(ev.tail_sups[:, j], norms[i:].max(axis=0))
            assert np.array_equal(ev.running_max_at[:, j],
                                  norms[:i + 1].max(axis=0))
        assert np.array_equal(ev.window_inf_final, norms[448:].min(axis=0))
        for got, upto in ((ev.avg_sq_half, 256), (ev.avg_sq_final, 512)):
            want = np.trapezoid(sq[:upto + 1], t[:upto + 1], axis=0) / t[upto]
            np.testing.assert_allclose(got, want, rtol=1e-13)
        runs.append((ev.avg_sq_half, ev.avg_sq_final,
                     ev.trends["mean_sq_checkpoints"].slope))
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)
    want = np.log(sq[cps].mean(axis=1))
    slope = np.polyfit(np.log(t[cps]), want, 1)[0]
    assert runs[0][2] == pytest.approx(slope, rel=1e-9)


def test_accumulator_rejects_gaps_and_short_feeds():
    cfg = _grid(8.0, 64)
    acc = EvidenceAccumulator(cfg, 2)
    acc.add(0, np.ones((10, 2)))
    with pytest.raises(ValueError):
        acc.add(11, np.ones((3, 2)))
    with pytest.raises(ValueError):
        acc.evidence(None)


def test_accumulator_checks_each_columns_own_feed():
    # paths 0 and 1 moved on to grid point 10; paths 2 and 3 still start at
    # 0, so a chunk at 10 is a gap for them, alone or with path 1, and one
    # at 0 a repeat for path 1; columns outside the paths are refused too
    cfg = _grid(8.0, 64)
    acc = EvidenceAccumulator(cfg, 4)
    acc.add(0, np.ones((10, 2)), 0)
    for n0, width, first in ((10, 2, 2), (10, 3, 1), (0, 3, 1), (10, 2, 3),
                             (10, 1, -1)):
        with pytest.raises(ValueError):
            acc.add(n0, np.ones((3, width)), first)
    acc.add(0, np.ones((10, 2)), 2)
    acc.add(10, np.ones((55, 4)))
    assert acc.evidence(UNDECIDED).window_inf_final.tolist() == [1.0] * 4


def test_compare_rejects_a_shard_that_stops_short():
    # shard range(2, 4) ends at grid point 32 of 64: the other shard's full
    # feed does not stand in for it, and no evidence is read
    cfg = _grid(8.0, 64, paths=4)

    def stream(stop):
        yield 0, np.ones((1, 2, 1))
        yield 1, np.ones((stop - 1, 2, 1))

    with pytest.raises(ValueError, match="^only 33 of 65 grid points"):
        compare(UNDECIDED, cfg, [(range(0, 2), stream(65)),
                                 (range(2, 4), stream(33))])
    with pytest.raises(ValueError, match="^only 0 of 65 grid points"):
        compare(UNDECIDED, cfg, [(range(0, 2), stream(65))])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, t_end", [(1e160, 64.0), (8.94e153, 0.25)],
                         ids=["squares", "checkpoint-mean"])
def test_overflowing_squares_of_finite_states_raise(x, t_end):
    # the states are finite, but near 1e160 their squares overflow, and
    # near 9e153 (squares 8e307) on a short grid only the mean of three
    # paths' squares at a checkpoint does: compare raises rather than read
    # inf or NaN evidence, and warns of nothing
    cfg = _grid(t_end, 256)
    with pytest.raises(FloatingPointError, match="^squared state norms or "
                       "their time averages overflow$"):
        _signal_evidence(cfg, np.full((3, cfg.n_steps + 1), x))


def test_compare_chunks_matches_compare(monkeypatch):
    # compare over the sampler's stream cut into many small chunks gives the
    # same evidence as over the default chunks
    verdict = classify(BRUTE_SIGMA, DRIFT)
    norms = state_norms(simulate_X(DRIFT, BRUTE_SIGMA, [1.0], BRUTE_CFG))
    default = _compare(verdict, BRUTE_SIGMA, BRUTE_CFG)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 50)
    ev = _compare(verdict, BRUTE_SIGMA, BRUTE_CFG)
    _assert_brute_force(ev, BRUTE_CFG.times, norms)
    assert ev.summary() == default.summary()


# ---------------------------------------------------------------------------
# shards on threads
# ---------------------------------------------------------------------------

def _shard_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("affinesde-shard")]


def test_compare_raises_worker_failure_after_every_shard_stopped():
    # shard 1 runs on a worker and fails at its second chunk; shards 0 and 2
    # are slow, shard 2 slower than the calling thread's shard 0, and stop
    # before their next chunk; compare raises the worker's error only once
    # no shard thread is left
    cfg = _grid(64.0, 256, paths=6)
    fed = [0, 0, 0]
    pause = [0.01, 0.0, 0.2]

    def shard(i):
        yield 0, np.ones((1, 2, 1))
        for n0 in range(1, 257, 4):
            if i == 1 and n0 > 1:
                raise FloatingPointError("non-finite states in ensemble")
            time.sleep(pause[i])
            fed[i] += 1
            yield n0, np.ones((4, 2, 1))

    with pytest.raises(FloatingPointError,
                       match="^non-finite states in ensemble$"):
        compare(UNDECIDED, cfg, [(range(2 * i, 2 * i + 2), shard(i))
                                 for i in range(3)])
    assert not _shard_threads()
    assert fed[1] == 1 and max(fed) < 64


def test_compare_reentrant_across_threads(monkeypatch):
    # two compare calls at once, each on three shards (more threads than
    # CPUs), give the evidence of the same calls one after the other
    monkeypatch.setattr(simulate, "_cpus", lambda: 3)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 9 * 40)
    cfgs = [_config(t_end=64.0, dt=0.25, paths=9, seed=seed)
            for seed in (3, 4)]
    verdict = classify(BRUTE_SIGMA, DRIFT)
    want = [_compare(verdict, BRUTE_SIGMA, cfg) for cfg in cfgs]
    got = [None, None]

    def run(i):
        got[i] = _compare(verdict, BRUTE_SIGMA, cfgs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for ev, ref in zip(got, want):
        for name in ("tail_sups", "running_max_at", "window_inf_final",
                     "avg_sq_half", "avg_sq_final"):
            assert np.array_equal(getattr(ev, name), getattr(ref, name))
    assert not np.array_equal(got[0].tail_sups, got[1].tail_sups)


def test_compare_holds_one_chunk_per_shard(monkeypatch):
    # while compare reduces a chunk, the shard has already dropped the one
    # before it: beyond what prepare and shards set up (transitions, noise
    # factors, draw buffers), the traced peak is one chunk per running
    # group plus the feeds' temporaries of 2**15 norms each.  On two CPUs
    # a running group draws 2**18 normals per chunk, so each chunk is
    # 2 MiB of states and the two running ones 4 MiB; the bound gives
    # the feeds 1.5x headroom.  The shapes are a narrow long ensemble (one
    # group per CPU) and a wide short one (128-path groups).  A first small
    # compare takes the one-time costs of a first call, such as lazy
    # imports, out of the trace
    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    drift = ConstantDrift(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    sigma = DiffusionSpec.constant(np.eye(2))
    warm = SimConfig(dt=0.125, t_end=64.0, paths=4, seed=3)
    compare(UNDECIDED, warm, prepare(drift, sigma, warm).shards([1.0, 1.0]))
    for paths, n_steps, groups in ((64, 4 * 8192, 2), (1024, 4096, 8)):
        cfg = SimConfig(dt=0.125, t_end=0.125 * n_steps, paths=paths, seed=3)
        shards = prepare(drift, sigma, cfg).shards([1.0, 1.0])
        tracemalloc.start()
        try:
            ev = compare(UNDECIDED, cfg, shards)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ev.window_inf_final.shape == (cfg.paths,)
        assert peak < 1.5 * 2 * 2 * 2 ** 20, (paths, peak)
        assert len(shards) == groups
