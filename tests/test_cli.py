import argparse
import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from affinesde import cli, simulate
from affinesde.cli import (EXIT_INCONSISTENT, EXIT_NUMERIC, EXIT_OK,
                           EXIT_PARSE, EXIT_UNDECIDED, ScenarioError,
                           _apply_overrides, load_scenario, main)
from affinesde.model import (ConstantDrift, DiffusionSpec, EnvelopePattern,
                             ExpDecay, LogPower, eval_sigma)
from affinesde.simulate import SimConfig


def write(tmp_path, doc, name="scn.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return str(p)


def base_doc(**over):
    doc = {
        "name": "demo",
        "drift": {"kind": "constant", "matrix": [[-1.0, 0.5], [0.0, -2.0]]},
        "sigma": {"kind": "envelope", "family": "ExpDecay",
                  "params": {"scale": 1.0, "rate": 1.0},
                  "pattern": [[1.0, 0.0], [0.0, 1.0]]},
        "initial_state": [1.0, 1.0],
        "simulation": {"dt": 0.125, "t_end": 64.0, "paths": 40, "seed": 11},
    }
    doc.update(over)
    return doc


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_load_scenario_returns_the_built_objects(tmp_path):
    scn = load_scenario(write(tmp_path, base_doc()))
    assert isinstance(scn.drift, ConstantDrift)
    np.testing.assert_array_equal(scn.drift.matrix, [[-1.0, 0.5], [0.0, -2.0]])
    assert isinstance(scn.sigma, DiffusionSpec)
    assert isinstance(scn.sigma, EnvelopePattern)
    assert scn.sigma.envelope == ExpDecay(scale=1.0, rate=1.0)
    np.testing.assert_array_equal(scn.sigma.pattern, np.eye(2))
    assert scn.simulation == SimConfig(dt=0.125, t_end=64.0, paths=40,
                                       seed=11)
    assert scn.initial_state == (1.0, 1.0)


@pytest.mark.parametrize("flag,value,field", [
    ("seed", 5, "seed"), ("paths", 3, "paths"), ("horizon", 4.0, "t_end")])
def test_overrides_replace_only_their_own_field(tmp_path, flag, value, field):
    scn = load_scenario(write(tmp_path, base_doc()))
    args = argparse.Namespace(**{"seed": None, "paths": None, "horizon": None,
                                 flag: value})
    over = _apply_overrides(scn, args)
    assert over.simulation == dataclasses.replace(scn.simulation,
                                                  **{field: value})
    assert over.drift is scn.drift and over.sigma is scn.sigma


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, base_doc(extra_field=1)))
    doc = base_doc()
    doc["sigma"]["mystery"] = True
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, doc))
    doc = base_doc()
    doc["simulation"]["step"] = 0.1
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, doc))


def test_out_of_range_parameters_rejected(tmp_path):
    doc = base_doc()
    doc["simulation"]["dt"] = -0.1
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, doc))
    doc = base_doc()
    doc["sigma"]["params"] = {"scale": 1.0}   # missing rate
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, doc))
    for bad in (base_doc(initial_state=[1.0, 1.0, 1.0]),   # sigma.d is 2
                base_doc(initial_state=[1.0, math.nan]),
                base_doc(drift="foo"),
                base_doc(drift={"kind": "constant", "matrix": [[-1.0]]})):
        with pytest.raises(ScenarioError):
            load_scenario(write(tmp_path, bad))
    path = write(tmp_path, base_doc(initial_state=[1.0]))
    assert main(["verify", path, "--out", str(tmp_path)]) == EXIT_PARSE
    # a scalar where a list of times or matrices belongs
    eye = [[1.0, 0.0], [0.0, 1.0]]
    for bad in (base_doc(sigma={"kind": "table", "times": [0.0, 1.0],
                                "values": 3}),
                base_doc(sigma={"kind": "table", "times": 2,
                                "values": [eye, eye]}),
                base_doc(drift={"kind": "periodic", "period": 6.0, "times": 5,
                                "values": [[[-1.0, 0.0], [0.0, -1.0]]]})):
        path = write(tmp_path, bad)
        with pytest.raises(ScenarioError):
            load_scenario(path)
        assert main(["verify", path, "--out", str(tmp_path)]) == EXIT_PARSE
    # non-finite numbers, and fractional counts and seeds
    for section, key, value in (
            ("simulation", "t_end", math.inf), ("simulation", "dt", math.nan),
            ("simulation", "paths", math.inf), ("simulation", "paths", 4.7),
            ("simulation", "seed", 1.5),
            ("criteria", "n_terms", 2.5), ("criteria", "t_max", math.inf)):
        doc = base_doc()
        doc.setdefault(section, {})[key] = value
        path = write(tmp_path, doc)
        with pytest.raises(ScenarioError, match=key):
            load_scenario(path)
        assert main(["verify", path, "--out", str(tmp_path)]) == EXIT_PARSE, \
            (section, key, value)
    # integral floats are counts all the same
    doc = base_doc()
    doc["simulation"].update(paths=4.0, seed=7.0)
    scn = load_scenario(write(tmp_path, doc))
    assert (scn.simulation.paths, scn.simulation.seed) == (4, 7)


def _rejects_with(tmp_path, doc, field):
    """The scenario fails to load with a message naming field, and verify
    exits EXIT_PARSE on it."""
    path = write(tmp_path, doc)
    with pytest.raises(ScenarioError, match=field):
        load_scenario(path)
    assert main(["verify", path, "--out", str(tmp_path)]) == EXIT_PARSE


@pytest.mark.parametrize("section, key, value", [
    ("simulation", "dt", True), ("simulation", "paths", True),
    ("simulation", "seed", False), ("criteria", "h", True)])
def test_boolean_scalar_rejected(tmp_path, section, key, value):
    # YAML reads true/false/yes/no as booleans, which float() takes as 1
    # and 0: `dt: true` would run with dt = 1
    doc = base_doc()
    doc.setdefault(section, {})[key] = value
    _rejects_with(tmp_path, doc, key)


def test_boolean_list_entry_rejected(tmp_path):
    _rejects_with(tmp_path, base_doc(initial_state=[1.0, True]),
                  "initial_state")


def test_boolean_matrix_entry_rejected(tmp_path):
    _rejects_with(tmp_path, base_doc(drift={
        "kind": "constant", "matrix": [[-1.0, False], [0.0, -2.0]]}),
        "drift.matrix")


def test_commands_run_without_scipy(tmp_path):
    # scipy serves only the tests: a fresh interpreter in which any scipy
    # import raises runs classify on a LogPower scenario, and classify,
    # floquet, simulate and a small verify on a constant and on a periodic
    # drift, whose propagators all come from linalg's own Runge-Kutta
    # stepper.  Every command exits 0
    logpower = write(tmp_path, base_doc(
        name="logpower",
        sigma={"kind": "envelope", "family": "LogPower",
               "params": {"gamma": 1.0},
               "pattern": [[1.0, 0.0], [0.0, 1.0]]}), "logpower.yaml")
    constant = write(tmp_path, base_doc(), "constant.yaml")
    # floquet needs a period, which makes a constant drift a one-knot
    # periodic one
    with_period = write(tmp_path, base_doc(drift={
        "kind": "constant", "matrix": [[-1.0, 0.5], [0.0, -2.0]],
        "period": 1.0}), "with_period.yaml")
    periodic = write(tmp_path, base_doc(
        name="periodic",
        drift={"kind": "periodic", "period": 1.0, "times": [0.0, 0.5],
               "values": [[[-1.0, 0.5], [0.0, -2.0]],
                          [[-2.0, 0.0], [0.3, -0.5]]]}), "periodic.yaml")
    out = str(tmp_path / "out")
    code = (f"import sys\nsys.modules['scipy'] = None\n"
            f"from affinesde.cli import main\n"
            f"codes = [main(['classify', {logpower!r}, '--out', {out!r}])]\n"
            f"codes += [main([cmd, scn, '--out', {out!r}])\n"
            f"          for scn in ({constant!r}, {periodic!r})\n"
            f"          for cmd in ('classify', 'simulate', 'verify')]\n"
            f"codes += [main(['floquet', scn, '--out', {out!r}])\n"
            f"          for scn in ({with_period!r}, {periodic!r})]\n"
            f"print(codes)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"[{', '.join([str(EXIT_OK)] * 9)}]"


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed")
    assert main(["classify", str(bad)]) == EXIT_PARSE
    assert "scenario error" in capsys.readouterr().err
    assert main(["classify", str(tmp_path / "missing.yaml")]) == EXIT_PARSE


def test_bad_overrides_and_seeds_exit_parse(tmp_path, capsys):
    # each is caught when the scenario is validated, not at sampling time
    doc = base_doc()
    doc["simulation"] = {"dt": 0.5, "t_end": 4.0, "paths": 2, "seed": 0}
    path = write(tmp_path, doc)
    for flags in (["--paths", "0"], ["--horizon", "4.3"], ["--seed", "-1"],
                  ["--horizon", "inf"], ["--horizon", "nan"]):
        assert main(["verify", path, "--out", str(tmp_path), *flags]) == \
            EXIT_PARSE, flags
        assert "scenario error" in capsys.readouterr().err
    doc["simulation"]["seed"] = -5
    assert main(["verify", write(tmp_path, doc), "--out", str(tmp_path)]) == \
        EXIT_PARSE
    assert "scenario error" in capsys.readouterr().err


def test_usage_errors_exit_parse(tmp_path, capsys):
    # argparse's own status for these is 2, the numeric-failure code
    path = write(tmp_path, base_doc())
    for argv in (["verify", path, "--paths", "4.7"],
                 ["verify", path, "--no-such-flag"],
                 ["no-such-command", path]):
        assert main(argv) == EXIT_PARSE, argv
        assert "error:" in capsys.readouterr().err
    assert main(["--help"]) == EXIT_OK
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [{"n_terms": 0}, {"h": -1.0}, {"t_max": -1.0},
                                 {"tol": 0.0}, {"c": -1.0}])
def test_criteria_out_of_range_exit_parse(tmp_path, capsys, bad):
    # rejected when the scenario is parsed, by every command that reads it
    doc = base_doc(sigma={"kind": "constant", "values": [[1.0]]},
                   drift={"kind": "constant", "matrix": [[-1.0]]},
                   initial_state=[1.0], criteria=bad)
    doc["simulation"] = {"dt": 0.5, "t_end": 4.0, "paths": 2, "seed": 0}
    path = write(tmp_path, doc)
    for command in ("classify", "verify"):
        assert main([command, path, "--out", str(tmp_path)]) == EXIT_PARSE
        assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("bad,key", [
    ({"h": 1e306}, "criteria.h"),
    ({"c": 1e308}, "criteria.c"),
    ({"t_max": 1.7e308, "c": 1e307}, "criteria.t_max"),
], ids=["h", "c", "t_max"])
def test_criteria_overflowing_windows_exit_parse(tmp_path, capsys, bad, key):
    # (n_terms + 1) h, 2 c and t_max + c are window edges the criteria
    # evaluate; past the float range they are rejected at parse time
    doc = base_doc(sigma={"kind": "constant", "values": [[1.0]]},
                   drift={"kind": "constant", "matrix": [[-1.0]]},
                   initial_state=[1.0], criteria=bad)
    path = write(tmp_path, doc)
    for command in ("classify", "verify"):
        assert main([command, path, "--out", str(tmp_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and key in err


@pytest.mark.parametrize("name", ["../escaped", "sub/dir/x", "", ".", "..",
                                  "{tmp}/abs", "nul\0byte"])
def test_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    # reports go to <out>/<name>.<command>.yaml, so a name with a path in it
    # would write outside --out
    out = tmp_path / "out"
    path = write(tmp_path, base_doc(name=name.format(tmp=tmp_path)))
    before = set(tmp_path.rglob("*"))
    assert main(["classify", path, "--out", str(out)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("scenario error: name")
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["floquet", "simulate", "verify"])
def test_unwritable_output_exits_parse(tmp_path, capsys, monkeypatch, command):
    # --out names an existing file, so the output directory cannot be made;
    # the commands that sample find that out before the sampler is reached
    def never(*args):
        raise AssertionError("sampled before the output directory was made")

    monkeypatch.setattr(cli, "prepare", never)
    doc = base_doc(drift={"kind": "constant", "matrix": [[-1.0]],
                          "period": 1.0},
                   sigma={"kind": "constant", "values": [[1.0]]},
                   initial_state=[1.0],
                   simulation={"dt": 0.5, "t_end": 2.0, "paths": 1, "seed": 0})
    path = write(tmp_path, doc)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    before = set(tmp_path.rglob("*"))
    assert main([command, path, "--out", str(blocker)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("output error:")
    assert set(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "keep"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_stable(tmp_path, capsys):
    path = write(tmp_path, base_doc(output_dir=str(tmp_path / "out")))
    assert main(["classify", path]) == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["verdict"]["regime"] == "StableAS"
    assert (tmp_path / "out" / "demo.classify.yaml").exists()


def test_classify_fast_fading_noise_exits_ok(tmp_path, capsys):
    # ExpDecay(1, 20): the integral criterion's peak at t = 0 is about
    # 0.05 wide on [0, 256]; uniform panels never converged on it (exit 2)
    doc = base_doc()
    doc["sigma"]["params"]["rate"] = 20.0
    assert main(["classify", write(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["verdict"]["regime"] == "StableAS"
    ints = report["criteria"]["integral_rulings"]
    assert [r["status"] for r in ints] == ["finite"] * 4
    assert all(r["partial_value"] > 0.0 for r in ints)


@pytest.mark.parametrize("alpha", [-1e-306, -1e-310, -5e-324])
def test_classify_power_law_exponent_near_zero_exits_ok(tmp_path, capsys,
                                                        alpha):
    # PowerLaw(1, alpha) is StableAS for every alpha < 0.  Below |alpha|
    # about 1e-305 the log of the tail bound leaves the double range too
    # (log m! overflows, and at 5e-324 so does 1.25 / q): every finite
    # ruling then reports no tail_bound and a tail_bound_log10 of inf
    doc = base_doc(sigma={"kind": "envelope", "family": "PowerLaw",
                          "params": {"scale": 1.0, "exponent": alpha},
                          "pattern": [[1.0, 0.0], [0.0, 1.0]]})
    assert main(["classify", write(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["verdict"]["regime"] == "StableAS"
    crit = report["criteria"]
    for ruling in crit["sum_rulings"] + crit["integral_rulings"]:
        assert ruling["status"] == "finite"
        assert "tail_bound" not in ruling
        assert ruling["tail_bound_log10"] == math.inf


def test_classify_reports_requested_n_terms(tmp_path, capsys):
    for n_terms, doc in ((256, base_doc()),
                         (300, base_doc(criteria={"n_terms": 300}))):
        assert main(["classify", write(tmp_path, doc), "--out", str(tmp_path)]) \
            == EXIT_OK
        report = yaml.safe_load(capsys.readouterr().out)
        assert {r["n_terms"] for r in report["criteria"]["sum_rulings"]} == \
            {n_terms}


def test_classify_bounded_bracket(tmp_path, capsys):
    doc = base_doc()
    r = 1.0 / math.sqrt(2.0)
    doc["sigma"] = {"kind": "envelope", "family": "LogPower",
                    "params": {"gamma": 1.0},
                    "pattern": [[r, 0.0], [0.0, r]]}
    assert main(["classify", write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    v = report["verdict"]
    assert v["regime"] == "BoundedNonConvergent"
    lo, hi = v["epsilon_star_bracket"]
    assert lo <= math.sqrt(2) + 1e-3 and hi >= math.sqrt(2) - 1e-3


def _log_doc(family, params, pattern):
    return base_doc(sigma={"kind": "envelope", "family": family,
                           "params": params, "pattern": pattern})


def test_logpower_power_defaults_to_one(tmp_path, capsys):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    for params, env in (({"gamma": 2.0}, LogPower(2.0, 1.0)),
                        ({"gamma": 2.0, "power": 0.5}, LogPower(2.0, 0.5))):
        scn = load_scenario(write(tmp_path, _log_doc("LogPower", params, eye)))
        assert scn.sigma.envelope == env
    for params, field in (({"power": 0.5}, "gamma"),
                          ({"gamma": 1.0, "exponent": 0.5}, "exponent")):
        with pytest.raises(ScenarioError, match=field):
            load_scenario(write(tmp_path, _log_doc("LogPower", params, eye)))
    path = write(tmp_path, _log_doc("LogPower", {"gamma": 1.0, "power": 1.5},
                                    eye))
    assert main(["classify", path, "--out", str(tmp_path)]) == EXIT_PARSE
    assert "ROADMAP item 2" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1.0, -2.0, 1e200])
def test_loggrow_alias_matches_its_logpower_spelling(tmp_path, capsys, k):
    # family LogGrow {scale: k, exponent: beta} on P is LogPower(1, -2 beta)
    # on k P: the same sigma up to rounding, with k's sign kept and no k^2
    # to overflow; P / |k| keeps the energies finite at k = 1e200
    beta = 0.75
    P = np.array([[1.0, 0.5], [0.0, 1.0]]) / abs(k)
    grow = _log_doc("LogGrow", {"scale": k, "exponent": beta}, P.tolist())
    spelled = _log_doc("LogPower", {"gamma": 1.0, "power": -2.0 * beta},
                       (k * P).tolist())
    sigma = load_scenario(write(tmp_path, grow)).sigma
    assert sigma.envelope == LogPower(1.0, -2.0 * beta)
    t = np.array([0.0, 1.0, 1e3, 1e6])
    expect = k * np.log(math.e + t)[:, None, None] ** beta * P
    np.testing.assert_allclose(eval_sigma(sigma, t), expect, rtol=1e-14)
    reports = []
    for doc in (grow, spelled):
        assert main(["classify", write(tmp_path, doc), "--out",
                     str(tmp_path)]) == EXIT_OK
        reports.append(yaml.safe_load(capsys.readouterr().out))
    a, b = reports
    assert a["verdict"] == b["verdict"]
    assert a["verdict"]["regime"] == "Unbounded"
    assert a["verdict"]["fading_noise"] is False
    for key in ("sum_rulings", "integral_rulings"):
        for x, y in zip(a["criteria"][key], b["criteria"][key], strict=True):
            assert x["status"] == y["status"] == "infinite"
            assert x["partial_value"] == pytest.approx(y["partial_value"],
                                                       rel=1e-12)


def test_loggrow_alias_keeps_its_checks(tmp_path, capsys):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    for params, message in (
            ({"scale": 1.0, "exponent": 0.0}, "exponent must be positive"),
            ({"scale": 1.0, "exponent": -1.0}, "exponent must be positive"),
            ({"scale": 1.0}, "missing keys"),
            ({"scale": 1.0, "exponent": 0.5, "gamma": 1.0}, "unknown keys"),
            ({"scale": 1.0, "exponent": math.inf}, "must be finite")):
        path = write(tmp_path, _log_doc("LogGrow", params, eye))
        assert main(["classify", path, "--out", str(tmp_path)]) == EXIT_PARSE
        assert message in capsys.readouterr().err, params


def test_classify_report_brackets_eps_star(tmp_path, capsys):
    # LogPower(100) on I / sqrt(2): eps* = sqrt(200), beyond the fixed eps
    # values (0.5, 1, 2, 4), at which every ruling is Infinite
    r = 1.0 / math.sqrt(2.0)
    doc = _log_doc("LogPower", {"gamma": 100.0}, [[r, 0.0], [0.0, r]])
    assert main(["classify", write(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    star = report["verdict"]["epsilon_star_bracket"][0]
    assert star == pytest.approx(math.sqrt(200.0), rel=1e-12)
    crit = report["criteria"]
    assert crit["eps_values"] == [0.5, 1.0, 2.0, 4.0, star / 2, star, 2 * star]
    for key in ("sum_rulings", "integral_rulings"):
        status = {x["eps"]: x["status"] for x in crit[key]}
        assert [status[e] for e in crit["eps_values"]] == \
            ["infinite"] * 6 + ["finite"]


def test_classify_unstable_drift(tmp_path, capsys):
    doc = base_doc()
    doc["drift"] = {"kind": "constant", "matrix": [[0.1, 0.0], [0.0, -1.0]]}
    assert main(["classify", write(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_UNDECIDED
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["verdict"]["regime"] == "Undecided"
    assert report["verdict"]["drift_stable"] is False
    assert "stabilise" in report["verdict"]["note"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_zero_noise_csv(tmp_path, capsys):
    doc = base_doc()
    doc["sigma"] = {"kind": "constant", "values": [[0.0, 0.0], [0.0, 0.0]]}
    doc["simulation"] = {"dt": 0.5, "t_end": 2.0, "paths": 2, "seed": 0}
    assert main(["simulate", write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    rows = (tmp_path / "demo.paths.csv").read_text().splitlines()
    assert rows[0] == "path_id,t,x_1,x_2,norm2"
    assert len(rows) == 1 + 2 * 5
    # time-major: t outer, path_id inner
    assert [r.split(",")[:2] for r in rows[1:3]] == [["0", "0"], ["1", "0"]]
    assert rows[-1].split(",")[:2] == ["1", "2"]
    # the deterministic flow reloads bit-faithfully from 17 significant digits
    from scipy.linalg import expm
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    expect = expm(A * 2.0) @ np.array([1.0, 1.0])
    for first, last in zip(rows[1:3], rows[-2:]):
        assert [float(x) for x in first.split(",")[2:4]] == [1.0, 1.0]
        reloaded = np.array([float(x) for x in last.split(",")[2:4]])
        np.testing.assert_allclose(reloaded, expect, atol=1e-10)
    assert report["paths"] == 2


def _ensemble_rows(states, times):
    """CSV data rows of in-memory (paths, N+1, d) states on the grid times,
    path-major, each value formatted on its own."""
    rows = []
    norms = simulate.state_norms(states)
    for p in range(len(states)):
        for j, t in enumerate(times):
            row = [str(p), f"{t:.17g}"]
            row += [f"{x:.17g}" for x in states[p, j]]
            row.append(f"{norms[p, j]:.17g}")
            rows.append(",".join(row))
    return rows


def test_simulate_csv_does_not_depend_on_the_grouping(tmp_path, capsys,
                                                      monkeypatch):
    # a 2-d periodic drift; on one CPU and on two, the small draw budget cuts
    # the 7 paths into groups of unequal width and so of unequal chunk
    # length, which the writer joins at the shortest chunk's end
    doc = base_doc(drift={"kind": "periodic", "period": 1.0,
                          "times": [0.0, 0.5],
                          "values": [[[-1.0, 0.5], [0.0, -2.0]],
                                     [[-2.0, 0.0], [0.3, -0.5]]]},
                   sigma={"kind": "constant", "values": [[1.0, 0.0],
                                                         [0.5, 1.0]]},
                   simulation={"dt": 0.125, "t_end": 375.0, "paths": 7,
                               "seed": 5})
    path = write(tmp_path, doc)
    scn = load_scenario(path)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 2 ** 13)
    texts = []
    for cpus in (1, 2):
        monkeypatch.setattr(simulate, "_cpus", lambda: cpus)
        lengths = {len(list(s)[1][1]) for _, s in cli._chunks(scn)}
        assert len(lengths) > 1, lengths
        out = tmp_path / f"cpus{cpus}"
        assert main(["simulate", path, "--out", str(out)]) == EXIT_OK
        texts.append((out / "demo.paths.csv").read_text())
    capsys.readouterr()
    assert texts[0] == texts[1]
    rows = texts[0].splitlines()
    assert rows[0] == "path_id,t,x_1,x_2,norm2"
    states = simulate.simulate_X(scn.drift, scn.sigma, scn.initial_state,
                                 scn.simulation)
    assert sorted(rows[1:]) == sorted(_ensemble_rows(states,
                                                     scn.simulation.times))


def test_simulate_one_path_summary(tmp_path, capsys):
    doc = base_doc(simulation={"dt": 0.125, "t_end": 4.0, "paths": 1,
                               "seed": 2})
    assert main(["simulate", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["final_mean_sq_se"] == 0.0
    last = [float(x) for x in (tmp_path / "demo.paths.csv").read_text()
            .splitlines()[-1].split(",")]
    assert report["final_norm_median"] == last[-1]
    assert report["final_mean_sq"] == last[2] ** 2 + last[3] ** 2


def test_simulate_flag_overrides(tmp_path, capsys):
    path = write(tmp_path, base_doc())
    assert main(["simulate", path, "--out", str(tmp_path), "--paths", "3",
                 "--horizon", "4.0", "--seed", "5"]) == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["paths"] == 3 and report["t_end"] == 4.0
    assert report["seed"] == 5


def test_out_env_var(tmp_path, capsys, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("AFFINESDE_OUT", str(target))
    doc = base_doc()
    doc["simulation"] = {"dt": 0.5, "t_end": 2.0, "paths": 1, "seed": 0}
    assert main(["simulate", write(tmp_path, doc)]) == EXIT_OK
    capsys.readouterr()
    assert (target / "demo.paths.csv").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_consistent(tmp_path, capsys):
    doc = base_doc()
    doc["simulation"] = {"dt": 0.125, "t_end": 256.0, "paths": 50, "seed": 2}
    assert main(["verify", write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["agreement"] == "Consistent"
    assert report["verdict"]["regime"] == "StableAS"


def test_verify_negative_control_inconsistent(tmp_path, capsys):
    # sigma decays so slowly that it is indistinguishable from constant noise
    # over this horizon: the classifier is right asymptotically but the finite
    # run contradicts it
    doc = base_doc()
    doc["sigma"] = {"kind": "envelope", "family": "ExpDecay",
                    "params": {"scale": 1.0, "rate": 1.0e-4},
                    "pattern": [[1.0, 0.0], [0.0, 1.0]]}
    doc["simulation"] = {"dt": 0.125, "t_end": 256.0, "paths": 50, "seed": 2}
    assert main(["verify", write(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_INCONSISTENT
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["agreement"] == "Inconsistent"


def test_verify_tiny_horizon_inconclusive(tmp_path, capsys):
    doc = base_doc()
    doc["simulation"] = {"dt": 0.25, "t_end": 2.0, "paths": 5, "seed": 2}
    assert main(["verify", write(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_UNDECIDED
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["agreement"] == "Inconclusive"


@pytest.mark.parametrize("t_end", [1.0, 2.0])
def test_verify_one_or_two_step_horizon_inconclusive(tmp_path, capsys, t_end):
    # on a grid of one or two steps all four checkpoints fall on grid point
    # 1, so the trends are fitted on times without spread: the report still
    # reads Inconclusive for the short horizon, with no traceback
    doc = base_doc()
    doc["simulation"] = {"dt": 1.0, "t_end": t_end, "paths": 5, "seed": 2}
    assert main(["verify", write(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_UNDECIDED
    out, err = capsys.readouterr()
    report = yaml.safe_load(out)
    assert report["agreement"] == "Inconclusive"
    assert report["evidence"]["notes"] == \
        ["horizon too short for trend evidence"]
    assert report["evidence"]["checkpoints"] == [1.0] * 4
    assert "Traceback" not in err


def _scalar_doc(sigma, **sim):
    return base_doc(drift={"kind": "constant", "matrix": [[-1.0]]},
                    sigma={"kind": "constant", "values": [[sigma]]},
                    initial_state=[1.0],
                    simulation={"dt": 0.125, "t_end": 64.0, "paths": 20,
                                "seed": 3, **sim})


def test_verify_large_noise(tmp_path, capsys):
    # Q scales with sigma^2; the covariance error check must scale with it
    codes = [main(["verify", write(tmp_path, _scalar_doc(s), f"s{s}.yaml"),
                   "--out", str(tmp_path)]) for s in (1.0, 1000.0)]
    assert "numeric failure" not in capsys.readouterr().err
    assert codes[1] == codes[0]


def test_verify_flat_running_maxima_inconclusive(tmp_path, capsys):
    # from x0 = 100 under noise 0.01 every running maximum is the initial
    # 100: an exactly flat series, neither growth nor a contradiction
    doc = _scalar_doc(0.01, dt=0.25, t_end=140.0, seed=1)
    doc["initial_state"] = [100.0]
    assert main(["verify", write(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_UNDECIDED
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["verdict"]["regime"] == "Unbounded"
    assert report["evidence"]["notes"] == ["running maxima not strictly "
                                           "increasing across all checkpoints"]


def test_simulate_nonfinite_states_exit_numeric(tmp_path, capsys,
                                               monkeypatch):
    # the unstable drift [[1]] multiplies the state by e^4 each step of
    # dt = 4, so it overflows long before t = 4096, on the calling thread's
    # shard and on a worker's alike
    doc = _scalar_doc(1.0, dt=4.0, t_end=4096.0, paths=2)
    doc["drift"] = {"kind": "constant", "matrix": [[1.0]]}
    for shards in (1, 2):
        monkeypatch.setattr(simulate, "_cpus", lambda: shards)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", write(tmp_path, doc), "--out",
                         str(tmp_path)])
        assert code == EXIT_NUMERIC
        assert "numeric failure: non-finite states in ensemble" in \
            capsys.readouterr().err
        # the CSV opened before the failure is removed, and no report written
        assert not (tmp_path / "demo.paths.csv").exists()
        assert not (tmp_path / "demo.simulate.yaml").exists()


def test_simulate_failed_propagator_solve_exits_numeric(tmp_path, capsys):
    # the periodic sampler's stacked adjoint solve fails: drift entries of
    # 1e300 overflow its stages, the step shrinks below 10 ulp, and the
    # RuntimeError is reported as a numeric failure
    doc = _scalar_doc(1.0, dt=0.5, t_end=4.0, paths=2)
    doc["drift"] = {"kind": "periodic", "period": 1.0, "times": [0.0, 0.5],
                    "values": [[[-1e300]], [[1e300]]]}
    assert main(["simulate", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_NUMERIC
    assert "numeric failure: fundamental solution integration failed: " \
        "step size" in capsys.readouterr().err


def test_simulate_overflowing_constant_drift_exits_numeric(tmp_path, capsys):
    # exp(dt) overflows on [[1]] for dt above 709.78, and the constant
    # drift's transition is refused before its adjoint solve, which just
    # above 709 stepped until its stages overflowed, about 5 s at the
    # sampler's tol 1e-12
    doc = _scalar_doc(1.0, dt=710.0, t_end=1420.0, paths=1)
    doc["drift"] = {"kind": "constant", "matrix": [[1.0]]}
    start = time.perf_counter()
    assert main(["simulate", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_NUMERIC
    assert time.perf_counter() - start < 1.0
    assert "numeric failure: fundamental solution integration failed: " \
        "the transition overflows" in capsys.readouterr().err


@pytest.mark.parametrize("family, params", [
    ("PowerLaw", {"scale": 1e200, "exponent": -0.5}),
    ("ExpDecay", {"scale": 1e200, "rate": 1.0}),
], ids=["power-law", "exp-decay"])
def test_classify_overflowing_energies_exit_numeric(tmp_path, capsys, family,
                                                    params):
    # sigma^2 = 1e400 overflows the window energies at the first quadrature
    # level, which raises there; doubling the panels on NaN errors took the
    # quadrature to 4096 panels, 2 s and 634 MB peak RSS
    doc = base_doc(sigma={"kind": "envelope", "family": family,
                          "params": params, "pattern": np.eye(2).tolist()})
    start = time.perf_counter()
    assert main(["classify", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_NUMERIC
    assert time.perf_counter() - start < 1.0
    assert "numeric failure: quadrature value is not finite at 1 panels" in \
        capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_table_energies_exit_numeric(tmp_path, capsys):
    # a table's window energies of 1e400 overflow: classify reports one
    # numeric failure, where inf - inf made them NaN, read as zero terms
    # (partial_value 0.0 at every eps, exit 3, two numpy warnings); verify
    # needs no energy of a table, whose verdict is Undecided
    doc = base_doc(sigma={"kind": "table", "times": [0.0, 1.0],
                          "values": [[[1e200, 0.0]], [[1e200, 0.0]]]},
                   drift={"kind": "constant", "matrix": [[-1.0]]},
                   initial_state=[1.0])
    path = write(tmp_path, doc)
    assert main(["classify", path, "--out", str(tmp_path)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("numeric failure:") == 1, err
    assert "numeric failure: table energy is not finite" in err
    assert main(["verify", path, "--out", str(tmp_path)]) == EXIT_UNDECIDED


def test_unallocatable_criterion_window_exits_numeric(tmp_path, capsys):
    # 10^15 window edges take 7.11 PiB, beyond any 47-bit address space, so
    # the allocation fails at once; the MemoryError was a traceback
    doc = base_doc(criteria={"n_terms": 10 ** 15})
    assert main(["classify", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("numeric failure:") == 1, err
    assert "Unable to allocate" in err


def _power_law_periodic_doc(scale, exponent):
    """A PowerLaw(scale, exponent) I noise on a 16-knot periodic drift, the
    grid and seed of verify-periodic's benchmark scenario at 20 paths."""
    times = [2 * math.pi * k / 16 for k in range(16)]
    return base_doc(
        drift={"kind": "periodic", "period": 2 * math.pi, "times": times,
               "values": [[[-1.0 + math.cos(t), 0.5], [0.0, -2.0 + math.sin(t)]]
                          for t in times]},
        sigma={"kind": "envelope", "family": "PowerLaw",
               "params": {"scale": scale, "exponent": exponent},
               "pattern": np.eye(2).tolist()},
        simulation={"dt": 2 * math.pi / 64, "t_end": 256 * math.pi,
                    "paths": 20, "seed": 606})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_overflowing_covariance_panel_exits_numeric(tmp_path, capsys):
    # sigma^2 = 1e400 overflows the sampler's first covariance panel on a
    # 16-knot periodic drift, which raises at level 0 without a numpy
    # warning; climbing to 4096 panels on NaN checks took 3-4 s and 413 MB
    doc = _power_law_periodic_doc(1e200, -0.5)
    start = time.perf_counter()
    assert main(["verify", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_NUMERIC
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "numeric failure: the covariance " \
        "panel is not finite at 1 panels\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_overflowing_squared_norms_exit_numeric(tmp_path, capsys):
    # sigma = 1e153 sqrt(t) I keeps the states finite, near 1e153, but their
    # squared norms overflow: the evidence raises on them, where it read inf
    # medians and NaN trends as Inconclusive after 16 lines of warnings
    doc = _power_law_periodic_doc(1e153, 0.5)
    start = time.perf_counter()
    assert main(["verify", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_NUMERIC
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == "numeric failure: squared state " \
        "norms or their time averages overflow\n"


def test_verify_does_not_load_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rule is a literal table: a fresh interpreter that
    # runs verify on a periodic drift has not loaded numpy.polynomial, which
    # numpy 2 loads lazily
    periodic = write(tmp_path, base_doc(
        drift={"kind": "periodic", "period": 1.0, "times": [0.0, 0.5],
               "values": [[[-1.0, 0.5], [0.0, -2.0]],
                          [[-2.0, 0.0], [0.3, -0.5]]]},
        simulation={"dt": 0.125, "t_end": 16.0, "paths": 8, "seed": 1}))
    code = (f"import sys, numpy\n"
            f"if 'numpy.polynomial' in sys.modules:\n"
            f"    print('loaded by numpy')\n"
            f"    sys.exit()\n"
            f"from affinesde.cli import main\n"
            f"main(['verify', {periodic!r}, '--out', {str(tmp_path)!r}])\n"
            f"print('numpy.polynomial' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    if run.stdout.splitlines()[-1] == "loaded by numpy":
        pytest.skip("import numpy loads numpy.polynomial (numpy 1.x)")
    assert run.stdout.splitlines()[-1] == "False"


def test_scenario_naming_a_scheme_is_rejected(tmp_path, capsys):
    # the exact sampler is the only one: a file that asked for another must
    # not get it without notice
    for scheme in ("EulerMaruyama", "ExactLinearGaussian"):
        doc = _scalar_doc(1.0, scheme=scheme)
        assert main(["simulate", write(tmp_path, doc), "--out",
                     str(tmp_path)]) == EXIT_PARSE
        assert "unknown keys in 'simulation': scheme" in \
            capsys.readouterr().err


def test_scenario_naming_cov_tol_is_rejected(tmp_path, capsys):
    # the covariance tolerance is the sampler's own constant: a file that
    # set one must not be sampled at another without notice
    doc = _scalar_doc(1.0, cov_tol=1e-10)
    assert main(["verify", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_PARSE
    assert "unknown keys in 'simulation': cov_tol" in capsys.readouterr().err


def test_scenario_naming_stats_is_rejected(tmp_path, capsys):
    # the evidence rules are the stats module's own constants: a file that
    # set other thresholds must not be judged by these without notice
    doc = base_doc(stats={"stable_final_sup": 10.0})
    assert main(["verify", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_PARSE
    assert "unknown keys in 'scenario': stats" in capsys.readouterr().err


def test_verify_holds_no_ensemble(tmp_path, capsys):
    # verify streams the sampler into the evidence: its allocation peak stays
    # well below the (paths, N+1, d) states it never builds
    paths, steps = 256, 16384
    doc = base_doc(sigma={"kind": "constant", "values": [[1.0, 0.0],
                                                         [0.0, 1.0]]},
                   simulation={"dt": 0.125, "t_end": 0.125 * steps,
                               "paths": paths, "seed": 1})
    path = write(tmp_path, doc)
    tracemalloc.start()
    try:
        code = main(["verify", path, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (EXIT_OK, EXIT_UNDECIDED)
    capsys.readouterr()
    states_bytes = paths * (steps + 1) * 2 * 8
    assert peak < 0.5 * states_bytes, (peak, states_bytes)


def test_verify_undecided_drift(tmp_path, capsys):
    doc = base_doc()
    doc["drift"] = {"kind": "constant", "matrix": [[0.1, 0.0], [0.0, -1.0]]}
    assert main(["verify", write(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_UNDECIDED
    capsys.readouterr()


# ---------------------------------------------------------------------------
# floquet
# ---------------------------------------------------------------------------

def test_floquet_constant_with_period(tmp_path, capsys):
    doc = base_doc()
    doc["drift"] = {"kind": "constant", "matrix": [[-1.0]], "period": 1.0}
    doc["sigma"] = {"kind": "constant", "values": [[1.0]]}
    doc["initial_state"] = [1.0]
    assert main(["floquet", write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    assert report["rho"] == pytest.approx(math.exp(-1.0), rel=1e-8)
    assert report["drift_stable"] is True


def test_floquet_periodic_table(tmp_path, capsys):
    tt = np.linspace(0.0, 2 * math.pi, 257)[:-1]
    doc = base_doc()
    doc["drift"] = {"kind": "periodic", "period": float(2 * math.pi),
                    "times": [float(t) for t in tt],
                    "values": [[[float(math.sin(t))]] for t in tt]}
    doc["sigma"] = {"kind": "constant", "values": [[1.0]]}
    doc["initial_state"] = [1.0]
    assert main(["floquet", write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_OK
    report = yaml.safe_load(capsys.readouterr().out)
    # piecewise-linear table of sin: multiplier within interpolation error of 1
    assert report["rho"] == pytest.approx(1.0, abs=1e-3)


def test_classify_and_floquet_agree_on_a_barely_stable_drift(tmp_path, capsys):
    # A(t) = -1e-8 + cos(t) / 2 at 16 knots: the trapezoid mean of the
    # sampled cosine is zero, so rho = exp(-2 pi 1e-8) < 1, which the gate
    # resolves only at the tolerance floquet uses
    tt = [2 * math.pi * k / 16 for k in range(16)]
    doc = base_doc()
    doc["drift"] = {"kind": "periodic", "period": float(2 * math.pi),
                    "times": tt,
                    "values": [[[-1e-8 + 0.5 * math.cos(t)]] for t in tt]}
    doc["sigma"] = {"kind": "constant", "values": [[1.0]]}
    doc["initial_state"] = [1.0]
    path = write(tmp_path, doc)
    assert main(["floquet", path, "--out", str(tmp_path)]) == EXIT_OK
    floquet = yaml.safe_load(capsys.readouterr().out)
    assert floquet["rho"] < 1.0 and floquet["drift_stable"] is True
    assert main(["classify", path, "--out", str(tmp_path)]) == EXIT_OK
    verdict = yaml.safe_load(capsys.readouterr().out)["verdict"]
    assert verdict["drift_stable"] is True
    assert verdict["regime"] == "Unbounded"


_LOG_R2_SIGMA = {"kind": "envelope", "family": "LogPower",
                 "params": {"gamma": 1.0},
                 "pattern": (np.eye(2) / math.sqrt(2.0)).tolist()}


@pytest.mark.parametrize("matrix", [
    [[1.0, 1.0], [-1.0, -1.0]], [[2.0, -5.0], [1.0, -2.0]],
    [[3.0, -10.0], [1.0, -3.0]], [[0.5, -1.25], [1.0, -0.5]],
])
def test_classify_marginal_drift_exits_undecided(tmp_path, capsys, matrix):
    # eigenvalues 0 or +-i: the spectral abscissa rounded below 0 passed
    # gate 1, and classify read BoundedNonConvergent, exit 0
    doc = base_doc(drift={"kind": "constant", "matrix": matrix},
                   sigma=_LOG_R2_SIGMA)
    assert main(["classify", write(tmp_path, doc), "--out",
                 str(tmp_path)]) == EXIT_UNDECIDED
    verdict = yaml.safe_load(capsys.readouterr().out)["verdict"]
    assert verdict["regime"] == "Undecided"
    assert verdict["drift_stable"] is False
    assert "stability margin" in verdict["note"]


def _rotation_drift_doc(seed):
    """A 3-knot drift w(t) S [[0, 1], [-1, 0]] S^-1 of period 1, S and w
    seeded: rho = 1 exactly, computed within 1e-13 of it."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((2, 2))
    w = rng.uniform(-2.0, 2.0, 3)
    values = [(wk * S @ np.array([[0.0, 1.0], [-1.0, 0.0]]) @
               np.linalg.inv(S)).tolist() for wk in w]
    return base_doc(drift={"kind": "periodic", "period": 1.0,
                           "times": [0.0, 1 / 3, 2 / 3], "values": values},
                    sigma=_LOG_R2_SIGMA)


def test_floquet_and_classify_share_the_certificate(tmp_path, capsys):
    # floquet read rho < 1.0 and classify the same test, so they agreed on
    # the rotations by calling them stable; both now read the certificate
    ts = [2 * math.pi * k / 16 for k in range(16)]
    cases = [(_rotation_drift_doc(seed), False) for seed in range(8)] + [
        (base_doc(drift={"kind": "periodic", "period": 2 * math.pi,
                         "times": ts,
                         "values": [[[-1.0 + math.cos(t), 0.5],
                                     [0.0, -2.0 + math.sin(t)]] for t in ts]}),
         True),
        (base_doc(drift={"kind": "periodic", "period": 1.0, "times": [0.0],
                         "values": [[[0.0, 1.0], [-1.0, 0.0]]]}), False),
        (_kinked_diagonal_doc(-400.0), True),
        (_kinked_diagonal_doc(400.0), False)]
    for i, (doc, stable) in enumerate(cases):
        path = write(tmp_path, doc, f"case{i}.yaml")
        assert main(["floquet", path, "--out", str(tmp_path)]) == EXIT_OK
        assert yaml.safe_load(capsys.readouterr().out)["drift_stable"] is \
            stable, i
        assert main(["classify", path, "--out", str(tmp_path)]) == \
            (EXIT_OK if stable else EXIT_UNDECIDED)
        assert yaml.safe_load(capsys.readouterr().out)["verdict"][
            "drift_stable"] is stable, i


def _kinked_diagonal_doc(a):
    """The 2-knot drift of period 1 with A(0) = a I and A(1/2) = a I plus
    0.1 above the diagonal, with ExpDecay noise: rho = e^a, while det Psi(1)
    = e^{2 a} leaves the doubles for |a| = 400 already."""
    return base_doc(drift={"kind": "periodic", "period": 1.0,
                           "times": [0.0, 0.5],
                           "values": [[[a, 0.0], [0.0, a]],
                                      [[a, 0.1], [0.0, a]]]})


def test_extremely_stable_periodic_drift_is_stable(tmp_path, capsys):
    # rho = e^-400 is a normal double though det Psi(1) underflows to 0
    path = write(tmp_path, _kinked_diagonal_doc(-400.0))
    assert main(["classify", path, "--out", str(tmp_path)]) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out)["verdict"]["regime"] == \
        "StableAS"
    assert main(["floquet", path, "--out", str(tmp_path)]) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out)["rho"] == \
        pytest.approx(math.exp(-400.0), rel=1e-9)


def test_extremely_unstable_periodic_drift(tmp_path, capsys):
    # e^800 overflows the period's product: a numeric failure, reported on
    # one line and no traceback; e^400 does not, though its determinant
    # does, and classify rules on it with no RuntimeWarning (the suite
    # turns those into errors)
    path = write(tmp_path, _kinked_diagonal_doc(800.0))
    for command in ("classify", "floquet"):
        assert main([command, path, "--out", str(tmp_path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("numeric failure:") == 1, err
        assert err.startswith("numeric failure: monodromy matrix is not "
                              "finite") and "Traceback" not in err
    path = write(tmp_path, _kinked_diagonal_doc(400.0), "a400.yaml")
    assert main(["classify", path, "--out", str(tmp_path)]) == EXIT_UNDECIDED
    assert yaml.safe_load(capsys.readouterr().out)["verdict"]["regime"] == \
        "Undecided"


def test_sampler_setup_error_exit_parse(tmp_path, capsys):
    # dt = 0.05 does not divide the period 2 pi: only sampling needs that,
    # so the scenario parses, classify and floquet run, and verify and
    # simulate report a scenario error
    doc = base_doc()
    doc["drift"] = {"kind": "periodic", "period": float(2 * math.pi),
                    "times": [0.0, float(math.pi)],
                    "values": [[[-0.5]], [[-1.5]]]}
    doc["sigma"] = {"kind": "constant", "values": [[1.0]]}
    doc["initial_state"] = [1.0]
    doc["simulation"] = {"dt": 0.05, "t_end": 1.0, "paths": 4, "seed": 1}
    path = write(tmp_path, doc)
    for command in ("classify", "floquet"):
        assert main([command, path, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    for command in ("verify", "simulate"):
        assert main([command, path, "--out", str(tmp_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("scenario error:")
        assert "dt must divide the drift period" in err


def test_constant_drift_with_period_is_one_knot_periodic(tmp_path, capsys):
    # the period of a constant drift does not constrain dt, and the report
    # equals that of the same matrix written as a one-knot periodic drift
    A = [[-1.0, 0.5], [0.0, -2.0]]
    doc = base_doc()
    doc["simulation"] = {"dt": 0.3, "t_end": 76.8, "paths": 40, "seed": 3}
    doc["drift"] = {"kind": "constant", "matrix": A, "period": 1.0}
    periodic = base_doc()
    periodic["simulation"] = doc["simulation"]
    periodic["drift"] = {"kind": "periodic", "period": 1.0, "times": [0.0],
                         "values": [A]}
    outs = []
    for d, name in ((doc, "constant.yaml"), (periodic, "periodic.yaml")):
        path = write(tmp_path, d, name)
        code = main(["verify", path, "--out", str(tmp_path)])
        outs.append((code, capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0][0] == EXIT_OK


@pytest.mark.parametrize("period", [0.0, -1.0])
def test_constant_drift_nonpositive_period_exit_parse(tmp_path, capsys,
                                                      period):
    doc = base_doc()
    doc["drift"] = {"kind": "constant", "matrix": [[-1.0]], "period": period}
    doc["sigma"] = {"kind": "constant", "values": [[1.0]]}
    doc["initial_state"] = [1.0]
    path = write(tmp_path, doc)
    for command in ("classify", "floquet"):
        assert main([command, path, "--out", str(tmp_path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("scenario error:")


def test_floquet_needs_period(tmp_path, capsys):
    assert main(["floquet", write(tmp_path, base_doc()),
                 "--out", str(tmp_path)]) == EXIT_PARSE
    assert "period" in capsys.readouterr().err
