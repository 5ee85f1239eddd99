"""Scenario-driven command line front end.

A scenario is a single YAML file naming a drift, a diffusion intensity and
the classification / simulation parameters; the comparison's evidence rules
are fixed in `stats`.  Subcommands:

    classify   analytic regime verdict and criterion report
    simulate   sample paths, write a long-format CSV
    verify     classify, simulate, then compare prediction with evidence
    floquet    monodromy matrix and Floquet multiplier of the drift

Exit codes: 0 success/Consistent, 1 scenario parse or usage error (a scenario
name must be a plain file name) or a report or CSV that cannot be written
(``output error:``), 2 numeric failure (``numeric failure:``), an array too
large to allocate included, 3 Undecided or Inconclusive, 4 Inconsistent.
Reports go to a file <out>/<name>.<command>.yaml and, once written, to
stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import criteria, stats
from .linalg import stability_gate
from .model import (ENVELOPE_FAMILIES, REGIME_UNDECIDED, ConstantDrift,
                    DiffusionSpec, LogPower, PeriodicDrift, QuadratureError)
from .simulate import (CovarianceError, SimConfig, prepare, squared_norms,
                       state_norms)

SCHEMA_VERSION = 1
OUT_ENV_VAR = "AFFINESDE_OUT"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NUMERIC = 2
EXIT_UNDECIDED = 3
EXIT_INCONSISTENT = 4


class ScenarioError(ValueError):
    """The scenario file is malformed or out of the modules' validity ranges."""


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------

# family name -> (class, parameter names, the names without a default)
_ENVELOPES = {cls.__name__: (
    cls, tuple(f.name for f in dataclasses.fields(cls)),
    tuple(f.name for f in dataclasses.fields(cls)
          if f.default is dataclasses.MISSING)) for cls in ENVELOPE_FAMILIES}

# eps_lo, eps_hi and eps_points are still accepted so that existing scenario
# files parse, but nothing reads them: classify computes eps* in closed form
_CRITERIA_DEFAULTS = {"h": 1.0, "c": 1.0, "eps_lo": 2.0 ** -8,
                      "eps_hi": 2.0 ** 8, "eps_points": 33, "n_terms": 256,
                      "t_max": 256.0, "tol": 1e-8}
_SIM_DEFAULTS = {"dt": 0.05, "t_end": 64.0, "paths": 100, "seed": 0}


def _check_keys(section: dict, name: str, allowed, required=()):
    if not isinstance(section, dict):
        raise ScenarioError(f"section {name!r} must be a mapping")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown keys in {name!r}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(section))
    if missing:
        raise ScenarioError(f"missing keys in {name!r}: {', '.join(missing)}")


def _no_bool(v):
    """v, unless it or an entry of its lists is a boolean (YAML's no/false)."""
    if isinstance(v, bool):
        raise TypeError("a boolean is not a number")
    return [_no_bool(x) for x in v] if isinstance(v, list) else v


def _num(section: dict, key: str, default=None, kind=float):
    """section[key] (else default) as a finite float, or an integer for int."""
    v = section.get(key, default)
    try:
        x = float(_no_bool(v))
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"field {key!r} must be a number, got {v!r}")
    if not math.isfinite(x):
        raise ScenarioError(f"field {key!r} must be finite, got {v!r}")
    if kind is float:
        return x
    if isinstance(v, int):
        return int(v)
    if not x.is_integer():
        raise ScenarioError(f"field {key!r} must be an integer, got {v!r}")
    return int(x)


def _matrix(v, name: str) -> np.ndarray:
    try:
        return np.atleast_2d(np.asarray(_no_bool(v), dtype=float))
    except (TypeError, ValueError):
        raise ScenarioError(f"{name} must be a numeric matrix")


def _list(v, name: str, item) -> list:
    """Each entry of the list v converted by item, else a ScenarioError."""
    if not isinstance(v, list):
        raise ScenarioError(f"{name} must be a list")
    try:
        return [item(x) for x in _no_bool(v)]
    except (TypeError, ValueError):
        raise ScenarioError(f"{name} must be a list of numbers")


def _defaults(section: dict, defaults: dict, name: str) -> dict:
    """The section's numbers, each of its default's type (float or int)."""
    _check_keys(section, name, defaults)
    return {k: _num(section, k, dv, type(dv)) for k, dv in defaults.items()}


def _drift(section: dict) -> ConstantDrift | PeriodicDrift:
    kind = section.get("kind")
    if kind == "constant":
        _check_keys(section, "drift", ("kind", "matrix", "period"),
                    required=("matrix",))
        A = _matrix(section["matrix"], "drift.matrix")
        if "period" in section:
            # a constant drift with a period is a one-knot periodic drift
            return PeriodicDrift(period=_num(section, "period"), times=[0.0],
                                 values=[A])
        return ConstantDrift(A)
    if kind == "periodic":
        _check_keys(section, "drift", ("kind", "period", "times", "values"),
                    required=("period", "times", "values"))
        return PeriodicDrift(
            period=_num(section, "period"),
            times=np.asarray(_list(section["times"], "drift.times", float)),
            values=_list(section["values"], "drift.values",
                         lambda v: _matrix(v, "drift.values")))
    raise ScenarioError(f"drift.kind must be constant or periodic, got {kind!r}")


def _sigma(section: dict) -> DiffusionSpec:
    kind = section.get("kind")
    if kind == "constant":
        _check_keys(section, "sigma", ("kind", "values"), required=("values",))
        return DiffusionSpec.constant(_matrix(section["values"], "sigma.values"))
    if kind == "envelope":
        _check_keys(section, "sigma", ("kind", "family", "params", "pattern"),
                    required=("family", "params", "pattern"))
        fam, params = str(section["family"]), section["params"]
        if fam == "LogGrow":
            # k ln(e+t)^beta, beta > 0, is LogPower(1, -2 beta) on the
            # pattern k P: the same sigma up to rounding, without k^2
            names = ("scale", "exponent")
            _check_keys(params, "sigma.params", names, required=names)
            k, beta = (_num(params, n) for n in names)
            if not beta > 0:
                raise ScenarioError("LogGrow exponent must be positive")
            return DiffusionSpec.envelope(
                LogPower(1.0, -2.0 * beta),
                k * _matrix(section["pattern"], "sigma.pattern"))
        if fam not in _ENVELOPES:
            raise ScenarioError(f"unknown envelope family {fam!r}")
        cls, names, required = _ENVELOPES[fam]
        _check_keys(params, "sigma.params", names, required=required)
        env = cls(**{k: _num(params, k) for k in names if k in params})
        return DiffusionSpec.envelope(
            env, _matrix(section["pattern"], "sigma.pattern"))
    if kind == "table":
        _check_keys(section, "sigma", ("kind", "times", "values"),
                    required=("times", "values"))
        return DiffusionSpec.table(
            np.asarray(_list(section["times"], "sigma.times", float)),
            np.asarray(_list(section["values"], "sigma.values",
                             lambda v: _matrix(v, "sigma.values"))))
    raise ScenarioError(f"sigma.kind must be constant, envelope or table, "
                        f"got {kind!r}")


def _criteria(section: dict) -> dict:
    crit = _defaults(section, _CRITERIA_DEFAULTS, "criteria")
    for key in ("h", "c", "t_max", "tol"):
        if not crit[key] > 0:
            raise ScenarioError(f"criteria.{key} must be positive, "
                                f"got {crit[key]!r}")
    if crit["n_terms"] < 1:
        raise ScenarioError(f"criteria.n_terms must be at least 1, "
                            f"got {crit['n_terms']!r}")
    # the farthest window edges the criteria evaluate must stay finite
    for keys, edge in ((("n_terms", "h"), (crit["n_terms"] + 1) * crit["h"]),
                       (("c",), 2.0 * crit["c"]),
                       (("t_max", "c"), crit["t_max"] + crit["c"])):
        if not math.isfinite(edge):
            names = " and ".join(f"criteria.{k}" for k in keys)
            raise ScenarioError(f"{names} put a criterion window edge "
                                f"beyond the float range")
    return crit


@dataclass(frozen=True)
class Scenario:
    name: str
    drift: ConstantDrift | PeriodicDrift
    sigma: DiffusionSpec
    initial_state: tuple
    criteria: dict
    simulation: SimConfig
    output_dir: Optional[str] = None

    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be a mapping")
        _check_keys(doc, "scenario",
                    ("name", "drift", "sigma", "initial_state", "criteria",
                     "simulation", "output_dir"),
                    required=("name", "drift", "sigma"))
        name = str(doc["name"])
        # reports are written to <out>/<name>.<command>.yaml
        if name in ("", "..") or "\0" in name or Path(name).name != name:
            raise ScenarioError(f"name must be a plain file name, got {name!r}")
        for key in ("drift", "sigma"):
            if not isinstance(doc[key], dict):
                raise ScenarioError(f"section {key!r} must be a mapping")
        # each section is built where it is parsed, so out-of-range
        # parameters fail at parse time
        try:
            drift = _drift(doc["drift"])
            sigma = _sigma(doc["sigma"])
            crit = _criteria(doc.get("criteria") or {})
            sim = SimConfig(**_defaults(doc.get("simulation") or {},
                                        _SIM_DEFAULTS, "simulation"))
        except ScenarioError:
            raise
        except (ValueError, TypeError) as exc:
            raise ScenarioError(str(exc)) from exc
        d = sigma.d
        if drift.d != d:
            raise ScenarioError(f"drift is {drift.d}-dimensional but sigma "
                                f"is {d}-dimensional")
        xi = tuple(_list(doc.get("initial_state") or [], "initial_state",
                         float))
        if not xi:
            xi = (1.0,) * d
        elif len(xi) != d or not all(np.isfinite(xi)):
            raise ScenarioError(f"initial_state must hold {d} finite numbers, "
                                f"got {list(xi)}")
        return Scenario(
            name=name, drift=drift, sigma=sigma, initial_state=xi,
            criteria=crit, simulation=sim,
            output_dir=(None if doc.get("output_dir") is None
                        else str(doc["output_dir"])))


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"YAML error: {exc}") from exc
    return Scenario.from_dict(doc)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def _verdict_dict(v) -> dict:
    out = {"regime": v.regime, "drift_stable": bool(v.drift_stable),
           "fading_noise": bool(v.fading_noise),
           "mean_square_stable": bool(v.mean_square_stable),
           "liminf_zero_predicted": bool(v.liminf_zero_predicted),
           "avg_sq_zero_predicted": bool(v.avg_sq_zero_predicted)}
    if v.epsilon_star_bracket is not None:
        out["epsilon_star_bracket"] = [float(x) for x in v.epsilon_star_bracket]
    if v.note:
        out["note"] = v.note
    return out


def _emit(report: dict, out_dir: Path, filename: str) -> None:
    report = {"schema_version": SCHEMA_VERSION, **report}
    text = yaml.safe_dump(report, sort_keys=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / filename).write_text(text)
    sys.stdout.write(text)


def _out_dir(scn: Scenario, args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    if scn.output_dir:
        return Path(scn.output_dir)
    return Path(os.environ.get(OUT_ENV_VAR, "."))


def _apply_overrides(scn: Scenario, args) -> Scenario:
    flags = {"seed": args.seed, "paths": args.paths, "t_end": args.horizon}
    given = {k: v for k, v in flags.items() if v is not None}
    try:   # SimConfig re-validates
        sim = dataclasses.replace(scn.simulation, **given)
    except ValueError as exc:
        raise ScenarioError(f"after command-line overrides: {exc}") from exc
    return dataclasses.replace(scn, simulation=sim)


def _chunks(scn: Scenario):
    """The sampler's chunk stream for the scenario.

    The sampler's set-up rejects what only sampling needs, e.g. a step dt
    that does not divide the drift period; that is a scenario error, while
    its numeric failures keep their own exit code.
    """
    try:
        return prepare(scn.drift, scn.sigma,
                       scn.simulation).shards(scn.initial_state)
    except np.linalg.LinAlgError:   # a ValueError, but a numeric failure
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc


_CSV_ROWS = 2 ** 13   # CSV rows formatted at once


def _write_csv(fh, shards, cfg: SimConfig) -> np.ndarray:
    """Write the paths CSV from the (paths, stream) group pairs, their
    streams walked together on this thread in path order, and return the
    last grid row's states.  Rows are time-major (t outer, path_id inner),
    values but path_id at 17 significant digits: each pass joins the groups
    along the path axis up to the end of their shortest chunk and formats
    about _CSV_ROWS rows with one % format."""
    streams = [iter(s) for _, s in shards]
    chunks = [next(s) for s in streams]   # the X_0 chunks: no draws yet
    d = chunks[0][1].shape[2]
    fh.write("path_id,t," + ",".join(f"x_{i + 1}" for i in range(d))
             + ",norm2\n")
    row = "%d,%.17g" + ",%.17g" * (d + 1) + "\n"
    ids, times, n0 = np.arange(cfg.paths), cfg.times, 0
    step = max(1, _CSV_ROWS // cfg.paths)
    while n0 <= cfg.n_steps:
        for i, (c0, k) in enumerate([(c0, len(X)) for c0, X in chunks]):
            if c0 + k == n0:   # taken whole: drop it before the next draws
                chunks[i] = None
                chunks[i] = next(streams[i])
        end = min(c0 + len(X) for c0, X in chunks)
        for j in range(n0, end, step):
            e = min(j + step, end)
            X = np.concatenate([X[j - c0:e - c0] for c0, X in chunks], axis=1)
            vals = np.dstack([*np.broadcast_arrays(ids, times[j:e, None]), X,
                              state_norms(X)])
            fh.write(row * ids.size * (e - j) % tuple(vals.ravel().tolist()))
        n0 = end
    return X[-1]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _verdict(scn: Scenario) -> criteria.RegimeVerdict:
    return criteria.classify(scn.sigma, scn.drift, h=scn.criteria["h"],
                             tol=min(scn.criteria["tol"], 1e-8))


def cmd_classify(scn: Scenario, args) -> int:
    crit = scn.criteria
    verdict = _verdict(scn)
    report = criteria.criterion_report(
        scn.sigma, h=crit["h"], c=crit["c"], n_terms=crit["n_terms"],
        t_max=crit["t_max"], tol=crit["tol"])
    doc = {"scenario": scn.name, "verdict": _verdict_dict(verdict),
           "criteria": report.to_dict()}
    _emit(doc, _out_dir(scn, args), f"{scn.name}.classify.yaml")
    return EXIT_UNDECIDED if verdict.regime == REGIME_UNDECIDED else EXIT_OK


def _made_out_dir(scn: Scenario, args) -> Path:
    """The output directory, made now: a command that samples finds an
    unwritable one before the work rather than after it."""
    out = _out_dir(scn, args)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(scn: Scenario, args) -> int:
    out = _made_out_dir(scn, args)
    cfg = scn.simulation
    shards = _chunks(scn)   # the set-up runs here, before the CSV is opened
    csv_path = out / f"{scn.name}.paths.csv"
    fh = open(csv_path, "w")
    try:
        with fh:   # the states stream from the sampler; no ensemble
            last = _write_csv(fh, shards, cfg)
    except BaseException:   # a failure mid-stream leaves no partial CSV
        csv_path.unlink(missing_ok=True)
        raise
    # the summary reads the last grid row alone, summed in path order as
    # numpy sums the columns of a (paths, N+1) array: the ensemble's bits
    sq, n = squared_norms(last), cfg.paths
    msq = float(np.cumsum(sq)[-1]) / n
    var = float(np.cumsum((sq - msq) ** 2)[-1]) / (n - 1) if n > 1 else 0.0
    doc = {"scenario": scn.name, "csv": str(csv_path),
           "paths": cfg.paths, "steps": cfg.n_steps,
           "dt": cfg.dt, "t_end": float(cfg.times[-1]),
           "seed": cfg.seed,
           "final_mean_sq": msq,
           "final_mean_sq_se": math.sqrt(var) / math.sqrt(n),
           "final_norm_median": float(np.median(np.sqrt(sq)))}
    _emit(doc, out, f"{scn.name}.simulate.yaml")
    return EXIT_OK


def cmd_verify(scn: Scenario, args) -> int:
    out = _made_out_dir(scn, args)
    verdict = _verdict(scn)
    doc = {"scenario": scn.name, "verdict": _verdict_dict(verdict)}
    if verdict.regime == REGIME_UNDECIDED:
        doc["agreement"] = stats.INCONCLUSIVE
        _emit(doc, out, f"{scn.name}.verify.yaml")
        return EXIT_UNDECIDED
    # the states stream from the sampler into the evidence; no ensemble
    evidence = stats.compare(verdict, scn.simulation, _chunks(scn))
    doc["evidence"] = evidence.summary()
    doc["agreement"] = evidence.agreement
    _emit(doc, out, f"{scn.name}.verify.yaml")
    if evidence.agreement == stats.INCONSISTENT:
        return EXIT_INCONSISTENT
    if evidence.agreement == stats.INCONCLUSIVE:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_floquet(scn: Scenario, args) -> int:
    drift = scn.drift
    if not isinstance(drift, PeriodicDrift):
        raise ScenarioError("floquet needs a periodic drift or a constant "
                            "drift with an explicit period")
    # classify's gate at classify's tolerance, so the two cannot disagree
    gate = stability_gate(drift, tol=min(scn.criteria["tol"], 1e-12))
    res = gate.monodromy
    doc = {"scenario": scn.name,
           "period": float(drift.period),
           "monodromy": [[float(x) for x in row] for row in res.Psi_T],
           "rho": float(res.rho),
           "drift_stable": gate.stable}
    _emit(doc, _out_dir(scn, args), f"{scn.name}.floquet.yaml")
    return EXIT_OK


_COMMANDS = {"classify": cmd_classify, "simulate": cmd_simulate,
             "verify": cmd_verify, "floquet": cmd_floquet}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="affinesde",
        description="Almost-sure regime classification and Monte-Carlo "
                    "verification for affine SDEs")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("scenario", help="YAML scenario file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--paths", type=int, help="override the ensemble size")
    parser.add_argument("--horizon", type=float, help="override t_end")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 (EXIT_NUMERIC here) on a usage error, 0 on --help
        return EXIT_PARSE if exc.code else EXIT_OK

    try:
        scn = load_scenario(args.scenario)
        scn = _apply_overrides(scn, args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _COMMANDS[args.command](scn, args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:   # the output directory, a report or the CSV
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (QuadratureError, CovarianceError, FloatingPointError,
            OverflowError, np.linalg.LinAlgError, RuntimeError,
            MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
