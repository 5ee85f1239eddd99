"""Scenario-driven command line front end.

A scenario is a single YAML file naming a drift, a diffusion intensity and
the classification / simulation / comparison parameters.  Subcommands:

    classify   analytic regime verdict and criterion report
    simulate   sample paths, write a long-format CSV
    verify     classify, simulate, then compare prediction with evidence
    floquet    monodromy matrix and Floquet multiplier of the drift

Exit codes: 0 success/Consistent, 1 scenario parse error, 2 numeric
failure, 3 Undecided or Inconclusive, 4 Inconsistent.  Reports go to
stdout (and a file); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import criteria, model, simulate, stats
from .linalg import StabilityError, monodromy
from .model import (CallableDrift, ConstantDrift, DiffusionSpec, ExpDecay,
                    LogGrow, LogPower, PeriodicDrift, PowerLaw, QuadratureError)
from .simulate import (SCHEME_EXACT, CovarianceError, SimConfig,
                       simulate_X, simulate_X_periodic)

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

_ENVELOPES = {
    "PowerLaw": (PowerLaw, ("scale", "exponent")),
    "LogPower": (LogPower, ("gamma",)),
    "ExpDecay": (ExpDecay, ("scale", "rate")),
    "LogGrow": (LogGrow, ("scale", "exponent")),
}

# eps_lo, eps_hi and eps_points are still accepted so that existing scenario
# files parse, but nothing reads them: classify computes eps* in closed form
_CRITERIA_DEFAULTS = {"h": 1.0, "c": 1.0, "eps_lo": 2.0 ** -8,
                      "eps_hi": 2.0 ** 8, "eps_points": 33, "n_terms": 512,
                      "t_max": 256.0, "tol": 1e-8}
_SIM_DEFAULTS = {"dt": 0.05, "t_end": 64.0, "paths": 100, "seed": 0,
                 "scheme": SCHEME_EXACT, "cov_tol": 1e-10}
_STATS_DEFAULTS = {f.name: f.default
                   for f in dataclasses.fields(stats.CompareThresholds)}


def _check_keys(section: dict, name: str, allowed, required=()):
    if not isinstance(section, dict):
        raise ScenarioError(f"section {name!r} must be a mapping")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown keys in {name!r}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(section))
    if missing:
        raise ScenarioError(f"missing keys in {name!r}: {', '.join(missing)}")


def _num(section: dict, key: str, default=None, kind=float):
    v = section.get(key, default)
    try:
        return kind(v)
    except (TypeError, ValueError):
        raise ScenarioError(f"field {key!r} must be a number, got {v!r}")


def _matrix(v, name: str):
    try:
        m = np.atleast_2d(np.asarray(v, dtype=float))
    except (TypeError, ValueError):
        raise ScenarioError(f"{name} must be a numeric matrix")
    return [[float(x) for x in row] for row in m]


def _defaults(section: dict, defaults: dict, name: str) -> dict:
    _check_keys(section, name, defaults)
    out = {}
    for k, dv in defaults.items():
        if isinstance(dv, float):
            out[k] = _num(section, k, dv, float)
        elif isinstance(dv, int):
            out[k] = _num(section, k, dv, int)
        else:
            out[k] = str(section.get(k, dv))
    return out


@dataclass(frozen=True)
class Scenario:
    name: str
    drift: dict
    sigma: dict
    initial_state: tuple
    criteria: dict
    simulation: dict
    stats: dict
    output_dir: Optional[str] = None

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be a mapping")
        _check_keys(doc, "scenario",
                    ("name", "drift", "sigma", "initial_state", "criteria",
                     "simulation", "stats", "output_dir"),
                    required=("name", "drift", "sigma"))
        name = str(doc["name"])

        drift = dict(doc["drift"])
        kind = drift.get("kind")
        if kind == "constant":
            _check_keys(drift, "drift", ("kind", "matrix", "period"),
                        required=("matrix",))
            drift = {"kind": "constant",
                     "matrix": _matrix(drift["matrix"], "drift.matrix")}
            if "period" in dict(doc["drift"]):
                drift["period"] = _num(dict(doc["drift"]), "period")
        elif kind == "periodic":
            _check_keys(drift, "drift", ("kind", "period", "times", "values"),
                        required=("period", "times", "values"))
            drift = {"kind": "periodic",
                     "period": _num(drift, "period"),
                     "times": [float(t) for t in drift["times"]],
                     "values": [_matrix(v, "drift.values") for v in drift["values"]]}
        else:
            raise ScenarioError(f"drift.kind must be constant or periodic, "
                                f"got {kind!r}")

        sigma = dict(doc["sigma"])
        skind = sigma.get("kind")
        if skind == "constant":
            _check_keys(sigma, "sigma", ("kind", "values"), required=("values",))
            sigma = {"kind": "constant",
                     "values": _matrix(sigma["values"], "sigma.values")}
        elif skind == "envelope":
            _check_keys(sigma, "sigma", ("kind", "family", "params", "pattern"),
                        required=("family", "params", "pattern"))
            fam = str(sigma["family"])
            if fam not in _ENVELOPES:
                raise ScenarioError(f"unknown envelope family {fam!r}")
            _, param_names = _ENVELOPES[fam]
            _check_keys(sigma["params"], "sigma.params", param_names,
                        required=param_names)
            sigma = {"kind": "envelope", "family": fam,
                     "params": {k: _num(sigma["params"], k)
                                for k in param_names},
                     "pattern": _matrix(sigma["pattern"], "sigma.pattern")}
        elif skind == "table":
            _check_keys(sigma, "sigma", ("kind", "times", "values"),
                        required=("times", "values"))
            sigma = {"kind": "table",
                     "times": [float(t) for t in sigma["times"]],
                     "values": [_matrix(v, "sigma.values") for v in sigma["values"]]}
        else:
            raise ScenarioError(f"sigma.kind must be constant, envelope or "
                                f"table, got {skind!r}")

        crit = _defaults(doc.get("criteria") or {}, _CRITERIA_DEFAULTS, "criteria")
        sim = _defaults(doc.get("simulation") or {}, _SIM_DEFAULTS, "simulation")
        sts = _defaults(doc.get("stats") or {}, _STATS_DEFAULTS, "stats")

        scn = Scenario(
            name=name, drift=drift, sigma=sigma,
            initial_state=tuple(float(x) for x in doc.get("initial_state", ())),
            criteria=crit, simulation=sim, stats=sts,
            output_dir=(None if doc.get("output_dir") is None
                        else str(doc["output_dir"])))
        # build everything once so out-of-range parameters fail at parse time
        try:
            scn.build_drift()
            scn.build_sigma()
            scn.sim_config()
            scn.thresholds()
        except (ValueError, TypeError) as exc:
            raise ScenarioError(str(exc)) from exc
        if not scn.initial_state:
            scn = dataclasses.replace(
                scn, initial_state=tuple(1.0 for _ in range(scn.build_sigma().d)))
        return scn

    def to_dict(self) -> dict:
        return {"name": self.name, "drift": self.drift, "sigma": self.sigma,
                "initial_state": list(self.initial_state),
                "criteria": self.criteria, "simulation": self.simulation,
                "stats": self.stats, "output_dir": self.output_dir}

    # -- materialized objects ----------------------------------------------
    def build_drift(self):
        d = self.drift
        if d["kind"] == "constant":
            A = np.asarray(d["matrix"], dtype=float)
            if "period" in d:
                return CallableDrift(fn=lambda t, A=A: A, d=A.shape[0],
                                     period=float(d["period"]))
            return ConstantDrift(A)
        return PeriodicDrift(period=d["period"],
                             times=np.asarray(d["times"], dtype=float),
                             values=[np.asarray(v, float) for v in d["values"]])

    def build_sigma(self) -> DiffusionSpec:
        s = self.sigma
        if s["kind"] == "constant":
            return DiffusionSpec.constant(np.asarray(s["values"], dtype=float))
        if s["kind"] == "envelope":
            cls, _ = _ENVELOPES[s["family"]]
            env = cls(**s["params"])
            return DiffusionSpec.envelope(env, np.asarray(s["pattern"], float))
        return DiffusionSpec.table(np.asarray(s["times"], dtype=float),
                                   np.asarray(s["values"], dtype=float))

    def sim_config(self) -> SimConfig:
        return SimConfig(**self.simulation)

    def thresholds(self) -> stats.CompareThresholds:
        return stats.CompareThresholds(**self.stats)


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


def dump_scenario(scn: Scenario) -> str:
    return yaml.safe_dump(scn.to_dict(), sort_keys=False)


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
    sys.stdout.write(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / filename).write_text(text)


def _out_dir(scn: Scenario, args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    if scn.output_dir:
        return Path(scn.output_dir)
    return Path(os.environ.get(OUT_ENV_VAR, "."))


def _apply_overrides(scn: Scenario, args) -> Scenario:
    sim = dict(scn.simulation)
    if getattr(args, "seed", None) is not None:
        sim["seed"] = int(args.seed)
    if getattr(args, "paths", None) is not None:
        sim["paths"] = int(args.paths)
    if getattr(args, "horizon", None) is not None:
        sim["t_end"] = float(args.horizon)
    scn = dataclasses.replace(scn, simulation=sim)
    scn.sim_config()   # re-validate after overrides
    return scn


def _run_ensemble(scn: Scenario):
    drift = scn.build_drift()
    sigma = scn.build_sigma()
    xi = np.asarray(scn.initial_state, dtype=float)
    cfg = scn.sim_config()
    if getattr(drift, "period", None) is not None:
        return simulate_X_periodic(drift, sigma, xi, cfg)
    return simulate_X(drift, sigma, xi, cfg)


def _write_paths_csv(ens, path: Path) -> None:
    d = ens.d
    header = "path_id,t," + ",".join(f"x_{i+1}" for i in range(d)) + ",norm2"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for p in range(ens.n_paths):
            for j, t in enumerate(ens.times):
                row = [str(p), f"{t:.17g}"]
                row += [f"{x:.17g}" for x in ens.states[p, j]]
                row.append(f"{ens.norms[p, j]:.17g}")
                fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(scn: Scenario, args) -> int:
    crit = scn.criteria
    sigma = scn.build_sigma()
    drift = scn.build_drift()
    verdict = criteria.classify(sigma, drift, h=crit["h"],
                                tol=min(crit["tol"], 1e-8))
    report = criteria.criterion_report(
        sigma, h=crit["h"], c=crit["c"], n_terms=min(crit["n_terms"], 256),
        t_max=crit["t_max"], tol=crit["tol"])
    doc = {"scenario": scn.name, "verdict": _verdict_dict(verdict),
           "criteria": report.to_dict()}
    _emit(doc, _out_dir(scn, args), f"{scn.name}.classify.yaml")
    return EXIT_UNDECIDED if verdict.regime == "Undecided" else EXIT_OK


def cmd_simulate(scn: Scenario, args) -> int:
    ens = _run_ensemble(scn)
    out = _out_dir(scn, args)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{scn.name}.paths.csv"
    _write_paths_csv(ens, csv_path)
    msq, msq_se = stats.ensemble_mean_sq(ens)
    doc = {"scenario": scn.name, "csv": str(csv_path),
           "paths": ens.n_paths, "steps": len(ens.times) - 1,
           "dt": ens.config.dt, "t_end": float(ens.times[-1]),
           "scheme": ens.config.scheme, "seed": ens.config.seed,
           "final_mean_sq": float(msq[-1]),
           "final_mean_sq_se": float(msq_se[-1]),
           "final_norm_median": float(np.median(ens.norms[:, -1]))}
    _emit(doc, out, f"{scn.name}.simulate.yaml")
    return EXIT_OK


def cmd_verify(scn: Scenario, args) -> int:
    crit = scn.criteria
    sigma = scn.build_sigma()
    drift = scn.build_drift()
    verdict = criteria.classify(sigma, drift, h=crit["h"],
                                tol=min(crit["tol"], 1e-8))
    doc = {"scenario": scn.name, "verdict": _verdict_dict(verdict)}
    if verdict.regime == "Undecided":
        doc["agreement"] = "Inconclusive"
        _emit(doc, _out_dir(scn, args), f"{scn.name}.verify.yaml")
        return EXIT_UNDECIDED
    ens = _run_ensemble(scn)
    evidence = stats.compare(verdict, ens, thresholds=scn.thresholds())
    doc["evidence"] = evidence.summary()
    doc["agreement"] = evidence.agreement
    _emit(doc, _out_dir(scn, args), f"{scn.name}.verify.yaml")
    if evidence.agreement == stats.INCONSISTENT:
        return EXIT_INCONSISTENT
    if evidence.agreement == stats.INCONCLUSIVE:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_floquet(scn: Scenario, args) -> int:
    drift = scn.build_drift()
    if getattr(drift, "period", None) is None:
        raise ScenarioError("floquet needs a periodic drift or a constant "
                            "drift with an explicit period")
    res = monodromy(drift, tol=min(scn.criteria["tol"], 1e-12))
    doc = {"scenario": scn.name,
           "period": float(drift.period),
           "monodromy": [[float(x) for x in row] for row in res.Psi_T],
           "rho": float(res.rho),
           "drift_stable": bool(res.rho < 1.0)}
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
    args = parser.parse_args(argv)

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
    except (QuadratureError, CovarianceError, StabilityError,
            FloatingPointError, OverflowError, np.linalg.LinAlgError,
            RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
