"""Seeded faults (mutants) and whether the test suite kills them.

Each mutant is a name, the fault it seeds and its edits: a file, an exact
source fragment that must occur in it exactly once, and the fragment's
replacement.  A fragment that is gone or ambiguous is an error, not a
pass, so a refactor that moves one must update this list.

    python tools/mutants.py     # run every mutant, write the JSON

A run first checks every fragment, then copies the tracked files
(`git ls-files`) into a fresh temporary directory per mutant, applies its
edits there and runs, with PYTHONDONTWRITEBYTECODE=1 and a timeout per
command, first the acceptance criteria (tests/test_acceptance.py), then
the whole of tests/ with -x but this table's own self-test, one mutant at
a time (the suite itself uses every CPU).  It records whether the mutant
was killed, the first failing test and whether an
acceptance criterion failed, with the commit it was measured at, in
tools/mutants.json.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "tools" / "mutants.json"
TIMEOUT_S = 900          # per pytest command

SIM = "src/affinesde/simulate.py"
CRIT = "src/affinesde/criteria.py"
LIN = "src/affinesde/linalg.py"

MUTANTS = [
    ("noise-scale", "every noise factor scaled by sqrt(1.05)", [
        (SIM, "trans, noise = psis(0.0), _noise_factors(sigma, times, dt, "
              "_COV_TOL, psis)",
         "trans, noise = psis(0.0), math.sqrt(1.05) * _noise_factors("
         "sigma, times, dt, _COV_TOL, psis)")]),
    ("streams-from-path-0", "every path group seeds its streams from path 0",
     [(SIM, "gens = _path_generators(seed, paths)",
       "gens = _path_generators(seed, range(len(paths)))")]),
    ("constant-criteria", "integral_I returns 123 and every S' partial sum -7",
     [(CRIT, "    value = np.sum(terms, axis=-1)\n",
       "    value = np.full(np.shape(np.sum(terms, axis=-1)), -7.0)\n"),
      (CRIT, "    return value if np.ndim(eps) else float(value)\n",
       "    value = np.full(np.shape(value), 123.0)\n"
       "    return value if np.ndim(eps) else float(value)\n")]),
    ("delta-zero", "the certificate's margin bound DELTA is 0", [
        (LIN, "DELTA = 4 * np.finfo(float).eps\n", "DELTA = 0.0\n")]),
    ("sign-test", "a constant drift's certificate is the sign of its "
                  "spectral abscissa again", [
        (LIN, "            solve_lyapunov(drift.matrix)\n",
         "            if spectral_abscissa(drift.matrix) >= 0.0:\n"
         "                raise StabilityError('spectral abscissa >= 0')\n")]),
    ("level-bound", "the covariance panel's checks agree to 1e3 tol, not "
                    "10 tol", [
        (SIM, "10 * tol * np.abs(v).max(", "1e3 * tol * np.abs(v).max(")]),
    ("monodromy-rho", "monodromy's rho scaled by 1.001", [
        (LIN, "return spectral_radius(self.Psi_T)",
         "return 1.001 * spectral_radius(self.Psi_T)")]),
    ("stable-final-sup", "the StableAS evidence threshold STABLE_FINAL_SUP "
                         "times 10", [
        ("src/affinesde/stats.py", "STABLE_FINAL_SUP = 0.05 ",
         "STABLE_FINAL_SUP = 0.5 ")]),
]


def check(root: Path = ROOT) -> list:
    """Every edit whose fragment does not occur exactly once under root,
    as (mutant, file, count)."""
    bad = []
    for name, _, edits in MUTANTS:
        for path, fragment, _ in edits:
            count = (root / path).read_text().count(fragment)
            if count != 1:
                bad.append((name, path, count))
    return bad


def _copy_tracked(dest: Path) -> None:
    files = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, files):
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / rel, target)


def _pytest(tree: Path, target: str) -> tuple:
    """(exit status, first failing test or None) of pytest -x on target."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--ignore=tests/test_mutants.py", target],
            cwd=tree, env=env, text=True,
            capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", None
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return proc.returncode, found.group(1) if found else None


def run(name: str, fault: str, edits: list) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy_tracked(tree)
        for path, fragment, replacement in edits:
            source = (tree / path).read_text()
            (tree / path).write_text(source.replace(fragment, replacement))
        start = time.perf_counter()
        acc_status, _ = _pytest(tree, "tests/test_acceptance.py")
        status, first = _pytest(tree, "tests")
        return {"name": name, "fault": fault,
                "files": sorted({path for path, _, _ in edits}),
                "killed": status != 0, "first_failure": first,
                "status": status, "acceptance_failed": acc_status != 0,
                "seconds": round(time.perf_counter() - start, 1)}


def main() -> int:
    bad = check()
    for name, path, count in bad:
        print(f"{name}: fragment occurs {count} times in {path}",
              file=sys.stderr)
    if bad:
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            capture_output=True, check=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout)
    rows = []
    for name, fault, edits in MUTANTS:
        rows.append(run(name, fault, edits))
        print(json.dumps(rows[-1]), flush=True)
    OUT.write_text(json.dumps({"commit": commit, "dirty": dirty,
                               "mutants": rows}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
