"""Benchmark of the affinesde command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
A workload is a closed loop with one client: one process sends the
workload's in-process ``affinesde.cli.main([...])`` requests one after the
other, each with a fresh ``--out`` directory, and repeats the whole list (a
pass) until ``--seconds`` have elapsed; a started pass is never cut.  Every
request's exit code and YAML report are checked against theory
(``workloads.check``).

--trace 0 measures with tracing off and reports the end-to-end metrics.
--trace 1 repeats rounds of an untraced, a span-traced and an
allocation-traced pass and reports the per-layer metrics (``tracer.UNITS``),
the tracing overhead among them; the spans are written to
``.perfbench/spans-<workload>-seed<N>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Import affinesde and parse the workload's scenarios in a fresh interpreter;
# prints the seconds this took.  Interpreter start-up is not counted.
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import affinesde.cli
for f in sys.argv[2:]:
    affinesde.cli.load_scenario(f)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def measure_setup(files) -> float:
    """Median over SETUP_REPEATS fresh interpreters of import plus scenario load."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), *map(str, files)],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Sends a workload's requests and keeps the tally of checked outputs."""

    def __init__(self, cli, requests, work: Path):
        self.cli, self.requests, self.work = cli, requests, work
        self.attempted = 0
        self.failures = {}    # request name -> reason (first seen)
        self.failed = 0
        self._n = 0

    def run_pass(self) -> float:
        """One pass over the requests; returns the summed request wall time."""
        wall = 0.0
        for req in self.requests:
            self._n += 1
            out = self.work / f"out-{self._n}"
            argv = [req.command, str(req.scenario), "--out", str(out)]
            rc, report = None, None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    rc = self.cli.main(argv)
                    wall += time.perf_counter() - t0
                path = out / f"{req.name}.{req.command}.yaml"
                if path.is_file():
                    report = yaml.safe_load(path.read_text())
                reason = workloads.check(req, rc, report)
            except Exception:   # a crashing request is a failed request
                reason = "exception: " + traceback.format_exc().strip().splitlines()[-1]
                traceback.print_exc()
            shutil.rmtree(out, ignore_errors=True)
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.failures.setdefault(req.name, reason)
        return wall


def _timed_loop(seconds: float, body):
    """Call body() until seconds have elapsed, at least once."""
    start = time.perf_counter()
    body()
    while time.perf_counter() - start < seconds:
        body()


def run_untraced(runner: Runner, seconds: float):
    walls = []
    _timed_loop(seconds, lambda: walls.append(runner.run_pass()))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": statistics.median(walls), "peak_rss_mb": peak_mb}
    return metrics, walls


def run_traced(runner: Runner, seconds: float, spans_path: Path):
    """Rounds of an untraced, a span-traced and an allocation-traced pass."""
    plain, traced, per_pass, dumped = [], [], [], []

    def round_():
        plain.append(runner.run_pass())
        tr = tracing.Tracer()
        with tr.installed():
            traced.append(runner.run_pass())
        dumped.append({"spans": tr.spans, "counts": dict(tr.counts)})
        mem = tracing.Tracer(alloc=True)
        if tracing.allocates(tr):
            with mem.installed():
                runner.run_pass()
        per_pass.append({**tracing.pass_metrics(tr), **tracing.alloc_metrics(mem)})

    _timed_loop(seconds, round_)
    metrics = {}
    for name, unit in tracing.UNITS.items():
        if name != tracing.OVERHEAD:
            value = statistics.median(p[name] for p in per_pass)
            metrics[name] = round(value) if unit == "count" else value
    metrics[tracing.OVERHEAD] = statistics.median(traced) - statistics.median(plain)
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"], "passes": dumped}))
    return metrics, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int,
                    help="input seed (default: the workload's own, see workloads.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken scenarios for the self-test; not for timing")
    args = ap.parse_args(argv)
    seed = workloads.DEFAULT_SEED[args.workload] if args.seed is None else args.seed
    if seed < 0:
        ap.error("--seed must be >= 0")

    if not (SRC / "affinesde" / "__init__.py").is_file():
        print(f"affinesde sources not found under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        requests = workloads.build(args.workload, seed, work / "scenarios",
                                   smoke=args.smoke)
        sys.path.insert(0, str(SRC))
        import affinesde.cli as cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"affinesde imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        runner = Runner(cli, requests, work)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{seed}.json"
            metrics, walls = run_traced(runner, args.seconds, spans_path)
            units = tracing.UNITS
        else:
            setup_s = measure_setup(sorted({r.scenario for r in requests}))
            metrics, walls = run_untraced(runner, args.seconds)
            metrics = {"setup_s": setup_s, **metrics}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "traced passes" if args.trace else "passes"
    print(f"workload {args.workload} seed {seed}: closed loop, 1 client, "
          f"{len(requests)} requests per pass, {len(walls)} {kind} of "
          + " ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"  why: {workloads.WHY[args.workload]}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    ratio = runner.failed / runner.attempted
    print(f"  {'fail_ratio':32s} {ratio:14.6g} ratio ({runner.failed}/{runner.attempted})")
    for name, reason in runner.failures.items():
        print(f"  failed request {name}: {reason}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
