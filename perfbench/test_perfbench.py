"""Self-test of the benchmark on smoke-sized workloads.

Checks that the trace is present, not what it measures: every end-to-end
metric is printed with its unit, the traced runs emit spans in all six
layers, and two traced runs of the same inputs give identical counts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WHY)   # the timed ones and classify-families
SEED = 1


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    result["text"] = "\n".join(lines[:-1])
    if trace:
        spans = HERE.parent / ".perfbench" / f"spans-{workload}-seed{SEED}.json"
        result["spans"] = json.loads(spans.read_text())["passes"]
    return result


@pytest.fixture(scope="module")
def traced():
    return {w: (_run(w, 1), _run(w, 1)) for w in WORKLOADS}


def _check_metrics(result, specs):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]
        assert m["name"] in result["text"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = _run(workload, 0)
    _check_metrics(result, BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_ratio" in result["text"]


def test_per_layer_metrics_printed_with_units(traced):
    for first, _ in traced.values():
        _check_metrics(first, BENCHMARK["per_layer"])


def test_traced_runs_cover_all_six_layers(traced):
    layers = set()
    for first, _ in traced.values():
        for p in first["spans"]:
            layers |= {span[0].split(".", 1)[0] for span in p["spans"]}
    assert layers == {"cli", "criteria", "model", "linalg", "simulate", "stats"}


def test_traced_counts_repeat_exactly(traced):
    for workload, (first, second) in traced.items():
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r in (first, second)]
        assert counts[0] and counts[0] == counts[1], workload
