"""The mutation table in tools/mutants.py: every fragment occurs exactly
once in the tree, and the recorded run lists every mutant.  The mutants
themselves run on demand (python tools/mutants.py), not here."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_fragment_occurs_once():
    assert _mutants().check() == []


def test_the_check_flags_an_edited_fragment(tmp_path):
    # a copy in which the first mutant's fragment was edited by a refactor
    mutants = _mutants()
    paths = {path for _, _, edits in mutants.MUTANTS for path, _, _ in edits}
    for path in paths:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / path, tmp_path / path)
    name, _, [(path, fragment, _)] = mutants.MUTANTS[0]
    source = (tmp_path / path).read_text()
    (tmp_path / path).write_text(source.replace(
        fragment, fragment.replace(" ", "  ")))
    assert mutants.check(tmp_path) == [(name, path, 0)]


def test_the_recorded_run_lists_every_mutant():
    rows = json.loads((ROOT / "tools" / "mutants.json").read_text())["mutants"]
    assert [row["name"] for row in rows] == [m[0] for m in _mutants().MUTANTS]
