"""Every name a package module imports is used (names in __all__ exempt),
every module-level private name is referenced in its own module, no module
reaches for another module's private names, every function reads its
parameters, every name the package exports resolves, no module imports
scipy, simulate reads no sigma form's internals, the regime
names are spelled only in model and the agreement names only in stats."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "affinesde"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}   # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def unreferenced_privates(source: str) -> list:
    tree = ast.parse(source)
    defined = {}   # private module-level name -> line
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in used)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_cross_imports(source: str) -> list:
    """Underscore names a module imports from another module, or reads as
    an attribute of a module it imported."""
    tree = ast.parse(source)
    modules = set()   # names bound to imported modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{alias.name} (line {node.lineno})")
                elif node.module is None:   # from . import module
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0]
                           for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return sorted(found)


def unread_parameters(source: str) -> list:
    """Parameters of a def that its body never reads; lambdas, self, cls and
    _-prefixed names are exempt.  A read in a nested function counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + \
            [p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({p.arg}) (line {node.lineno})" for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")]
    return sorted(found)


def test_checker_flags_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == \
        ["os (line 1)"]
    assert unused_imports("from .x import a, b\n__all__ = ['a']\nb()\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unreferenced_private():
    source = ("_A = 1\n_B, _C = 2, 3\n__all__ = []\n"
              "def _f():\n    return _A + _C\n"
              "class _K:\n    pass\n_f()\n")
    assert unreferenced_privates(source) == ["_B (line 2)", "_K (line 6)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unreferenced_privates(path):
    assert unreferenced_privates(path.read_text()) == []


def test_checker_flags_unread_parameter():
    source = ("def f(a, b, *args, c=1, _d=2, **kw):\n"
              "    b = 3\n"
              "    return kw[c]\n"
              "class K:\n"
              "    def m(self, x, y=lambda z: 0):\n"
              "        def inner():\n"
              "            return x\n"
              "        return inner\n"
              "    @classmethod\n"
              "    def n(cls, w=None):\n"
              "        return lambda v: cls\n")
    assert unread_parameters(source) == [
        "f(a) (line 1)", "f(args) (line 1)", "f(b) (line 1)",
        "m(y) (line 5)", "n(w) (line 10)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_checker_flags_private_cross_import():
    source = ("from .model import _sigma_at, eval_sigma\n"
              "from . import model, stats as st\n"
              "import numpy as np\n"
              "from __future__ import annotations\n"
              "x = model._table(1) + st._mean + np._core + model.eval_sigma\n"
              "y = self._cache + _local + model.__name__\n")
    assert private_cross_imports(source) == [
        "_sigma_at (line 1)", "model._table (line 5)", "np._core (line 5)",
        "st._mean (line 5)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_cross_imports(path):
    assert private_cross_imports(path.read_text()) == []


def scipy_imports(source: str) -> list:
    """Names a module takes from scipy or any of its subpackages, and the
    modules it imports from scipy whole."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "scipy":
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "scipy"]
    return sorted(found)


# every integral of sigma runs on model's Gauss-Legendre rule, and every
# propagator, a constant drift's included, comes from linalg's own
# Runge-Kutta stepper, so no module imports scipy.  The two tests keep
# their names from when only scipy.integrate was barred


def test_checker_flags_scipy_integrate():
    source = ("from scipy.integrate import quad, quad_vec\n"
              "import scipy.integrate as si\nfrom scipy import integrate\n"
              "from scipy.special import ndtr\nimport scipy\n"
              "import scipy.linalg\nfrom .model import expm\n"
              "import scipyx\n")
    assert scipy_imports(source) == \
        ["integrate", "ndtr", "quad", "quad_vec", "scipy", "scipy.integrate",
         "scipy.linalg"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_scipy_integrate_only_where_allowed(path):
    assert scipy_imports(path.read_text()) == []


def sigma_form_reads(source: str) -> list:
    """Names of the envelope and table sigma forms, and reads of an
    envelope's parts, in the source; the constructor
    DiffusionSpec.envelope is exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and \
                node.id in ("EnvelopePattern", "TableSigma"):
            found.append(f"{node.id} (line {node.lineno})")
        elif isinstance(node, ast.alias) and \
                node.name in ("EnvelopePattern", "TableSigma"):
            found.append(f"import {node.name}")
        elif isinstance(node, ast.Attribute) and \
                node.attr in ("envelope", "pattern") and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "DiffusionSpec"):
            found.append(f".{node.attr} (line {node.lineno})")
    return sorted(found)


def test_checker_flags_sigma_form_reads():
    source = ("from .model import TableSigma, DiffusionSpec, eval_sigma\n"
              "if isinstance(f, EnvelopePattern):\n"
              "    g = f.envelope.value(t) * sigma.form.pattern\n"
              "envelope = DiffusionSpec.envelope(env, pattern)\n"
              "s = eval_sigma(spec, t)\n")
    assert sigma_form_reads(source) == [
        ".envelope (line 3)", ".pattern (line 3)",
        "EnvelopePattern (line 2)", "import TableSigma"]


def test_simulate_reads_sigma_only_through_eval_sigma():
    # per-form sigma mathematics lives in model.eval_sigma; the covariance
    # panel takes both forms through it
    assert sigma_form_reads((PACKAGE / "simulate.py").read_text()) == []


REGIME_NAMES = ("StableAS", "BoundedNonConvergent", "Unbounded", "Undecided")
AGREEMENT_NAMES = ("Consistent", "Inconsistent", "Inconclusive")


def name_literals(source: str, names) -> list:
    """String constants in the source that spell one of names."""
    return sorted(f"{node.value} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value in names)


def test_checker_flags_regime_literals():
    source = ('"""Unbounded noise."""\nSTABLE = "StableAS"\n'
              'if regime == "Undecided" or x == "unbounded":\n'
              '    f"{regime}BoundedNonConvergent"\n'
              'agreement = "Inconclusive"\n')
    assert name_literals(source, REGIME_NAMES) == [
        "BoundedNonConvergent (line 4)", "StableAS (line 2)",
        "Undecided (line 3)"]
    assert name_literals(source, AGREEMENT_NAMES) == \
        ["Inconclusive (line 5)"]


# every layer compares verdicts against model's regime constants, and
# agreements against stats' constants
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_regime_names_only_in_model(path):
    found = name_literals(path.read_text(), REGIME_NAMES)
    if path.name == "model.py":
        assert len(found) == len(REGIME_NAMES)
    else:
        assert found == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_agreement_names_only_in_stats(path):
    found = name_literals(path.read_text(), AGREEMENT_NAMES)
    if path.name == "stats.py":
        assert len(found) == len(AGREEMENT_NAMES)
    else:
        assert found == []


def test_package_exports_resolve():
    package = importlib.import_module("affinesde")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)
    namespace = {}
    exec("from affinesde import *", namespace)
    assert set(package.__all__) <= set(namespace)
