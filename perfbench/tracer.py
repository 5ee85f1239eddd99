"""Span tracing of affinesde from outside the library.

``Tracer.installed()`` replaces every public function of the six package
modules, in every ``affinesde.*`` namespace that binds it, by a wrapper that
records a span (name, start, end, parent).  ``quad`` and ``quad_vec`` as bound
in ``criteria``, ``model`` and ``simulate`` are wrapped to count calls and
integrand evaluations per layer.  Leaving the context restores every binding,
so untraced requests in the same process run the library unchanged.

Spans stay in memory; ``pass_metrics`` derives the per-layer numbers from
them, and the caller writes them out when the run ends.  With ``alloc`` set,
the outermost ``simulate_X``, ``simulate_X_periodic`` and ``compare`` calls
also run under ``tracemalloc`` for their allocation peak.  That slows the
per-step sampling loop several-fold, so allocation peaks come from a pass of
their own and layer times from a pass without them.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
import types
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "criteria", "model", "linalg", "simulate", "stats")

# Pointwise helpers run once per quadrature node or ODE step; a span each
# would multiply the span count by the integrand evaluations and bury the
# layer times in tracing cost.  Their time stays with the calling span and
# their work is counted as integrand evaluations.
_POINTWISE = frozenset({
    "model.frobenius_sq", "model.eval_sigma", "model.sigma_fro_sq",
    "model.sigma_row_sq", "model.eval_drift",
    "criteria.mills_tail", "criteria.term_S", "criteria.term_Sprime",
})

# top-level calls whose allocation peak is taken with tracemalloc
_ALLOC = {"simulate.simulate_X": "simulate", "simulate.simulate_X_periodic": "simulate",
          "stats.compare": "stats"}
_SAMPLERS = frozenset({"simulate.simulate_X", "simulate.simulate_X_periodic"})
_QUAD_LAYERS = ("criteria", "model", "simulate")

NAME, START, END, PARENT = range(4)


class Tracer:
    """Collects spans and counters of one pass while installed."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.alloc_peak = Counter()   # layer -> bytes
        self._stack = []

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, fn):
        stack = self._stack
        alloc_layer = _ALLOC.get(name)
        sampler = name in _SAMPLERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            own_alloc = self.alloc and alloc_layer is not None and \
                not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak[alloc_layer] = max(
                        self.alloc_peak[alloc_layer], peak)
            if sampler and not any(spans[i][NAME] in _SAMPLERS for i in stack):
                self.counts["simulate.path_steps"] += \
                    result.states.shape[0] * (result.states.shape[1] - 1)
            return result

        return wrapper

    def _quad(self, layer: str, quad):
        calls_key, evals_key = f"{layer}.quad_calls", f"{layer}.integrand_evals"

        @functools.wraps(quad)
        def wrapper(f, *args, **kwargs):
            counts = self.counts
            counts[calls_key] += 1

            def integrand(*a, **k):
                counts[evals_key] += 1
                return f(*a, **k)

            return quad(integrand, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Install the wrappers in every affinesde namespace; restore on exit."""
        package = importlib.import_module("affinesde")
        layers = {layer: importlib.import_module(f"affinesde.{layer}")
                  for layer in LAYERS}
        wrappers = {}   # id(public function) -> its span wrapper
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if isinstance(obj, types.FunctionType) and \
                        obj.__module__ == mod.__name__ and \
                        not attr.startswith("_") and name not in _POINTWISE:
                    wrappers[id(obj)] = self._span(name, obj)
        patches = [(mod, attr, wrappers[id(obj)])
                   for mod in (package, *layers.values())
                   for attr, obj in vars(mod).items() if id(obj) in wrappers]
        patches += [(layers[layer], attr,
                     self._quad(layer, getattr(layers[layer], attr)))
                    for layer in _QUAD_LAYERS for attr in ("quad", "quad_vec")
                    if hasattr(layers[layer], attr)]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        for mod, attr, wrapper in patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> Counter:
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = Counter({layer: 0.0 for layer in LAYERS})
    for i, s in enumerate(spans):
        out[_layer(s[NAME])] += (s[END] - s[START]) - child[i]
    return out


def outer_time(spans, names) -> float:
    """Summed duration of spans in names that have no ancestor in names."""
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):   # parents precede their children
        p = s[PARENT]
        anc = p >= 0 and (inside[p] or spans[p][NAME] in names)
        inside[i] = anc
        if s[NAME] in names and not anc:
            total += s[END] - s[START]
    return total


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[NAME] == name)


def _outer(*names):
    return "s", lambda t, st: outer_time(t.spans, set(names))


def _calls(name):
    return "count", lambda t, st: calls(t.spans, name)


def _counter(key):
    return "count", lambda t, st: t.counts[key]


def _self(layer):
    return "s", lambda t, st: st[layer]


# metric -> (unit, derivation from a span pass's tracer and layer self times)
PER_LAYER = {
    "cli.load_s": _outer("cli.load_scenario"),
    "cli.self_s": _self("cli"),
    "criteria.classify_s": _outer("criteria.classify"),
    "criteria.classify_calls": _calls("criteria.classify"),
    "criteria.report_s": _outer("criteria.criterion_report"),
    "criteria.decide_Sprime_calls": _calls("criteria.decide_Sprime"),
    "criteria.decide_I_calls": _calls("criteria.decide_I"),
    "criteria.quad_calls": _counter("criteria.quad_calls"),
    "criteria.integrand_evals": _counter("criteria.integrand_evals"),
    "criteria.self_s": _self("criteria"),
    "model.interval_integrals_calls": _calls("model.interval_integrals"),
    "model.interval_integrals_s": _outer("model.interval_integrals"),
    "model.running_intensity_calls": _calls("model.running_intensity"),
    "model.window_intensity_calls": _calls("model.window_intensity"),
    "model.quad_calls": _counter("model.quad_calls"),
    "model.integrand_evals": _counter("model.integrand_evals"),
    "model.self_s": _self("model"),
    "linalg.expm_calls": _calls("linalg.expm"),
    "linalg.fundamental_solution_calls": _calls("linalg.fundamental_solution"),
    "linalg.monodromy_calls": _calls("linalg.monodromy"),
    "linalg.self_s": _self("linalg"),
    "simulate.sample_s": _outer(*_SAMPLERS),
    "simulate.self_s": _self("simulate"),
    "simulate.step_covariance_calls": _calls("simulate.step_covariance"),
    "simulate.quad_calls": _counter("simulate.quad_calls"),
    "simulate.path_steps": _counter("simulate.path_steps"),
    "stats.compare_s": _outer("stats.compare"),
    "stats.window_inf_s": _outer("stats.window_inf"),
    "stats.tail_sup_s": _outer("stats.tail_sup"),
    "stats.mean_sq_s": _outer("stats.ensemble_mean_sq"),
    "stats.self_s": _self("stats"),
}
# metric -> layer whose allocation peak it reports, from an alloc pass
ALLOC_PEAK = {"simulate.alloc_peak_mb": "simulate", "stats.alloc_peak_mb": "stats"}
OVERHEAD = "trace.overhead_s"
UNITS = {**{name: unit for name, (unit, _) in PER_LAYER.items()},
         **{name: "MB" for name in ALLOC_PEAK}, OVERHEAD: "s"}


def pass_metrics(tracer: Tracer) -> dict:
    st = self_times(tracer.spans)
    return {name: fn(tracer, st) for name, (_, fn) in PER_LAYER.items()}


def allocates(tracer: Tracer) -> bool:
    """Whether the pass made a call whose allocation peak is measured."""
    return any(s[NAME] in _ALLOC for s in tracer.spans)


def alloc_metrics(tracer: Tracer) -> dict:
    return {name: tracer.alloc_peak[layer] / 2 ** 20
            for name, layer in ALLOC_PEAK.items()}
