"""Span recorder for the traced benchmark run.

The recorder wraps the public functions (and public methods of public
classes) of each mtfrac layer module from outside the package: the wrapper
replaces the original object in every ``mtfrac`` module namespace that holds
it, so calls made through ``from .specfun import e_solver`` bindings are
seen as well as calls through module attributes.  ``src/`` is not edited.

A span is recorded only where control crosses into a layer from outside it
(a call from a layer into itself runs unwrapped), so each span of layer L is
an outermost call into L.  Spans are kept in memory as
``[name, layer, start, end, parent, op]`` and written out by the caller
when the run ends.  The recorder is single-threaded: the benchmark calls the
program with ``threads=1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from enum import Enum
from time import perf_counter

import numpy as np

LAYERS = ("analysis", "solver", "spectral", "specfun", "oracle", "cli")

NAME, LAYER, START, END, PARENT, OP = range(6)


# ---------------------------------------------------------------------------
# Work counters, evaluated on the arguments and result of a boundary span.

def _ml_values(fn, args, kwargs, result):
    n = np.size(getattr(result, "value", result))
    return {"specfun.values": n, "specfun.ml_calls": 1}


def _mode_values(fn, args, kwargs, result):
    return {"solver.mode_values": np.size(result)}


def _decomp_counts(fn, args, kwargs, result):
    return {"spectral.decomps": 1, "spectral.modes_decomposed": result.n_modes}


def _l1_counts(fn, args, kwargs, result):
    n = len(result[0]) - 1
    return {"oracle.l1_steps": n, "oracle.l1_pairs": n * (n + 1) // 2}


def _hankel_counts(fn, args, kwargs, result):
    return {"oracle.hankel_calls": 1}


_COUNTERS = {
    "specfun": {name: _ml_values for name in (
        "mml_series", "mml_contour", "mml_eval", "e_solver", "e_solver_many",
        "e_solver_time_batch")},
    "solver": {name: _mode_values for name in (
        "mode_amplitude", "mode_amplitudes", "mode_amplitude_history",
        "solve_homogeneous", "time_derivative", "ModalSolution.amplitudes",
        "ModalSolution.amplitude", "ModalSolution.modal_values",
        "ModalSolution.grid")},
    "spectral": {"eigendecompose": _decomp_counts,
                 "eigendecompose_operator": _decomp_counts},
    "oracle": {"l1_solve_mode": _l1_counts,
               "laplace_mode_eval": _hankel_counts},
}


# ---------------------------------------------------------------------------

def _public_callables(module):
    """(owner, attribute, qualname, function, is_classmethod) for the public
    functions of ``module`` and the public methods of its public classes."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, name, obj, False
        elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
            for mname, member in list(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                if isinstance(member, classmethod):
                    yield obj, mname, f"{name}.{mname}", member.__func__, True
                elif inspect.isfunction(member):
                    yield obj, mname, f"{name}.{mname}", member, False


class Recorder:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._patches: list[tuple] = []

    def _wrap(self, layer, qualname, fn, counter):
        spans, stack, layers, counts = self.spans, self._stack, self._layers, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            span = [qualname, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            layers.append(layer)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                layers.pop()
            if counter is not None:
                for key, value in counter(fn, args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"mtfrac.{layer}") for layer in LAYERS}
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "mtfrac" or name.startswith("mtfrac.")]
        for layer, module in modules.items():
            counters = _COUNTERS.get(layer, {})
            for owner, attr, qualname, fn, is_cm in _public_callables(module):
                wrapper = self._wrap(layer, qualname, fn, counters.get(qualname))
                if inspect.isclass(owner):
                    original = vars(owner)[attr]
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
                    continue
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, name, fn))
                            setattr(ns, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def layer_metrics(rec: Recorder, lo: int, hi: int, counts: dict,
                  wall: float) -> dict[str, float]:
    """Per-layer metrics of spans ``lo:hi``, recorded over a window of
    ``wall`` seconds, with the work ``counts`` of that window.

    A span's exclusive time is its duration minus that of its direct
    children, which all belong to other layers; a layer's self time is the
    sum over its spans.  Self times plus the time outside any root span add
    up to the window.
    """
    spans = rec.spans
    dur = {i: spans[i][END] - spans[i][START] for i in range(lo, hi)}
    child = defaultdict(float)
    for i in range(lo, hi):
        if spans[i][PARENT] >= 0:
            child[spans[i][PARENT]] += dur[i]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_name = defaultdict(float)
    roots = 0.0
    for i in range(lo, hi):
        s = spans[i]
        calls[s[LAYER]] += 1
        self_s[s[LAYER]] += dur[i] - child[i]
        by_name[s[NAME]] += dur[i]
        if s[PARENT] < 0:
            roots += dur[i]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    c = defaultdict(float, counts)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = ratio(self_s[layer], wall)
    decomp_s = by_name["eigendecompose"] + by_name["eigendecompose_operator"]
    out.update({
        "spectral.decomps": c["spectral.decomps"],
        "spectral.modes_decomposed": c["spectral.modes_decomposed"],
        "spectral.ms_per_decomp": ratio(decomp_s, c["spectral.decomps"], 1e3),
        "solver.mode_values": c["solver.mode_values"],
        "solver.us_per_mode_value": ratio(self_s["solver"], c["solver.mode_values"], 1e6),
        "specfun.values": c["specfun.values"],
        "specfun.values_per_call": ratio(c["specfun.values"], c["specfun.ml_calls"]),
        "specfun.us_per_value": ratio(self_s["specfun"], c["specfun.values"], 1e6),
        "oracle.l1_steps": c["oracle.l1_steps"],
        "oracle.l1_pairs": c["oracle.l1_pairs"],
        "oracle.ns_per_l1_pair": ratio(by_name["l1_solve_mode"], c["oracle.l1_pairs"], 1e9),
        "oracle.hankel_calls": c["oracle.hankel_calls"],
        "oracle.ms_per_hankel": ratio(by_name["laplace_mode_eval"],
                                      c["oracle.hankel_calls"], 1e3),
        "trace.wall_s": wall,
        "trace.outside_s": wall - roots,
    })
    return out

