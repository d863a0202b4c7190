"""Layer tracing for macrui, installed from outside the library.

Every public function of each layer module, and the arithmetic and public
methods of ``QTScalar`` and ``MultiPoly``, is replaced by a counting wrapper.
``from .x import y`` binds the same function object under several module
namespaces, so each wrapper is rebound in every ``macrui.*`` module that
holds the original object.

A span is opened only when a call crosses from one layer into another;
calls within the layer that is already active are counted but not timed.
A layer's self time is the duration of its spans minus the time of the
spans they opened in other layers.  Spans are aggregated in memory per
layer rather than stored one by one.  ``QTPolynomial`` arithmetic is not
wrapped, so it counts towards the layer that calls it (mostly the
cleared-denominator operator engine).
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("scalar", "linalg", "polyring", "operators", "symfun", "partitions",
          "macdonald", "shifted", "verify", "jsonio", "cli")

ARITH = ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
         "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse")
# Methods wrapped in addition to the public ones; cheap predicates stay bare.
CLASS_EXTRA = {"QTScalar": ARITH + ("__init__",),
               "MultiPoly": ARITH + ("__init__",)}
CLASS_SKIP = {"is_zero"}

# Wrapped callables whose inclusive time is recorded even inside their own layer.
TIMED = ("scalar.qt_gcd", "symfun.restrict_p_expansion",
         "symfun.restrict_shifted_expansion")
APPLY = ("operators.apply_mr_detailed", "operators.apply_deformed_mr_detailed")


class Tracer:
    def __init__(self):
        self.calls = Counter()     # wrapped key -> entries
        self.self_s = Counter()    # layer -> self time
        self.incl_s = Counter()    # key in TIMED -> inclusive time
        self.extra = Counter()     # observed quantities (gcd results, rows, vars)
        self.stack = []            # open spans: [layer, time of child spans]
        self.cached = {}           # layer -> @cache functions of that module

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, layer, key, fn):
        calls, self_s, stack = self.calls, self.self_s, self.stack
        timed = key in TIMED
        observe = _OBSERVERS.get(key)
        extra, incl_s = self.extra, self.incl_s

        def wrapper(*args, **kwargs):
            calls[key] += 1
            opens = not stack or stack[-1][0] != layer
            if not (opens or timed):
                out = fn(*args, **kwargs)
            else:
                if opens:
                    frame = [layer, 0.0]
                    stack.append(frame)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    if timed:
                        incl_s[key] += dt
                    if opens:
                        stack.pop()
                        self_s[layer] += dt - frame[1]
                        if stack:
                            stack[-1][1] += dt
            if observe is not None:
                observe(extra, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self):
        """Wrap every layer; call after ``import macrui`` and before any work."""
        layer_modules = {layer: importlib.import_module(f"macrui.{layer}")
                         for layer in LAYERS}
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "macrui" or name.startswith("macrui.")}
        replace = {}   # id(original) -> (original, wrapper), rebound in every module
        for layer, mod in layer_modules.items():
            self.cached[layer] = [f for f in vars(mod).values()
                                  if hasattr(f, "cache_info")
                                  and getattr(f, "__module__", None) == mod.__name__]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if obj.__name__ in CLASS_EXTRA:
                        self._wrap_class(layer, obj)
                elif callable(obj) and not name.startswith("_"):
                    replace[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        return self

    def _wrap_class(self, layer, cls):
        for name, obj in list(vars(cls).items()):
            wanted = name in CLASS_EXTRA[cls.__name__] or (
                not name.startswith("_") and name not in CLASS_SKIP)
            if wanted and inspect.isfunction(obj):
                key = f"{layer}.{cls.__name__}.{name}"
                setattr(cls, name, self._wrap(layer, key, obj))

    # -- results ----------------------------------------------------------
    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(n for k, n in self.calls.items() if k.startswith(prefix))

    def cache_counts(self, layer):
        infos = [f.cache_info() for f in self.cached[layer]]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def snapshot(self):
        """Raw, additive counters; ``layer_metrics`` turns a sum of them into metrics."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "extra": dict(self.extra),
            "layer_calls": {layer: self.layer_calls(layer) for layer in LAYERS},
            "cache": {layer: self.cache_counts(layer) for layer in LAYERS},
        }


def _observe_gcd(extra, args, out):
    if out.terms == {(0, 0): 1}:
        extra["gcd_trivial"] += 1


def _observe_solve(extra, args, out):
    extra["solve_rows"] += len(args[0])


def _observe_apply(extra, args, out):
    extra["max_vars"] = max(extra["max_vars"], args[0].space.dim)


_OBSERVERS = {"scalar.qt_gcd": _observe_gcd, "linalg.solve_square": _observe_solve,
              **{key: _observe_apply for key in APPLY}}


def merge(snapshots):
    """Sum per-process snapshots (``max_vars`` takes the maximum)."""
    out = {"calls": Counter(), "self_s": Counter(), "incl_s": Counter(),
           "extra": Counter(), "layer_calls": Counter(), "cache": {}}
    for snap in snapshots:
        for field in ("calls", "self_s", "incl_s", "layer_calls"):
            out[field].update(snap[field])
        for k, v in snap["extra"].items():
            if k == "max_vars":
                out["extra"][k] = max(out["extra"][k], v)
            else:
                out["extra"][k] += v
        for layer, (hits, misses) in snap["cache"].items():
            h, m = out["cache"].get(layer, (0, 0))
            out["cache"][layer] = (h + hits, m + misses)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap):
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    calls, extra, incl = snap["calls"], snap["extra"], snap["incl_s"]
    self_s = snap["self_s"]
    arith = sum(calls.get(f"scalar.QTScalar.{name}", 0) for name in ARITH)
    m = {
        "scalar.gcd_calls": (calls.get("scalar.qt_gcd", 0), "count"),
        "scalar.gcd_s": (incl.get("scalar.qt_gcd", 0.0), "s"),
        "scalar.gcd_trivial_ratio": (_ratio(extra.get("gcd_trivial", 0),
                                            calls.get("scalar.qt_gcd", 0)), "ratio"),
        "scalar.arith_calls": (arith, "count"),
        "linalg.solve_calls": (calls.get("linalg.solve_square", 0), "count"),
        "linalg.solve_rows_sum": (extra.get("solve_rows", 0), "count"),
        "operators.apply_calls": (sum(calls.get(k, 0) for k in APPLY), "count"),
        "operators.max_vars": (extra.get("max_vars", 0), "count"),
        "symfun.m_to_p_calls": (calls.get("symfun.monomial_to_power_expansion", 0),
                                "count"),
        "symfun.restrict_s": (incl.get("symfun.restrict_p_expansion", 0.0)
                              + incl.get("symfun.restrict_shifted_expansion", 0.0), "s"),
        "polyring.calls": (snap["layer_calls"].get("polyring", 0), "count"),
        "partitions.calls": (snap["layer_calls"].get("partitions", 0), "count"),
    }
    for layer in ("macdonald", "shifted"):
        hits, misses = snap["cache"].get(layer, (0, 0))
        m[f"{layer}.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return m
