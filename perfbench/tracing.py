"""Span recording around the package's layer boundaries, from outside.

``install`` replaces every public function of each layer module, wherever a
module of the package holds a reference to it, with a wrapper that records
a span: function, layer, tag, start, end, parent span, query id, whether it
raised, and an optional work count.  The exact layer is a class, so its
``MultiRatFun`` operations are wrapped on the class.  Spans stay in memory
and are written out once, when the traced process ends.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("exact", "frobenius", "groups", "cellgraph", "amodel", "bmodel", "intersect", "cli")

# MultiRatFun attribute -> span name in the exact layer.
RATFUN_METHODS = {
    "__init__": "new",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
    "__pow__": "pow",
    "__neg__": "neg",
    "__eq__": "eq",
    "partial_derivative": "partial_derivative",
    "substitute": "substitute",
    "series_at_infinity": "series_at_infinity",
    "to_json": "to_json",
    "from_json": "from_json",
    "denominator_is_monomial": "denominator_is_monomial",
    "is_laurent_in_squares": "is_laurent_in_squares",
    "is_even_in": "is_even_in",
}

# Span field positions.
NAME, LAYER, TAG, START, END, PARENT, QUERY, ERROR, WORK = range(9)


def _nvars_tag(tracer, args):
    return "n%d" % len(args[0].vars)


def _half_edges(degrees):
    return "h%d" % sum(degrees)


# (layer, function) -> (tag of the call's arguments, work count of its result)
TAGGERS = {
    ("frobenius", "omega_tqft"): (lambda tr, a: tr.algebra_names.get(id(a[0])), None),
    ("bmodel", "inverse_laplace_coeffs"): (lambda tr, a: "g%dn%d" % (a[0], a[1]), len),
    ("bmodel", "twisted_wgn"): (lambda tr, a: tr.algebra_names.get(id(a[2])), None),
    ("cellgraph", "count_matchings_by_genus"): (
        lambda tr, a: _half_edges(a[0]),
        lambda result: sum(result.values()),
    ),
    ("cellgraph", "eca_functional_all_orders"): (lambda tr, a: _half_edges(a[0].degrees), None),
}
for _op in ("add", "sub", "mul", "div"):
    TAGGERS[("exact", _op)] = (_nvars_tag, None)


class Tracer:
    """Spans of one traced process; recorded only while a query id is set."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = None
        self.algebra_names = {}

    def wrap(self, layer, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tagger, worker = TAGGERS.get((layer, name), (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.query is None:
                return fn(*args, **kwargs)
            tag = tagger(tracer, args) if tagger is not None else None
            rec = [name, layer, tag, 0.0, 0.0, stack[-1] if stack else -1, tracer.query, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if worker is not None:
                rec[WORK] = worker(result)
            return result

        return wrapper

    def install(self):
        """Wrap the layers' public functions and the MultiRatFun operations."""
        modules = {layer: importlib.import_module("tqftrec." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self.wrap(layer, name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        ratfun = modules["exact"].MultiRatFun
        for attr, name in RATFUN_METHODS.items():
            raw = ratfun.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(ratfun, attr, classmethod(self.wrap("exact", name, raw.__func__)))
            else:
                setattr(ratfun, attr, self.wrap("exact", name, raw))

    def write(self, path, **extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans), fh)
