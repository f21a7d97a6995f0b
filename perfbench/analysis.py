"""Statistics of the benchmark: machine-speed samples, the tail rule and
the per-layer metrics derived from recorded spans."""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from fractions import Fraction

from tracing import END, ERROR, LAYER, LAYERS, NAME, PARENT, QUERY, START, TAG, WORK


# Seconds one speed_sample() takes on the machine the benchmark was defined
# on (2-core Xeon VM, Python 3.11) when the host is quiet.
SPEED_REF_S = 0.003


# Workloads whose speed loop is half bytecode, half a Fraction sum.  The
# bytecode loop alone tracks the host's slow spells for the sympy,
# matching and import work of the other workloads (a repetition scales to
# the same time in fast and slow spells), but the recursions' Fraction and
# big-integer arithmetic slows 1.3-1.4 times as much as it does; the mixed
# loop tracks that, and over-corrects the others.
FRACTION_LOOP_WORKLOADS = ("recursions",)


def speed_sample(workload=None):
    """Time a fixed loop, about SPEED_REF_S on a quiet host either way."""
    fractions = workload in FRACTION_LOOP_WORKLOADS
    start = time.perf_counter()
    total = 0
    for i in range(20000 if fractions else 40000):
        total += i * i
    if fractions:
        frac = Fraction(0)
        for i in range(1, 400):
            frac += Fraction(1, i)
    return time.perf_counter() - start


def speed_factor(samples):
    """Scale from this run's seconds to reference-machine seconds."""
    return SPEED_REF_S / statistics.median(samples)


def tail(samples):
    """The highest percentile with at least ten samples strictly beyond it.

    Returns ``(value, percentile)``.  Needs at least eleven samples.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        raise ValueError("the tail rule needs at least 11 samples, got %d" % n)
    j = n - 11
    while j >= 0 and s[j] == s[n - 10]:
        j -= 1
    if j < 0:
        raise ValueError("no value has ten samples strictly beyond it")
    return s[j], 100.0 * (j + 1) / n


def _double_factorial(m):
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def span_metrics(spans):
    """Per-layer metrics of one traced repetition.

    ``busy_s`` counts a span only when no enclosing span has the same
    function (for ``<layer>.<function>.busy_s``) or the same layer (for
    ``<layer>.busy_s``), so recursion through wrapped calls is not counted
    twice.  ``self_s`` is a span's duration minus that of its direct
    children, so the layers' ``self_s`` add up to the time spent inside any
    wrapped call.
    """
    out = defaultdict(float, {"trace.in_spans_s": 0.0})
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    layer_mask = [0] * len(spans)
    op_ms = defaultdict(list)
    for i, s in enumerate(spans):
        parent = s[PARENT]
        layer, fn = s[LAYER], "%s.%s" % (s[LAYER], s[NAME])
        dur = s[END] - s[START]
        enclosing = layer_mask[parent] if parent >= 0 else 0
        layer_mask[i] = enclosing | layer_bit[layer]
        if not enclosing & layer_bit[layer]:
            out[layer + ".busy_s"] += dur
        out[layer + ".self_s"] += dur - child[i]
        if s[QUERY] >= 0:  # set-up spans are outside wall_s
            out["trace.in_spans_s"] += dur - child[i]
        out[layer + ".errors"] += s[ERROR]
        out[fn + ".calls"] += 1
        out[fn + ".self_s"] += dur - child[i]
        out[fn + ".errors"] += s[ERROR]
        p = parent
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            out[fn + ".busy_s"] += dur
            if s[TAG] is not None:
                out["%s.%s.busy_s" % (fn, s[TAG])] += dur
        if s[WORK] is not None:
            out[fn + ".work"] += s[WORK]
        if layer == "exact" and s[NAME] in ("add", "sub", "mul"):
            op_ms["exact.op_p50_ms"].append(dur * 1000)
            op_ms["exact.%s.%s.p50_ms" % (s[NAME], s[TAG])].append(dur * 1000)
        if s[NAME] == "count_matchings_by_genus":
            out["cellgraph.matchings"] += _double_factorial(int(s[TAG][1:]) - 1)
    for key, values in op_ms.items():
        out[key] = statistics.median(values)
    out["bmodel.ilt_coeffs"] = out.pop("bmodel.inverse_laplace_coeffs.work", 0)
    connected = out.pop("cellgraph.count_matchings_by_genus.work", 0)
    busy = out.get("cellgraph.count_matchings_by_genus.busy_s", 0)
    if out["cellgraph.matchings"]:
        out["cellgraph.connected_frac"] = connected / out["cellgraph.matchings"]
    if busy:
        out["cellgraph.matchings_per_s"] = out["cellgraph.matchings"] / busy
    out["trace.spans"] = len(spans)
    return dict(out)


def merge_spans(groups):
    """Concatenate span lists of several processes, fixing parent indices."""
    merged = []
    for spans in groups:
        base = len(merged)
        for s in spans:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += base
            merged.append(s)
    return merged
