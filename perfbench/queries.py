"""Workload definitions: the fixed query lists and the code that answers them.

A query is one coarse block a user would ask for, such as "all basis
decorations of twisted_catalan for (A, g, n) over mu <= 5".  Each workload
is a list of blocks run in order; the seed only shuffles the queries inside
a block and draws the rational decoration vectors, so every seed does the
same amount of work.  Query specs are plain data (``(op, args)`` pairs with
JSON-able args), so they can be generated and compared without importing
the package under test.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

GROUPS = ("trivial", "Z2", "Z3", "Z4", "Z2xZ2", "S3", "Q8")

# Layer each op exercises first; a wrong answer is charged to that layer.
OP_LAYER = {
    "catalan": "amodel",
    "twisted_catalan": "amodel",
    "twisted_catalan_vec": "amodel",
    "lattice_twisted": "amodel",
    "omega_tqft": "frobenius",
    "correlator": "intersect",
    "check_tauG": "intersect",
    "wgn": "bmodel",
    "twisted_wgn": "bmodel",
    "ilt": "bmodel",
    "convert_frame": "bmodel",
    "ratfun_op": "exact",
    "matchings": "cellgraph",
    "matchings_all": "cellgraph",
    "eca": "cellgraph",
    "omega_brute": "groups",
    "lattice_points": "cellgraph",
    "cli": "cli",
}

# The algebras each in-process workload builds during set-up.
SETUP_GROUPS = {
    "recursions": GROUPS,
    "differentials": ("Z2", "S3"),
    "oracles": GROUPS,
}


def degree_profiles(total):
    """Degree profiles (sorted, entries >= 1) with the given half-edge count,
    by number of vertices and then in lexicographic order."""

    def profiles(rest, nverts, low):
        if nverts == 1:
            if rest >= low:
                yield [rest]
            return
        for first in range(low, rest // nverts + 1):
            for tail in profiles(rest - first, nverts - 1, first):
                yield [first] + tail

    return [degs for nverts in range(1, total + 1) for degs in profiles(total, nverts, 1)]


def _random_vector(rng, dim):
    """A decoration vector of nonzero rationals, so every basis term is used."""
    out = []
    for _ in range(dim):
        num = rng.choice([-1, 1]) * rng.randint(1, 9)
        out.append(str(Fraction(num, rng.randint(1, 7))))
    return out


# Blocks follow the memo dependencies: queries in one block share no
# memoized work (different algebras, or the same genus of independent
# tables), so shuffling them moves no work between queries and every seed
# sees the same per-query costs.  Work a later query reuses (higher genus,
# sympy's expression cache) sits in a later block.


def batch(*specs):
    """One timed query made of several specs, answered in order.  Batches
    keep the recursions' queries coarse (tens of milliseconds and up), so
    a query's time is not dominated by host noise."""
    return ("batch", {"items": [[op, args] for op, args in specs]})


def parts(op, args):
    """The specs a query is made of: a batch's items, or the query itself."""
    return [tuple(item) for item in args["items"]] if op == "batch" else [(op, args)]


def recursions_blocks(rng):
    # mu_max[n - 1] bounds the degrees of the n-boundary profiles
    dims = {"Z2": 2, "Z3": 3, "S3": 3}
    mu_max = [6, 5, 4]
    catalan = [("catalan", {"g": g, "mu_max": [8, 6, 5]}) for g in range(4)]
    omega = {name: ("omega_tqft", {"group": name, "g_max": 2, "n_max": 3}) for name in GROUPS}
    correlator = [("correlator", {"g": g}) for g in range(4)]

    def twisted(name, g):
        return ("twisted_catalan", {"group": name, "g": g, "mu_max": mu_max})

    def vectors(name, g):
        return ("twisted_catalan_vec", {
            "group": name, "g": g, "mu_max": mu_max,
            "vecs": [_random_vector(rng, dims[name]) for _ in range(3)],
        })

    # catalan at genus g reuses the lower genera, so that run keeps its order
    blocks = [
        [catalan[:3]],
        [catalan[3]],
        [batch(omega["trivial"], omega["Z2"], omega["Z3"])] + [omega[name] for name in ("Z4", "Z2xZ2", "S3", "Q8")],
    ]
    blocks += [[twisted(name, g) for name in ("Z2", "Z3", "S3")] for g in range(3)]
    blocks.append([batch(*(vectors(name, g) for g in range(3))) for name in ("Z2", "S3")])
    blocks.append([batch(*(("lattice_twisted", {"group": name}) for name in ("trivial", "Z2", "Z3")))])
    blocks += [[batch(*correlator[:3])], [correlator[3]]]
    blocks.append([
        batch(*(("check_tauG", {"group": "Z2", "g": g}) for g in range(3))),
        batch(*(("check_tauG", {"group": "S3", "g": g}) for g in range(2))),
    ])
    return blocks


def differentials_blocks(rng):
    # (0,3) and (1,1) need only w_{0,2}; (1,2) and (0,4) need the first
    # block; (2,1) needs the second.  Both twisted (1,1) share one term
    # skeleton, and the w_{0,4} operations share sympy's cache, so those
    # run in a fixed order.
    return [
        [("wgn", {"g": 1, "n": 1}), ("wgn", {"g": 0, "n": 3})],
        [("wgn", {"g": 1, "n": 2}), ("wgn", {"g": 0, "n": 4})],
        [("wgn", {"g": 2, "n": 1})],
        [("twisted_wgn", {"group": "Z2", "g": 1, "n": 1})],
        [("twisted_wgn", {"group": "S3", "g": 1, "n": 1})],
        [("ilt", {"g": g, "n": n, "mu_max": 4}) for g, n in ((0, 2), (0, 3), (1, 1), (1, 2), (2, 1))],
        [("convert_frame", {"g": g, "n": n, "coords": "x"}) for g, n in ((1, 1), (0, 3), (1, 2), (2, 1))],
        [("convert_frame", {"g": g, "n": n, "coords": "z"}) for g, n in ((1, 1), (0, 3), (2, 1))],
    ] + [
        [("ratfun_op", {"op": op})] for op in ("f+f", "f*f", "(f+1)*(f-1)", "f/(f+1)")
    ] + [
        [("ratfun_op", {"op": "series", "var": "t%d" % i, "order": 4})] for i in (1, 2)
    ]


def oracles_blocks(rng):
    small = [("matchings", {"degrees": degs}) for degs in degree_profiles(10)]
    small += [("matchings_all", {"total": total}) for total in (2, 4, 6, 8)]
    # Every 12-half-edge profile on at most two vertices: each is one
    # (12-1)!! = 10395-matching enumeration.  The two-vertex ones go in
    # pairs, so the heaviest queries of the workload (the pairs, eca at 6
    # half-edges over Z3 and S3, the genus-0 lattice catalog) cost about
    # the same and the tail percentile falls among many samples.
    twelve = [("matchings", {"degrees": degs}) for degs in degree_profiles(12) if len(degs) <= 2]
    return [
        small,
        [twelve[0]] + [batch(*twelve[i:i + 2]) for i in range(1, len(twelve), 2)],
        [("eca", {"group": name, "total": total})
         for name in ("trivial", "Z2", "Z3", "S3") for total in (2, 4, 6)],
        [("omega_brute", {"group": name, "g_max": 4, "n_max": 4}) for name in GROUPS],
        [("lattice_points", {"g": 0, "n": 3, "mu_max": 5}), ("lattice_points", {"g": 1, "n": 1, "mu_max": 12})],
    ]


# The tqft command mix.  Global options such as --format go before the
# subcommand (argparse rejects them after it).  "catalan --cache" is a pair:
# the first call writes the file and the second reads it back.
CLI_COMMANDS = [
    ["catalan", "--g", "1", "--n", "2", "--mu", "4", "4"],
    ["catalan", "--g", "1", "--n", "1", "--mu", "6", "--group", "builtin:S3", "--decor", "[(1 2)]"],
    ["dessin", "--g", "1", "--n", "1", "--mu", "4"],
    ["correlator", "--g", "1", "--n", "1", "--k", "1", "--group", "builtin:Z2", "--decor", "[1]"],
    ["omega", "--group", "builtin:S3", "--g", "1", "--n", "2", "--decor", "[(1 2)]", "--decor", "[(1 2)]",
     "--method", "both"],
    ["group-info", "--group", "builtin:Q8"],
    ["wgn", "--g", "1", "--n", "1", "--coords", "z"],
    ["verify", "--level", "quick"],
]
CLI_CACHE_PAIR = [
    ["catalan", "--g", "0", "--n", "2", "--mu", "4", "6", "--cache", "{cache}"],
    ["catalan", "--g", "0", "--n", "2", "--mu", "6", "4", "--cache", "{cache}"],
]


def cli_blocks(rng):
    queries = [("cli", {"argv": ["--format", "json"] + argv}) for argv in CLI_COMMANDS]
    # the cache pair stays together: the read-back follows its write
    queries.append([("cli", {"argv": ["--format", "json"] + argv, "pair": i})
                    for i, argv in enumerate(CLI_CACHE_PAIR)])
    return [queries]


BLOCKS = {
    "recursions": recursions_blocks,
    "differentials": differentials_blocks,
    "oracles": oracles_blocks,
    "cli": cli_blocks,
}
WORKLOADS = tuple(BLOCKS)


def make_queries(workload, seed):
    """The workload's query list for a seed: blocks in order, shuffled inside.
    A list inside a block is a run of queries that stays in its order."""
    rng = random.Random("%s:%d" % (workload, seed))
    out = []
    for block in BLOCKS[workload](rng):
        block = list(block)
        rng.shuffle(block)
        for item in block:
            out.extend(item if isinstance(item, list) else [item])
    return out


def query_key(op, args):
    """Reference key of a query: everything but the seed-drawn vectors."""
    if op == "batch":
        return " + ".join(query_key(*part) for part in parts(op, args))
    fixed = {k: v for k, v in args.items() if k != "vecs"}
    return "%s %s" % (op, _canon(fixed))


def _canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- answering queries (runs in the worker, with tqftrec importable) ---------


class Context:
    """Algebras built during set-up, and results later queries reuse."""

    def __init__(self, group_names):
        from tqftrec import groups

        self.algebras = {}
        for name in group_names:
            G = groups.load_group("builtin:" + name)
            cd = groups.conjugacy(G)
            self.algebras[name] = (G, cd, groups.orbifold_frobenius(G, cd))
        self.results = {}

    def algebra(self, name):
        return self.algebras[name][2]


def _r(x):
    """A rational as "p/q" (or "p"), the CLI's format, without calling into
    the exact layer so that traced runs charge no benchmark glue to it."""
    return str(Fraction(x))


def mu_tuples(n, mu_max):
    return itertools.product(range(1, mu_max + 1), repeat=n)


def profiles_upto(mu_max):
    """(n, mu) for every profile with n <= len(mu_max) and degrees <= mu_max[n-1]."""
    for n, top in enumerate(mu_max, start=1):
        for mu in itertools.product(range(1, top + 1), repeat=n):
            yield n, mu


def op_catalan(ctx, a):
    from tqftrec import amodel

    return [_r(amodel.catalan(a["g"], n, mu)) for n, mu in profiles_upto(a["mu_max"])]


def op_twisted_catalan(ctx, a):
    from tqftrec import amodel

    A = ctx.algebra(a["group"])
    out = []
    for n, mu in profiles_upto(a["mu_max"]):
        for idx in itertools.product(range(A.dim), repeat=n):
            vs = [A.basis(i) for i in idx]
            out.append(_r(amodel.twisted_catalan(a["g"], n, mu, A, vs)))
    return out


def op_twisted_catalan_vec(ctx, a):
    from tqftrec import amodel

    A = ctx.algebra(a["group"])
    vecs = [A.element([Fraction(c) for c in vec]) for vec in a["vecs"]]
    return [
        _r(amodel.twisted_catalan(a["g"], n, mu, A, vecs[:n]))
        for n, mu in profiles_upto(a["mu_max"])
    ]


LATTICE_PROFILES = ((0, (2, 2, 2)), (0, (1, 2, 3)), (0, (2, 2, 4)), (0, (1, 1, 2)), (1, (4,)), (1, (6,)), (1, (8,)))


def op_lattice_twisted(ctx, a):
    from tqftrec import amodel

    A = ctx.algebra(a["group"])
    return [
        _r(amodel.lattice_twisted(g, len(mu), mu, A, [A.basis(i) for i in idx]))
        for g, mu in LATTICE_PROFILES
        for idx in itertools.product(range(A.dim), repeat=len(mu))
    ]


def omega_tuples(A, G, g_max, n_max):
    """(g, n, idx) up to the bounds; with a group G, only tuples within the
    brute-force budget of omega_brute."""
    from tqftrec.groups import DEFAULT_BUDGET

    for g in range(g_max + 1):
        for n in range(1, n_max + 1):
            if G is not None and G.order ** (2 * g + n) > DEFAULT_BUDGET:
                continue
            for idx in itertools.product(range(A.dim), repeat=n):
                yield g, n, idx


def op_omega_tqft(ctx, a):
    from tqftrec.frobenius import omega_tqft

    A = ctx.algebra(a["group"])
    return [
        _r(omega_tqft(A, g, n, [A.basis(i) for i in idx]))
        for g, n, idx in omega_tuples(A, None, a["g_max"], a["n_max"])
    ]


def k_vectors(g, n):
    d = 3 * g - 3 + n
    if d < 0:
        return []
    return [k for k in itertools.product(range(d + 1), repeat=n) if sum(k) == d]


def op_correlator(ctx, a):
    from tqftrec import intersect

    g = a["g"]
    return [
        _r(intersect.correlator(g, n, k))
        for n in range(1, 5)
        for k in k_vectors(g, n)
    ]


def op_check_tauG(ctx, a):
    from tqftrec import intersect

    A = ctx.algebra(a["group"])
    g = a["g"]
    out = []
    for n in range(1, 4):
        for k in k_vectors(g, n):
            for idx in itertools.product(range(A.dim), repeat=n):
                rep = intersect.check_tauG(g, n, k, A, [A.basis(i) for i in idx])
                out.append([_r(rep["lhs"]), bool(rep["equal"])])
    return out


def op_wgn(ctx, a):
    from tqftrec import bmodel

    fn = bmodel.wgn(a["g"], a["n"])
    if (a["g"], a["n"]) == (0, 4):
        ctx.results["w04"] = fn
    return fn.to_json()


def op_twisted_wgn(ctx, a):
    from tqftrec import bmodel

    tw = bmodel.twisted_wgn(a["g"], a["n"], ctx.algebra(a["group"]))
    return [[list(idx), tw.values[idx].to_json()] for idx in sorted(tw.values)]


def op_ilt(ctx, a):
    from tqftrec import bmodel

    co = bmodel.inverse_laplace_coeffs(a["g"], a["n"], a["mu_max"])
    return [[list(mu), _r(co[mu])] for mu in sorted(co)]


def op_convert_frame(ctx, a):
    from tqftrec import bmodel

    fn = bmodel.wgn(a["g"], a["n"])
    return bmodel.convert_frame(fn, a["n"], a["coords"]).to_json()


def op_ratfun_op(ctx, a):
    f = ctx.results["w04"]
    op = a["op"]
    if op == "series":
        series = f.series_at_infinity(a["var"], a["order"])
        return [[k, series[k].to_json()] for k in sorted(series)]
    result = {
        "f+f": lambda: f + f,
        "f*f": lambda: f * f,
        "(f+1)*(f-1)": lambda: (f + 1) * (f - 1),
        "f/(f+1)": lambda: f / (f + 1),
    }[op]()
    return result.to_json()


def op_batch(ctx, a):
    return [OPS[op](ctx, args) for op, args in a["items"]]


def op_matchings(ctx, a):
    from tqftrec import cellgraph

    counts = cellgraph.count_matchings_by_genus(a["degrees"])
    return [[g, counts[g]] for g in sorted(counts)]


def op_matchings_all(ctx, a):
    return [op_matchings(ctx, {"degrees": degs}) for degs in degree_profiles(a["total"])]


def op_eca(ctx, a):
    """All order-independent values of every connected graph with the given
    number of half-edges, for one algebra; each must be a single value."""
    from tqftrec import cellgraph

    A = ctx.algebra(a["group"])
    memo = {}
    out = []
    for degs in degree_profiles(a["total"]):
        for graph in cellgraph.all_matchings(degs):
            if not graph.is_connected():
                continue
            values = cellgraph.eca_functional_all_orders(graph, A, memo)
            for idx in sorted(values):
                vals = values[idx]
                out.append(_r(next(iter(vals))) if len(vals) == 1 else sorted(map(_r, vals)))
    return out


def op_omega_brute(ctx, a):
    from tqftrec import groups

    G, cd, A = ctx.algebras[a["group"]]
    return [
        [g, list(idx), _r(groups.omega_brute(G, g, idx, cd=cd))]
        for g, n, idx in omega_tuples(A, G, a["g_max"], a["n_max"])
    ]


def op_lattice_points(ctx, a):
    from tqftrec import cellgraph

    return [
        _r(cellgraph.count_lattice_points(a["g"], a["n"], mu))
        for mu in mu_tuples(a["n"], a["mu_max"])
    ]


OPS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}


# -- checking answers ----------------------------------------------------------


def expected_answer(op, args, refs):
    """The reference answer of a query.  Answers to seed-drawn decoration
    vectors follow by multilinearity from the committed basis answers."""
    if op != "twisted_catalan_vec":
        return refs[query_key(op, args)]
    basis = iter(refs[query_key("twisted_catalan", args)])
    vecs = [[Fraction(c) for c in vec] for vec in args["vecs"]]
    out = []
    for n, _ in profiles_upto(args["mu_max"]):
        total = Fraction(0)
        for idx in itertools.product(range(len(vecs[0])), repeat=n):
            coeff = Fraction(1)
            for pos, i in enumerate(idx):
                coeff *= vecs[pos][i]
            total += coeff * Fraction(next(basis))
        out.append(str(total))
    return out


def _is_ratfun(obj):
    return isinstance(obj, dict) and set(obj) == {"vars", "num", "den"}


def same_answer(got, want):
    """Exact comparison; rational functions compare as MultiRatFun values."""
    if got == want:
        return True
    if _is_ratfun(want):
        if not _is_ratfun(got):
            return False
        from tqftrec.exact import MultiRatFun

        return MultiRatFun.from_json(got) == MultiRatFun.from_json(want)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same_answer(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            same_answer(g, w) for g, w in zip(got, want)
        )
    return got == want
