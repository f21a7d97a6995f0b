"""Generate the committed reference answers and cross-check them.

    PYTHONPATH=src python3 perfbench/make_refs.py [WORKLOAD...]

Answers every query of each workload once, then checks the answers against
independent computations before writing ``perfbench/refs/<workload>.json``:
matching enumeration for the Catalan counts, ``omega_brute`` for the
amplitudes, scalar value times ``omega_tqft`` for every decorated value,
the inverse-Laplace round trip and direct sympy arithmetic for the
differentials.  A failed cross-check writes nothing and exits 1.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import queries
from queries import degree_profiles, k_vectors, mu_tuples, omega_tuples, profiles_upto

HERE = Path(__file__).resolve().parent


def _answers(workload):
    ctx = queries.Context(queries.SETUP_GROUPS[workload])
    refs = {}
    for query in queries.make_queries(workload, 0):
        for op, args in queries.parts(*query):
            if op != "twisted_catalan_vec":
                refs[queries.query_key(op, args)] = queries.OPS[op](ctx, args)
    return ctx, refs


class Checker:
    def __init__(self):
        self.checks = 0
        self.failures = []

    def same(self, what, got, want):
        self.checks += 1
        if got != want:
            self.failures.append("%s: %r != %r" % (what, got, want))


def _by_key(workload, refs):
    """Reference answers grouped by op, with the query args."""
    out = {}
    for query in queries.make_queries(workload, 0):
        for op, args in queries.parts(*query):
            key = queries.query_key(op, args)
            if key in refs:
                out.setdefault(op, []).append((args, refs[key]))
    return out


def check_recursions(ctx, refs, chk):
    from tqftrec import amodel, cellgraph, groups, intersect
    from tqftrec.frobenius import omega_tqft

    oracle = {}
    by_op = _by_key("recursions", refs)
    for args, answer in by_op["catalan"]:
        for (n, mu), value in zip(profiles_upto(args["mu_max"]), answer):
            if sum(mu) <= 12:
                degs = tuple(sorted(mu))
                if degs not in oracle:
                    oracle[degs] = cellgraph.count_matchings_by_genus(degs)
                chk.same(("catalan", args["g"], mu), Fraction(value), Fraction(oracle[degs].get(args["g"], 0)))
    for args, answer in by_op["omega_tqft"]:
        G, cd, A = ctx.algebras[args["group"]]
        for (g, n, idx), value in zip(omega_tuples(A, None, args["g_max"], args["n_max"]), answer):
            if G.order ** (2 * g + n) <= groups.DEFAULT_BUDGET:
                chk.same(("omega", args["group"], g, idx), Fraction(value), groups.omega_brute(G, g, idx, cd=cd))
    for args, answer in by_op["twisted_catalan"]:
        A = ctx.algebra(args["group"])
        values = iter(answer)
        for n, mu in profiles_upto(args["mu_max"]):
            scalar = amodel.catalan(args["g"], n, mu)
            for idx in itertools.product(range(A.dim), repeat=n):
                want = scalar * omega_tqft(A, args["g"], n, [A.basis(i) for i in idx])
                chk.same(("twisted_catalan", args["group"], args["g"], mu, idx), Fraction(next(values)), want)
    for args, answer in by_op["lattice_twisted"]:
        A = ctx.algebra(args["group"])
        values = iter(answer)
        for g, mu in queries.LATTICE_PROFILES:
            n = len(mu)
            scalar = cellgraph.count_lattice_points(g, n, mu)
            for idx in itertools.product(range(A.dim), repeat=n):
                want = scalar * omega_tqft(A, g, n, [A.basis(i) for i in idx])
                chk.same(("lattice", args["group"], g, mu, idx), Fraction(next(values)), want)
    corr = {}
    for args, answer in by_op["correlator"]:
        values = iter(answer)
        for n in range(1, 5):
            for k in k_vectors(args["g"], n):
                corr[(args["g"], k)] = Fraction(next(values))
    chk.same("<tau_0^3>", corr[(0, (0, 0, 0))], 1)
    chk.same("<tau_1>_1", corr[(1, (1,))], Fraction(1, 24))
    for (g, k), value in corr.items():
        n = len(k)
        if n < 4 and (g, (0,) + k) in corr:  # string equation
            want = sum(corr[(g, k[:j] + (k[j] - 1,) + k[j + 1:])] for j in range(n) if k[j] >= 1)
            chk.same(("string", g, k), corr[(g, (0,) + k)], want)
        if n < 4 and (g, (1,) + k) in corr:  # dilaton equation
            chk.same(("dilaton", g, k), corr[(g, (1,) + k)], (2 * g - 2 + n) * value)
    for args, answer in by_op["check_tauG"]:
        G, cd, A = ctx.algebras[args["group"]]
        values = iter(answer)
        for n in range(1, 4):
            for k in k_vectors(args["g"], n):
                for idx in itertools.product(range(A.dim), repeat=n):
                    lhs, equal = next(values)
                    want = intersect.correlator(args["g"], n, k) * groups.omega_brute(G, args["g"], idx, cd=cd)
                    chk.same(("tauG", args["group"], args["g"], k, idx), (Fraction(lhs), equal), (want, True))


def check_differentials(ctx, refs, chk):
    import sympy as sp

    from tqftrec import amodel, bmodel, cellgraph
    from tqftrec.exact import MultiRatFun, symbol
    from tqftrec.frobenius import omega_tqft

    by_op = _by_key("differentials", refs)
    w = {(a["g"], a["n"]): MultiRatFun.from_json(ans) for a, ans in by_op["wgn"]}
    t1 = symbol("t1")
    chk.same("w11 pinned", w[(1, 1)], MultiRatFun(-((t1**2 - 1) ** 3) / (128 * t1**4), ("t1",)))
    for args, answer in by_op["ilt"]:
        g, n = args["g"], args["n"]
        got = {tuple(mu): Fraction(v) for mu, v in answer}
        for mu in itertools.product(range(1, args["mu_max"] + 1), repeat=n):
            if (g, n) == (0, 2):
                count = Fraction(cellgraph.count_arrowed_graphs(0, 2, mu))
            else:
                count = amodel.catalan(g, n, mu)
            chk.same(("ilt", g, n, mu), got.get(mu, Fraction(0)), (-1) ** n * count)
    for args, answer in by_op["twisted_wgn"]:
        A = ctx.algebra(args["group"])
        g, n = args["g"], args["n"]
        got = {tuple(idx): MultiRatFun.from_json(fn) for idx, fn in answer}
        for idx in itertools.product(range(A.dim), repeat=n):
            om = omega_tqft(A, g, n, [A.basis(i) for i in idx])
            if idx in got:
                chk.same(("twisted_wgn", args["group"], g, n, idx), sp.cancel(got[idx].expr - om * w[(g, n)].expr), 0)
            else:
                chk.same(("twisted_wgn zero", args["group"], g, n, idx), om, 0)
    for args, answer in by_op["convert_frame"]:
        g, n = args["g"], args["n"]
        expr = w[(g, n)].expr
        ts = [symbol("t%d" % (i + 1)) for i in range(n)]
        if args["coords"] == "x":
            want = MultiRatFun(expr * sp.prod([(t**2 - 1) ** 2 / (8 * t) for t in ts]), w[(g, n)].vars)
        else:
            zs = [symbol("z%d" % (i + 1)) for i in range(n)]
            sub = expr.subs({t: (z + 1) / (z - 1) for t, z in zip(ts, zs)}, simultaneous=True)
            want = MultiRatFun(sub * sp.prod([-2 / (z - 1) ** 2 for z in zs]), tuple(map(str, zs)))
        chk.same(("convert_frame", g, n, args["coords"]), MultiRatFun.from_json(answer), want)
    f = w[(0, 4)].expr
    direct = {
        "f+f": 2 * f, "f*f": f * f,
        "(f+1)*(f-1)": f * f - 1, "f/(f+1)": f / (f + 1),
    }
    for args, answer in by_op["ratfun_op"]:
        if args["op"] == "series":
            x = symbol(args["var"])
            expansion = sp.series(f.subs(x, 1 / x), x, 0, args["order"] + 1).removeO()
            for k, coeff in answer:
                want = sp.cancel(expansion.coeff(x, k))
                got = MultiRatFun.from_json(coeff).expr
                chk.same(("series", args["var"], k), sp.cancel(got - want), 0)
        else:
            chk.same(("ratfun", args["op"]), MultiRatFun.from_json(answer), MultiRatFun(direct[args["op"]], w[(0, 4)].vars))


def check_oracles(ctx, refs, chk):
    from tqftrec import amodel, cellgraph
    from tqftrec.frobenius import omega_tqft

    by_op = _by_key("oracles", refs)
    matchings = [(a["degrees"], ans) for a, ans in by_op["matchings"]]
    for args, answer in by_op["matchings_all"]:
        matchings += list(zip(degree_profiles(args["total"]), answer))
    for degs, answer in matchings:
        counts = dict(answer)
        for g in range(max(counts, default=0) + 2):
            chk.same(("matchings", degs, g), Fraction(counts.get(g, 0)), amodel.catalan(g, len(degs), degs))
    for args, answer in by_op["eca"]:
        A = ctx.algebra(args["group"])
        values = iter(answer)
        for degs in degree_profiles(args["total"]):
            for graph in cellgraph.all_matchings(degs):
                if graph.is_connected():
                    for idx in itertools.product(range(A.dim), repeat=graph.n):
                        want = omega_tqft(A, graph.genus(), graph.n, [A.basis(i) for i in idx])
                        chk.same(("eca", args["group"], degs, idx), Fraction(next(values)), want)
    for args, answer in by_op["omega_brute"]:
        A = ctx.algebra(args["group"])
        for g, idx, value in answer:
            chk.same(("omega_brute", args["group"], g, idx), Fraction(value), omega_tqft(A, g, len(idx), [A.basis(i) for i in idx]))
    for args, answer in by_op["lattice_points"]:
        for mu, value in zip(mu_tuples(args["n"], args["mu_max"]), answer):
            chk.same(("lattice_points", mu), Fraction(value), _norbury(args["g"], mu))


def _norbury(g, mu):
    """Norbury's closed forms: N_{0,3} = 1 and N_{1,1}(b) = (b^2-4)/48 when
    the perimeters sum to an even number, else 0."""
    if sum(mu) % 2:
        return Fraction(0)
    if g == 0:
        return Fraction(1)
    return Fraction(mu[0] ** 2 - 4, 48)


def cli_answers():
    import run

    cache = run.OUT / "refs-cache.json"
    if cache.exists():
        cache.unlink()
    refs = {}
    for op, args in queries.make_queries("cli", 0):
        result = run.cli_query(args["argv"], cache)
        if result["error"]:
            raise SystemExit("cli query %s failed: %s" % (args["argv"], result["error"]))
        refs[queries.query_key(op, args)] = result["answer"]
    cache.unlink()
    return refs


def check_cli(refs, chk):
    from tqftrec import amodel, bmodel, groups
    from tqftrec.exact import MultiRatFun
    from tqftrec.frobenius import omega_tqft

    S3 = groups.orbifold_frobenius(groups.load_group("builtin:S3"))
    transposition = S3.basis(S3.labels.index("[(1 2)]"))

    def answer(command, **extra):
        argv = next(a for a in queries.CLI_COMMANDS + queries.CLI_CACHE_PAIR if " ".join(a).startswith(command))
        return refs[queries.query_key("cli", dict({"argv": ["--format", "json"] + argv}, **extra))]

    chk.same("catalan", Fraction(answer("catalan --g 1 --n 2")["value"]), amodel.catalan(1, 2, (4, 4)))
    chk.same("catalan S3", Fraction(answer("catalan --g 1 --n 1")["value"]),
             amodel.catalan(1, 1, (6,)) * omega_tqft(S3, 1, 1, [transposition]))
    chk.same("dessin", Fraction(answer("dessin")["value"]), amodel.catalan(1, 1, (4,)) / 4)
    chk.same("correlator", Fraction(answer("correlator")["value"]), Fraction(1, 12))
    chk.same("omega both", answer("omega")["match"], True)
    chk.same("group-info", answer("group-info")["order"], 8)
    chk.same("verify", answer("verify")["all_passed"], True)
    chk.same("wgn z", MultiRatFun.from_json(answer("wgn")["function"]), bmodel.convert_frame(bmodel.wgn(1, 1), 1, "z"))
    for pair in (0, 1):
        value = answer("catalan --g 0 --n 2 --mu %s" % ("4 6", "6 4")[pair], pair=pair)["value"]
        chk.same(("cache pair", pair), Fraction(value), amodel.catalan(0, 2, (4, 6)))


def main(argv):
    workloads = argv or list(queries.WORKLOADS)
    for workload in workloads:
        chk = Checker()
        if workload == "cli":
            refs = cli_answers()
            check_cli(refs, chk)
        else:
            ctx, refs = _answers(workload)
            {"recursions": check_recursions, "differentials": check_differentials,
             "oracles": check_oracles}[workload](ctx, refs, chk)
        if chk.failures or not chk.checks:
            print("%s: %d of %d cross-checks failed" % (workload, len(chk.failures), chk.checks))
            for line in chk.failures[:20]:
                print("  " + line)
            return 1
        path = HERE / "refs" / ("%s.json" % workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
        print("%s: %d answers, %d cross-checks passed -> %s" % (workload, len(refs), chk.checks, path.name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
