"""Acceptance gate: nine end-to-end criteria, one PASS/FAIL line each.

Every criterion compares two independently computed sides (closed-form
recursion vs brute-force enumeration, or decorated recursion vs scalar
value times surface amplitude), exactly, over the stated exhaustive
ranges.
"""

import itertools
import time
from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.fields import field

from tqftrec import amodel, bmodel, cellgraph, groups, intersect
from tqftrec.cutjoin import delta_star_contract, delta_star_split, m_star_contract
from tqftrec.frobenius import omega_tqft, trivial_algebra

from functionals import omega_functional

SMALL_GROUPS = ["trivial", "Z2", "Z3", "Z4", "Z2xZ2", "S3"]
ALL_GROUPS = SMALL_GROUPS + ["Q8"]


def _report(num, name, ok, started, detail):
    line = "ACCEPTANCE %d (%s): %s (%.1fs, %s)" % (
        num, name, "PASS" if ok else "FAIL", time.time() - started, detail
    )
    print("\n" + line)
    assert ok, line


def _applied(operator, *args):
    """What a kernel operator adds into an empty dict, zeros dropped."""
    out = {}
    operator(*args, out=out)
    return {key: x for key, x in out.items() if x}


def _in_sympy_field(fn):
    """fn as an element of sympy's field of rational functions over QQ in its
    variables, followed by the field's generators.  The field keeps its
    elements cancelled, so two are equal exactly when their difference is 0."""
    K, *gens = field(fn.vars, QQ)
    poly = lambda terms: K.ring.from_dict({e: QQ(c.numerator, c.denominator)
                                           for e, c in terms.items()})
    return (K.new(poly(fn.num), poly(fn.den)), *gens)


def _algebra(name):
    G = groups.load_group("builtin:" + name)
    cd = groups.conjugacy(G)
    return G, cd, groups.orbifold_frobenius(G, cd)


def test_criterion_1_tqft_oracle_equivalence():
    started = time.time()
    checks = 0
    failures = []
    for name in ALL_GROUPS:
        G, cd, A = _algebra(name)
        for g in range(3):
            for n in range(1, 4):
                for idx in itertools.product(range(A.dim), repeat=n):
                    lhs = omega_tqft(A, g, n, [A.basis(i) for i in idx])
                    rhs = groups.omega_brute(G, g, idx, cd=cd)
                    checks += 1
                    if lhs != rhs:
                        failures.append((name, g, n, idx, lhs, rhs))
    _report(1, "tqft-oracle-equivalence", not failures, started,
            "%d class tuples over %d groups" % (checks, len(ALL_GROUPS)))


def test_criterion_2_eca_soundness():
    started = time.time()
    algebras = [trivial_algebra()]
    for name in ("Z2", "Z3", "S3"):
        algebras.append(_algebra(name)[2])
    graphs = 0
    checks = 0
    failures = []
    memos = {id(A): {} for A in algebras}
    omegas = {}
    for total in (2, 4, 6, 8):
        for nverts in range(1, total // 2 + 2):
            for degs in itertools.combinations_with_replacement(
                range(1, total + 1), nverts
            ):
                if sum(degs) != total:
                    continue
                for graph in cellgraph.all_matchings(degs):
                    if not graph.is_connected():
                        continue
                    graphs += 1
                    g = graph.genus()
                    for A in algebras:
                        values = cellgraph.eca_functional_all_orders(
                            graph, A, memos[id(A)]
                        )
                        for idx in itertools.product(
                            range(A.dim), repeat=nverts
                        ):
                            key = (id(A), g, nverts, idx)
                            om = omegas.get(key)
                            if om is None:
                                om = omega_tqft(
                                    A, g, nverts, [A.basis(i) for i in idx]
                                )
                                omegas[key] = om
                            checks += 1
                            if values[idx] != {om}:
                                failures.append((degs, idx, values[idx], om))
    _report(2, "eca-soundness", not failures, started,
            "%d graphs, %d order-independent evaluations" % (graphs, checks))


def _partitions(total, parts, low=1):
    """The non-decreasing tuples of ``parts`` integers >= low summing to
    ``total``, in lexicographic order."""
    if parts == 1:
        if total >= low:
            yield (total,)
        return
    for first in range(low, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def test_criterion_3_catalan_oracle():
    started = time.time()
    checks = 0
    failures = []
    pinned = (
        amodel.catalan(0, 1, (2,)) == 1
        and amodel.catalan(0, 1, (4,)) == 2
        and amodel.catalan(0, 1, (6,)) == 5
        and amodel.catalan(1, 1, (4,)) == 1
    )
    if not pinned:
        failures.append("pinned values")
    for total in range(2, 15, 2):
        for nverts in range(1, total + 1):
            for degs in _partitions(total, nverts):
                by_genus = cellgraph.count_matchings_by_genus(degs)
                top = max(by_genus) if by_genus else 0
                for g in range(top + 2):
                    lhs = amodel.catalan(g, nverts, degs)
                    rhs = Fraction(by_genus.get(g, 0))
                    checks += 1
                    if lhs != rhs:
                        failures.append((g, degs, lhs, rhs))
    _report(3, "catalan-oracle", not failures, started,
            "%d profiles vs the gluing transfer" % checks)


def test_criterion_4_twisted_catalan_factorization():
    started = time.time()
    checks = 0
    failures = []
    for name in SMALL_GROUPS:
        _, _, A = _algebra(name)
        for g in range(3):
            for n in range(1, 4):
                decorations = {idx: [A.basis(i) for i in idx]
                               for idx in itertools.product(range(A.dim), repeat=n)}
                amplitudes = {idx: omega_tqft(A, g, n, vs) for idx, vs in decorations.items()}
                for mu in itertools.product(range(1, 7), repeat=n):
                    scalar = amodel.catalan(g, n, mu)
                    for idx, vs in decorations.items():
                        lhs = amodel.twisted_catalan(g, n, mu, A, vs)
                        rhs = scalar * amplitudes[idx]
                        checks += 1
                        if lhs != rhs:
                            failures.append((name, g, n, mu, idx, lhs, rhs))
    _report(4, "twisted-catalan-factorization", not failures, started,
            "%d decorated profiles over %d groups" % (checks, len(SMALL_GROUPS)))


def test_criterion_5_differentials_desk_scale():
    started = time.time()
    failures = []
    got, t1 = _in_sympy_field(bmodel.wgn(1, 1))
    pinned = -((t1**2 - 1) ** 3) / (128 * t1**4)
    if got - pinned:
        failures.append("w_{1,1} pinned value")
    for (g, n) in ((1, 1), (0, 3)):
        report = bmodel.residue_check(g, n)
        if not (report["in_budget"] and report["equal"]):
            failures.append(("residue recomputation", g, n))
    for (g, n) in ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1)):
        f = bmodel.wgn(g, n)
        if not f.denominator_is_monomial():
            failures.append(("pole cancellation", g, n))
        if not f.is_laurent_in_squares():
            failures.append(("laurent in squares", g, n))
        for i in range(1, n + 1):
            if not f.is_even_in("t%d" % i):
                failures.append(("parity", g, n, i))
    _report(5, "differentials-desk-scale", not failures, started,
            "pinned w_{1,1}, residue agreement, invariants on 5 types")


def test_criterion_6_inverse_laplace_round_trip():
    started = time.time()
    checks = 0
    failures = []
    for (g, n) in ((0, 2), (0, 3), (1, 1), (0, 4), (1, 2)):
        coeffs = bmodel.inverse_laplace_coeffs(g, n, 8)
        for mu in itertools.product(range(1, 9), repeat=n):
            lhs = coeffs.get(mu, Fraction(0))
            if (g, n) == (0, 2):
                rhs = Fraction(cellgraph.count_arrowed_graphs(0, 2, mu))
            else:
                rhs = amodel.catalan(g, n, mu)
            checks += 1
            if lhs != (-1) ** n * rhs:
                failures.append((g, n, mu, lhs, rhs))
    _report(6, "inverse-laplace-round-trip", not failures, started,
            "%d coefficients vs (-1)^n catalan" % checks)


def test_criterion_7_twisted_differential_factorization():
    started = time.time()
    checks = 0
    failures = []
    for name in SMALL_GROUPS:
        _, _, A = _algebra(name)
        for (g, n) in ((1, 1), (0, 3), (0, 4), (1, 2), (2, 1)):
            tw = bmodel.twisted_wgn(g, n, A)
            scalar = bmodel.wgn(g, n)
            for idx in itertools.product(range(A.dim), repeat=n):
                om = omega_tqft(A, g, n, [A.basis(i) for i in idx])
                # both sides are in canonical form, so == is exact equality;
                # a missing entry is the zero function
                lhs = tw.values.get(idx, scalar * 0)
                checks += 1
                if lhs != scalar * om:
                    failures.append((name, g, n, idx))
    _report(7, "twisted-differential-factorization", not failures, started,
            "%d decorated coefficient functions" % checks)


def test_criterion_8_orbifold_dvv():
    started = time.time()
    checks = 0
    failures = []
    # decorated recursion factorizes through the amplitude
    for name in SMALL_GROUPS:
        _, _, A = _algebra(name)
        for g in range(3):
            for n in range(1, 4):
                d = 3 * g - 3 + n
                if d < 0:
                    continue
                for k in itertools.product(range(d + 1), repeat=n):
                    if sum(k) != d:
                        continue
                    for idx in itertools.product(range(A.dim), repeat=n):
                        vs = [A.basis(i) for i in idx]
                        report = intersect.check_tauG(g, n, k, A, vs)
                        checks += 1
                        if not report["equal"]:
                            failures.append((name, g, n, k, idx))
    # pinned decorated value
    _, _, A2 = _algebra("Z2")
    if intersect.twisted_correlator(1, 1, (1,), A2, [A2.basis(0)]) != Fraction(1, 12):
        failures.append("tau_1(e_[1]) Z2 pinned value")
    # string and dilaton identities for the untwisted recursion
    for g in range(3):
        for n in range(1, 4):
            d = 3 * g - 3 + n
            if d < 0:
                continue
            for k in itertools.product(range(d + 1), repeat=n):
                if sum(k) != d:
                    continue
                string_lhs = intersect.correlator(g, n + 1, (0,) + k)
                string_rhs = sum(
                    intersect.correlator(g, n, k[:j] + (k[j] - 1,) + k[j + 1:])
                    for j in range(n)
                    if k[j] >= 1
                )
                dilaton_lhs = intersect.correlator(g, n + 1, (1,) + k)
                dilaton_rhs = (2 * g - 2 + n) * intersect.correlator(g, n, k)
                checks += 2
                if string_lhs != string_rhs:
                    failures.append(("string", g, k))
                if dilaton_lhs != dilaton_rhs:
                    failures.append(("dilaton", g, k))
    _report(8, "orbifold-dvv", not failures, started,
            "%d identities" % checks)


def test_criterion_9_axiom_suite():
    started = time.time()
    failures = []
    for name in ALL_GROUPS:
        try:
            _, _, A = _algebra(name)  # constructor runs the axiom checks
        except Exception as exc:  # noqa: BLE001 - any failure is a criterion failure
            failures.append((name, repr(exc)))
            continue
        s = A.dim
        # m = (1 x eta) o (delta x 1) on every basis pair:
        # e_i e_j = sum_{a,b} delta_i^{ab} eta(e_b, e_j) e_a
        for i in range(s):
            for j in range(s):
                for k in range(s):
                    routed = sum(
                        A.coproduct_tensor[i][k][b] * A.pairing[b][j]
                        for b in range(s)
                    )
                    if routed != A.product_tensor[i][j][k]:
                        failures.append((name, "m=(1xeta)(deltax1)", i, j, k))
        # contraction operators against the surface amplitudes
        if _applied(delta_star_contract, A, omega_functional(A, 0, 2)) != omega_functional(A, 1, 1):
            failures.append((name, "delta* contract (0,2)"))
        if _applied(delta_star_contract, A, omega_functional(A, 0, 3)) != omega_functional(A, 1, 2):
            failures.append((name, "delta* contract (0,3)"))
        if _applied(
            delta_star_split, A, omega_functional(A, 0, 2), omega_functional(A, 1, 1)
        ) != omega_functional(A, 1, 2):
            failures.append((name, "delta* split"))
        if _applied(m_star_contract, A, omega_functional(A, 1, 1), 2) != omega_functional(A, 1, 2):
            failures.append((name, "m* contract"))
        # three-point tensor is the pairing applied to the product
        for i in range(s):
            for j in range(s):
                for k in range(s):
                    lhs = sum(
                        A.product_tensor[i][j][l] * A.pairing[l][k]
                        for l in range(s)
                    )
                    rhs = A.three_point[i][j][k]
                    if lhs != rhs:
                        failures.append((name, "three-point", i, j, k))
    _report(9, "axiom-suite", not failures, started,
            "%d algebras, axioms plus contraction identities" % len(ALL_GROUPS))
