"""The check catalogue: each checkable claim of the package, written once.

A check is a generator of (case, got, want), each side computed apart; a
case passes when got == want, and a predicate's case (want True) reads as
its failure.  Called with a level, a check yields the cases of its span
there, and none at a level it does not name: ``quick`` and ``full`` for
``tqft verify``, ``acceptance`` for the acceptance criteria C1 and C3-C9
and for the wide range of a check that no criterion runs, such as
``lattice_transfer``, which a tier-1 test runs.  A twisted Catalan,
lattice or differential value is checked against the scalar one times
Omega_{g,n} by counting homomorphisms, with no amplitude code of
``frobenius``.

``SUITES`` holds the six rows of ``tqft verify``; only ``cli`` imports this
module.  ``bmodel.wgn`` and ``bmodel.residue_check`` are read through their
module, so a replaced one is the one checked.  Nothing here loads sympy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, product

from . import amodel, bmodel, cellgraph, groups, intersect
from .cutjoin import TRIVIAL
from .exact import MultiRatFun
from .frobenius import omega_tqft

SMALL_GROUPS = ("trivial", "Z2", "Z3", "Z4", "Z2xZ2", "S3")
ALL_GROUPS = SMALL_GROUPS + ("Q8",)
# the stable types of w_{g,n} the acceptance criteria check
_DIFFERENTIALS = ((1, 1), (0, 3), (0, 4), (1, 2), (2, 1))


def _check(**spans):
    """A generator over a span as a check of a level, run over the span
    named for the level; ``levels`` names them."""
    def at_levels(cases):
        def check(level):
            return cases(*spans[level]) if level in spans else iter(())
        check.__name__, check.__doc__, check.levels = cases.__name__, cases.__doc__, tuple(spans)
        return check
    return at_levels


def _group(name: str):
    G = groups.load_group("builtin:" + name)
    cd = groups.conjugacy(G)
    return G, cd, groups.orbifold_frobenius(G, cd)


def _brute_amplitudes(G, cd, A, g: int, n: int) -> dict:
    """{basis tuple: (its labels, its basis vectors, Omega_{g,n} on it by
    counting homomorphisms)}."""
    return {idx: (" ".join(A.labels[i] for i in idx), [A.basis(i) for i in idx],
                  groups.omega_brute(G, g, idx, cd=cd))
            for idx in product(range(A.dim), repeat=n)}


def _dimension_profiles(gmax: int, nmax: int) -> tuple:
    """(g, k) for every exponent tuple k with sum(k) = 3g - 3 + n >= 0, at
    g <= gmax and 1 <= n <= nmax."""
    return tuple((g, k) for g in range(gmax + 1) for n in range(1, nmax + 1)
                 for k in product(range(max(0, 3 * g - 3 + n) + 1), repeat=n)
                 if sum(k) == 3 * g - 3 + n)


# -- the algebras and their amplitudes -----------------------------------------


@_check(quick=(SMALL_GROUPS, False), full=(ALL_GROUPS, False), acceptance=(ALL_GROUPS, True))
def algebra_axioms(names, identities):
    """Each class algebra, whose constructor raises AxiomError naming the
    first axiom that fails, at its torus amplitude counit(e) = dim; with
    ``identities``, also the product routed through the coproduct and the
    pairing, c_ij^k = sum_b Delta_i^{kb} eta_bj, and the three-point tensor
    of the product and the pairing, on every index triple."""
    for name in names:
        A = _group(name)[2]
        yield "torus %s" % name, sum(x * y for x, y in zip(A.counit, A.euler)), A.dim
        s = range(A.dim) if identities else ()
        D, c, eta, phi = A.coproduct_tensor, A.product_tensor, A.pairing, A.three_point
        for i, j, k in product(s, repeat=3):
            yield ("routed product %s %d %d %d" % (name, i, j, k),
                   sum(D[i][k][b] * eta[b][j] for b in s), c[i][j][k])
            yield ("three-point %s %d %d %d" % (name, i, j, k),
                   sum(c[i][j][l] * eta[l][k] for l in s), phi[i][j][k])


@_check(quick=(("Z2", "Z3", "S3"), 1, 1), full=(("Z2", "Z3", "Z4", "Z2xZ2", "S3"), 2, 1),
        acceptance=(ALL_GROUPS, 2, 3))
def omega_formula(names, gmax, nmax):
    """Omega_{g,n} on basis tuples by the TQFT formula against counting
    homomorphisms, at g <= gmax and n <= nmax."""
    for name in names:
        G, cd, A = _group(name)
        for g in range(gmax + 1):
            for n in range(1, nmax + 1):
                for labels, vs, brute in _brute_amplitudes(G, cd, A, g, n).values():
                    yield "omega %s g=%d %s" % (name, g, labels), omega_tqft(A, g, n, vs), brute


def _factorization(family, twisted, scalar, names, types, dmax):
    """The twisted count against the scalar count times Omega_{g,n}, on
    every basis tuple, at each type (g, n) and every degree tuple in
    1..dmax."""
    for name in names:
        G, cd, A = _group(name)
        for g, n in types:
            amplitudes = _brute_amplitudes(G, cd, A, g, n)
            for mu in product(range(1, dmax + 1), repeat=n):
                case, count = "twisted %s %s g=%d mu=%s " % (family, name, g, mu), scalar(g, n, mu)
                for labels, vs, amplitude in amplitudes.values():
                    yield case + labels, twisted(g, n, mu, A, vs), count * amplitude


# -- the counts ----------------------------------------------------------------


def _partitions(limit: int, nmax: int):
    """Every degree tuple in increasing order with entries >= 1, an even
    total up to ``limit`` and at most ``nmax`` entries, by total, then
    length, then lexicographically."""
    return (mu for total in range(2, limit + 1, 2) for n in range(1, min(nmax, total) + 1)
            for mu in combinations_with_replacement(range(1, total - n + 2), n)
            if sum(mu) == total)


@_check(quick=(6, False), full=(10, False), acceptance=(14, True))
def catalan_transfer(limit, swept):
    """The Catalan count against the gluing transfer's count of matchings:
    swept, on every partition of each even total up to ``limit``, in
    lexicographic order, at each genus up to one past the transfer's
    highest; else on one-vertex profiles and two more."""
    if swept:
        profiles = ((g, mu) for mu in _partitions(limit, limit)
                    for g in range(max(cellgraph.count_matchings_by_genus(mu), default=0) + 2))
    else:
        profiles = ([(0, (m,)) for m in range(2, limit + 1, 2)]
                    + [(1, (m,)) for m in range(4, limit + 1, 2)] + [(0, (2, 2, 2)), (1, (3, 3))])
    for g, mu in profiles:
        yield ("catalan g=%d mu=%s" % (g, mu), amodel.catalan(g, len(mu), mu),
               cellgraph.count_arrowed_graphs(g, len(mu), mu))


@_check(full=(("Z3", "S3"), ((0, 1), (0, 2), (1, 1), (1, 2)), 4),
        acceptance=(SMALL_GROUPS, tuple(product(range(3), range(1, 4))), 6))
def catalan_factorization(names, types, dmax):
    """The twisted Catalan count against C_{g,n}(mu) times Omega_{g,n}."""
    return _factorization("catalan", amodel.twisted_catalan, amodel.catalan, names, types, dmax)


_LATTICE = ((0, 3, (2, 2, 2)), (0, 3, (1, 1, 2)), (0, 3, (1, 1, 4)), (1, 1, (4,)), (1, 1, (6,)))


def _scalar_lattice(g, n, mu):
    return amodel.lattice_twisted(g, n, mu, TRIVIAL, [TRIVIAL.unit_element()] * n)


@_check(quick=(_LATTICE,), full=(_LATTICE + ((0, 3, (1, 2, 3)), (1, 1, (8,)), (1, 2, (2, 4)),
                                              (0, 4, (2, 2, 2, 2))),))
def lattice_catalog(profiles):
    """The lattice recursion's scalar count against ``count_lattice_points``."""
    for g, n, mu in profiles:
        yield ("lattice g=%d mu=%s" % (g, mu), _scalar_lattice(g, n, mu),
               cellgraph.count_lattice_points(g, n, mu))


@_check(full=(16, 5, 1), acceptance=(16, 5, 7))
def lattice_transfer(limit, gmax, nmax):
    """The lattice table against the Catalan count of the gluing transfer,
    which shares no code with ``cutjoin``, through
        C_{g,n}(mu) = sum_nu prod_i nu_i binom(mu_i, (mu_i - nu_i)/2) N_{g,n}(nu),
    over 1 <= nu_i <= mu_i with nu_i = mu_i mod 2: at every genus up to
    ``gmax`` and every degree tuple of ``_partitions(limit, nmax)``, but
    (0,1), where the lattice count has none.  The term nu = mu has weight
    prod mu_i, so C determines N, and every N the table holds up to the
    limit is checked.  C is the generalized Catalan number of
    Dumitrescu-Mulase-Safnuk-Sorkin and N Norbury's lattice count; the
    Catalan-lattice relations of that work and of Chapman-Mulase-Safnuk,
    which the paper cites, were not checked for this exact statement, so
    the identity is verified here, on the 2458 profiles of the tier-1
    range, not proved.  The slice at ``full``, one boundary up to degree
    16, reads the lattice cut weights at every cut up to (7, 7)."""
    for mu in _partitions(limit, nmax):
        n = len(mu)
        for g in range(gmax + 1):
            if (g, n) == (0, 1):
                continue
            lattice = sum(math.prod(nu) * math.prod(math.comb(m, (m - x) // 2)
                                                    for m, x in zip(mu, nu))
                          * _scalar_lattice(g, n, nu)
                          for nu in product(*(range(2 - m % 2, m + 1, 2) for m in mu)))
            yield ("transfer g=%d mu=%s" % (g, mu), lattice,
                   cellgraph.count_arrowed_graphs(g, n, mu))


@_check(full=(("Z3", "S3"), ((0, 2), (1, 1), (1, 2)), 4))
def lattice_factorization(names, types, dmax):
    """The twisted lattice count against N_{g,n}(mu) times Omega_{g,n}; its
    (0,2) base carries the pairing, which a group whose classes are not
    their own inverses puts off the diagonal."""
    return _factorization("lattice", amodel.lattice_twisted, _scalar_lattice, names, types, dmax)


# -- the spectral curve ----------------------------------------------------------


@_check(quick=(((1, 1),), True, False, ()), full=(((1, 1), (0, 3)), True, True, ()),
        acceptance=(((1, 1), (0, 3)), False, False, _DIFFERENTIALS))
def bmodel_invariants(types, pin, kernel, shaped):
    """The w_{0,2} double-pole subtraction; w_{g,n} recomputed by residues
    in rational functions, against the recursion, a type out of that
    check's budget failing; with ``pin``, w_{1,1} against its closed form,
    written in the witness as that form; with ``kernel``, the kernel
    against its defining integral; and each w_{g,n} of the ``shaped``
    types, which has a monomial denominator, is Laurent in squares and is
    even in each variable."""
    yield "w02 identity fails", bmodel.verify_w02_identity(), True
    for g, n in types:
        yield ("residue check (%d,%d) disagrees with the recursion" % (g, n),
               bmodel.residue_check(g, n)["equal"], True)
    if pin:
        (t1,) = MultiRatFun.gens(("t1",))
        ok = bmodel.wgn(1, 1) == -((t1**2 - 1) ** 3) / (t1**4 * 128)
        yield "w11" if ok else "w11: %s != -(t1**2 - 1)**3/(128*t1**4)" % bmodel.wgn(1, 1), ok, True
    if kernel:
        yield "kernel integral fails", bmodel.verify_kernel_integral(), True
    for g, n in shaped:
        f = bmodel.wgn(g, n)
        yield "w_{%d,%d} has a pole off t = 0" % (g, n), f.denominator_is_monomial(), True
        yield "w_{%d,%d} is not Laurent in squares" % (g, n), f.is_laurent_in_squares(), True
        for i in range(1, n + 1):
            yield "w_{%d,%d} is odd in t%d" % (g, n, i), f.is_even_in("t%d" % i), True


@_check(full=(((1, 1),), (4, 6)),
        acceptance=(((0, 2), (0, 3), (1, 1), (0, 4), (1, 2)), range(1, 9)))
def laplace_round_trip(types, degrees):
    """The inverse Laplace transform of w_{g,n} against (-1)^n C_{g,n}(mu),
    at every mu with entries in ``degrees``; C_{0,2} is counted by the
    gluing transfer."""
    for g, n in types:
        coeffs = bmodel.inverse_laplace_coeffs(g, n, max(degrees))
        for mu in product(degrees, repeat=n):
            count = (cellgraph.count_arrowed_graphs(g, n, mu) if (g, n) == (0, 2)
                     else amodel.catalan(g, n, mu))
            yield "ILT g=%d mu=%s" % (g, mu), coeffs.get(mu, Fraction(0)), (-1) ** n * count


@_check(full=(((0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)), ("Z3", "S3"),
              _DIFFERENTIALS))
def orbifold_dvv(scalar_types, names, twisted_types):
    """The paper's orbifold DVV: w_{g,n}(t) has no monomial of degree above
    2d, d = 3g - 3 + n, and its part of degree 2d is (-1)^n 16^-(2g-2+n)
    sum_{|k|=d} <tau_k>_g prod_i (2k_i+1)!! t_i^(2k_i), over an algebra
    entrywise on basis tuples.  The B-model and correlator recursions share
    only Delta* and the int constants, so this ties two families together;
    it is no oracle, but the one check of w_{g,n} at g >= 3."""
    values = [("", g, n, bmodel.wgn(g, n), intersect.correlator) for g, n in scalar_types]
    for name in names:
        A = _group(name)[2]
        values += [("%s %s " % (name, " ".join(A.labels[i] for i in idx)), g, n, value,
                    partial(intersect.twisted_correlator, algebra=A, vs=[A.basis(i) for i in idx]))
                   for g, n in twisted_types
                   for idx, value in bmodel.twisted_wgn(g, n, A).values.items()]
    df = intersect.double_factorial
    for label, g, n, value, correlator in values:
        d = 3 * g - 3 + n
        got = {e: c for e, c in value._laurent().items() if sum(e) >= 2 * d}
        want = {tuple(2 * x for x in k): correlator(g, n, k) * (-1) ** n * Fraction(
                    math.prod(df(2 * x + 1) for x in k), 16 ** (2 * g - 2 + n))
                for k in product(range(d + 1), repeat=n) if sum(k) == d}
        for e in sorted(set(got) | set(want)):
            yield "dvv %sg=%d n=%d t^%s" % (label, g, n, e), got.get(e, 0), want.get(e, 0)


@_check(acceptance=(SMALL_GROUPS, _DIFFERENTIALS))
def differential_factorization(names, types):
    """The twisted w_{g,n} against w_{g,n} times Omega_{g,n}, on every basis
    tuple; both sides are in canonical form, so == is exact equality."""
    for name in names:
        G, cd, A = _group(name)
        for g, n in types:
            twisted, scalar = bmodel.twisted_wgn(g, n, A).values, bmodel.wgn(g, n)
            for idx, (labels, _, amplitude) in _brute_amplitudes(G, cd, A, g, n).items():
                yield ("twisted w %s g=%d n=%d %s" % (name, g, n, labels), twisted[idx],
                       scalar * amplitude)


# -- the correlators ---------------------------------------------------------------


@_check(quick=(), full=())
def correlator_pins():
    """<tau_0^3>_0 = <tau_1 tau_0^3>_0 = 1 and <tau_1>_1 = 1/24."""
    for g, n, k, want in ((0, 3, (0, 0, 0), 1), (0, 4, (1, 0, 0, 0), 1),
                          (1, 1, (1,), Fraction(1, 24))):
        yield "correlator g=%d k=%s" % (g, k), intersect.correlator(g, n, k), want


@_check(quick=(("Z2",), ((1, (1,)),)), full=(("Z2", "Z3", "S3"), ((1, (1,)),)),
        acceptance=(SMALL_GROUPS, _dimension_profiles(2, 3)))
def tau_g(names, profiles):
    """The decorated correlator against the correlator times Omega_{g,n},
    on every basis tuple, by ``intersect.check_tauG``."""
    for name in names:
        A = _group(name)[2]
        for g, k in profiles:
            for idx in product(range(A.dim), repeat=len(k)):
                report = intersect.check_tauG(g, len(k), k, A, [A.basis(i) for i in idx])
                yield ("tauG %s g=%d k=%s %s" % (name, g, k, " ".join(A.labels[i] for i in idx)),
                       report["lhs"], report["rhs"])


@_check(acceptance=(_dimension_profiles(2, 3),))
def string_dilaton(profiles):
    """At each (g, k) of degree 3g - 3 + n, the string equation at k' =
    (k_1 + 1, k_2, .., k_n), of degree 3g - 2 + n: <tau_0 tau_k'>_{g,n+1} =
    sum over k'_j >= 1 of <.. tau_{k'_j - 1} ..>_{g,n}; and the dilaton
    equation <tau_1 tau_k>_{g,n+1} = (2g - 2 + n) <tau_k>_{g,n}."""
    correlator = intersect.correlator
    for g, k in profiles:
        n, up = len(k), (k[0] + 1,) + k[1:]
        yield ("string g=%d k'=%s" % (g, up), correlator(g, n + 1, (0,) + up),
               sum(correlator(g, n, up[:j] + (up[j] - 1,) + up[j + 1:]) for j in range(n) if up[j]))
        yield ("dilaton g=%d k=%s" % (g, k), correlator(g, n + 1, (1,) + k),
               (2 * g - 2 + n) * correlator(g, n, k))


def _intersection(k) -> Fraction:
    """<tau_k> at the one genus g with sum(k) = 3g - 3 + len(k), and 0 when
    no genus has that dimension."""
    g, rem = divmod(sum(k) + 3 - len(k), 3)
    return intersect.correlator(g, len(k), k) if not rem and g >= 0 else Fraction(0)


def _split_product(x, y, extra) -> Fraction:
    """The coefficient of <<tau_x>> <<tau_y>> at the extra insertions: a sum
    over the ways to split them between the two factors, each insertion
    taken as distinct."""
    slots = range(len(extra))
    return sum(_intersection(x + tuple(extra[i] for i in part))
               * _intersection(y + tuple(extra[i] for i in slots if i not in part))
               for r in range(len(extra) + 1) for part in combinations(slots, r))


@_check(full=())
def kdv_identities():
    """Witten's KdV form read off the correlator table coefficient by
    coefficient: at each multiset ``extra`` of insertions,
        (2N+1) <<tau_N tau_0^2>> = <<tau_{N-1} tau_0>> <<tau_0^3>>
            + 2 <<tau_{N-1} tau_0^2>> <<tau_0^2>> + 1/4 <<tau_{N-1} tau_0^4>>,
    over 1 <= N <= 7, at most 4 insertions of degree at most 4, and
    N + sum(extra) <= 14: 722 identities, 236 with a nonzero left side, up to
    genus 4.  KdV follows from DVV (Kontsevich's theorem) but the recursion
    does not use it, so a defect in a join or cut weight, or a split
    dropped, breaks some of them."""
    for N in range(1, 8):
        for size in range(5):
            for extra in combinations_with_replacement(range(5), size):
                if N + sum(extra) > 14:
                    continue
                yield ("kdv N=%d extra=%s" % (N, extra),
                       (2 * N + 1) * _intersection((N, 0, 0) + extra),
                       _split_product((N - 1, 0), (0, 0, 0), extra)
                       + 2 * _split_product((N - 1, 0, 0), (0, 0), extra)
                       + Fraction(1, 4) * _intersection((N - 1, 0, 0, 0, 0) + extra))


@_check(full=())
def genus_zero_profiles():
    """<tau_k1 ... tau_kn>_0 against the closed form (n-3)!/prod k_i!, on
    the 19 sorted genus-0 profiles with 3 <= n <= 8."""
    for n in range(3, 9):
        for k in combinations_with_replacement(range(n - 2), n):
            if sum(k) == n - 3:
                yield ("correlator g=0 k=%s" % (k,), intersect.correlator(0, n, k),
                       Fraction(math.factorial(n - 3), math.prod(map(math.factorial, k))))


SUITES = [
    ("frobenius-axioms", (algebra_axioms,)),
    ("omega-formula-vs-brute", (omega_formula,)),
    ("catalan-vs-enumeration", (catalan_transfer, catalan_factorization)),
    ("lattice-vs-catalog", (lattice_catalog, lattice_transfer, lattice_factorization)),
    ("bmodel-invariants", (bmodel_invariants, laplace_round_trip, orbifold_dvv,
                           differential_factorization)),
    ("correlator-identities", (correlator_pins, tau_g, kdv_identities, genus_zero_profiles,
                               string_dilaton)),
]
