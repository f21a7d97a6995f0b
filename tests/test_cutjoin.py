"""Tests for the cut-and-join engine: its kernel operators and the one
registry of shared recursion tables."""

import importlib
import itertools
import math
import pkgutil
import random
from fractions import Fraction

import pytest

import tqftrec
from tqftrec import amodel, bmodel, cutjoin, intersect
from tqftrec.cellgraph import count_arrowed_graphs
from tqftrec.cutjoin import contract, delta_star_contract, delta_star_split, m_star_contract
from tqftrec.exact import BudgetError
from tqftrec.frobenius import FrobeniusAlgebra, omega_tqft, trivial_algebra
from tqftrec.groups import BUILTIN_GROUPS, load_group, orbifold_frobenius

from functionals import is_symmetric, omega_functional


def z2_algebra():
    return orbifold_frobenius(load_group("builtin:Z2"))


def _applied(operator, *args, **weights):
    """What a kernel operator adds into an empty dict, zeros dropped."""
    out = {}
    operator(*args, out=out, **weights)
    return {key: x for key, x in out.items() if x}


def test_contraction_identities_match_surfaces():
    A = z2_algebra()
    # contracting the first two legs of Omega_{g-1,n+1} closes a handle
    assert _applied(delta_star_contract, A, omega_functional(A, 0, 2)) == omega_functional(A, 1, 1)
    assert _applied(delta_star_contract, A, omega_functional(A, 0, 3)) == omega_functional(A, 1, 2)
    # splitting distributes the legs over two lower surfaces
    assert _applied(
        delta_star_split, A, omega_functional(A, 0, 2), omega_functional(A, 1, 1)
    ) == omega_functional(A, 1, 2)
    # inserting a multiplied slot adds a puncture
    assert _applied(m_star_contract, A, omega_functional(A, 1, 1), 2) == omega_functional(A, 1, 2)


def _random_tensor(rng, s, arity):
    """A sparse tensor with random values on about two thirds of the basis
    tuples; it is symmetric under no permutation of its slots."""
    return {key: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for key in itertools.product(range(s), repeat=arity) if rng.random() < 0.7}


def _dense(A, arity, value):
    """The sparse tensor of value(key) over every basis tuple of the arity."""
    out = {key: value(key) for key in itertools.product(range(A.dim), repeat=arity)}
    return {key: x for key, x in out.items() if x}


def test_contraction_operators_place_slots_as_dense_sums_do():
    # the Omega tensors are symmetric, so they cannot tell which slot m*
    # fills or where Delta*-split puts the legs of F1 and F2; random
    # tensors against the defining sums over basis tuples can
    rng = random.Random(1606)
    for name in ("Z2", "S3"):
        A = orbifold_frobenius(load_group("builtin:" + name))
        r, c, D = range(A.dim), A.product_tensor, A.coproduct_tensor
        for _ in range(3):
            F = _random_tensor(rng, A.dim, 3)
            assert not is_symmetric(F)
            assert _applied(delta_star_contract, A, F) == _dense(A, 2, lambda key: sum(
                D[key[0]][a][b] * F.get((a, b) + key[1:], 0) for a in r for b in r)), name
            F1, F2 = _random_tensor(rng, A.dim, 2), _random_tensor(rng, A.dim, 3)
            for order in itertools.permutations(range(3)):
                def value(key):
                    both = [None] * 3
                    for t, p in enumerate(order):
                        both[p] = key[1 + t]
                    return sum(D[key[0]][a][b] * F1.get((a, both[0]), 0)
                               * F2.get((b, *both[1:]), 0) for a in r for b in r)
                assert _applied(delta_star_split, A, F1, F2, order=order) == _dense(
                    A, 4, value), (name, order)
            for arity in (1, 2, 3):
                F = _random_tensor(rng, A.dim, arity)
                for j in range(2, arity + 2):
                    def value(key):
                        rest = key[1:j - 1] + key[j:]
                        return sum(c[key[0]][key[j - 1]][k] * F.get((k,) + rest, 0) for k in r)
                    assert _applied(m_star_contract, A, F, j) == _dense(A, arity + 1, value), (
                        name, arity, j)
        with pytest.raises(ValueError):
            _applied(delta_star_contract, A, {(0,): Fraction(1)})
        for j in (1, 4):
            with pytest.raises(ValueError):
                _applied(m_star_contract, A, {(0, 1): Fraction(1)}, j)


def test_contraction_operators_add_weighted_results_into_the_given_dict():
    A = orbifold_frobenius(load_group("builtin:S3"))
    rng = random.Random(16)
    F1, F2 = _random_tensor(rng, A.dim, 2), _random_tensor(rng, A.dim, 3)
    calls = [
        (m_star_contract, (A, F2, 3)),
        (delta_star_contract, (A, F2)),
        (delta_star_split, (A, F1, F2)),
    ]
    for operator, args in calls:
        once = _applied(operator, *args)
        assert once and _applied(operator, *args, w=Fraction(-3, 2)) == {
            key: Fraction(-3, 2) * x for key, x in once.items()}
        # a second call with weight -1 cancels what the first one added
        out = {}
        operator(*args, out=out, w=1)
        operator(*args, out=out, w=-1)
        assert not any(out.values()), operator.__name__


def test_production_builds_run_through_the_kernel_operators(monkeypatch):
    A = orbifold_frobenius(load_group("builtin:S3"))
    calls = {}
    for name in ("m_star_contract", "delta_star_contract", "delta_star_split"):
        def counted(*args, _name=name, _operator=getattr(cutjoin, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _operator(*args, **kwargs)
        monkeypatch.setattr(cutjoin, name, counted)
    # a cold table; (6, 2, 2) at genus 1 has join, loop and split terms
    vs = [A.basis(i) for i in (2, 1, 1)]
    value = amodel.CatalanTable(A).twisted(1, (6, 2, 2), vs)
    assert set(calls) == {"m_star_contract", "delta_star_contract", "delta_star_split"}
    assert all(calls.values()), calls
    assert value == count_arrowed_graphs(1, 3, (6, 2, 2)) * omega_tqft(A, 1, 3, vs) != 0


def test_the_twisted_differentials_contract_through_the_engine_delta_star(monkeypatch):
    # the B-model bracket is contracted by the operator C9 checks, once per (g, n)
    A = orbifold_frobenius(load_group("builtin:S3"))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return delta_star_contract(*args, **kwargs)

    monkeypatch.setattr(bmodel, "delta_star_contract", counted)
    cutjoin.shared.cache_clear()
    tw = bmodel.twisted_wgn(0, 4, A)
    assert calls == [A, A]  # cold w_{0,4} builds w_{0,3} first
    scalar = bmodel.wgn(0, 4)
    for idx, value in tw.values.items():
        assert value == scalar * omega_tqft(A, 0, 4, [A.basis(i) for i in idx]), idx



def test_equal_algebras_share_one_table():
    first = orbifold_frobenius(load_group("Z2"))
    second = orbifold_frobenius(load_group("Z2"))
    assert first is second
    assert cutjoin.shared(amodel.CatalanTable, first) is cutjoin.shared(amodel.CatalanTable, second)


def test_a_second_load_answers_warm_queries_from_the_first(monkeypatch):
    first = orbifold_frobenius(load_group("builtin:S3"))
    mu, idx = (6, 4, 2), (1, 2, 1)
    value = amodel.twisted_catalan(2, 3, mu, first, [first.basis(i) for i in idx])
    tables = cutjoin.shared.cache_info().currsize
    second = orbifold_frobenius(load_group("builtin:S3"))
    assert second is first
    # warm: no child tensor is built, and no table is added
    monkeypatch.setattr(cutjoin, "CUTJOIN_WORK_BUDGET", 0)
    assert amodel.twisted_catalan(2, 3, mu, second, [second.basis(i) for i in idx]) == value != 0
    assert cutjoin.shared.cache_info().currsize == tables


def test_scalar_counts_live_in_the_trivial_algebra_table():
    cutjoin.shared.cache_clear()
    A = trivial_algebra()
    table = cutjoin.shared(amodel.CatalanTable, A)
    assert table is cutjoin.shared(amodel.CatalanTable, cutjoin.TRIVIAL)
    with pytest.raises(TypeError):
        cutjoin.shared(amodel.CatalanTable)
    assert amodel.catalan(1, 1, (4,)) == 1
    built = dict(table._tensors)
    assert built
    # the decorated count over the trivial algebra reads the same tensors
    assert amodel.twisted_dessin(1, 1, (4,), A, [A.basis(0)]) == Fraction(1, 4)
    assert table._tensors == built


def test_cleared_registry_gives_the_same_values():
    before = (amodel.catalan(1, 2, (4, 4)), intersect.correlator(2, 1, (4,)), bmodel.wgn(1, 2))
    cutjoin.shared.cache_clear()
    assert cutjoin.shared(amodel.CatalanTable, cutjoin.TRIVIAL).rows() == []
    assert (amodel.catalan(1, 2, (4, 4)), intersect.correlator(2, 1, (4,)), bmodel.wgn(1, 2)) == before


def test_no_module_holds_a_table_of_its_own():
    # every recursion table lives in cutjoin.shared, where one call clears it
    tables = (cutjoin.CutJoinTable, bmodel._Recursion)
    for info in pkgutil.iter_modules(tqftrec.__path__):
        module = importlib.import_module("tqftrec." + info.name)
        for name, value in vars(module).items():
            held = list(value.values()) if isinstance(value, dict) else [value]
            assert not any(isinstance(v, tables) for v in held), (info.name, name)


# -- warm queries: one memo read and the contraction -------------------------


def test_warm_and_vanishing_queries_never_reenter_lookup(monkeypatch):
    A = orbifold_frobenius(load_group("builtin:S3"))
    table = amodel.CatalanTable(A)
    scalar = amodel.CatalanTable(cutjoin.TRIVIAL)
    correlators = intersect.CorrelatorTable(A)
    vs = [A.basis(1), A.element([0, 0, 3]), A.basis(1)]
    profiles = set(itertools.permutations((4, 2, 2)))
    decorated = {mu: table.twisted(1, mu, vs) for mu in profiles}
    counts = {mu: scalar.untwisted(1, mu) for mu in profiles}
    assert any(decorated.values()) and all(counts.values())
    stored = (dict(table._tensors), dict(scalar._tensors), dict(correlators._tensors))

    def refuse(*args):
        raise AssertionError("a warm or vanishing query re-entered _lookup")

    monkeypatch.setattr(cutjoin.CutJoinTable, "_lookup", refuse)
    for mu in profiles:
        assert table.twisted(1, mu, vs) == decorated[mu]
        assert scalar.untwisted(1, mu) == counts[mu]
        assert type(scalar.untwisted(1, mu)) is Fraction
    # odd total degree, and a correlator off its dimension, were never built
    answers = [table.twisted(1, (3, 2, 2), vs), scalar.untwisted(2, (5, 2)),
               correlators.twisted(1, (2,), [A.basis(0)]),
               intersect.CorrelatorTable().untwisted(1, (2,))]
    assert answers == [0] * 4 and all(type(x) is Fraction for x in answers)
    # no vanishing profile is stored
    assert (table._tensors, scalar._tensors, correlators._tensors) == stored


def _summed(tensor, vs):
    """The functional as the plain sum over the tensor's entries."""
    return sum((val * math.prod(v.coeffs[i] for v, i in zip(vs, idx))
                for idx, val in tensor.items()), Fraction(0))


def test_one_entry_contraction_equals_the_general_sum():
    rng = random.Random(7)
    A = orbifold_frobenius(load_group("builtin:S3"))
    singles = [A.element([c if j == i else 0 for j in range(A.dim)])
               for c in (1, 3, Fraction(-1, 2)) for i in range(A.dim)]
    dense = [A.element([1, -2, "1/3"]), A.element([0, "5/2", 1]), A.element([0] * A.dim)]
    seen = set()
    for trial in range(300):
        n = rng.randint(1, 4)
        keys = list(itertools.product(range(A.dim), repeat=n))
        tensor = {idx: Fraction(rng.choice([-7, -1, 1, 2, 5]), rng.randint(1, 6))
                  for idx in rng.sample(keys, rng.randint(0, len(keys)))}
        vs = [rng.choice(singles) for _ in range(n)]
        if trial % 3 == 0:
            vs[rng.randrange(n)] = rng.choice(dense)
        got = contract(tensor, vs)
        assert got == _summed(tensor, vs), (tensor, vs)
        assert type(got) is Fraction
        seen.add((math.prod(len(v.terms) for v in vs) == 1, got == 0))
    # both paths, each with a zero and a nonzero answer
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_memoized_queries_need_no_budget_and_cold_ones_keep_the_message(monkeypatch):
    table = amodel.CatalanTable(cutjoin.TRIVIAL)
    one = [cutjoin.TRIVIAL.basis(0)] * 2
    value = table.untwisted(1, (4, 2))
    monkeypatch.setattr(cutjoin, "CUTJOIN_WORK_BUDGET", 0)
    assert table.untwisted(1, (2, 4)) == table.twisted(1, (2, 4), one) == value != 0
    assert table.untwisted(1, (3, 2)) == table.twisted(1, (2, 3), one) == 0
    with pytest.raises(BudgetError) as err:
        table.untwisted(1, (2, 6))
    assert str(err.value) == "profile g=1, mu=[2, 6] needs more than 0 child tensors"


def test_each_level_of_a_build_costs_one_frame():
    # one-vertex planar counts descend one level per cut of degree 2, so
    # mu = (1100,) builds 550 levels deep, past half the default recursion
    # limit, well within the work budget; the count is the Catalan number
    table = amodel.CatalanTable(cutjoin.TRIVIAL)
    assert table.untwisted(0, (1100,)) == math.comb(1100, 550) // 551


# -- the int build against Fraction tensors ----------------------------------

def _rescaled(A, scales, factor):
    """A in the basis scales[i] e_i with its pairing times factor: the
    product constants become s_i s_j / s_k c_ij^k and the pairing
    factor s_i s_j eta_ij, so the constants get denominators that no group
    algebra has."""
    s, r = [Fraction(x) for x in scales], range(A.dim)
    product = [[[s[i] * s[j] / s[k] * A.product_tensor[i][j][k] for k in r] for j in r] for i in r]
    pairing = [[factor * s[i] * s[j] * A.pairing[i][j] for j in r] for i in r]
    return FrobeniusAlgebra(A.dim, [label + "'" for label in A.labels], product, pairing)


def _fraction_tensor(hooks, g, mu, memo):
    """The tensor of (g, mu), slots in the order of mu, reduced on the
    largest degree as the engine reduces it but straight through the kernel
    operators on Fraction tensors; hooks is a table of the family, whose
    kernels it reads and whose build it never runs, and memo maps each
    sorted profile to its tensor."""
    if g < 0 or hooks._vanishes(g, mu):
        return {}
    canon = tuple(sorted(mu, reverse=True))
    if (g, canon) not in memo:
        out = hooks._base_case(g, canon)
        if out is None:
            A, out, (m1, *rest) = hooks.algebra, {}, canon
            for j, mj in enumerate(rest):
                others = tuple(rest[:j] + rest[j + 1:])
                for c, w in hooks._joins(m1, mj, 2 * g - 3 + len(canon) > 0):
                    m_star_contract(A, _fraction_tensor(hooks, g, (c,) + others, memo), j + 2, out, w)
            for a, b, w in hooks._cuts(m1):
                delta_star_contract(A, _fraction_tensor(hooks, g - 1, (a, b, *rest), memo), out, w)
                for g1, size in itertools.product(range(g + 1), range(len(rest) + 1)):
                    for I in itertools.combinations(range(len(rest)), size):
                        J = tuple(t for t in range(len(rest)) if t not in I)
                        if hooks.stable_splits and min(2 * g1 + len(I), 2 * (g - g1) + len(J)) < 2:
                            continue
                        delta_star_split(
                            A, _fraction_tensor(hooks, g1, (a, *(rest[t] for t in I)), memo),
                            _fraction_tensor(hooks, g - g1, (b, *(rest[t] for t in J)), memo),
                            out, w, tuple((I + J).index(t) for t in range(len(rest))))
        memo[g, canon] = {idx: x for idx, x in out.items() if x}
    # canonical slot t is position order[t] of mu
    order = sorted(range(len(mu)), key=mu.__getitem__, reverse=True)
    return {tuple(cidx[order.index(p)] for p in range(len(mu))): x
            for cidx, x in memo[g, canon].items()}


def _matches_the_fraction_build(table):
    memo, hooks = {}, type(table)(table.algebra)
    assert table._tensors
    for (g, mu), tensor in table._tensors.items():
        assert all(type(x) is Fraction for x in tensor.values()), (g, mu)
        assert tensor == _fraction_tensor(hooks, g, mu, memo), (type(table).__name__, g, mu)


def test_int_builds_over_constants_with_denominators_match_fraction_builds():
    # every group algebra has integer product and coproduct constants; this
    # one has denominators in both, and in its counit and pairing
    B = _rescaled(orbifold_frobenius(load_group("builtin:S3")), (2, 3, 1), Fraction(5, 7))
    assert any(c.denominator > 1 for terms in B.product_by_output for _, _, c in terms)
    assert any(c.denominator > 1 for row in B.coproduct_by_legs for terms in row for _, c in terms)
    profiles = [mu for n in (1, 2, 3) for mu in itertools.combinations_with_replacement(
        range(5, -1, -1), n)]
    catalan, lattice, correlators = (amodel.CatalanTable(B), amodel.LatticeTable(B),
                                     intersect.CorrelatorTable(B))
    for g, mu in itertools.product(range(3), profiles):
        vs = [B.basis(i % B.dim) for i in range(len(mu))]
        catalan.twisted(g, mu, vs)
        if g < 2 and min(mu) > 0 and (g, len(mu)) != (0, 1):
            lattice.twisted(g, mu, vs)
        correlators.twisted(g, mu, vs)
    for table in (catalan, lattice, correlators):
        _matches_the_fraction_build(table)
    # a table read from a cache file: its loaded tensors are the children of
    # the int builds of deeper profiles
    small = amodel.CatalanTable(B)
    for mu in ((6,), (5, 1), (3, 3), (4, 2, 2)):
        small.twisted(1, mu, [B.basis(1)] * len(mu))
    loaded = amodel.CatalanTable(B)
    assert loaded.load_json(small.to_json())
    read = set(loaded._tensors)
    for mu in ((8,), (7, 3), (5, 5), (6, 4, 2)):
        loaded.twisted(2, mu, [B.basis(2)] * len(mu))
    assert read & set(loaded._ints)
    _matches_the_fraction_build(loaded)


# -- mirror terms run once, and each child is read once ------------------------

def test_coproducts_are_cocommutative():
    # a cut (a, b) and its mirror (b, a) give equal terms because
    # Delta_i^{ab} = Delta_i^{ba}: the product is commutative and the pairing
    # symmetric, which every algebra's construction checks
    algebras = [orbifold_frobenius(load_group("builtin:" + name)) for name in BUILTIN_GROUPS]
    algebras.append(_rescaled(orbifold_frobenius(load_group("builtin:S3")), (2, 3, 1),
                              Fraction(5, 7)))
    for A in algebras:
        legs = A.coproduct_by_legs
        assert all(legs[a][b] == legs[b][a] for a in range(A.dim) for b in range(A.dim)), A.labels


def test_merged_builds_match_the_unmerged_fraction_build_on_repeated_degrees():
    # mirrored cuts (a = b among them) and split subsets with equal degrees,
    # over constants with denominators; the reference runs every term apart
    B = _rescaled(orbifold_frobenius(load_group("builtin:S3")), (2, 3, 1), Fraction(5, 7))
    catalan, lattice, correlators = (amodel.CatalanTable(B), amodel.LatticeTable(B),
                                     intersect.CorrelatorTable(B))
    for g, mu in itertools.product(range(3), ((4, 4, 2, 2), (3, 3, 3, 1), (6, 6), (5, 5, 2))):
        vs = [B.basis(i % B.dim) for i in range(len(mu))]
        assert catalan.twisted(g, mu, vs) == catalan.untwisted(g, mu) * omega_tqft(B, g, len(mu), vs)
        lattice.twisted(g, mu, vs)
    for g, k in ((0, (1, 1, 0, 0, 0)), (1, (1, 1, 1, 1)), (1, (2, 2, 0, 0)), (2, (2, 2, 2, 1)),
                 (2, (3, 3, 0)), (2, (2, 2, 2))):
        correlators.twisted(g, k, [B.basis(i % B.dim) for i in range(len(k))])
    for table in (catalan, lattice, correlators):
        assert any(len(set(mu)) < len(mu) for _, mu in table._tensors)
        _matches_the_fraction_build(table)


def test_a_build_reads_each_of_its_children_once(monkeypatch):
    # the lattice cuts (q1, q2) share degrees across cuts, and equal degrees
    # give equal children within a cut
    reads, stack = [], []
    build = cutjoin.CutJoinTable._tensor

    def traced(self, g, mu):
        reads.append((self, stack[-1] if stack else None, g, mu))
        stack.append((g, mu))
        try:
            return build(self, g, mu)
        finally:
            stack.pop()
    monkeypatch.setattr(cutjoin.CutJoinTable, "_tensor", traced)
    A = z2_algebra()
    amodel.LatticeTable(A).untwisted(1, (6, 4))
    amodel.CatalanTable(A).untwisted(2, (4, 4, 2, 2))
    intersect.CorrelatorTable(A).untwisted(2, (2, 2, 2, 1))
    assert len(reads) == len(set(reads)) > 50
