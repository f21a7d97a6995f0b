"""Tests for the cut-and-join engine: its kernel operators and the one
registry of shared recursion tables."""

import importlib
import itertools
import math
import pkgutil
import random
import re
from fractions import Fraction

import pytest

import tqftrec
from tqftrec import amodel, bmodel, cutjoin, intersect
from tqftrec.cellgraph import count_arrowed_graphs
from tqftrec.cutjoin import contract, delta_star_contract, delta_star_split, m_star_contract
from tqftrec.exact import BudgetError
from tqftrec.frobenius import FrobeniusAlgebra, omega_tqft, trivial_algebra
from tqftrec.groups import BUILTIN_GROUPS, load_group, orbifold_frobenius

from functionals import is_symmetric, omega_functional, rescaled


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
    assert calls == [A.int_constants] * 2  # cold w_{0,4} builds w_{0,3} first
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
        got = contract(cutjoin._int_form(tensor), vs)
        assert got == _summed(tensor, vs), (tensor, vs)
        assert type(got) is Fraction
        seen.add((all(sum(map(bool, v.coeffs)) == 1 for v in vs), got == 0))
    # single-term and other lists, each with a zero and a nonzero answer
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


class _Unwalked(dict):
    """A tensor's ints that may be read by key but not walked."""

    def items(self):
        raise AssertionError("the tensor was walked")


def test_basis_decorations_read_one_entry_and_scaled_ones_contract():
    # a list of basis vectors reads its one entry from the memo, which may
    # not be walked; a scaled basis vector goes through the one contraction
    A = orbifold_frobenius(load_group("builtin:S3"))
    tensor = {(0, 2, 1): Fraction(5, 3), (2, 2, 2): Fraction(-1, 4)}
    den, ints = cutjoin._int_form(tensor)
    table = amodel.CatalanTable(A)
    table._tensors[(0, (6, 4, 2))] = den, _Unwalked(ints)
    half = Fraction(-3, 2)
    for idx in itertools.product(range(A.dim), repeat=3):
        vs = [A.basis(i) for i in idx]
        entry = tensor.get(idx, 0)
        got = table.twisted(0, (6, 4, 2), vs)
        assert got == entry and type(got) is Fraction
        for slot in range(3):
            scaled = list(vs)
            scaled[slot] = A.element([half * c for c in vs[slot].coeffs])
            got = contract((den, ints), scaled)
            assert got == half * entry and type(got) is Fraction
    assert contract((den, ints), [A.basis(0), A.element([0] * A.dim), A.basis(1)]) == 0


def test_split_halves_take_the_degrees_of_each_subset():
    for r in range(7):
        rest = tuple(range(10, 10 + r))
        halves = cutjoin._halves(r)
        assert cutjoin._halves(r) is halves
        subsets = [I for size in range(r + 1) for I in itertools.combinations(range(r), size)]
        assert len(halves) == len(subsets) == 2 ** r
        for (take1, take2, order), I in zip(halves, subsets):
            J = tuple(t for t in range(r) if t not in I)
            assert take1(rest) == tuple(rest[t] for t in I)
            assert take2(rest) == tuple(rest[t] for t in J)
            # boundary t lands in slot order[t] of the two halves joined
            assert tuple((take1(rest) + take2(rest))[order[t]] for t in range(r)) == rest


def test_a_build_with_no_cut_asks_for_no_splits():
    # (1, 0) correlators have no cut, and no child of theirs has one, so no
    # build asks for the 2^15 splits of its other boundaries
    cutjoin._halves.cache_clear()
    k = (1,) * 13 + (0,) * 3
    assert intersect.CorrelatorTable().untwisted(0, k) == math.factorial(13)
    assert cutjoin._halves.cache_info().currsize == 0


def test_a_budget_that_cannot_pay_for_the_splits_refuses_before_they_are_built(monkeypatch):
    # catalan g=0 with 8 boundaries of degree 2 considers 292 children: its
    # builds reach their first cuts at 15, 17, 20, 26, 37, 57, 94 and 164,
    # with 2^r splits for r = 0..7 to consider there, so a budget of 250
    # pays for r = 6 but not for r = 7
    asked, halves = [], cutjoin._halves
    monkeypatch.setattr(cutjoin, "_halves", lambda r: asked.append(r) or halves(r))
    monkeypatch.setattr(cutjoin, "CUTJOIN_WORK_BUDGET", 250)
    halves.cache_clear()
    with pytest.raises(BudgetError, match="considers more than 250 children"):
        amodel.CatalanTable().untwisted(0, (2,) * 8)
    assert asked == list(range(7)) and halves.cache_info().currsize == 7
    # the same request within the default budget asks for r = 7 too
    monkeypatch.setattr(cutjoin, "CUTJOIN_WORK_BUDGET", 10 ** 6)
    assert amodel.CatalanTable().untwisted(0, (2,) * 8) == amodel.catalan(0, 8, (2,) * 8) != 0
    assert asked[-1] == 7


def test_memoized_correlator_weights_equal_fresh_ones():
    df = intersect.double_factorial
    table = intersect.CorrelatorTable()
    for k1 in range(41):
        fresh = [(l, k1 - 2 - l, Fraction(df(2 * l + 1) * df(2 * k1 - 2 * l - 3), 2 * df(2 * k1 + 1)))
                 for l in range(k1 - 1)]
        assert list(table._cuts(k1)) == fresh
        assert table._cuts(k1) is intersect.CorrelatorTable()._cuts(k1)
        for kj in range(41):
            weight = Fraction(df(2 * k1 + 2 * kj - 1), df(2 * k1 + 1) * df(2 * kj - 1))
            for stable in (False, True):
                assert list(table._joins(k1, kj, stable)) == [(k1 + kj - 1, weight)]


def test_memoized_queries_need_no_budget_and_cold_ones_keep_the_message(monkeypatch):
    table = amodel.CatalanTable(cutjoin.TRIVIAL)
    one = [cutjoin.TRIVIAL.basis(0)] * 2
    value = table.untwisted(1, (4, 2))
    monkeypatch.setattr(cutjoin, "CUTJOIN_WORK_BUDGET", 0)
    assert table.untwisted(1, (2, 4)) == table.twisted(1, (2, 4), one) == value != 0
    assert table.untwisted(1, (3, 2)) == table.twisted(1, (2, 3), one) == 0
    with pytest.raises(BudgetError) as err:
        table.untwisted(1, (2, 6))
    assert str(err.value) == "profile g=1, mu=[2, 6] considers more than 0 children"


def test_each_level_of_a_build_costs_one_frame():
    # one-vertex planar counts descend one level per cut of degree 2, so
    # mu = (1100,) builds 550 levels deep, past half the default recursion
    # limit, well within the work budget; the count is the Catalan number
    table = amodel.CatalanTable(cutjoin.TRIVIAL)
    assert table.untwisted(0, (1100,)) == math.comb(1100, 550) // 551


# -- the int build against Fraction tensors ----------------------------------

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
                        # the lattice recursion has no split term with an unstable half
                        if isinstance(hooks, amodel.LatticeTable) and min(
                                2 * g1 + len(I), 2 * (g - g1) + len(J)) < 2:
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


def _fractions(form):
    """The tensor held as the int form (den, ints), as {index tuple: Fraction}."""
    den, ints = form
    return {idx: Fraction(v, den) for idx, v in ints.items()}


def _matches_the_fraction_build(table):
    memo, hooks = {}, type(table)(table.algebra)
    assert table._tensors
    for (g, mu), form in table._tensors.items():
        assert all(type(x) is int for x in form[1].values()), (g, mu)
        assert _fractions(form) == _fraction_tensor(hooks, g, mu, memo), (
            type(table).__name__, g, mu)


def test_int_builds_over_constants_with_denominators_match_fraction_builds(monkeypatch):
    # every group algebra has integer product and coproduct constants; this
    # one has denominators in both, and in its counit and pairing
    B = rescaled(orbifold_frobenius(load_group("builtin:S3")), (2, 3, 1), Fraction(5, 7))
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
    forms, reads = dict(loaded._tensors), []
    build = cutjoin.CutJoinTable._tensor

    def traced(self, g, mu):
        reads.append((g, tuple(sorted(mu, reverse=True))))
        return build(self, g, mu)
    monkeypatch.setattr(cutjoin.CutJoinTable, "_tensor", traced)
    for mu in ((8,), (7, 3), (5, 5), (6, 4, 2)):
        loaded.twisted(2, mu, [B.basis(2)] * len(mu))
    # loaded profiles are read as children, and answered from the memo as loaded
    assert set(forms) & set(reads)
    assert all(loaded._tensors[key] is form for key, form in forms.items())
    _matches_the_fraction_build(loaded)


def test_each_stored_profile_is_one_int_form():
    # builds, base cases and loaded tensors all reach the memo as (den, ints):
    # den > 0, int entries with none zero, and no common factor left
    S3 = orbifold_frobenius(load_group("builtin:S3"))
    B = rescaled(S3, (2, 3, 1), Fraction(5, 7))
    tables = []
    for A in (cutjoin.TRIVIAL, S3, B):
        catalan, lattice, correlators = (amodel.CatalanTable(A), amodel.LatticeTable(A),
                                         intersect.CorrelatorTable(A))
        for g, mu in ((0, (0,)), (1, (4, 2, 2)), (2, (6, 2))):
            catalan.twisted(g, mu, [A.basis(0)] * len(mu))
        for g, mu in ((0, (3, 3)), (0, (2, 2, 2)), (1, (4, 2))):
            lattice.twisted(g, mu, [A.basis(0)] * len(mu))
        for g, k in ((0, (0, 0, 0)), (1, (1,)), (2, (2, 2, 1))):
            correlators.twisted(g, k, [A.basis(0)] * len(k))
        # a zero value in a cache file is not stored
        data = catalan.to_json()
        data["entries"].append({"g": 0, "mu": [40], "decor": [0], "value": "0"})
        data["sha256"] = amodel._digest({k: v for k, v in data.items() if k != "sha256"})
        loaded = amodel.CatalanTable(A)
        loaded.load_json(data)
        assert (0, (40,)) not in loaded._tensors and loaded.rows() == catalan.rows()
        tables += [catalan, lattice, correlators, loaded]
    for table in tables:
        assert table._tensors
        for key, form in table._tensors.items():
            assert type(form) is tuple and len(form) == 2, key
            den, ints = form
            assert type(den) is int and den > 0, key
            assert all(type(v) is int and v for v in ints.values()), key
            assert math.gcd(den, *ints.values()) == 1, key


def test_lattice_splits_have_no_unstable_half():
    table = amodel.LatticeTable()
    for g, n1, n2 in itertools.product(range(4), range(1, 6), range(1, 6)):
        mu1, mu2 = (2,) * n1, (2,) * n2
        assert list(table._split_genera(g, mu1, mu2)) == [
            g1 for g1 in range(g + 1) if 2 * g1 + n1 > 2 and 2 * (g - g1) + n2 > 2], (g, n1, n2)
        assert not table._split_genera(g, (3,) + mu1[1:], mu2)


# -- mirror terms run once, and each child is read once ------------------------

def test_coproducts_are_cocommutative():
    # a cut (a, b) and its mirror (b, a) give equal terms because
    # Delta_i^{ab} = Delta_i^{ba}: the product is commutative and the pairing
    # symmetric, which every algebra's construction checks
    algebras = [orbifold_frobenius(load_group("builtin:" + name)) for name in BUILTIN_GROUPS]
    algebras.append(rescaled(orbifold_frobenius(load_group("builtin:S3")), (2, 3, 1),
                              Fraction(5, 7)))
    for A in algebras:
        legs = A.coproduct_by_legs
        assert all(legs[a][b] == legs[b][a] for a in range(A.dim) for b in range(A.dim)), A.labels


def test_merged_builds_match_the_unmerged_fraction_build_on_repeated_degrees():
    # mirrored cuts (a = b among them) and split subsets with equal degrees,
    # over constants with denominators; the reference runs every term apart
    B = rescaled(orbifold_frobenius(load_group("builtin:S3")), (2, 3, 1), Fraction(5, 7))
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


# -- warm reads: the asked profile is canonicalized once ----------------------

def _reference(table, g, mu, vs):
    """The count read the way the engine read it before the profile cache:
    the stored tensor of the sorted profile, built by a table of its own,
    summed on the decorations put in the memoized order by a stable sort."""
    fresh = type(table)(table.algebra)
    canon = tuple(sorted(mu, reverse=True))
    if fresh._vanishes(g, canon):
        return Fraction(0)
    order = sorted(range(len(mu)), key=list(mu).__getitem__, reverse=True)
    return _summed(_fractions(fresh._lookup(g, canon, mu)), [vs[p] for p in order])


def test_every_order_of_a_profile_reads_as_the_cold_path():
    S3 = orbifold_frobenius(load_group("builtin:S3"))
    for A in (S3, cutjoin.TRIVIAL):
        table = amodel.CatalanTable(A)
        dense = A.element([Fraction(k + 1, 2) for k in range(A.dim)])
        for degrees in ((4, 2, 2), (3, 3, 2, 2)):
            n = len(degrees)
            decorations = ([A.basis(t % A.dim) for t in range(n)],
                           [A.basis((t + 1) % A.dim) for t in range(n - 1)] + [dense])
            for g, mu, vs in itertools.product(range(3), itertools.permutations(degrees),
                                               decorations):
                cutjoin._profile.cache_clear()
                cold = amodel.CatalanTable(A).twisted(g, mu, vs)
                assert cold == _reference(table, g, mu, vs), (A.labels, g, mu, vs)
                for asked, given in itertools.product((list(mu), tuple(mu)), (n, None)):
                    got = table.twisted(g, asked, vs, given)
                    assert got == cold and type(got) is Fraction, (A.labels, g, asked, given)
                    if A is cutjoin.TRIVIAL and vs is decorations[0]:
                        assert table.untwisted(g, asked, given) == cold
            assert any(table.twisted(1, mu, decorations[1])
                       for mu in itertools.permutations(degrees))
    # the counts are symmetric, so a tensor symmetric under no permutation
    # of its slots is planted to show that each slot reads its own decoration
    rng, planted = random.Random(3), amodel.CatalanTable(S3)
    for degrees in ((4, 2, 2), (3, 3, 2, 2)):
        n = len(degrees)
        tensor = {idx: x for idx, x in _random_tensor(rng, S3.dim, n).items() if x}
        planted._tensors[(1, degrees)] = cutjoin._int_form(tensor)
        for mu in itertools.permutations(degrees):
            order = sorted(range(n), key=mu.__getitem__, reverse=True)
            for vs in ([S3.basis(rng.randrange(S3.dim)) for _ in range(n)],
                       [S3.element([rng.randint(-2, 2) for _ in range(S3.dim)]) for _ in range(n)]):
                expected = _summed(tensor, [vs[p] for p in order])
                for asked, given in itertools.product((list(mu), mu), (n, None)):
                    assert planted.twisted(1, asked, vs, given) == expected, (mu, vs)


def test_a_child_read_in_another_order_carries_each_slot_with_its_degree():
    # a build reads each child tensor with its slots in the order its parent
    # asks for, realigned at the end of _tensor from the memoized decreasing
    # order; the counts are symmetric, so a tensor symmetric under no
    # permutation of its slots is planted, and every order of distinct
    # degrees, 3-cycles among them, must find each slot's entry by its degree
    S3 = orbifold_frobenius(load_group("builtin:S3"))
    rng, table = random.Random(11), amodel.CatalanTable(S3)
    for canon in ((3, 2, 1), (4, 3, 2, 1)):
        tensor = {idx: x for idx, x in _random_tensor(rng, S3.dim, len(canon)).items() if x}
        den, ints = table._tensors[(1, canon)] = cutjoin._int_form(tensor)
        for mu in itertools.permutations(canon):
            # asked slot p holds degree mu[p], canonical slot canon.index(mu[p])
            expected = {tuple(cidx[canon.index(m)] for m in mu): v for cidx, v in ints.items()}
            assert table._tensor(1, mu) == (den, expected), mu


def _invalid_requests(c, l, k, A, e, x):
    """Each invalid request to the Catalan, lattice and correlator tables c,
    l and k over A, with the exception and message it raises; e is an
    element of A and x one of another algebra."""
    return [
        (lambda: c.twisted(-1, (4, 2, 2), [e] * 3),
         ValueError, "genus must be non-negative, got -1"),
        (lambda: c.untwisted(-1, [2, 4, 2]),
         ValueError, "genus must be non-negative, got -1"),
        (lambda: c.twisted(1, (4, 2, 2), [e] * 3, 0),
         ValueError, "need at least one boundary, got n=0"),
        (lambda: c.twisted(1, [2, 2, 4], [e] * 3, 2),
         ValueError, "profile length 3 does not match n=2"),
        (lambda: c.untwisted(1, (3, 2, 2), 4),
         ValueError, "profile length 3 does not match n=4"),
        (lambda: c.twisted(1, (2, -4, 2), [e] * 3),
         ValueError, "degrees must be non-negative, got [2, -4, 2]"),
        (lambda: c.twisted(1, (4.5, 2, 2), [e] * 3),
         ValueError, "expected an integer, got 4.5"),
        (lambda: c.untwisted(1.5, [4, 2, 2]),
         ValueError, "expected an integer, got 1.5"),
        (lambda: c.untwisted(1, [4, 2, 2], 3.5),
         ValueError, "expected an integer, got 3.5"),
        (lambda: l.twisted(1, [4, 4.5], [e] * 2),
         ValueError, "expected an integer, got 4.5"),
        (lambda: l.untwisted(1.5, (4,)),
         ValueError, "expected an integer, got 1.5"),
        (lambda: c.untwisted(1, [2, 2, -4]),
         ValueError, "degrees must be non-negative, got [2, 2, -4]"),
        (lambda: l.twisted(0, (4,), [e]),
         ValueError, "the lattice count has no (0,1) case"),
        (lambda: l.untwisted(0, [3]),
         ValueError, "the lattice count has no (0,1) case"),
        (lambda: c.twisted(1, (2, 4, 2), [e] * 2),
         ValueError, "need one decoration per boundary: 2 for 3"),
        (lambda: c.twisted(1, (3, 2, 2), [e] * 4),
         ValueError, "need one decoration per boundary: 4 for 3"),
        (lambda: c.twisted(1, [2, 2, 4], [e, 1, e]),
         TypeError, "decorations must be algebra elements, got 1"),
        (lambda: c.twisted(1, (2, 3, 2), [e, e, "x"]),
         TypeError, "decorations must be algebra elements, got 'x'"),
        (lambda: c.twisted(1, (4, 2, 2), None),
         TypeError, "object of type 'NoneType' has no len()"),
        (lambda: c.twisted(1, (4, 2, 2), [e, x, e]),
         ValueError, "decoration does not belong to the given algebra"),
        (lambda: c.twisted(1, [2, 3, 2], [x, e, e]),
         ValueError, "decoration does not belong to the given algebra"),
        (lambda: k.twisted(-1, (1, 1), [e] * 2),
         ValueError, "genus must be non-negative, got -1"),
        (lambda: k.untwisted(1, [1, 1], 0),
         ValueError, "need at least one boundary, got n=0"),
        (lambda: k.twisted(1, (1, 1), [e] * 2, 3),
         ValueError, "profile length 2 does not match n=3"),
        (lambda: k.untwisted(1, (1.9,)),
         ValueError, "expected an integer, got 1.9"),
        (lambda: k.twisted(1.5, [1, 0], [e] * 2),
         ValueError, "expected an integer, got 1.5"),
        (lambda: k.twisted(1, [0, 1], [e, x]),
         ValueError, "decoration does not belong to the given algebra"),
        (lambda: k.twisted(1, (1, 0), [e, 2]),
         TypeError, "decorations must be algebra elements, got 2"),
        (lambda: amodel.twisted_dessin(1, 3, (4, 0, 2), A, [e] * 3),
         ValueError, "dessin counts need positive degrees, got [4, 0, 2]"),
        (lambda: amodel.twisted_dessin(1, 3, (2, 2, 4), A, [e, x, e]),
         ValueError, "decoration does not belong to the given algebra"),
        (lambda: amodel.twisted_dessin(0, 1, (4.5,), A, [e]),
         ValueError, "expected an integer, got 4.5"),
        (lambda: intersect.check_tauG(1.5, 2, (0, 1), A, [e, e]),
         ValueError, "expected an integer, got 1.5"),
        (lambda: intersect.check_tauG(1, 2, (0, 1), A, [e, x]),
         ValueError, "decoration does not belong to the given algebra"),
        (lambda: intersect.check_tauG(1, 3, (1, 1), A, [e, e]),
         ValueError, "profile length 2 does not match n=3"),
        (lambda: omega_tqft(A, 1, 2, [e, x]),
         ValueError, "decoration does not belong to the given algebra"),
        (lambda: omega_tqft(A, 1, 2, [e, 3]),
         TypeError, "decorations must be algebra elements, got 3"),
        (lambda: omega_tqft(A, 1.5, 2, [e, e]),
         ValueError, "expected an integer, got 1.5"),
    ]


def _count_entry_points(A, v):
    """Each public count entry point as (call, degreed): call(g, m) asks at
    genus g with m as a degree, or m - 1 as a differential's boundary
    count, and answers nonzero at g = m = 2; ``omega_tqft`` takes no degree
    (degreed False), and its call reads only g."""
    return [
        (lambda g, m: amodel.catalan(g, 2, (m, 8)), True),
        (lambda g, m: amodel.twisted_catalan(g, 2, (m, 8), A, [v, v]), True),
        (lambda g, m: amodel.twisted_dessin(g, 2, (m, 8), A, [v, v]), True),
        (lambda g, m: amodel.lattice_twisted(g, 2, [8, m], A, [v, v]), True),
        (lambda g, m: intersect.correlator(g, 2, [m, 3]), True),
        (lambda g, m: intersect.twisted_correlator(g, 2, (m, 3), A, [v, v]), True),
        (lambda g, m: intersect.check_tauG(g, 2, (3, m), A, [v, v]), True),
        (lambda g, m: omega_tqft(A, g, 2, [v, v]), False),
        (lambda g, m: bmodel.wgn(g, m - 1), True),
        (lambda g, m: bmodel.twisted_wgn(g, m - 1, A).values, True),
        (lambda g, m: bmodel.inverse_laplace_coeffs(g, m - 1, 8), True),
    ]


def _cold(monkeypatch, *algebras):
    """Empty every cache a count request reads: the shared tables, the
    profile facts and each algebra's e^g and amplitudes."""
    cutjoin.shared.cache_clear()
    cutjoin._profile.cache_clear()
    for A in algebras:
        monkeypatch.setattr(A, "_euler_powers", {0: A._euler_powers[0]})
        monkeypatch.setattr(A, "_amplitudes", {})


def test_every_count_entry_point_reads_its_numbers_by_one_rule_cold_and_warm(monkeypatch):
    # a genus or degree of 1.5 or 4.5 is refused, never truncated, and 2.0
    # reads as 2, whether the caches hold the int request or not
    A = z2_algebra()
    for call, degreed in _count_entry_points(A, A.basis(1)):
        _cold(monkeypatch, A)
        want = call(2, 2)
        assert want and want != 0
        bad = [(1.5, 2), (2, 4.5)] if degreed else [(1.5, 2)]
        for g, m in bad:
            for warm in (True, False):
                if not warm:
                    _cold(monkeypatch, A)
                with pytest.raises(ValueError, match="expected an integer, got "):
                    call(g, m)
        for g, m in [(2.0, 2), (2, 2.0)] if degreed else [(2.0, 2)]:
            assert call(g, m) == want
            _cold(monkeypatch, A)
            assert call(g, m) == want
            assert call(2, 2) == want


def test_warm_tables_refuse_each_invalid_request_as_fresh_ones_do():
    A = orbifold_frobenius(load_group("builtin:S3"))
    e, x = A.basis(1), z2_algebra().basis(1)

    def raised(tables):
        out = []
        for request, _, _ in _invalid_requests(*tables, A, e, x):
            with pytest.raises(Exception) as err:
                request()
            out.append((type(err.value), str(err.value)))
        return out

    cutjoin._profile.cache_clear()
    fresh = (amodel.CatalanTable(A), amodel.LatticeTable(A), intersect.CorrelatorTable(A))
    expected = [(kind, message) for _, kind, message in _invalid_requests(*fresh, A, e, x)]
    assert raised(fresh) == expected
    # warm tables and a warm profile cache, over the same degrees and on
    # vanishing profiles, and each request refused again
    warm = (amodel.CatalanTable(A), amodel.LatticeTable(A), intersect.CorrelatorTable(A))
    catalan, lattice, correlators = warm
    for mu in itertools.chain(itertools.permutations((4, 2, 2)), itertools.permutations((3, 2, 2))):
        for asked in (mu, list(mu)):
            catalan.twisted(1, asked, [e] * 3)
            catalan.untwisted(1, asked)
            amodel.twisted_dessin(1, 3, asked, A, [e] * 3)
    one = [A.basis(0)] * 3
    assert catalan.twisted(1, (3, 2, 2), one) == 0 != catalan.twisted(1, (2, 4, 2), one)
    for asked in ((4,), [3], (1, 1), [0, 1], (1, 0)):
        lattice.twisted(1, asked, [e] * len(asked))
        correlators.twisted(1, asked, [e] * len(asked))
        intersect.check_tauG(1, len(asked), asked, A, [e] * len(asked))
    for _ in range(2):
        assert raised(warm) == expected


def test_the_profile_cache_is_bounded_and_holds_no_table():
    import gc
    import weakref

    limit = cutjoin._profile.cache_info().maxsize
    assert limit is not None
    for mu in itertools.islice(itertools.product(range(30), repeat=3), limit + 100):
        cutjoin.profile(mu)
    assert cutjoin._profile.cache_info().currsize == limit
    # the facts are tuples of ints and two maps on index tuples, nothing else
    ints, ordered, permute, realign = cutjoin.profile([2, "4", 3.0, True])
    assert ints == (2, 4, 3, 1) and all(type(m) is int for m in ints)
    assert ordered == (4, 3, 2, 1) and permute(ints) == ordered and realign(ordered) == ints
    assert cutjoin.profile((5, 3, 3)) == ((5, 3, 3), (5, 3, 3), None, None)
    # a degree int() cannot read is refused by int(), before the cache
    with pytest.raises(TypeError) as err:
        cutjoin.profile([2, [4]])
    with pytest.raises(TypeError) as expected:
        int([4])
    assert str(err.value) == str(expected.value)
    # a table is released once the caller drops it
    A = orbifold_frobenius(load_group("builtin:S3"))
    table = amodel.CatalanTable(A)
    one = [A.basis(0)] * 3
    value = table.twisted(1, [2, 4, 2], one)
    assert value == table.untwisted(1, (2, 2, 4)) * omega_tqft(A, 1, 3, one) != 0
    gone = weakref.ref(table)
    del table
    gc.collect()
    assert gone() is None


# -- the read index: a warm read is one probe of a per-table index ------------

def _asked_profiles(family):
    """(g, degrees) for each profile with up to 3 boundaries that a warm
    table reads: degrees up to 4 (3 for the correlators), both genera 0 and
    1, vanishing profiles among them, and none that the family refuses."""
    top = 3 if family is intersect.CorrelatorTable else 4
    for g, n in itertools.product((0, 1), (1, 2, 3)):
        if family is amodel.LatticeTable and (g, n) == (0, 1):
            continue
        for degrees in itertools.combinations_with_replacement(range(top + 1), n):
            yield g, degrees


_FAMILIES = (amodel.CatalanTable, amodel.LatticeTable, intersect.CorrelatorTable)


@pytest.mark.parametrize("group", ["builtin:S3", "builtin:Z3"])
def test_warm_reads_of_every_asked_order_equal_a_fresh_table(group):
    A = orbifold_frobenius(load_group(group))
    for family in _FAMILIES:
        warm, scalar, nonzero = family(A), family(cutjoin.TRIVIAL), set()
        for g, degrees in _asked_profiles(family):
            n = len(degrees)
            dense = [A.element([Fraction(t + 1, k + 2) for k in range(A.dim)]) for t in range(n)]
            bases = [[A.basis(0)] * n, [A.basis((t + 1) % A.dim) for t in range(n)]]
            for mu in set(itertools.permutations(degrees)):
                for vs in bases + [dense]:
                    fresh = family(A).twisted(g, mu, vs)
                    nonzero.add((vs is dense, g, fresh != 0))
                    for asked, given in itertools.product((mu, list(mu)), (n, None)):
                        for _ in range(2):
                            got = warm.twisted(g, asked, vs, given)
                            assert got == fresh and type(got) is Fraction, (
                                family.__name__, g, asked, given)
                fresh = family(cutjoin.TRIVIAL).untwisted(g, mu)
                for asked, given in itertools.product((mu, list(mu)), (n, None)):
                    for _ in range(2):
                        assert scalar.untwisted(g, asked, given) == fresh
        # each entry holds the memo's own int form, or None for a profile
        # that the vanishing rule zeroes, which the memo never holds
        for table in (warm, scalar):
            assert table._reads and len(table._reads) <= cutjoin.READ_INDEX_SIZE
            for (g, asked), (n, permute, form) in table._reads.items():
                ordered = tuple(sorted(asked, reverse=True))
                assert n == len(asked) and (permute is None) == (ordered == asked)
                if form is None:
                    assert table._vanishes(g, ordered) and (g, ordered) not in table._tensors
                else:
                    assert form is table._tensors[(g, ordered)]
        assert any(form is None for _, _, form in warm._reads.values())
        # basis and dense lists, at both genera, with zero and nonzero counts
        assert len(nonzero) == 8, (family.__name__, nonzero)


def test_the_read_index_is_bounded_and_answers_alike_past_its_bound(monkeypatch):
    A = orbifold_frobenius(load_group("builtin:Z3"))
    table, limit = amodel.CatalanTable(A), cutjoin.READ_INDEX_SIZE
    # profiles of odd total degree vanish, so filling the index builds nothing
    odd = (mu for mu in itertools.product(range(22), repeat=3) if sum(mu) % 2)
    for mu in itertools.islice(odd, limit + 100):
        assert table.untwisted(0, mu) == 0 and table.twisted(0, mu, [A.basis(1)] * 3) == 0
    assert len(table._reads) == limit and len(cutjoin.shared(
        amodel.CatalanTable, cutjoin.TRIVIAL)._reads) <= limit
    assert not table._tensors
    # a small bound, passed many times over, changes no answer
    monkeypatch.setattr(cutjoin, "READ_INDEX_SIZE", 5)
    small, sizes, values = amodel.CatalanTable(A), set(), set()
    for _ in range(2):
        for g, order in itertools.product((0, 1), itertools.permutations((4, 2, 2, 0))):
            mu = order[:3] if g else tuple(m or 2 for m in order)
            for vs in ([A.basis(t % A.dim) for t in range(len(mu))],
                       [A.element([1, t, "1/2"]) for t in range(len(mu))]):
                got = small.twisted(g, mu, vs)
                assert got == amodel.CatalanTable(A).twisted(g, mu, vs), (g, mu, vs)
                sizes.add(len(small._reads))
                values.add(got != 0)
    assert max(sizes) == 5 and values == {True, False}


def test_shared_cache_clear_leaves_no_read_index_reachable():
    import gc
    import weakref

    A = orbifold_frobenius(load_group("builtin:S3"))
    gone = []
    for family in _FAMILIES:
        table = cutjoin.shared(family, A)
        table.twisted(1, (3, 2, 1) if family is intersect.CorrelatorTable else (4, 2, 2),
                      [A.basis(1)] * 3)
        assert table._reads
        # an entry refers to ints, an itemgetter and the memo's int form only
        for entry in table._reads.values():
            assert not any(isinstance(x, cutjoin.CutJoinTable) for x in gc.get_referents(entry))
        gone.append(weakref.ref(table))
    scalar = weakref.ref(cutjoin.shared(amodel.CatalanTable, cutjoin.TRIVIAL))
    amodel.catalan(1, 2, (4, 2))
    assert scalar()._reads
    del table
    cutjoin.shared.cache_clear()
    gc.collect()
    assert all(ref() is None for ref in gone + [scalar])


def test_a_refused_request_builds_and_enters_nothing():
    # every check runs before the memo is read or the index is entered, so
    # a request that a check refuses leaves a fresh table empty
    A = orbifold_frobenius(load_group("builtin:S3"))
    e, x = A.basis(1), z2_algebra().basis(1)
    fresh = (amodel.CatalanTable(A), amodel.LatticeTable(A), intersect.CorrelatorTable(A))
    for request, kind, message in _invalid_requests(*fresh, A, e, x):
        with pytest.raises(kind, match=re.escape(message)):
            request()
    assert not any(table._tensors or table._reads for table in fresh)
