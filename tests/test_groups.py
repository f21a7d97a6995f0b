"""Unit tests for finite groups, conjugacy data, and the brute-force oracle."""

from fractions import Fraction

import pytest

from tqftrec.exact import BudgetError
from tqftrec.groups import (
    BUILTIN_GROUPS,
    MAX_DEGREE,
    FiniteGroup,
    GroupAxiomError,
    conjugacy,
    group_from_permutations,
    load_group,
    omega_brute,
    orbifold_frobenius,
    parse_cycles,
)


def test_builtin_catalog():
    assert set(BUILTIN_GROUPS) == {
        "trivial", "Z2", "Z3", "Z4", "Z2xZ2", "S3", "Q8"
    }
    for name in BUILTIN_GROUPS:
        G = load_group("builtin:" + name)
        assert G.order >= 1


def test_unknown_builtin_rejected():
    with pytest.raises((KeyError, ValueError)):
        load_group("builtin:nosuch")


def test_group_from_permutation_generators():
    G = group_from_permutations(["(1 2)", "(1 2 3)"])
    assert G.order == 6
    cd = conjugacy(G)
    assert len(cd.classes) == 3
    assert sorted(len(c) for c in cd.classes) == [1, 2, 3]


def test_parse_cycles_reads_disjoint_cycles():
    assert parse_cycles("(1 2)(3 4)") == (1, 0, 3, 2)
    assert parse_cycles("(1,2,3)") == (1, 2, 0)


@pytest.mark.parametrize("text", ["(1 2", "(1 1)", "(1 2)(2 3)", "(a b)"])
def test_parse_cycles_rejects_what_is_not_a_permutation(text):
    # an unclosed cycle, a point repeated within or across cycles, and a
    # point that is not an integer; the message names the text
    with pytest.raises(ValueError) as info:
        parse_cycles(text)
    assert repr(text) in str(info.value)


def test_bad_cayley_table_rejected():
    # not a latin square: no inverses
    with pytest.raises(GroupAxiomError):
        load_group({"order": 2, "table": [[0, 0], [0, 0]]})


def test_non_associative_loop_rejected():
    # a loop of the smallest order that is not a group: a Latin square with
    # identity 0 in which every element is its own inverse
    table = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
    for row in table + [list(col) for col in zip(*table)]:
        assert sorted(row) == list(range(5))
    with pytest.raises(GroupAxiomError) as info:
        load_group({"order": 5, "table": table})
    assert info.value.axiom == "associativity"
    a, b, c = info.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def _reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose first row and column are 0..n-1,
    filled in place cell by cell."""
    t = [[i if j == 0 else j if i == 0 else None for j in range(n)] for i in range(n)]

    def fill(cell):
        if cell == (n - 1) * (n - 1):
            yield t
            return
        i, j = 1 + cell // (n - 1), 1 + cell % (n - 1)
        used = set(t[i][:j]) | {t[k][j] for k in range(i)}
        for x in range(n):
            if x not in used:
                t[i][j] = x
                yield from fill(cell + 1)
        t[i][j] = None

    yield from fill(0)


def test_associativity_check_agrees_with_every_triple():
    # every table of order 6 with identity 0 and two-sided inverses: the
    # generating-set test rejects exactly those some triple fails, naming
    # a failing triple; Z6 and S3 make the 80 groups among them
    n, groups, rejected = 6, 0, 0
    for t in _reduced_latin_squares(n):
        associative = all(t[t[a][b]][c] == t[a][t[b][c]]
                          for a in range(n) for b in range(n) for c in range(n))
        try:
            FiniteGroup(t)
        except GroupAxiomError as exc:
            if exc.axiom == "inverses":
                continue
            assert exc.axiom == "associativity" and not associative
            a, b, c = exc.witness
            assert t[t[a][b]][c] != t[a][t[b][c]]
            rejected += 1
        else:
            assert associative
            groups += 1
    assert (groups, rejected) == (80, 1728)


@pytest.mark.parametrize("degree, order", [(4, 24), (5, 120)])
def test_generated_table_is_the_table_of_products(degree, order):
    # S4 and S5: every entry against the product of its row's and column's
    # permutations, read back from the element names
    G = group_from_permutations(["(1 2)", "(%s)" % " ".join(map(str, range(1, degree + 1)))])
    assert G.order == order

    def perm(name):
        p = parse_cycles(name) if name != "1" else ()
        return p + tuple(range(len(p), degree))

    elems = [perm(name) for name in G.names]
    index = {p: i for i, p in enumerate(elems)}
    assert len(index) == G.order
    for i, p in enumerate(elems):
        assert G.table[i] == tuple(index[tuple(q[p[x]] for x in range(degree))]
                                   for q in elems)


def test_s3_conjugacy_data():
    G = load_group("builtin:S3")
    cd = conjugacy(G)
    assert len(cd.classes) == 3
    # centralizer orders multiply with class sizes to the group order
    for idx, cls in enumerate(cd.classes):
        assert len(cls) * cd.centralizer_orders[idx] == G.order
    # identity class is named "1" and is self-inverse
    assert cd.class_names[0] == "[1]"
    assert cd.inverse_class[0] == 0


def test_q8_has_five_classes():
    cd = conjugacy(load_group("builtin:Q8"))
    assert len(cd.classes) == 5
    assert sorted(cd.centralizer_orders, reverse=True) == [8, 8, 4, 4, 4]


def test_orbifold_pairing_matches_centralizers():
    G = load_group("builtin:S3")
    cd = conjugacy(G)
    A = orbifold_frobenius(G, cd)
    for i in range(A.dim):
        for j in range(A.dim):
            expected = (
                Fraction(1, cd.centralizer_orders[i])
                if cd.inverse_class[i] == j
                else Fraction(0)
            )
            assert A.pairing[i][j] == expected


def test_omega_brute_pinned_values():
    G = load_group("builtin:Z2")
    # genus 1, one puncture at the identity class: counts pairs with
    # [a,b] = 1 over |G|, times class weights
    assert omega_brute(G, 1, (0,)) == 2
    T = load_group("builtin:trivial")
    assert omega_brute(T, 0, (0,)) == 1
    assert omega_brute(T, 3, (0,)) == 1


def test_omega_brute_rejects_a_negative_genus():
    # the commutator distributions are cached by genus, so a negative g
    # would read a cached one from the end
    G = load_group("builtin:Z2")
    assert omega_brute(G, 3, (0,)) == 32
    for g in (-1, -2):
        with pytest.raises(ValueError, match="g must be non-negative"):
            omega_brute(G, g, (0,))


def test_omega_brute_budget_gate():
    G = load_group("builtin:Q8")
    with pytest.raises(BudgetError):
        omega_brute(G, 2, (0, 0, 0), budget=100)


def test_orbifold_product_equals_the_count_over_all_pairs():
    # the production path counts from one representative per class; here
    # every ordered pair of elements is counted
    for G in [load_group("builtin:" + name) for name in BUILTIN_GROUPS] + [
            group_from_permutations(["(1 2)", "(1 2 3 4)"])]:
        cd = conjugacy(G)
        h = cd.num_classes
        prod = [[[Fraction(0)] * h for _ in range(h)] for _ in range(h)]
        for i in range(h):
            for j in range(h):
                for a in cd.classes[i]:
                    for b in cd.classes[j]:
                        k = cd.class_of[G.table[a][b]]
                        prod[i][j][k] += Fraction(cd.centralizer_orders[k], G.order)
        assert orbifold_frobenius(G, cd).product_tensor == tuple(
            tuple(tuple(row) for row in plane) for plane in prod), G


def test_parse_cycles_rejects_a_point_beyond_the_largest_degree():
    assert len(parse_cycles("(1 %d)" % MAX_DEGREE)) == MAX_DEGREE
    for point in (MAX_DEGREE + 1, 3000000000):
        with pytest.raises(ValueError) as info:
            parse_cycles("(1 %d)" % point)
        assert "point %d" % point in str(info.value)


def test_order_gate_stops_large_groups():
    # S5 (120^3 = 1.7M) loads; S6 (720^3 > 10^8) stops in the closure
    assert group_from_permutations(["(1 2)", "(1 2 3 4 5)"]).order == 120
    with pytest.raises(BudgetError):
        load_group("(1 2)\n(1 2 3 4 5 6)")
    # the budget is the caller's: S3 needs 6^3 = 216
    assert load_group("(1 2)\n(1 2 3)", budget=216).order == 6
    with pytest.raises(BudgetError):
        load_group("(1 2)\n(1 2 3)", budget=215)
    table = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    assert load_group(table, budget=27).order == 3
    with pytest.raises(BudgetError):
        load_group(table, budget=26)
