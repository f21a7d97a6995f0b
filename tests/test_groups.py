"""Unit tests for finite groups, conjugacy data, and the brute-force oracle."""

import time
from fractions import Fraction

import pytest

from tqftrec import groups
from tqftrec.exact import BudgetError
from tqftrec.frobenius import EULER_POWER_BITS, omega_tqft
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


def test_omega_brute_refuses_a_class_index_out_of_range():
    # a negative index would count the classes from the end
    G = load_group("builtin:S3")
    assert omega_brute(G, 1, (2,)) == omega_brute(G, 1, (2.0,)) != 0
    for idx in ((-1,), (3,), (0, -3)):
        with pytest.raises(ValueError, match="class index %d out of range 0..2" % idx[-1]):
            omega_brute(G, 1, idx)


def test_omega_brute_budget_gate(monkeypatch):
    # the walk makes n lookups per tuple of class elements: Q8's classes
    # [1], [i], [i] make 3 x 1 x 2 x 2 = 12
    G = load_group("builtin:Q8")
    A = orbifold_frobenius(G)
    monkeypatch.setattr(groups, "DEFAULT_BUDGET", 12)
    assert omega_brute(G, 2, (0, 2, 2)) == omega_tqft(A, 2, 3, [A.basis(i) for i in (0, 2, 2)])
    monkeypatch.setattr(groups, "DEFAULT_BUDGET", 11)
    with pytest.raises(BudgetError, match="12 lookups over the classes exceed budget 11"):
        omega_brute(G, 2, (0, 2, 2))


def test_omega_brute_genus_gate_bounds_the_bits_of_the_counts():
    # the counts are at most N^(2g), 2 x 3 bits a genus for S3, which admits
    # g <= 16666 as the formula does, and agrees with it there; the trivial
    # group is charged 1 bit a genus, as its e^g is, and at genus 10^8 it
    # is refused before any convolution
    G = load_group("builtin:S3")
    A = orbifold_frobenius(G)
    last = EULER_POWER_BITS // 6
    assert omega_brute(G, last, (1,)) == omega_tqft(A, last, 1, [A.basis(1)])
    with pytest.raises(BudgetError, match="genus g=%d" % (last + 1)):
        omega_brute(G, last + 1, (1,))
    T = load_group("builtin:trivial")
    assert omega_brute(T, EULER_POWER_BITS, (0,)) == 1
    for g in (EULER_POWER_BITS + 1, 10 ** 8):
        with pytest.raises(BudgetError, match="genus g=%d" % g):
            omega_brute(T, g, (0,))


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


def test_order_gate_stops_large_groups(monkeypatch):
    # the gate counts table entries, n^2 for the table and n^2 for each
    # generator Light's test picks; the closure of A7 (order 2520) stops
    # once its table and one generator would pass 4 x 10^6, at order 1415
    assert group_from_permutations(["(1 2)", "(1 2 3 4 5)"]).order == 120
    with pytest.raises(BudgetError, match="group of order at least 1415: 2 passes"):
        load_group("(1 2 3)\n(3 4 5 6 7)")
    # S3 from its generators: its table and two generators, 3 x 36 entries
    monkeypatch.setattr(groups, "GROUP_WORK_BUDGET", 108)
    assert load_group("(1 2)\n(1 2 3)").order == 6
    monkeypatch.setattr(groups, "GROUP_WORK_BUDGET", 107)
    with pytest.raises(BudgetError):
        load_group("(1 2)\n(1 2 3)")
    # Z3 from its table: the table and one generator, 2 x 9 entries
    table = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    monkeypatch.setattr(groups, "GROUP_WORK_BUDGET", 18)
    assert load_group(table).order == 3
    monkeypatch.setattr(groups, "GROUP_WORK_BUDGET", 17)
    with pytest.raises(BudgetError):
        load_group(table)


def test_large_tables_stop_within_seconds():
    # Z_1414 with one intercalate swapped: a loop, not a group, whose table
    # and one generator take the whole budget; the group Z2^10 needs a
    # generator a bit and is refused at its fourth pass
    n = 1414
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    a, c = 700, 3
    b, d = a + n // 2, c + n // 2
    table[a][c], table[a][d] = table[a][d], table[a][c]
    table[b][c], table[b][d] = table[b][d], table[b][c]
    start = time.perf_counter()
    with pytest.raises(GroupAxiomError, match="associativity"):
        load_group({"order": n, "table": table})
    with pytest.raises(BudgetError, match="group of order at least 1024: 4 passes"):
        load_group({"order": 1024, "table": [[x ^ y for y in range(1024)] for x in range(1024)]})
    assert time.perf_counter() - start < 10
