"""Unit tests for the Catalan, dessin, and lattice recursions."""

import itertools
import math
from fractions import Fraction

import pytest

from tqftrec import amodel
from tqftrec.amodel import (
    CatalanTable,
    LatticeTable,
    catalan,
    lattice_twisted,
    twisted_catalan,
    twisted_dessin,
)
from tqftrec.cellgraph import (count_arrowed_graphs, count_lattice_points,
                               count_matchings_by_genus, harer_zagier)
from tqftrec.cutjoin import shared
from tqftrec.frobenius import omega_tqft, trivial_algebra
from tqftrec.groups import conjugacy, load_group, omega_brute, orbifold_frobenius


def z2_algebra():
    return orbifold_frobenius(load_group("builtin:Z2"))


def test_catalan_pinned_values():
    assert catalan(0, 1, (2,)) == 1
    assert catalan(0, 1, (4,)) == 2
    assert catalan(0, 1, (6,)) == 5
    assert catalan(1, 1, (4,)) == 1
    assert catalan(0, 3, (1, 1, 2)) == 2
    assert catalan(0, 1, (0,)) == 1
    assert catalan(1, 1, (0,)) == 0


def test_catalan_odd_total_vanishes():
    assert catalan(0, 2, (1, 2)) == 0
    assert catalan(1, 1, (5,)) == 0


def test_euler_rule_zeroes_exactly_the_profiles_without_cell_graphs():
    # against the matching count, which shares no code with the recursion:
    # every profile of at most 10 half-edges, degrees 0 included, at g <= 3;
    # a profile the rule zeroes has no connected cell graph, and in this
    # range each profile with none is zeroed, so a build reads no zero child
    table = CatalanTable()
    for n in range(1, 11):
        for mu in itertools.combinations_with_replacement(range(10, -1, -1), n):
            if sum(mu) <= 10:
                counts = count_matchings_by_genus(mu)
                for g in range(4):
                    assert table._vanishes(g, mu) == (counts.get(g, 0) == 0), (g, mu, counts)


def test_catalan_is_symmetric():
    # every ordering of a profile against the matching count, which shares
    # no code with the engine's sorting and realignment
    for profile in ((2, 4), (1, 2, 3), (4, 2, 2)):
        for mu in itertools.permutations(profile):
            for g in (0, 1):
                assert catalan(g, len(mu), mu) == count_arrowed_graphs(g, len(mu), mu), (g, mu)


def test_lattice_is_symmetric():
    table = LatticeTable()
    for profile in ((1, 2, 3), (1, 1, 2, 2)):
        for mu in itertools.permutations(profile):
            assert table.untwisted(0, mu) == count_lattice_points(0, len(mu), mu), mu


def test_catalan_matches_enumeration_sample():
    for (g, mu) in [(0, (2, 2)), (0, (3, 3)), (1, (2, 2)), (0, (1, 1, 2))]:
        assert catalan(g, len(mu), mu) == count_arrowed_graphs(g, len(mu), mu)


def test_one_vertex_counts_match_the_harer_zagier_formula():
    # the closed form shares no code with the engine and, unlike the
    # matching transfer, has no half-edge cap
    assert [harer_zagier(g, 4) for g in range(4)] == [14, 70, 21, 0]
    for n in range(13):
        assert sum(harer_zagier(g, n) for g in range(n // 2 + 1)) == math.prod(range(2 * n - 1, 0, -2))
        for g in range(n // 2 + 2):
            assert catalan(g, 1, (2 * n,)) == harer_zagier(g, n), (g, n)
    # over an algebra, times the amplitude counted on the group
    for name in ("Z2", "S3"):
        G = load_group("builtin:" + name)
        A, cd = orbifold_frobenius(G), conjugacy(G)
        for n, g, i in itertools.product(range(1, 6), range(3), range(A.dim)):
            assert twisted_catalan(g, 1, (2 * n,), A, [A.basis(i)]) == (
                harer_zagier(g, n) * omega_brute(G, g, (i,), cd=cd)), (name, g, n, i)


def test_profile_validation():
    with pytest.raises(ValueError):
        catalan(-1, 1, (2,))
    with pytest.raises(ValueError):
        catalan(0, 2, (2,))
    with pytest.raises(ValueError):
        catalan(0, 1, (-2,))


def test_twisted_reduces_to_scalar_for_trivial_algebra():
    A = trivial_algebra()
    v = A.basis(0)
    for (g, mu) in [(0, (6,)), (1, (4,)), (0, (2, 4)), (2, (2,))]:
        assert twisted_catalan(g, len(mu), mu, A, [v] * len(mu)) == catalan(
            g, len(mu), mu
        )


def test_twisted_factorizes_spot():
    A = z2_algebra()
    for idx in ((0,), (1,)):
        vs = [A.basis(i) for i in idx]
        assert twisted_catalan(1, 1, (4,), A, vs) == catalan(1, 1, (4,)) * omega_tqft(
            A, 1, 1, vs
        )
    assert twisted_catalan(1, 1, (4,), A, [A.basis(0)]) == 2


def test_twisted_is_multilinear():
    A = z2_algebra()
    v = A.element([Fraction(2), Fraction(-3)])
    direct = twisted_catalan(1, 1, (4,), A, [v])
    expanded = 2 * twisted_catalan(1, 1, (4,), A, [A.basis(0)]) - 3 * twisted_catalan(
        1, 1, (4,), A, [A.basis(1)]
    )
    assert direct == expanded


def test_dense_decorations_agree_with_their_basis_expansion():
    # dense rows, and two-term rows with fewer support tuples than the
    # tensor has entries, all walk the tensor
    A = orbifold_frobenius(load_group("builtin:Q8"))
    u, v = A.element([1, -2, 0, "1/2", 3]), A.element([0, 1, 1, 0, -1])
    s, t = A.element(["2/3", 0, 0, 0, 1]), A.element([0, 0, -1, 2, 0])
    _, tensor = shared(CatalanTable, A)._lookup(0, (3, 2, 1), (3, 2, 1))
    assert math.prod(sum(map(bool, w.coeffs)) for w in (s, t, s)) <= len(tensor)
    for mu, vs in (((3, 2, 1), [u, v, u]), ((1, 2, 3), [v, u, A.basis(2)]), ((4, 2), [u, u]),
                   ((3, 2, 1), [s, t, s])):
        expanded = sum(
            (math.prod(w.coeffs[i] for w, i in zip(vs, idx))
             * twisted_catalan(0, len(mu), mu, A, [A.basis(i) for i in idx])
             for idx in itertools.product(range(A.dim), repeat=len(mu))),
            Fraction(0),
        )
        assert twisted_catalan(0, len(mu), mu, A, vs) == expanded, mu


def test_dense_decorations_never_probe_more_entries_than_the_tensor_has():
    # 5**13 support tuples against an empty tensor: probing each would take minutes
    A = orbifold_frobenius(load_group("builtin:Q8"))
    table = CatalanTable(A)
    lookup = table._lookup

    class Probes(dict):
        def get(self, key, default=None):
            self.probes = getattr(self, "probes", 0) + 1
            assert self.probes <= len(self), "more probes than tensor entries"
            return super().get(key, default)

    def probed(*args):
        den, ints = lookup(*args)
        return den, Probes(ints)

    table._lookup = probed
    dense = A.element([1] * A.dim)
    assert table.twisted(0, [1] * 13, [dense] * 13) == 0
    assert table.twisted(0, (3, 2, 1), [dense] * 3) == twisted_catalan(
        0, 3, (3, 2, 1), A, [dense] * 3)


def test_twisted_catalan_is_symmetric():
    # permuted profiles with basis decorations over S3, unequal ones among
    # them, against the scalar count times the surface amplitude
    A = orbifold_frobenius(load_group("builtin:S3"))
    nonzero = 0
    for profile, g in (((4, 2, 2), 0), ((4, 2, 2), 1), ((1, 2, 3), 0), ((2, 4), 1)):
        n = len(profile)
        for mu in itertools.permutations(profile):
            for idx in itertools.product(range(A.dim), repeat=n):
                vs = [A.basis(i) for i in idx]
                want = catalan(g, n, mu) * omega_tqft(A, g, n, vs)
                assert twisted_catalan(g, n, mu, A, vs) == want, (g, mu, idx)
                nonzero += len(set(idx)) > 1 and want != 0
    assert nonzero > 100


def test_dessin_02_convention():
    # the unstable (0,2) dessin is the Catalan count over mu1*mu2 times the pairing
    A = trivial_algebra()
    dessin = lambda mu: twisted_dessin(0, 2, mu, A, [A.unit_element()] * 2)
    assert dessin((1, 1)) == count_arrowed_graphs(0, 2, (1, 1))
    assert dessin((2, 2)) == Fraction(count_arrowed_graphs(0, 2, (2, 2)), 4)
    with pytest.raises(ValueError):
        dessin((0, 1))


def test_twisted_dessin_divides_by_degrees():
    A = z2_algebra()
    vs = [A.basis(0)]
    assert twisted_dessin(1, 1, (4,), A, vs) == twisted_catalan(
        1, 1, (4,), A, vs
    ) / 4


def test_lattice_pinned_values():
    A = trivial_algebra()
    v = A.basis(0)
    assert lattice_twisted(1, 1, (4,), A, [v]) == Fraction(1, 4)
    assert lattice_twisted(1, 1, (6,), A, [v]) == Fraction(2, 3)
    assert lattice_twisted(0, 3, (1, 1, 2), A, [v] * 3) == 1


def test_lattice_matches_catalog():
    # odd perimeters vanish, and a longest boundary exceeding the other two
    # together counts like any other
    A = trivial_algebra()
    v = A.basis(0)
    for b in range(1, 13):
        assert lattice_twisted(1, 1, (b,), A, [v]) == count_lattice_points(1, 1, (b,)), b
    for mu in itertools.product(range(1, 6), repeat=3):
        assert lattice_twisted(0, 3, mu, A, [v] * 3) == count_lattice_points(0, 3, mu), mu
    # the types whose graphs reach 12 half-edges
    for mu in itertools.product(range(1, 6), repeat=2):
        assert lattice_twisted(1, 2, mu, A, [v] * 2) == count_lattice_points(1, 2, mu), mu
    for mu in itertools.product(range(1, 5), repeat=4):
        assert lattice_twisted(0, 4, mu, A, [v] * 4) == count_lattice_points(0, 4, mu), mu


def test_lattice_long_boundary_values():
    # Norbury's closed forms for N_{1,2} and N_{0,4}, on profiles whose
    # split terms meet (0,2) children, which the recursion must skip
    A = trivial_algebra()
    v = A.basis(0)
    assert lattice_twisted(1, 2, (1, 5), A, [v] * 2) == 1
    assert lattice_twisted(1, 2, (2, 4), A, [v] * 2) == Fraction(1, 2)
    assert lattice_twisted(0, 4, (2, 2, 2, 2), A, [v] * 4) == 3
    # a join from (0,3) whose child is the unstable (0,2) has no difference terms
    assert lattice_twisted(0, 3, (1, 1, 4), A, [v] * 3) == 1


def _scalar_lattice(g, mu):
    A = trivial_algebra()
    return lattice_twisted(g, len(mu), mu, A, [A.basis(0)] * len(mu))


def test_lattice_n12_closed_form():
    # Norbury: with s = b1^2 + b2^2, N_{1,2} = (s-4)(s-8)/384 for even
    # lengths and (s-2)(s-10)/384 for odd ones; zero on odd perimeter
    for b1 in range(1, 13):
        for b2 in range(b1, 13):
            s = b1 * b1 + b2 * b2
            if (b1 + b2) % 2:
                want = 0
            elif b1 % 2 == 0:
                want = Fraction((s - 4) * (s - 8), 384)
            else:
                want = Fraction((s - 2) * (s - 10), 384)
            assert _scalar_lattice(1, (b1, b2)) == want, (b1, b2)


def test_lattice_n04_closed_form():
    # Norbury: N_{0,4} = sum b^2/4 - 1/2 when exactly two lengths are odd,
    # sum b^2/4 - 1 when none or all four are, zero on odd perimeter
    for mu in itertools.product(range(1, 7), repeat=4):
        odd = sum(b % 2 for b in mu)
        if odd % 2:
            want = 0
        else:
            want = Fraction(sum(b * b for b in mu), 4) - (Fraction(1, 2) if odd == 2 else 1)
        assert _scalar_lattice(0, mu) == want, mu


def test_lattice_n21_closed_form():
    # Norbury: N_{2,1}(b) = (b^2-4)(b^2-16)(b^2-36)(5b^2-32) / (2^16 3^3 5)
    for b in range(2, 15, 2):
        want = Fraction((b * b - 4) * (b * b - 16) * (b * b - 36) * (5 * b * b - 32),
                        2**16 * 3**3 * 5)
        assert _scalar_lattice(2, (b,)) == want, b


def test_lattice_missing_base_case():
    # the lattice count has no (0,1) case, asked for directly or untwisted
    A = z2_algebra()
    for mu in ((2,), (3,)):
        with pytest.raises(ValueError):
            lattice_twisted(0, 1, mu, A, [A.basis(0)])
    with pytest.raises(ValueError):
        LatticeTable().untwisted(0, (4,))


def test_default_lattice_base_is_delta_over_length():
    # N_{0,2}(b1, b2) = delta_{b1,b2} / b1 times the pairing
    A = z2_algebra()
    for i, j in itertools.product(range(A.dim), repeat=2):
        vs = [A.basis(i), A.basis(j)]
        assert lattice_twisted(0, 2, (3, 3), A, vs) == Fraction(1, 3) * A.pairing[i][j]
        assert lattice_twisted(0, 2, (3, 4), A, vs) == 0


def test_table_export_round_trip():
    table = CatalanTable()
    table.untwisted(0, (4,))
    data = table.to_json()
    fresh = CatalanTable()
    assert fresh.load_json(data) >= 1
    assert fresh.untwisted(0, (4,)) == 2
    # a dump for another table, or an edited one, is refused whole
    with pytest.raises(ValueError):
        CatalanTable(z2_algebra()).load_json(data)
    data["entries"][-1]["value"] = "999"
    with pytest.raises(ValueError):
        CatalanTable().load_json(data)
    # a decorated table still answers scalar queries
    assert CatalanTable(z2_algebra()).untwisted(0, (4,)) == 2


def test_cache_entry_out_of_order_is_refused():
    # tensors are memoized on decreasing profiles only, so an entry in any
    # other order is malformed even under a valid digest
    table = CatalanTable()
    table.untwisted(0, (2, 4))
    data = table.to_json()
    assert set(data) == {"schema", "algebra", "entries", "sha256"}
    data["entries"] = [dict(e, mu=[2, 4]) if e["mu"] == [4, 2] else e for e in data["entries"]]
    body = {k: v for k, v in data.items() if k != "sha256"}
    data["sha256"] = amodel._digest(body)
    fresh = CatalanTable()
    with pytest.raises(ValueError, match="malformed cache entry"):
        fresh.load_json(data)
    assert fresh.rows() == []


def test_cache_entry_on_a_vanishing_profile_is_refused():
    # a vanishing profile is answered before the memo is read, so an entry
    # for one is malformed even under a valid digest
    table = CatalanTable()
    table.untwisted(0, (4, 2))
    data = table.to_json()
    data["entries"].append({"g": 0, "mu": [3, 2], "decor": [0, 0], "value": "5"})
    data["sha256"] = amodel._digest({k: v for k, v in data.items() if k != "sha256"})
    fresh = CatalanTable()
    with pytest.raises(ValueError, match="malformed cache entry"):
        fresh.load_json(data)
    assert fresh.rows() == [] and fresh.untwisted(0, (3, 2)) == 0
