"""Unit tests for cell graphs, edge contraction, and the enumeration oracles."""

from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest

from tqftrec.cellgraph import (
    CellGraph,
    _matchings,
    all_matchings,
    count_arrowed_graphs,
    count_lattice_points,
    count_matchings_by_genus,
    eca_functional_all_orders,
)
from tqftrec.exact import BudgetError
from tqftrec.frobenius import omega_tqft, trivial_algebra
from tqftrec.groups import load_group, orbifold_frobenius

from functionals import eca_evaluate


def one_vertex_loop():
    return CellGraph([2], [((1, 0), (1, 1))])


def crossing_loops():
    # two loops interleaved at one vertex: the genus-one graph
    return CellGraph(
        [4], [((1, 0), (1, 2)), ((1, 1), (1, 3))]
    )


def test_genus_by_face_tracing():
    assert one_vertex_loop().genus() == 0
    assert crossing_loops().genus() == 1
    nested = CellGraph([4], [((1, 0), (1, 1)), ((1, 2), (1, 3))])
    assert nested.genus() == 0


def test_connectivity():
    two = CellGraph([2, 2], [((1, 0), (1, 1)), ((2, 0), (2, 1))])
    assert not two.is_connected()
    bridge = CellGraph([1, 1], [((1, 0), (2, 0))])
    assert bridge.is_connected()


def test_odd_half_edges_rejected():
    with pytest.raises(ValueError):
        CellGraph([3], [((1, 0), (1, 1))])


def test_eca_matches_surface_amplitude_spot():
    A = orbifold_frobenius(load_group("builtin:Z3"))
    g = crossing_loops()
    for i in range(A.dim):
        vs = [A.basis(i)]
        assert eca_evaluate(g, A, vs) == omega_tqft(A, 1, 1, vs)


def test_all_orders_is_singleton():
    A = orbifold_frobenius(load_group("builtin:S3"))
    values = eca_functional_all_orders(crossing_loops(), A)
    assert sorted(values) == [(i,) for i in range(A.dim)]
    for i in range(A.dim):
        assert values[(i,)] == {omega_tqft(A, 1, 1, [A.basis(i)])}


def test_all_orders_shared_memo_consistent():
    A = orbifold_frobenius(load_group("builtin:Z2"))
    memo = {}
    for g in (one_vertex_loop(), crossing_loops()):
        fresh = eca_functional_all_orders(g, A)
        shared = eca_functional_all_orders(g, A, memo)
        assert sorted(fresh) == [(i,) for i in range(A.dim)]
        for i in range(A.dim):
            assert fresh[(i,)] == shared[(i,)]


def test_memo_belongs_to_one_algebra():
    z2 = orbifold_frobenius(load_group("builtin:Z2"))
    z3 = orbifold_frobenius(load_group("builtin:Z3"))
    memo = {}
    eca_functional_all_orders(crossing_loops(), z2, memo)
    with pytest.raises(ValueError, match="memo"):
        eca_functional_all_orders(crossing_loops(), z3, memo)
    # an equal algebra built again answers from the same memo
    again = orbifold_frobenius(load_group("builtin:Z2"))
    assert eca_functional_all_orders(crossing_loops(), again, memo) == \
        eca_functional_all_orders(crossing_loops(), z2)


# The test-side contraction: states are tuples of per-vertex cycles of
# half-edge tokens and a dict matching token to token.


def _cycles(graph):
    """The half-edge ids at each vertex of the graph, in cyclic order."""
    off = graph._offsets
    return tuple(tuple(range(off[v], off[v + 1])) for v in range(graph.n))


def _components(cycles, partner) -> list:
    """The vertex lists of the connected components of the graph whose
    vertex v holds the half-edges ``cycles[v]``, half-edge h being matched
    with ``partner[h]``."""
    owner = {h: v for v, cyc in enumerate(cycles) for h in cyc}
    parent = list(range(len(cycles)))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for h, v in owner.items():
        a, b = root(v), root(owner[partner[h]])
        if a != b:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for v in range(len(cycles)):
        groups.setdefault(root(v), []).append(v)
    return list(groups.values())


def _contract_edge(cycles, partner, vi, idx):
    """Contract the edge at half-edge ``cycles[vi][idx]``.

    Returns the contracted (cycles, partner) and the other end vj.  An edge
    to another vertex merges vi and vj at position min(vi, vj); for a loop
    vj is None and the two pieces of vi take positions vi and vi + 1.
    """
    cyc_i = cycles[vi]
    h = cyc_i[idx]
    p = partner[h]
    left = {k: w for k, w in partner.items() if k not in (h, p)}
    if p in cyc_i:
        a, b = sorted((idx, cyc_i.index(p)))
        pieces = (cyc_i[a + 1:b], cyc_i[b + 1:] + cyc_i[:a])
        return cycles[:vi] + pieces + cycles[vi + 1:], left, None
    vj = next(w for w, cyc in enumerate(cycles) if p in cyc)
    cyc_j = cycles[vj]
    q = cyc_j.index(p)
    merged = cyc_i[:idx] + cyc_j[q + 1:] + cyc_j[:q] + cyc_i[idx + 1:]
    lo, hi = sorted((vi, vj))
    return cycles[:lo] + (merged,) + cycles[lo + 1:hi] + cycles[hi + 1:], left, vj


def _has_separating_loop(graph):
    cycles, partner = _cycles(graph), dict(enumerate(graph.partner))
    return any(len(_components(*_contract_edge(cycles, partner, v, i)[:2])) > 1
               for v, cyc in enumerate(cycles) for i, h in enumerate(cyc) if partner[h] in cyc)


@pytest.mark.parametrize("name", ["Z4", "Z2xZ2", "Q8"])
def test_all_orders_over_larger_denominators(name):
    # common denominators 4, 4 and 8, on every connected graph up to six
    # half-edges, loops that separate the graph included
    A = orbifold_frobenius(load_group("builtin:" + name))
    memo, omegas, separating = {}, {}, 0
    for total in (2, 4, 6):
        for degrees in _profiles(total):
            for graph in all_matchings(degrees):
                if not graph.is_connected():
                    continue
                separating += _has_separating_loop(graph)
                g, n = graph.genus(), graph.n
                values = eca_functional_all_orders(graph, A, memo)
                assert sorted(values) == sorted(product(range(A.dim), repeat=n))
                for idx, vals in values.items():
                    key = (g, n, idx)
                    if key not in omegas:
                        omegas[key] = omega_tqft(A, g, n, [A.basis(i) for i in idx])
                    assert vals == {omegas[key]}
                    assert type(next(iter(vals))) is Fraction
    assert separating > 0


def test_walk_holds_ints(monkeypatch):
    from tqftrec import cellgraph

    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(cellgraph, "Fraction", counting)
    A = orbifold_frobenius(load_group("builtin:S3"))
    memo = {}
    graph = CellGraph([3, 3], [((1, 0), (1, 1)), ((1, 2), (2, 0)), ((2, 1), (2, 2))])
    values = eca_functional_all_orders(graph, A, memo)
    # one Fraction per distinct value returned, and only ints in the memo,
    # whose states each hold their distinct tensors
    assert 0 < len(built) <= len(set().union(*values.values()))
    assert all(type(x) is int
               for key, tensors in memo.items() if key is not None
               for tensor in tensors for x in tensor)


def test_tampered_constants_show_as_disagreement(monkeypatch):
    # an int walk over constants that break associativity still returns two
    # values where the orders of a path's two merges disagree
    from tqftrec import cellgraph

    A = orbifold_frobenius(load_group("builtin:Z2"))
    bad = cellgraph._Scaled(A)
    doubled = tuple((k, 2 * c) for k, c in bad.pairs[0][0])
    bad.pairs = ((doubled, bad.pairs[0][1]), bad.pairs[1])
    monkeypatch.setattr(cellgraph, "_Scaled", lambda A: bad)
    path = CellGraph([1, 2, 1], [((1, 0), (2, 0)), ((2, 1), (3, 0))])
    values = eca_functional_all_orders(path, A)
    assert values[(1, 1, 0)] == {Fraction(1, 2), Fraction(1)}
    assert values[(0, 0, 0)] == {Fraction(2)}


def _tampered(A):
    """The int constants of A with the product e_0 e_0 doubled, which breaks
    associativity, and the same product terms as Fractions."""
    from tqftrec import cellgraph

    bad = cellgraph._Scaled(A)
    doubled = tuple((k, 2 * c) for k, c in bad.pairs[0][0])
    bad.pairs = ((doubled, bad.pairs[0][1]), bad.pairs[1])
    pairs = [list(plane) for plane in A.product_by_pair]
    pairs[0][0] = tuple((k, 2 * c) for k, c in pairs[0][0])
    return bad, pairs


def _values_order_by_order(graph, A, pairs):
    """{basis index tuple: set of values} over every order of the graph's
    edges, each order contracted on its own, in Fractions and without a
    memo: an edge between two vertices multiplies their decorations through
    ``pairs``, a loop coproduces its vertex's decoration onto the two
    pieces, and once no edge is left every vertex gives its counit."""
    def value(cycles, partner, order, idx):
        if not order:
            return prod((A.counit[i] for i in idx), start=Fraction(1))
        h = order[0]
        vi = next(v for v, cyc in enumerate(cycles) if h in cyc)
        new_cycles, new_partner, vj = _contract_edge(cycles, partner, vi, cycles[vi].index(h))
        if vj is None:
            return sum(w * value(new_cycles, new_partner, order[1:],
                                 idx[:vi] + (a, b) + idx[vi + 1:])
                       for a, b, w in A.coproduct_by_input[idx[vi]])
        lo, hi = sorted((vi, vj))
        rest = idx[:hi] + idx[hi + 1:]
        return sum(c * value(new_cycles, new_partner, order[1:], rest[:lo] + (k,) + rest[lo + 1:])
                   for k, c in pairs[idx[lo]][idx[hi]])

    cycles, partner = _cycles(graph), dict(enumerate(graph.partner))
    edges = [h for h, p in partner.items() if h < p]
    return {idx: {value(cycles, partner, order, idx) for order in permutations(edges)}
            for idx in product(range(A.dim), repeat=graph.n)}


@pytest.mark.parametrize("tampered", [False, True])
def test_all_orders_are_the_orders_one_at_a_time(monkeypatch, tampered):
    # the walk's value sets are exactly the values of the single orders, on
    # every connected graph up to four half-edges, on the (1,2,1) path and on
    # a genus-1 graph whose orders all give 3 at (1, 1) under the tampered
    # constants, where a walk that mixed each sum's terms across orders would
    # also give 2 and 4
    from tqftrec import cellgraph

    A = orbifold_frobenius(load_group("builtin:Z2"))
    pairs = A.product_by_pair
    if tampered:
        bad, pairs = _tampered(A)
        monkeypatch.setattr(cellgraph, "_Scaled", lambda A: bad)
    graphs = [graph for total in (2, 4) for degrees in _profiles(total)
              for graph in all_matchings(degrees) if graph.is_connected()]
    graphs.append(CellGraph([1, 2, 1], [((1, 0), (2, 0)), ((2, 1), (3, 0))]))
    graphs.append(CellGraph([2, 4], [((1, 0), (2, 0)), ((1, 1), (2, 2)), ((2, 1), (2, 3))]))
    disagreeing = 0
    for graph in graphs:
        expected = _values_order_by_order(graph, A, pairs)
        assert eca_functional_all_orders(graph, A) == expected
        disagreeing += any(len(vals) > 1 for vals in expected.values())
    assert (disagreeing > 0) == tampered


def test_structure_cache_cannot_change_an_answer(monkeypatch):
    # the structure of the path and the genus-1 witness is cached over the
    # true Z2 constants first; the tampered constants then walk that cached
    # structure and still show their disagreement, and a second algebra on a
    # graph whose structure is cached adds no structural cache miss
    from tqftrec import cellgraph

    A = orbifold_frobenius(load_group("builtin:Z2"))
    path = CellGraph([1, 2, 1], [((1, 0), (2, 0)), ((2, 1), (3, 0))])
    witness = CellGraph([2, 4], [((1, 0), (2, 0)), ((1, 1), (2, 2)), ((2, 1), (2, 3))])
    for graph in (path, witness):
        assert all(len(vals) == 1 for vals in eca_functional_all_orders(graph, A).values())
    misses = cellgraph._moves.cache_info().misses
    eca_functional_all_orders(witness, orbifold_frobenius(load_group("builtin:S3")))
    assert cellgraph._moves.cache_info().misses == misses
    bad, _ = _tampered(A)
    monkeypatch.setattr(cellgraph, "_Scaled", lambda A: bad)
    assert eca_functional_all_orders(path, A)[(1, 1, 0)] == {Fraction(1, 2), Fraction(1)}
    assert eca_functional_all_orders(witness, A)[(1, 1)] == {Fraction(3)}
    assert cellgraph._moves.cache_info().misses == misses


def _first_graph(degrees, genus):
    return next(g for g in all_matchings(degrees)
                if g.is_connected() and g.genus() == genus)


@pytest.mark.parametrize("name", ["Z3", "S3"])
def test_eca_evaluate_is_multilinear(name):
    # rational decorations off the basis, on two-vertex graphs of genus 0 and 1
    A = orbifold_frobenius(load_group("builtin:" + name))
    coeffs = [Fraction(1, 2), Fraction(-3), Fraction(2, 7)][:A.dim]
    vs = [A.element(coeffs), A.element(coeffs[::-1])]
    for degrees, genus in (((2, 2), 0), ((3, 1), 0), ((3, 3), 1), ((4, 2), 1)):
        graph = _first_graph(degrees, genus)
        value = eca_evaluate(graph, A, vs)
        assert value == omega_tqft(A, genus, 2, vs)
        assert value != 0


def test_eca_evaluate_refuses_disagreeing_orders(monkeypatch):
    from tqftrec import cellgraph

    A = orbifold_frobenius(load_group("builtin:Z2"))
    split = {(0,): {Fraction(1), Fraction(2)}, (1,): {Fraction(3)}}
    monkeypatch.setattr(cellgraph, "eca_functional_all_orders", lambda g, A: split)
    assert eca_evaluate(crossing_loops(), A, [A.basis(1)]) == 3
    with pytest.raises(ValueError, match="disagree"):
        eca_evaluate(crossing_loops(), A, [A.element([1, 1])])


def test_disconnected_graph_rejected_by_eca():
    A = trivial_algebra()
    two = CellGraph([2, 2], [((1, 0), (1, 1)), ((2, 0), (2, 1))])
    with pytest.raises(ValueError):
        eca_evaluate(two, A, [A.basis(0), A.basis(0)])


def test_arrowed_graph_counts_pinned():
    # one-vertex counts are the Catalan numbers interleaved by genus
    assert count_arrowed_graphs(0, 1, (2,)) == 1
    assert count_arrowed_graphs(0, 1, (4,)) == 2
    assert count_arrowed_graphs(0, 1, (6,)) == 5
    assert count_arrowed_graphs(1, 1, (4,)) == 1
    assert count_arrowed_graphs(1, 1, (6,)) == 10
    assert count_arrowed_graphs(0, 1, (3,)) == 0
    assert count_arrowed_graphs(0, 1, (0,)) == 1
    assert count_arrowed_graphs(1, 1, (0,)) == 0


def test_matchings_by_genus_totals():
    # all perfect matchings of 2k half-edges: (2k-1)!!
    counts = count_matchings_by_genus((6,))
    assert sum(counts.values()) == 15
    assert counts == {0: 5, 1: 10}


def test_all_matchings_enumerates_double_factorial():
    graphs = list(all_matchings((4,)))
    assert len(graphs) == 3


def _profiles(total, low=1):
    """Every non-decreasing tuple of integers >= low summing to total."""
    if total >= low:
        yield (total,)
    for first in range(low, total // 2 + 1):
        for rest in _profiles(total - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("total", [2, 4, 6, 8, 10])
def test_counts_while_gluing_match_traced_faces(total):
    # the gluing transfer's counts against CellGraph's own face tracing and
    # connectivity, on every profile
    matchings = 1
    for k in range(1, total, 2):
        matchings *= k
    for degs in _profiles(total):
        tally = {}
        graphs = 0
        for graph in all_matchings(degs):
            graphs += 1
            if graph.is_connected():
                tally[graph.genus()] = tally.get(graph.genus(), 0) + 1
        assert graphs == matchings
        assert count_matchings_by_genus(degs) == tally


@pytest.mark.parametrize("total", [2, 4, 6, 8, 10, 12])
def test_transfer_matches_matching_enumeration(total):
    # the gluing transfer against a tally of the enumerated matchings, by
    # genus and connected only, on every profile: this also checks the
    # face and component counts the enumerator keeps while gluing
    for degs in _profiles(total):
        shift = 2 - len(degs) + total // 2
        tally = {}
        for _, faces, components in _matchings(degs):
            if components == 1:
                g = (shift - faces) // 2
                tally[g] = tally.get(g, 0) + 1
        assert count_matchings_by_genus(degs) == tally, degs


def test_transfer_beyond_enumeration():
    # one 16-gon glued into a surface of genus g: the Harer-Zagier numbers
    # epsilon_g(8), which sum to 15!!
    assert count_matchings_by_genus((16,)) == {
        0: 1430, 1: 60060, 2: 570570, 3: 1169740, 4: 225225}
    assert sum(count_matchings_by_genus((16,)).values()) == 2027025
    # two 8-valent vertices, as counted once by full enumeration
    assert count_matchings_by_genus((8, 8)) == {
        0: 9800, 1: 215600, 2: 1009400, 3: 781200}


def test_matching_edge_profiles():
    assert count_matchings_by_genus(()) == {}
    assert count_matchings_by_genus((0,)) == {0: 1}
    assert count_matchings_by_genus((0, 2)) == {}
    assert count_matchings_by_genus((3,)) == {}
    assert [g.partner for g in all_matchings((0,))] == [()]
    assert list(all_matchings((1, 2))) == []


def test_half_edge_budget():
    with pytest.raises(BudgetError):
        count_matchings_by_genus((18,))


def test_lattice_catalog_values():
    # N_{1,1}: one 4-valent and one 6-valent topology on the torus
    assert count_lattice_points(1, 1, (4,)) == Fraction(1, 4)
    assert count_lattice_points(1, 1, (6,)) == Fraction(2, 3)
    assert count_lattice_points(0, 3, (1, 1, 2)) == 1
    # Norbury: N_{1,1}(b) = (b^2 - 4)/48 on even b, and zero on odd b
    for b in range(1, 13):
        assert count_lattice_points(1, 1, (b,)) == (0 if b % 2 else Fraction(b * b - 4, 48)), b
    # graphs with 12 half-edges
    assert count_lattice_points(1, 2, (1, 5)) == 1
    assert count_lattice_points(1, 2, (2, 4)) == Fraction(1, 2)
    assert count_lattice_points(0, 4, (2, 2, 2, 2)) == 3


def test_lattice_catalog_scope():
    # (2,1) and (0,5) need 18 half-edges; (0,2) has no graph with every
    # vertex of degree >= 3
    with pytest.raises(BudgetError):
        count_lattice_points(2, 1, (2,))
    with pytest.raises(BudgetError):
        count_lattice_points(0, 5, (1, 1, 1, 1, 2))
    with pytest.raises(ValueError):
        count_lattice_points(0, 2, (1, 1))
    with pytest.raises(BudgetError):
        count_lattice_points(0, 3, (1, 1, 13))
