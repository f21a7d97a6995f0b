"""Unit tests for cell graphs, edge contraction, and the enumeration oracles."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations, product
from math import factorial, gcd, prod

import pytest

from tqftrec.cellgraph import (
    DEFAULT_HALF_EDGE_BUDGET,
    CellGraph,
    _completions,
    _matchings,
    all_matchings,
    count_arrowed_graphs,
    count_lattice_points,
    count_matchings_by_genus,
    eca_functional_all_orders,
)
from tqftrec.exact import BudgetError
from tqftrec.frobenius import omega_tqft, trivial_algebra
from tqftrec.groups import BUILTIN_GROUPS, load_group, orbifold_frobenius

from functionals import eca_evaluate, lattice_graph_weights, lattice_points_by_labelling, rescaled


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

    built, hashed = [], []

    class Counted(Fraction):
        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    def counting(*args):
        built.append(args)
        return Counted(*args)

    monkeypatch.setattr(cellgraph, "Fraction", counting)
    A = orbifold_frobenius(load_group("builtin:S3"))
    memo = {}
    graph = CellGraph([3, 3], [((1, 0), (1, 1)), ((1, 2), (2, 0)), ((2, 1), (2, 2))])
    values = eca_functional_all_orders(graph, A, memo)
    # one Fraction per distinct value returned, each hashed once, into the
    # one set its tuples copy, and only ints in the memo, whose states each
    # hold their distinct tensors
    assert 0 < len(built) <= len(set().union(*values.values()))
    assert len(hashed) == len(built)
    assert all(type(x) is int
               for key, tensors in memo.items() if key is not None
               for tensor in tensors for x in tensor)
    # the union of the sets of two disagreeing orders hashes nothing again
    bad, _ = _tampered(orbifold_frobenius(load_group("builtin:Z2")))
    monkeypatch.setattr(cellgraph, "_Scaled", lambda A: bad)
    built.clear()
    hashed.clear()
    path = CellGraph([1, 2, 1], [((1, 0), (2, 0)), ((2, 1), (3, 0))])
    values = eca_functional_all_orders(path, bad.algebra)
    assert values[(1, 1, 0)] == {Fraction(1, 2), Fraction(1)}
    assert 0 < len(hashed) == len(built) == len(set().union(*values.values()))


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
    # every connected graph up to six half-edges, on the (1,2,1) path and on
    # a genus-1 graph whose orders all give 3 at (1, 1) under the tampered
    # constants, where a walk that mixed each sum's terms across orders would
    # also give 2 and 4
    from tqftrec import cellgraph

    A = orbifold_frobenius(load_group("builtin:Z2"))
    pairs = A.product_by_pair
    if tampered:
        bad, pairs = _tampered(A)
        monkeypatch.setattr(cellgraph, "_Scaled", lambda A: bad)
    graphs = _connected_graphs(6)
    six = [graph for graph in graphs if sum(graph.degrees) == 6]
    graphs.append(CellGraph([1, 2, 1], [((1, 0), (2, 0)), ((2, 1), (3, 0))]))
    graphs.append(CellGraph([2, 4], [((1, 0), (2, 0)), ((1, 1), (2, 2)), ((2, 1), (2, 3))]))
    disagreeing = set()
    for graph in graphs:
        expected = _values_order_by_order(graph, A, pairs)
        assert eca_functional_all_orders(graph, A) == expected
        if any(len(vals) > 1 for vals in expected.values()):
            disagreeing.add(graph)
    assert bool(disagreeing) == tampered
    # under the tampered product, 55 of the 103 graphs with six half-edges
    # have orders that disagree, so the walk's identification of states
    # that differ by rotations is checked where the orders' values differ
    assert len(six) == 103
    assert len(disagreeing.intersection(six)) == (55 if tampered else 0)


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


def _connected_graphs(top):
    """Every connected graph with at most ``top`` half-edges, in the order
    of the profiles and of ``all_matchings``."""
    return [graph for total in range(2, top + 1, 2) for degrees in _profiles(total)
            for graph in all_matchings(degrees) if graph.is_connected()]


def _swept_memo():
    """The trivial algebra's memo after a sweep of every connected graph up
    to eight half-edges, the structure cache cleared first."""
    from tqftrec import cellgraph

    cellgraph._moves.cache_clear()
    A, memo = trivial_algebra(), {}
    for graph in _connected_graphs(8):
        eca_functional_all_orders(graph, A, memo)
    return memo


def _rotations(degrees):
    """The cyclic orders of a state's vertices, half-edges numbered in
    vertex order, under every rotation of every vertex: prod d_v of them."""
    offsets = (0, *accumulate(degrees))
    cycles = [tuple(range(offsets[v], offsets[v + 1])) for v in range(len(degrees))]
    for shifts in product(*(range(d) if d else (0,) for d in degrees)):
        yield [cyc[k:] + cyc[:k] for cyc, k in zip(cycles, shifts)]


def _renumbered(cycles, partner):
    """The (degrees, partner) of the vertices holding ``cycles[v]``, the
    half-edges numbered in vertex order, each vertex from its first."""
    names = {h: k for k, h in enumerate(h for cyc in cycles for h in cyc)}
    return tuple(map(len, cycles)), tuple(names[partner[h]] for cyc in cycles for h in cyc)


def test_the_state_key_is_the_rotation_class():
    # the test-side form of a state is its least partner tuple over all
    # prod d_v rotations of its vertices; over every state of the sweep and
    # every root graph, the package's key is the same on every rotation, it
    # splits the states into the same classes as the test-side form, and
    # every cached structure is keyed by its own key, one per class
    from tqftrec import cellgraph

    memo = _swept_memo()
    walked = [state for state in memo if state is not None]
    roots = [(graph.degrees, graph.partner) for graph in _connected_graphs(8)]
    by_least, by_key = {}, {}
    for degrees, partner in walked + roots:
        keys = {cellgraph._state(cycles, partner) for cycles in _rotations(degrees)}
        least = min(_renumbered(cycles, partner) for cycles in _rotations(degrees))
        assert len(keys) == 1, (degrees, partner)
        key = keys.pop()
        assert key[0] == degrees and sorted(key[1]) == list(range(sum(degrees)))
        assert by_least.setdefault(least, key) == key
        assert by_key.setdefault(key, least) == least
    for state in walked:
        offsets = (0, *accumulate(state[0]))
        cycles = [range(offsets[v], offsets[v + 1]) for v in range(len(state[0]))]
        assert cellgraph._state(cycles, state[1]) == state
    structured = [state for state in walked if state[1]]
    assert len(structured) == cellgraph._moves.cache_info().currsize == 220


@pytest.mark.parametrize("tampered", [False, True])
def test_a_rotated_vertex_gives_the_same_map(monkeypatch, tampered):
    # rotating the cyclic order of any one vertex of a connected graph up to
    # six half-edges gives an identical map, from a fresh memo, and reads
    # only the structure that the graphs so far cached, from empty; the
    # tampered constants give disagreeing orders, so the value sets are
    # compared as well
    from tqftrec import cellgraph

    A = orbifold_frobenius(load_group("builtin:Z2"))
    if tampered:
        bad, _ = _tampered(A)
        monkeypatch.setattr(cellgraph, "_Scaled", lambda A: bad)
    cellgraph._moves.cache_clear()
    rotated = 0
    for graph in _connected_graphs(6):
        values = eca_functional_all_orders(graph, A)
        misses = cellgraph._moves.cache_info().misses
        slots = [(v + 1, k) for v, d in enumerate(graph.degrees) for k in range(d)]
        for v, d in enumerate(graph.degrees):
            for shift in range(1, d):
                # slot k of vertex v moves to slot k - shift
                moved = [(u, (k - shift) % d if u == v + 1 else k) for u, k in slots]
                turned = CellGraph(graph.degrees, [(moved[a], moved[b])
                                                   for a, b in enumerate(graph.partner) if a < b])
                assert eca_functional_all_orders(turned, A) == values
                rotated += 1
        assert cellgraph._moves.cache_info().misses == misses
    assert rotated > 0


def test_a_budget_sweep_fits_the_structure_cache():
    # every connected graph up to eight half-edges fills the structure cache
    # from empty without evicting a state
    from tqftrec import cellgraph

    _swept_memo()
    info = cellgraph._moves.cache_info()
    assert info.misses == info.currsize < info.maxsize


def test_the_coproduct_weights_are_symmetric():
    # the walk keys a state up to the rotations of its vertices, which can
    # swap the two pieces of a loop; that is exact because each algebra's
    # scaled coproduct weights satisfy Delta_i^{ab} = Delta_i^{ba}
    from tqftrec import cellgraph

    S3 = orbifold_frobenius(load_group("builtin:S3"))
    algebras = [trivial_algebra(), rescaled(S3, (2, 3, 1), Fraction(5, 7))]
    algebras += [orbifold_frobenius(load_group("builtin:" + name)) for name in BUILTIN_GROUPS]
    for A in algebras:
        S = cellgraph._Scaled(A)
        for delta in (S.joined, S.split):
            assert len(delta) == A.dim
            for terms in delta:
                weights = Counter()
                for a, b, w in terms:
                    weights[a, b] += w
                assert weights == Counter({(b, a): w for (a, b), w in weights.items()}), A
                assert all(type(w) is int for w in weights.values())


def _check_separate_sets(graph, A, memo):
    """Mutating each returned set in turn changes no other tuple's set and
    no later answer from the same memo."""
    values = eca_functional_all_orders(graph, A, memo)
    before = {idx: set(vals) for idx, vals in values.items()}
    for idx in values:
        values[idx].add(Fraction(-99))
        values[idx].clear()
        assert all(vals == before[other] for other, vals in values.items() if other != idx)
        values[idx].update(before[idx])
    assert eca_functional_all_orders(graph, A, memo) == before
    return before


def test_each_tuple_gets_its_own_value_set(monkeypatch):
    # over a Frobenius algebra each tuple holds a copy of one shared set per
    # value, and equal values on different tuples must not be one set
    from tqftrec import cellgraph

    A = orbifold_frobenius(load_group("builtin:Z3"))
    memo = {}
    for degrees, genus in (((2, 2), 0), ((3, 3), 1), ((4, 2), 1)):
        values = _check_separate_sets(_first_graph(degrees, genus), A, memo)
        assert len(set(map(frozenset, values.values()))) < len(values)
    # the tampered constants give the path two tensors, whose sets are unions
    bad, _ = _tampered(orbifold_frobenius(load_group("builtin:Z2")))
    monkeypatch.setattr(cellgraph, "_Scaled", lambda A: bad)
    path = CellGraph([1, 2, 1], [((1, 0), (2, 0)), ((2, 1), (3, 0))])
    values = _check_separate_sets(path, bad.algebra, {})
    assert values[(1, 1, 0)] == {Fraction(1, 2), Fraction(1)}


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
    # no vertex, and a bare vertex 0 beside the rest, are not connected
    # either; a lone bare vertex is
    for graph in (CellGraph([], []), CellGraph([0, 2], [((2, 0), (2, 1))])):
        with pytest.raises(ValueError, match="connected"):
            eca_functional_all_orders(graph, A)
    assert eca_functional_all_orders(CellGraph([0], []), A) == {(0,): {1}}


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


@lru_cache(maxsize=None)
def _enumerated(degs):
    """The connected matchings of the enumerator, tallied by genus."""
    shift = 2 - len(degs) + sum(degs) // 2
    tally = {}
    for _, faces, components in _matchings(degs):
        if components == 1:
            g = (shift - faces) // 2
            tally[g] = tally.get(g, 0) + 1
    return tally


@pytest.mark.parametrize("total", [2, 4, 6, 8, 10, 12])
def test_transfer_matches_matching_enumeration(total):
    # the gluing transfer against a tally of the enumerated matchings, by
    # genus and connected only, on every profile: this also checks the
    # face and component counts the enumerator keeps while gluing
    for degs in _profiles(total):
        assert count_matchings_by_genus(degs) == _enumerated(degs), degs


def test_shared_transfer_memo_counts_alike_in_any_order():
    # the transfer's states are memoized once per process: filled from
    # empty in any order of the profiles, the counts are the enumeration's
    profiles = [degs for total in range(2, 13, 2) for degs in _profiles(total)]
    shuffled = profiles[:]
    random.Random(40).shuffle(shuffled)
    for order in (profiles, profiles[::-1], shuffled):
        _completions.cache_clear()
        counts = {degs: count_matchings_by_genus(degs) for degs in order}
        assert counts == {degs: _enumerated(degs) for degs in profiles}


def test_a_changed_count_does_not_reach_a_later_call():
    counts = count_matchings_by_genus((2, 4))
    expected = dict(counts)
    counts[0] += 1
    counts[7] = 1
    assert count_matchings_by_genus((2, 4)) == expected
    assert count_matchings_by_genus((4, 2)) == expected


def test_a_budget_sweep_fits_the_transfer_memo():
    # every profile the half-edge budget admits, with and without a
    # degree-0 vertex, fills the shared memo without evicting a state
    _completions.cache_clear()
    for total in range(0, DEFAULT_HALF_EDGE_BUDGET + 1, 2):
        for degs in _profiles(total):
            count_matchings_by_genus(degs)
            count_matchings_by_genus(degs + (0,))
    info = _completions.cache_info()
    assert info.misses == info.currsize < info.maxsize


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


def test_all_matchings_checks_degrees_before_enumerating():
    # a negative degree is refused at the call, with CellGraph's message,
    # whether or not the profile has a matching: [-1, 1] has none and [-2, 2]
    # has one
    for degrees in ([-1, 1], [-2, 2], (2, 0, -4, 2)):
        with pytest.raises(ValueError, match="degrees must be non-negative"):
            all_matchings(degrees)


def _checked_matchings(degrees):
    """The graphs of every matching of ``_matchings``, each built by the
    public, checking ``CellGraph`` from its (vertex, slot) pairs."""
    slots = [(v + 1, s) for v, d in enumerate(degrees) for s in range(d)]
    for partner, _, _ in _matchings(degrees):
        yield CellGraph(degrees, [(slots[a], slots[b]) for a, b in enumerate(partner) if a < b])


def _genus_or_refusal(graph):
    """The graph's genus, or the message of its ValueError (a lone vertex of
    degree 0 has no face, and a disconnected graph can have no genus)."""
    try:
        return graph.genus()
    except ValueError as e:
        return str(e)


def test_all_matchings_builds_the_checked_graphs():
    # on every profile up to 8 half-edges, and on each with a degree-0 vertex
    # put first, inside and last, the graphs that all_matchings builds
    # without checks are those the public constructor builds, in the same
    # order
    assert [g.partner for g in all_matchings((4,))] == [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    profiles = [(), (0,), (0, 0)]
    for total in (2, 4, 6, 8):
        for degs in _profiles(total):
            profiles += [degs, (0,) + degs, degs[:1] + (0,) + degs[1:], degs + (0,)]
    graphs = 0
    for degs in profiles:
        built = list(all_matchings(degs))
        checked = list(_checked_matchings(degs))
        assert [g.partner for g in built] == [g.partner for g in checked], degs
        for g, c in zip(built, checked):
            assert type(g) is CellGraph
            assert (g.degrees, g.n, g._offsets, g.edges) == (c.degrees, c.n, c._offsets, c.edges)
            assert type(g.partner) is tuple
            assert (g.faces(), g.is_connected()) == (c.faces(), c.is_connected())
            assert _genus_or_refusal(g) == _genus_or_refusal(c)
        graphs += len(built)
    assert graphs == 4 * sum(
        prod(range(total - 1, 0, -2)) * sum(1 for _ in _profiles(total)) for total in (2, 4, 6, 8)
    ) + 3


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


def test_lattice_perimeters_are_checked_before_the_graphs(monkeypatch):
    # a perimeter below 1 is an invalid input and one above 12 is over
    # budget; both are refused before any graph is enumerated
    from tqftrec import cellgraph

    def enumerate_nothing(g, n):
        raise AssertionError("graphs enumerated")

    monkeypatch.setattr(cellgraph, "_lattice_graphs", enumerate_nothing)
    for mu in ((0, 1, 2), (1, -2, 2), (0, 1, 13)):
        with pytest.raises(ValueError, match="perimeters must be positive"):
            count_lattice_points(0, 3, mu)
    with pytest.raises(BudgetError, match="1..12"):
        count_lattice_points(0, 3, (1, 1, 13))
    with pytest.raises(ValueError, match="perimeters must be positive"):
        count_lattice_points(2, 1, (0,))


def test_lattice_fold_equals_the_sum_over_labellings():
    # the folded int terms against the old per-labelling Fraction sum, value
    # and type, on every perimeter tuple of each box; odd sums included, so
    # the parity shortcut is checked against the edge-length count
    for g, n, top in ((1, 1, 12), (0, 3, 6), (1, 2, 6), (0, 4, 4)):
        for mu in product(range(1, top + 1), repeat=n):
            got, want = count_lattice_points(g, n, mu), lattice_points_by_labelling(g, n, mu)
            assert (got, type(got)) == (want, type(want)), (g, mu)


def test_lattice_terms_are_ints_over_one_denominator():
    from tqftrec import cellgraph

    for (g, n), size in {(1, 1): 2, (0, 3): 7, (1, 2): 31, (0, 4): 236}.items():
        D, terms = cellgraph._lattice_graphs(g, n)
        assert type(D) is int and D >= 1
        assert all(type(w) is int and w > 0 for _, w in terms)
        # D is the least common denominator: no prime divides it and every weight
        assert gcd(D, *(w for _, w in terms)) == 1
        assert len(terms) == size == len({pairs for pairs, _ in terms})
        assert all(pairs == tuple(sorted(pairs)) and all(f <= h for f, h in pairs)
                   for pairs, _ in terms)
        # the n! labellings of every graph, and nothing else, are folded in
        assert Fraction(sum(w for _, w in terms), D) == factorial(n) * sum(
            w for _, w in lattice_graph_weights(g, n))


def test_lattice_gates_keep_their_order():
    # an odd perimeter sum counts 0 only after the type's half-edge budget
    # is checked, and the unstable type is refused first
    with pytest.raises(BudgetError, match="over budget"):
        count_lattice_points(0, 5, (1, 1, 1, 1, 1))
    with pytest.raises(BudgetError, match="over budget"):
        count_lattice_points(2, 1, (3,))
    with pytest.raises(ValueError, match="unstable"):
        count_lattice_points(0, 2, (1, 2))
    assert count_lattice_points(0, 3, (1, 1, 1)) == 0
    assert type(count_lattice_points(0, 3, (1, 1, 1))) is Fraction


def test_non_integral_degrees_and_perimeters_are_refused(monkeypatch):
    # a degree or perimeter that is not an integer is refused before
    # anything is enumerated, not truncated or compared as it stands
    from tqftrec import cellgraph

    def enumerate_nothing(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(cellgraph, "_lattice_graphs", enumerate_nothing)
    monkeypatch.setattr(cellgraph, "_matchings", enumerate_nothing)
    with pytest.raises(ValueError, match="degrees must be integers"):
        CellGraph((2.7,), [((1, 0), (1, 1))])
    with pytest.raises(ValueError, match="degrees must be integers"):
        all_matchings((2.5, 1.9))
    with pytest.raises(ValueError, match="perimeters must be integers"):
        count_lattice_points(1, 1, (4.5,))
    for mu in ((4.0,), (Fraction(4),), ("4",)):
        with pytest.raises(ValueError, match="perimeters must be integers"):
            count_lattice_points(1, 1, mu)
    # ints of other types still pass through operator.index
    monkeypatch.undo()
    assert count_lattice_points(1, 1, (True,)) == 0
    assert CellGraph((True, True), [((1, 0), (2, 0))]).degrees == (1, 1)


def test_negative_and_non_integral_genera_are_refused_before_enumeration():
    # as lattice_twisted refuses them, and without a cache entry for the type
    from tqftrec.cellgraph import _lattice_graphs

    before = _lattice_graphs.cache_info().currsize
    with pytest.raises(ValueError, match="genus must be non-negative, got -1"):
        count_lattice_points(-1, 5, (2,) * 5)
    with pytest.raises(ValueError, match="genus must be an integer"):
        count_lattice_points(0.5, 2, (1, 1))
    assert _lattice_graphs.cache_info().currsize == before
