"""Cell graphs (ribbon graphs with labeled vertices) and their amplitudes.

A cell graph is stored as per-vertex cyclic lists of half-edges plus a
perfect matching; its genus comes from tracing the faces and the Euler
formula.

``eca_functional_all_orders`` is the one edge-contraction walk.  It
contracts the edges in every order on decoration-free states (the cyclic
orders and the matching), and maps every basis decoration tuple to the set
of values that some order reaches.  The edge-contraction axioms act on
cell graphs, whose cyclic orders have no start, so a connected state is
keyed up to the rotations of its vertices (``_state``): the half-edges are
numbered in vertex order, each vertex from where a fixed traversal from
vertex 0 first reaches it, for the rotation of vertex 0 that gives the
least partner tuple.  That identification needs the coproduct weights to
be symmetric, Delta_i^{ab} = Delta_i^{ba}, which every
``FrobeniusAlgebra`` has, since its construction checks a commutative
product and a symmetric pairing.  The structure of a state, the state each
of its edges contracts to, is cached per key (``_moves``) and shared by
every algebra; a walk's memo, one per algebra, holds only the tensors of
its states.  Contracting an edge between distinct vertices multiplies their
decorations through the product; contracting a loop splits the cyclic
order of its vertex in two and routes the decoration through the
coproduct, with a product of component amplitudes when the loop
disconnects the graph.  The walk computes in ints, on whole tensors: a
state holds the distinct tensors its orders reach (one for a Frobenius
algebra), each a row-major tuple over the basis tuples of its vertices
whose entries are value * D^(2E+1), E its edges and D the lcm of the
denominators of the algebra's constants.  Only the returned map has
per-tuple sets, and only it is divided out: one set per distinct value,
each tuple given a copy of its value's set, or the union of its values'
sets where orders disagree, so that no ``Fraction`` is hashed per tuple.
A memo belongs to the algebra of its first call, and keeps the scaled
constants and the walk's term lists built then.

``count_matchings_by_genus`` (and so ``count_arrowed_graphs``) counts
perfect matchings by a transfer over partial gluings, ``_completions``:
the first open half-edge of a partial face is glued to every other open
half-edge, and since the open half-edges of a face are alike, the state
is only the multiset of components, each the multiset of the numbers of
open half-edges on its unfinished faces.  Every matching is still counted
once, grouped by state (Walsh and Lehman, "Counting rooted maps by genus
I", 1972).  The states are memoized once per process, in a bounded cache
shared by every call, as ``_moves`` is; each call builds its own result.

``harer_zagier`` gives the one-vertex counts in closed form, with no
enumeration, for the depths the transfer cannot reach.

``_matchings`` is the perfect-matching enumerator behind
``all_matchings`` and the lattice-point oracle, and the reference the
transfer is tested against; ``all_matchings`` checks the degrees once and
builds each graph from the enumerator's ``partner`` without re-checking
it.  The enumerator counts the faces while gluing.  The faces are the
cycles of phi = rotation o matching, an unmatched half-edge being fixed by
the matching; gluing a to b swaps phi[a] and phi[b], which splits their
cycle in two when a and b lie on one cycle and merges their two cycles
otherwise.  A union-find without path compression, whose one assignment
per gluing is undone on backtrack, counts the components.  No complete
matching is traced again.

``count_lattice_points`` counts lattice points (Norbury, arXiv:0801.4590)
on the ribbon graphs ``_matchings`` enumerates with every vertex of degree
>= 3, each weighted 1/|Aut| through its labelings.  ``_lattice_graphs``
traces their faces with ``_face_of``, which ``CellGraph.faces`` shares,
and folds the n! labellings of the faces in once per type: each graph's
face pairs relabelled by every permutation, equal pair lists merged, and
the weights put over one denominator D.  A call then sums int weight times
the edge lengths giving the perimeters, a truncated product over the
edges, and makes one ``Fraction`` over D; an odd perimeter sum counts 0,
since the perimeters sum to twice the total edge length.

Degrees and perimeters go through ``operator.index``: a value that is not
an integer raises ValueError before anything is built or enumerated.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, permutations, product
from math import comb, factorial, lcm, prod
from operator import index, itemgetter
from typing import Iterator, Sequence

from .exact import BudgetError, Rational
from .frobenius import FrobeniusAlgebra

DEFAULT_HALF_EDGE_BUDGET = 16


def _integers(values, what: str) -> tuple:
    """``values`` as a tuple of ints, through ``operator.index``; ValueError
    naming ``what`` for any value that is not an integer."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def _reach(offsets, partner, v: int) -> list:
    """The vertices that paths of edges join to vertex v, in increasing
    order.  Vertex u holds the half-edges offsets[u] to offsets[u + 1] - 1,
    and half-edge h is matched with partner[h]."""
    seen = [False] * (len(offsets) - 1)
    seen[v] = True
    stack = [v]
    while stack:
        u = stack.pop()
        for h in range(offsets[u], offsets[u + 1]):
            w = bisect_right(offsets, partner[h]) - 1  # the last of equal offsets owns h
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return [u for u, s in enumerate(seen) if s]


def _face_of(degrees, partner) -> list:
    """The face of each half-edge, the faces numbered in the order of their
    least half-edges: they are the cycles of h -> the slot after partner[h]
    at its vertex."""
    nxt = []
    for d in degrees:
        off = len(nxt)
        nxt.extend(off + (s + 1) % d for s in range(d))
    face, faces = [-1] * len(nxt), 0
    for start in range(len(nxt)):
        if face[start] < 0:
            h = start
            while face[h] < 0:
                face[h], h = faces, nxt[partner[h]]
            faces += 1
    return face


class CellGraph:
    """Ribbon graph with n labeled vertices.

    ``degrees[v]`` is the number of half-edges at vertex v+1 (vertices are
    1-based externally); half-edge slots are 0-based with the arrow at
    slot 0.  ``matching`` pairs half-edges given as (vertex, slot).
    """

    def __init__(self, degrees: Sequence[int], matching):
        self.degrees = _integers(degrees, "degrees")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be non-negative")
        total = sum(self.degrees)
        if total % 2:
            raise ValueError("odd number of half-edges cannot be matched")
        self.n = len(self.degrees)
        offsets = [0]
        for d in self.degrees:
            offsets.append(offsets[-1] + d)
        self._offsets = tuple(offsets)
        pairs = []
        used = set()
        for pair in matching:
            (v1, h1), (v2, h2) = pair
            a = self._gid(v1, h1)
            b = self._gid(v2, h2)
            if a == b:
                raise ValueError("half-edge matched with itself")
            for x in (a, b):
                if x in used:
                    raise ValueError("half-edge matched twice")
                used.add(x)
            pairs.append((a, b))
        if len(used) != total:
            raise ValueError("matching is not perfect")
        partner = [0] * total
        for a, b in pairs:
            partner[a] = b
            partner[b] = a
        self.partner = tuple(partner)

    @classmethod
    def _from_partner(cls, degrees: tuple, offsets: tuple, partner) -> CellGraph:
        """The graph whose half-edge h, numbered in vertex order as in
        ``partner``, is matched with partner[h], with none of the checks of
        ``__init__``: for ``all_matchings``, whose degrees are checked once
        and whose matchings are perfect.  ``offsets`` are those of
        ``degrees``."""
        graph = cls.__new__(cls)
        graph.degrees, graph.n, graph._offsets = degrees, len(degrees), offsets
        graph.partner = tuple(partner)
        return graph

    def _gid(self, v: int, h: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        if not 0 <= h < self.degrees[v - 1]:
            raise ValueError(f"slot {h} out of range at vertex {v}")
        return self._offsets[v - 1] + h

    @property
    def edges(self) -> int:
        return sum(self.degrees) // 2

    def faces(self) -> int:
        return len(set(_face_of(self.degrees, self.partner)))

    def is_connected(self) -> bool:
        return self.n > 0 and len(_reach(self._offsets, self.partner, 0)) == self.n

    def genus(self) -> int:
        chi = self.n - self.edges + self.faces()
        if (2 - chi) % 2:
            raise ValueError("malformed ribbon structure: half-integral genus")
        g = (2 - chi) // 2
        if g < 0:
            raise ValueError("malformed ribbon structure: negative genus")
        return g

    def __repr__(self):
        return f"CellGraph(degrees={self.degrees}, edges={self.edges})"


# -- edge-contraction evaluation ----------------------------------------------

# A state is (degrees, partner) with its half-edges numbered in vertex order,
# each vertex's in cyclic order, as in ``CellGraph``: the names of the
# half-edges are gone, the vertex positions stay, since they are the
# decoration slots, and decorations never enter it.  The walk keys each
# connected state by ``_state``, one numbering for all the rotations of its
# vertices' cyclic orders.  Why that is exact: a rotation only rotates the
# child of a merge, but it can change which end of a loop is lower-numbered,
# and so swap the loop's two pieces between positions vi and vi + 1, or the
# two parts of a separating loop; the symmetric coproduct weights,
# Delta_i^{ab} = Delta_i^{ba}, give the same tensor either way.  ``cutjoin``
# relies on the same symmetry to run a cut and its mirror once.


def _state(cycles, partner):
    """The key of the connected state whose vertex v holds the half-edges
    ``cycles[v]`` in cyclic order, h being matched with partner[h], or None
    if it is not connected.  For each rotation of vertex 0, every other
    vertex starts at the half-edge where a breadth-first traversal from
    vertex 0, each vertex read from its start, first reaches it; the key is
    the least partner tuple of these numberings, so it does not depend on
    where any vertex's cyclic order starts.  The vertex positions stay."""
    where = {h: (v, k) for v, cyc in enumerate(cycles) for k, h in enumerate(cyc)}
    ends = [[where[partner[h]] for h in cyc] for cyc in cycles]
    degrees = tuple(map(len, cycles))
    offsets = (0, *accumulate(degrees))
    n = len(cycles)
    # the first entry of rotation r's tuple: the distance along vertex 0 to
    # the other end of a loop, or the first half-edge of the vertex that the
    # edge reaches first; only the rotations with the least one can win
    firsts = [(k - r) % degrees[0] if w == 0 else offsets[w] for r, (w, k) in enumerate(ends[0])]
    least, best = min(firsts, default=None), None
    for r, first in enumerate(firsts):
        if first != least:
            continue
        start = [-1] * n
        start[0] = r
        order, rotated = [0], [None] * n
        for u in order:  # grows as the traversal reaches new vertices
            s = start[u]
            rotated[u] = ends[u][s:] + ends[u][:s]
            for w, k in rotated[u]:
                if start[w] < 0:
                    start[w] = k
                    order.append(w)
        if len(order) < n:
            return None
        key = tuple(offsets[w] + (k - start[w]) % degrees[w]
                    for ends_u in rotated for w, k in ends_u)
        if best is None or key < best:
            best = key
    if best is None:  # vertex 0 has no half-edge
        return None if n > 1 else (degrees, ())
    return degrees, best


@lru_cache(maxsize=4096)  # bounded: the 220 states of C2 (graphs up to 8 half-edges) take 0.2 MB
def _moves(degrees, partner) -> tuple:
    """The contraction of each edge of a state, taken from its
    lower-numbered half-edge, at vertex vi.  An edge to a later vertex vj
    gives (vi, vj, child): the two merge at position vi, the cycle of vi cut
    open at the edge around that of vj.  A loop splits the cycle of vi into
    its pieces between the two ends, at positions vi and vi + 1 of the
    child; if the child is connected it gives (vi, child), and otherwise
    (vi, slots, ((child_a, j_a), (child_b, j_b))): the parts, the part of vi
    first, each with its vertices in order and its piece at position j, and
    ``slots``, the positions in the state of vi and then of the other
    vertices of the parts in order.  A function of the state alone, shared
    by every algebra's walk.  The state is a ``_state`` key, and so is each
    child and each part: one cache entry per class of states up to the
    rotations of their vertices (see above)."""
    offsets = (0, *accumulate(degrees))
    cycles = [tuple(range(offsets[v], offsets[v + 1])) for v in range(len(degrees))]
    moves = []
    for h, p in enumerate(partner):
        if p < h:
            continue
        vi, vj = bisect_right(offsets, h) - 1, bisect_right(offsets, p) - 1
        cyc, a, b = cycles[vi], h - offsets[vi], p - offsets[vj]
        if vi != vj:
            merged = cyc[:a] + cycles[vj][b + 1:] + cycles[vj][:b] + cyc[a + 1:]
            child = cycles[:vi] + [merged] + cycles[vi + 1:vj] + cycles[vj + 1:]
            moves.append((vi, vj, _state(child, partner)))
            continue
        pieces = cycles[:vi] + [cyc[a + 1:b], cyc[b + 1:] + cyc[:a]] + cycles[vi + 1:]
        child = _state(pieces, partner)
        if child is not None:
            moves.append((vi, child))
            continue
        owner = {h: v for v, piece in enumerate(pieces) for h in piece}
        near = [vi]  # the part of vi, which holds one piece
        for u in near:
            near += {owner[partner[h]] for h in pieces[u]}.difference(near)
        near.sort()
        slots, parts = (vi,), []
        for part in (near, [v for v in range(len(pieces)) if v not in near]):
            slots += tuple(v if v < vi else v - 1 for v in part if v not in (vi, vi + 1))
            parts.append((_state([pieces[v] for v in part], partner),
                          next(k for k, v in enumerate(part) if v in (vi, vi + 1))))
        moves.append((vi, slots, tuple(parts)))
    return tuple(moves)


class _Scaled:
    """An algebra's constants as ints over D, the lcm of the denominators of
    the counit, the product constants and the coproduct weights: the counit
    times D, the product constants times D^2, and the coproduct weights times
    D^2 (``joined``) and times D (``split``, for a loop that separates the
    graph)."""

    def __init__(self, A: FrobeniusAlgebra):
        pairs, delta = A.product_by_pair, A.coproduct_by_input
        self.algebra = A
        self.D = D = lcm(*(x.denominator for x in A.counit),
                         *(c.denominator for plane in pairs for terms in plane for _, c in terms),
                         *(w.denominator for terms in delta for _, _, w in terms))

        def up(x, s):
            return x.numerator * (s // x.denominator)

        self.counit = tuple(up(x, D) for x in A.counit)
        self.pairs = tuple(tuple(tuple((k, up(c, D * D)) for k, c in terms) for terms in plane)
                           for plane in pairs)
        self.joined, self.split = (
            tuple(tuple((a, b, up(w, s)) for a, b, w in terms) for terms in delta)
            for s in (D * D, D))


def _terms(S: _Scaled) -> tuple:
    """The constants of S as the walk reads them: the dimension; the
    counit; the product terms of each pair (x, y) of decorations, at index
    x * dim + y; and for each decoration the coproduct terms ``joined`` and
    ``split``, each (a * dim + b, weight) with a and b the decorations of
    the two pieces.  Read from S's attributes on a memo's first walk, and
    kept in the memo with S."""
    dim = len(S.counit)
    return (dim, S.counit, [S.pairs[x][y] for x, y in product(range(dim), repeat=2)],
            *([[(a * dim + b, w) for a, b, w in terms] for terms in delta]
              for delta in (S.joined, S.split)))


@lru_cache(maxsize=1024)  # bounded: separating loops of many-vertex graphs give many slot orders
def _layout(dim: int, n: int, slots: tuple):
    """The gathers (to, back) between the row-major int tensor of n slots
    over ``dim`` basis indices and its layout with ``slots`` first, in that
    order, and the other slots after them in theirs; (None, None) when the
    layouts agree."""
    order = slots + tuple(s for s in range(n) if s not in slots)
    strides = [dim ** (n - 1 - s) for s in order]
    to = [sum(i * st for i, st in zip(t, strides)) for t in product(range(dim), repeat=n)]
    if to == list(range(len(to))):
        return None, None
    back = [0] * len(to)
    for j, i in enumerate(to):
        back[i] = j
    return itemgetter(*to), itemgetter(*back)  # two or more entries, so tuples


def _rows(T, dim, n, slots) -> list:
    """The tensor T of n slots cut into one row per basis tuple of
    ``slots``, each row over the other slots in order."""
    to = _layout(dim, n, slots)[0]
    if to is not None:
        T = to(T)
    size = len(T) // dim ** len(slots)
    return [T[r * size:(r + 1) * size] for r in range(dim ** len(slots))]


def _combine(terms, rows) -> list:
    """The int vector sum of c * rows[r] over the terms (r, c)."""
    if not terms:
        return [0] * len(rows[0])
    (r, c), *rest = terms
    acc = [c * y for y in rows[r]]
    for r, c in rest:
        acc = [a + c * y for a, y in zip(acc, rows[r])]
    return acc


def _assemble(dim, n, slots, vectors) -> tuple:
    """The row-major tensor of n slots whose layout with ``slots`` first is
    the concatenation of ``vectors``."""
    flat = []
    for vec in vectors:
        flat += vec
    back = _layout(dim, n, slots)[1]
    return tuple(flat) if back is None else back(flat)


def _walk(R, state, memo) -> list:
    """The distinct tensors that the contraction orders of a connected state
    reach, each a row-major tuple of ints over the basis tuples of its
    vertices, in vertex order.  A state with E edges holds each value as the
    int value * D^(2E+1) (see ``_Scaled``): 1 = 0 + 1 at a terminal state,
    2 + 2(E-1) + 1 for a merge or a loop that keeps the graph connected, and
    1 + (2E1+1) + (2E2+1) for a loop that splits it into parts of
    E1 + E2 = E - 1 edges.  So the tensors are canonical per state, and a
    Frobenius algebra gives exactly one; orders that disagree give two or
    more.  The structure of a state, its edges and the states they contract
    to, is ``_moves``, cached per state and shared by every algebra; the
    walk runs the numbers over it with the constants ``R`` (see ``_terms``).
    Orders reconverge on common states, so ``memo`` maps each state it
    reaches to its tensors; it holds the states of one algebra, whose
    ``_Scaled`` and ``R`` it keeps under the key None.  States are
    ``_state`` keys, so the orders that reach one cell graph with its
    vertices' cyclic orders started at other half-edges share one entry,
    which the symmetric coproduct weights make exact."""
    out = memo.get(state)
    if out is not None:
        return out
    degrees, partner = state
    if not partner:
        if len(degrees) != 1:
            raise ValueError("disconnected state reached terminal evaluation")
        out = [R[1]]  # the counit
    else:
        out = []
        for move in _moves(degrees, partner):
            for T in _contract(R, len(degrees), move, memo):
                if T not in out:
                    out.append(T)
    memo[state] = out
    return out


def _contract(R, n, move, memo) -> list:
    """The scaled tensors of the orders that start with ``move`` (see
    ``_moves``) on a state of n vertices, one per child tensor, or per pair
    of child tensors when a loop separates the graph.  Each is assembled
    with the decorations at the edge in the leading slots, every entry of a
    row of the child contracted at once."""
    dim, _, merge, joined, split = R
    if len(move) == 2:  # the decoration of vi is coproduced onto its pieces
        vi, child = move
        return [_assemble(dim, n, (vi,), [_combine(t, rows) for t in joined])
                for rows in (_rows(T, dim, n + 1, (vi, vi + 1)) for T in _walk(R, child, memo))]
    if type(move[1]) is int:  # the decorations of vi and vj multiply
        vi, vj, child = move
        return [_assemble(dim, n, (vi, vj), [_combine(t, rows) for t in merge])
                for rows in (_rows(T, dim, n - 1, (vi,)) for T in _walk(R, child, memo))]
    # the loop separated the graph into two parts, one piece in each: the
    # values multiply, each part cut into rows over the decoration of its piece
    _, slots, parts = move
    parts = [[_rows(T, dim, len(part[0]), (j,)) for T in _walk(R, part, memo)]
             for part, j in parts]
    out = []
    for ra, rb in product(*parts):
        rows = [[u * v for u in ua for v in vb] for ua in ra for vb in rb]
        out.append(_assemble(dim, n, slots, [_combine(t, rows) for t in split]))
    return out


@lru_cache(maxsize=64)  # bounded: one per (dimension, vertex count) a sweep asks
def _cells(dim: int, n: int) -> tuple:
    """The basis tuples of n vertices over ``dim`` basis indices, in
    row-major order."""
    return tuple(product(range(dim), repeat=n))


def eca_functional_all_orders(graph: CellGraph, A: FrobeniusAlgebra,
                              memo: dict = None) -> dict:
    """Map every basis decoration tuple to the set of values that the
    contraction orders reach on it; a singleton certifies order
    independence.

    Decorations enter the contraction rules linearly, so the whole
    functional can be computed on decoration-free structural states; this
    is how exhaustive sweeps over decorations stay affordable.  The walk
    gives the distinct int tensors of the orders, each value of a graph
    with E edges held as value * D^(2E+1), D the algebra's common
    denominator (see ``_walk``); here each tuple gathers its entries of
    those tensors, and each distinct int becomes one ``Fraction`` in one
    set.  Each tuple gets a copy of its value's set, or the union of its
    values' sets when it has two or more, so every returned set is its own
    and no ``Fraction`` is hashed again.  The graph is walked from its
    ``_state`` key, so rotating the cyclic order of any of its vertices
    gives the same map from the same entries.  A shared ``memo`` dict reuses
    structural states across graphs; it belongs to the algebra of its first
    call, which it keeps with its scaled constants and their term lists
    (``_terms``, built on that call), and raises ValueError for any other
    algebra.
    """
    off = graph._offsets
    cycles = [range(off[v], off[v + 1]) for v in range(graph.n)]
    root = _state(cycles, graph.partner) if cycles else None
    if root is None:
        raise ValueError("graph must be connected")
    memo = {} if memo is None else memo
    owner = memo.get(None)
    if owner is None:
        S = _Scaled(A)
        owner = memo[None] = S, _terms(S)
    elif owner[0].algebra is not A:
        raise ValueError(f"memo belongs to {owner[0].algebra!r}, not {A!r}")
    S, R = owner
    tensors = _walk(R, root, memo)
    scale = S.D ** (2 * graph.edges + 1)
    one = {v: {Fraction(v, scale)} for v in set().union(*tensors)}
    if len(tensors) == 1:
        sets = map(set.copy, map(one.__getitem__, tensors[0]))
    else:
        sets = (set().union(*map(one.__getitem__, vals)) for vals in zip(*tensors))
    return dict(zip(_cells(R[0], graph.n), sets))


# -- matching oracles --------------------------------------------------------


def _matchings(degrees: Sequence[int]):
    """Yield (partner, faces, components) for every perfect matching of the
    half-edges, pairing the lowest unmatched half-edge with each later one
    in turn.  ``partner`` is the enumerator's own list, valid until the
    next step; ``components`` counts degree-0 vertices too."""
    vert = [v for v, d in enumerate(degrees) for _ in range(d)]
    phi = []  # rotation o matching, an unmatched half-edge fixed by the matching
    for d in degrees:
        off = len(phi)
        phi.extend(off + (s + 1) % d for s in range(d))
    partner = [0] * len(phi)
    parent = list(range(len(degrees)))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    def glue(rest, faces, components):
        if not rest:
            yield partner, faces, components
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            h = phi[a]  # does the face through a pass through b?
            while h != a and h != b:
                h = phi[h]
            phi[a], phi[b] = phi[b], phi[a]
            partner[a], partner[b] = b, a
            ra, rb = root(vert[a]), root(vert[b])
            parent[ra] = rb
            yield from glue(rest[1:i] + rest[i + 1:],
                            faces + (1 if h == b else -1), components - (ra != rb))
            parent[ra] = ra
            phi[a], phi[b] = phi[b], phi[a]

    yield from glue(list(range(len(phi))), sum(1 for d in degrees if d > 0), len(degrees))


# bounded: the 525 profiles up to 16 half-edges reach 901 states, and each
# profile with a degree-0 vertex adds its own
@lru_cache(maxsize=4096)
def _completions(state) -> dict:
    """{faces closed: number of ways} over the perfect matchings of the
    open half-edges of a partial gluing that leave it connected.  States
    are canonical and shared between profiles, so they are memoized once
    per process, in a bounded cache shared by every call; the returned
    dict is the cached one, which callers read and never change.

    ``state`` is the sorted tuple of the gluing's components, each the
    sorted tuple of the open-half-edge counts of its unfinished faces; a
    degree-0 vertex is an empty component.  Every open half-edge of a face
    is alike, so the first one of the first face, of length L, is glued to
    each other in turn: to the one j steps on in its own face it splits
    that face into faces of lengths j - 1 and L - 1 - j, and to one of the
    M open half-edges of another face it joins both faces into one of
    length L + M - 2, merging their components.  A face of length 0 is
    finished; a component with none left while others remain is cut off,
    so it counts nothing."""
    if not state or not state[0]:
        return {0: 1} if state == ((),) else {}
    comp, rest = state[0], state[1:]
    length, others = comp[0], comp[1:]
    moves: dict = {}  # (next state, faces closed) -> ways

    def move(faces, rest, ways):
        nxt = tuple(sorted(rest + (tuple(sorted(f for f in faces if f)),)))
        key = (nxt, sum(1 for f in faces if not f))
        moves[key] = moves.get(key, 0) + ways

    for j in range(1, length):
        move((j - 1, length - 1 - j) + others, rest, 1)
    for k, m in enumerate(others):
        move((length + m - 2,) + others[:k] + others[k + 1:], rest, m)
    for c, other in enumerate(rest):
        for k, m in enumerate(other):
            move((length + m - 2,) + others + other[:k] + other[k + 1:],
                 rest[:c] + rest[c + 1:], m)
    out = {}
    for (nxt, closed), ways in moves.items():
        for faces, count in _completions(nxt).items():
            out[faces + closed] = out.get(faces + closed, 0) + ways * count
    return out


def count_matchings_by_genus(degrees: Sequence[int]) -> dict:
    """Counts of connected arrowed graphs with the given vertex degrees,
    keyed by genus.  Every perfect matching of labeled half-edges is one
    arrowed graph; they are counted by ``_completions``, starting from one
    component with one face per vertex."""
    total = sum(degrees)
    if total % 2:
        return {}
    if total > DEFAULT_HALF_EDGE_BUDGET:
        raise BudgetError(
            f"{total} half-edges exceed budget {DEFAULT_HALF_EDGE_BUDGET}")
    shift = 2 - len(degrees) + total // 2  # 2g = 2 - V + E - F
    state = tuple(sorted((d,) if d else () for d in degrees))
    return {(shift - faces) // 2: count
            for faces, count in _completions(state).items()}


def count_arrowed_graphs(g: int, n: int, mu: Sequence[int]) -> int:
    """Number of connected arrowed cell graphs of genus g with n labeled
    vertices of degrees mu (one arrow per vertex; matchings of labeled
    half-edges realize exactly that)."""
    if len(mu) != n:
        raise ValueError("need one degree per vertex")
    if sum(mu) % 2:
        return 0
    if n == 1 and mu[0] == 0:
        return 1 if g == 0 else 0
    if any(m == 0 for m in mu):
        return 0
    return count_matchings_by_genus(mu).get(g, 0)


def harer_zagier(g: int, n: int) -> int:
    """epsilon_g(n), the number of gluings of the sides of a 2n-gon into a
    surface of genus g, which is the number of one-vertex arrowed cell
    graphs of degree 2n and genus g: the coefficient of N^(n+1-2g) in the
    Harer-Zagier formula (Harer and Zagier, Invent. Math. 85, 1986),
        sum_g epsilon_g(n) N^(n+1-2g) = (2n-1)!! sum_k 2^k C(n,k) C(N,k+1),
    in closed form, with no enumeration.  C(N,k+1) is the falling factorial
    N(N-1)..(N-k) over (k+1)!, whose coefficients are built by multiplying
    out its factors; the sum is taken in ints over (n+1)!."""
    if g < 0 or n < 0:
        raise ValueError("need g >= 0 and n >= 0, got g=%d, n=%d" % (g, n))
    power = n + 1 - 2 * g
    if power < 1:
        return 0
    total, falling = 0, [0, 1]  # N(N-1)..(N-k) by powers of N, from k = 0
    for k in range(n + 1):
        if power < len(falling):
            total += 2 ** k * comb(n, k) * falling[power] * (factorial(n + 1) // factorial(k + 1))
        falling = [a - (k + 1) * b for a, b in zip([0] + falling, falling + [0])]
    return prod(range(2 * n - 1, 0, -2)) * total // factorial(n + 1)


def all_matchings(degrees: Sequence[int]) -> Iterator[CellGraph]:
    """All cell graphs with the given degrees (one per perfect matching, in
    the order of ``_matchings``), connected or not.  The degrees are checked
    here, before any matching is enumerated, and each graph is built from
    its ``partner`` tuple without the checks of ``CellGraph``, which a
    perfect matching passes."""
    degrees = _integers(degrees, "degrees")
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be non-negative")
    if sum(degrees) % 2:
        return iter(())
    offsets = (0, *accumulate(degrees))
    return (CellGraph._from_partner(degrees, offsets, partner)
            for partner, _, _ in _matchings(degrees))


# -- lattice-point counting oracle --------------------------------------------


# unbounded: only the five types within the half-edge budget, 2g - 2 + n <= 2
@lru_cache(maxsize=None)
def _lattice_graphs(g: int, n: int) -> tuple:
    """(D, ((pairs, weight), ...)): the connected ribbon graphs of type (g,n)
    with every vertex of degree >= 3, which have 2g - 2 + n more edges than
    vertices and at most 6g - 6 + 3n edges, folded over the labellings of
    their faces.  A matching with m_d vertices of degree d weighs
    1/(prod m_d! prod d_v), so that each graph weighs 1/|Aut| in all; each
    graph's face pairs are relabelled by every permutation of the n faces,
    and equal sorted pair lists merged.  ``pairs`` gives the sorted faces of
    each edge, and ``weight`` is the int merged weight times D, the lcm of
    the merged weights' denominators."""
    excess = 2 * g - 2 + n
    if 6 * excess > DEFAULT_HALF_EDGE_BUDGET:
        raise BudgetError(f"type ({g},{n}) needs {6 * excess} half-edges, "
                          f"over budget {DEFAULT_HALF_EDGE_BUDGET}")
    graphs: dict = {}
    for edges in range(excess + 1, 3 * excess + 1):
        for degrees in combinations_with_replacement(range(3, 2 * edges + 1), edges - excess):
            if sum(degrees) != 2 * edges:
                continue
            weight = Fraction(1, prod(map(factorial, Counter(degrees).values())) * prod(degrees))
            for partner, faces, components in _matchings(degrees):
                if faces == n and components == 1:
                    face = _face_of(degrees, partner)
                    key = tuple(sorted(tuple(sorted((face[a], face[b])))
                                       for a, b in enumerate(partner) if a < b))
                    graphs[key] = graphs.get(key, 0) + weight
    terms: dict = {}
    for pairs, weight in graphs.items():
        for perm in permutations(range(n)):
            key = tuple(sorted(tuple(sorted((perm[f], perm[h]))) for f, h in pairs))
            terms[key] = terms.get(key, 0) + weight
    D = lcm(*(w.denominator for w in terms.values()))
    return D, tuple((pairs, w.numerator * (D // w.denominator)) for pairs, w in terms.items())


def _edge_lengths(pairs, target) -> int:
    """The number of positive integer lengths of the edges, edge k bordering
    the faces ``pairs[k]``, that give each face f the perimeter
    ``target[f]``: the coefficient of x^target in the product over the
    edges (f, h) of sum_l x_f^l x_h^l, truncated at the target.  The keys
    are the perimeters left to cover."""
    poly = {tuple(target): 1}
    for f, h in pairs:
        nxt: dict = {}
        for rest, c in poly.items():
            rest = list(rest)
            while True:
                rest[f] -= 1
                rest[h] -= 1
                if rest[f] < 0 or rest[h] < 0:
                    break
                nxt[tuple(rest)] = nxt.get(tuple(rest), 0) + c
        poly = nxt
    return poly.get((0,) * len(target), 0)


def count_lattice_points(g: int, n: int, mu: Sequence[int]) -> Rational:
    """Weighted count of integral metric ribbon graphs of type (g,n) with
    labeled face perimeters mu (Norbury): over the folded terms of
    ``_lattice_graphs``, the int weight times the number of positive
    integer edge lengths giving the perimeters, summed in ints and divided
    once by the terms' D.  The perimeters are checked before any graph is
    enumerated: one that is not an integer or is below 1 raises ValueError,
    one above 12 BudgetError.  An odd perimeter sum counts 0, since the
    perimeters sum to twice the total edge length; that is read only after
    the terms, so a type over the half-edge budget is refused whatever mu.
    The genus is checked first: one that is not a non-negative integer
    raises ValueError."""
    try:
        g = index(g)
    except TypeError:
        raise ValueError(f"genus must be an integer, got {g!r}") from None
    if g < 0:
        raise ValueError("genus must be non-negative, got %d" % g)
    if len(mu) != n:
        raise ValueError("need one perimeter per face")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"type ({g},{n}) is unstable: no graph has all degrees >= 3")
    mu = _integers(mu, "perimeters")
    if any(m < 1 for m in mu):
        raise ValueError("perimeters must be positive")
    if any(m > 12 for m in mu):
        raise BudgetError("perimeters must lie in 1..12")
    D, terms = _lattice_graphs(g, n)
    if sum(mu) % 2:
        return Fraction(0)
    return Fraction(sum(w * _edge_lengths(pairs, mu) for pairs, w in terms), D)
