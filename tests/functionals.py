"""Reference functionals the tests check the package against, kept out of
the package because only tests use them: the amplitude Omega_{g,n} as a
sparse tensor and as the Fraction chain e^g e_i ..., a symmetry check on
such tensors, the edge-contraction amplitude of one decorated graph, an
algebra rescaled so that its constants have denominators, and the lattice
count summed over the labellings of each graph's faces."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod
from typing import Sequence

from tqftrec import cellgraph, frobenius
from tqftrec.frobenius import AlgebraElement, FrobeniusAlgebra, omega_tqft


def _sparse(terms: dict) -> dict:
    """terms without its zero values."""
    return {key: x for key, x in terms.items() if x}


def is_symmetric(F: dict) -> bool:
    """Whether the sparse tensor F takes one value on every permutation of
    each of its index tuples."""
    return all(F.get(perm) == x for key, x in F.items() for perm in permutations(key))


def omega_functional(A: FrobeniusAlgebra, g: int, n: int) -> dict:
    """Omega_{g,n} as a sparse tensor {basis index tuple: value}, the form
    the cut-and-join engine stores its counts in; for (0,1) the counit and
    for (0,2) the pairing, matching how the contraction identities fold the
    unstable cases in."""
    if (g, n) == (0, 1):
        return _sparse({(i,): x for i, x in enumerate(A.counit)})
    if (g, n) == (0, 2):
        return _sparse({(i, j): x for i, row in enumerate(A.pairing) for j, x in enumerate(row)})
    return _sparse({key: omega_tqft(A, g, n, [A.basis(i) for i in key])
                    for key in product(range(A.dim), repeat=n)})


def amplitude_chain(A: FrobeniusAlgebra, g: int, idx: Sequence[int]) -> Fraction:
    """Omega_{g,n} on the basis tuple idx as the Fraction chain
    counit(e^g e_{i_1} ... e_{i_n}), each factor multiplied in as an element."""
    acc = frobenius.euler_power(A, g)
    for i in sorted(idx):
        acc = frobenius.product(acc, A.basis(i))
    return frobenius.counit(acc)


def rescaled(A, scales, factor):
    """A in the basis scales[i] e_i with its pairing times factor: the
    product constants become s_i s_j / s_k c_ij^k and the pairing
    factor s_i s_j eta_ij, so the constants get denominators that no group
    algebra has."""
    s, r = [Fraction(x) for x in scales], range(A.dim)
    product = [[[s[i] * s[j] / s[k] * A.product_tensor[i][j][k] for k in r] for j in r] for i in r]
    pairing = [[factor * s[i] * s[j] * A.pairing[i][j] for j in r] for i in r]
    return FrobeniusAlgebra(A.dim, [label + "'" for label in A.labels], product, pairing)


def eca_evaluate(graph: cellgraph.CellGraph, A: FrobeniusAlgebra,
                 vs: Sequence[AlgebraElement]) -> Fraction:
    """Amplitude of the decorated graph by edge contraction: the map of
    ``eca_functional_all_orders``, read through its module so that a test
    can replace it, contracted with the decorations.  Raises ValueError if
    contraction orders disagree on a basis tuple that the decorations
    reach."""
    if len(vs) != graph.n:
        raise ValueError("need one decoration per vertex")
    total = Fraction(0)
    for idx, vals in cellgraph.eca_functional_all_orders(graph, A).items():
        coeff = Fraction(1)
        for v, i in zip(vs, idx):
            coeff *= v.coeffs[i]
        if coeff:
            if len(vals) != 1:
                raise ValueError(
                    f"contraction orders disagree on basis tuple {idx}: {sorted(vals)}")
            total += coeff * next(iter(vals))
    return total


@lru_cache(maxsize=None)
def lattice_graph_weights(g: int, n: int) -> tuple:
    """((sorted face pairs of the edges, Fraction weight), ...) over the
    connected ribbon graphs of type (g,n) with every vertex of degree >= 3,
    one entry per graph with its faces as the enumerator numbers them; a
    matching with m_d vertices of degree d weighs 1/(prod m_d! prod d_v)."""
    excess = 2 * g - 2 + n
    graphs: dict = {}
    for edges in range(excess + 1, 3 * excess + 1):
        for degrees in combinations_with_replacement(range(3, 2 * edges + 1), edges - excess):
            if sum(degrees) != 2 * edges:
                continue
            weight = Fraction(1, prod(map(factorial, Counter(degrees).values())) * prod(degrees))
            for partner, faces, components in cellgraph._matchings(degrees):
                if faces == n and components == 1:
                    face = cellgraph._face_of(degrees, partner)
                    key = tuple(sorted(tuple(sorted((face[a], face[b])))
                                       for a, b in enumerate(partner) if a < b))
                    graphs[key] = graphs.get(key, 0) + weight
    return tuple(graphs.items())


def lattice_points_by_labelling(g: int, n: int, mu: Sequence[int]) -> Fraction:
    """N_{g,n}(mu) as the sum over the graphs and over the labellings of
    their faces, each distinct perimeter tuple counted once with its
    multiplicity, of the Fraction weight times the edge-length count; no
    parity shortcut, so an odd perimeter sum reaches the count too."""
    targets = Counter(tuple(mu[f] for f in perm) for perm in permutations(range(n)))
    return sum((weight * sum(k * cellgraph._edge_lengths(pairs, t) for t, k in targets.items())
                for pairs, weight in lattice_graph_weights(g, n)), Fraction(0))
