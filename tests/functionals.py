"""Reference functionals the tests check the package against, kept out of
the package because only tests use them: the amplitude Omega_{g,n} as a
sparse tensor, a symmetry check on such tensors, and the edge-contraction
amplitude of one decorated graph."""

from fractions import Fraction
from itertools import permutations, product
from typing import Sequence

from tqftrec import cellgraph
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
