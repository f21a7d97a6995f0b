"""Psi-class correlators via the DVV recursion and its decorated variant.

Both run as kernels of the cut-and-join engine in ``tqftrec.cutjoin``; the
scalar correlators are the trivial-algebra case.  Pair terms merge two
insertions with a double-factorial weight, loop and split terms cut the
distinguished insertion in two, and the bases are the three-point tensor
at (0,3) and 1/24 times the pairing of the coproduct at (1,1).

Double-factorial convention: the recursion here divides the pair term by
(2 k1 + 1)!!.  Dividing by (2 k1 - 1)!! instead, as some printed forms of
the recursion do, breaks the dilaton identity (for example
<tau_1 tau_0^3> comes out 3 instead of 1).  (-1)!! = 1, and any tau with
negative index contributes zero.

The pair and cut weights depend on the degrees alone, so they are built
once, in caches keyed on the degrees that every build of every table reads.

``check_tauG`` compares the decorated correlator with the correlator times
the surface amplitude; Witten's KdV form and the genus-0 closed form, which
the recursion does not use, are checks in ``tqftrec.verify``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cutjoin import TRIVIAL, CutJoinTable, shared
from .frobenius import AlgebraElement, FrobeniusAlgebra, omega_tqft

Rational = Fraction

__all__ = [
    "correlator",
    "twisted_correlator",
    "check_tauG",
    "CorrelatorTable",
    "double_factorial",
]


def double_factorial(m: int) -> int:
    """(m)!! with the convention (-1)!! = 1."""
    return math.prod(range(m, 0, -2))


class CorrelatorTable(CutJoinTable):
    """Memoized correlators decorated by a Frobenius algebra; over the
    trivial algebra, the default, the scalar correlators."""

    degree_column = "k"

    def _vanishes(self, g, k):
        return min(k) < 0 or sum(k) != 3 * g - 3 + len(k)

    def _split_genera(self, g, k1, k2):
        # the one genus the dimension rule sum(k1) = 3 g1 - 3 + len(k1) admits;
        # k2 then meets the rule at g - g1, as the profile split meets it at g,
        # and the degrees of both halves are those of the profile or of a cut
        g1, rem = divmod(sum(k1) + 3 - len(k1), 3)
        return (g1,) if not rem and 0 <= g1 <= g else ()

    def _base_case(self, g, k):
        A = self.algebra
        if (g, len(k)) == (0, 3):
            return self._sparse(3, lambda i, j, l: A.three_point[i][j][l])
        if (g, len(k)) == (1, 1):
            # the one-handle weight: the pairing of the coproduct
            D, eta = A.coproduct_by_input, A.pairing
            return self._sparse(
                1, lambda i: Fraction(1, 24) * sum(w * eta[a][b] for a, b, w in D[i])
            )
        return None

    def _joins(self, k1, kj, stable):
        return _join_weights(k1, kj)

    def _cuts(self, k1):
        return _cut_weights(k1)


@lru_cache(maxsize=1024)  # bounded: one per pair of degrees (k1, kj) a build joins
def _join_weights(k1: int, kj: int):
    weight = Fraction(
        double_factorial(2 * k1 + 2 * kj - 1),
        double_factorial(2 * k1 + 1) * double_factorial(2 * kj - 1),
    )
    return ((k1 + kj - 1, weight),)


@lru_cache(maxsize=1024)  # bounded: the weights of a degree k1 are k1 - 1 Fractions
def _cut_weights(k1: int):
    return tuple(
        (l, m, Fraction(double_factorial(2 * l + 1) * double_factorial(2 * m + 1),
                        2 * double_factorial(2 * k1 + 1)))
        for l in range(k1 - 1)
        for m in (k1 - 2 - l,)
    )


def correlator(g: int, n: int, k: Sequence[int]) -> Rational:
    """The n-point correlator <tau_{k_1} ... tau_{k_n}>_{g,n}."""
    return shared(CorrelatorTable, TRIVIAL).untwisted(g, k, n)


def twisted_correlator(
    g: int,
    n: int,
    k: Sequence[int],
    algebra: FrobeniusAlgebra,
    vs: Sequence[AlgebraElement],
) -> Rational:
    """The decorated correlator, computed through genuine contractions."""
    return shared(CorrelatorTable, algebra).twisted(g, k, vs, n)


def check_tauG(
    g: int,
    n: int,
    k: Sequence[int],
    algebra: FrobeniusAlgebra,
    vs: Sequence[AlgebraElement],
) -> dict:
    """Compare the decorated recursion with correlator times the surface amplitude."""
    lhs = twisted_correlator(g, n, k, algebra, vs)
    rhs = correlator(g, n, k) * omega_tqft(algebra, g, n, vs)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
