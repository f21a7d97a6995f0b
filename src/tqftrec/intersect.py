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

``kdv_identities`` and ``genus_zero_profiles`` check the table against
identities the recursion does not use: Witten's KdV form and the genus-0
closed form, read off the table with no engine code beyond the reads.
``tqft verify --level full`` and the tests run both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .cutjoin import TRIVIAL, CutJoinTable, profile, shared
from .frobenius import AlgebraElement, FrobeniusAlgebra, omega_tqft

Rational = Fraction

__all__ = [
    "correlator",
    "twisted_correlator",
    "check_tauG",
    "kdv_identities",
    "genus_zero_profiles",
    "CorrelatorTable",
    "double_factorial",
]


def double_factorial(m: int) -> int:
    """(m)!! with the convention (-1)!! = 1."""
    return math.prod(range(m, 0, -2))


def _validate(g: int, n: int, k: Sequence[int]):
    """The checked exponents' ``cutjoin.profile`` facts (ints, ordered, permute)."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    if n < 1:
        raise ValueError("need at least one insertion")
    checked = profile(k)
    if len(checked[0]) != n:
        raise ValueError("exponent vector length %d does not match n=%d" % (len(checked[0]), n))
    return checked


class CorrelatorTable(CutJoinTable):
    """Memoized correlators decorated by a Frobenius algebra; over the
    trivial algebra, the default, the scalar correlators."""

    degree_column = "k"

    _validate = staticmethod(_validate)

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


def _intersection(k) -> Rational:
    """<tau_k> at the one genus g with sum(k) = 3g - 3 + len(k), and 0 when
    no genus has that dimension."""
    g, rem = divmod(sum(k) + 3 - len(k), 3)
    return correlator(g, len(k), k) if not rem and g >= 0 else Fraction(0)


def _split_product(x, y, extra) -> Rational:
    """The coefficient of <<tau_x>> <<tau_y>> at the extra insertions: a sum
    over the ways to split them between the two factors, each insertion
    taken as distinct."""
    slots = range(len(extra))
    return sum(_intersection(x + tuple(extra[i] for i in part))
               * _intersection(y + tuple(extra[i] for i in slots if i not in part))
               for r in range(len(extra) + 1) for part in combinations(slots, r))


def kdv_identities():
    """Yield (N, extra, lhs, rhs) for Witten's KdV form read off the table
    coefficient by coefficient: at each multiset ``extra`` of insertions,
        (2N+1) <<tau_N tau_0^2>> = <<tau_{N-1} tau_0>> <<tau_0^3>>
            + 2 <<tau_{N-1} tau_0^2>> <<tau_0^2>> + 1/4 <<tau_{N-1} tau_0^4>>,
    over 1 <= N <= 7, at most 4 insertions of degree at most 4, and
    N + sum(extra) <= 14: 722 identities, 236 with a nonzero left side, up to
    genus 4.  KdV follows from DVV (Kontsevich's theorem) but the recursion
    does not use it, so a defect in a join or cut weight, or a split
    dropped, breaks some of them."""
    for N in range(1, 8):
        for size in range(5):
            for extra in combinations_with_replacement(range(5), size):
                if N + sum(extra) > 14:
                    continue
                lhs = (2 * N + 1) * _intersection((N, 0, 0) + extra)
                rhs = (_split_product((N - 1, 0), (0, 0, 0), extra)
                       + 2 * _split_product((N - 1, 0, 0), (0, 0), extra)
                       + Fraction(1, 4) * _intersection((N - 1, 0, 0, 0, 0) + extra))
                yield N, extra, lhs, rhs


def genus_zero_profiles():
    """Yield (k, <tau_k1 ... tau_kn>_0, (n-3)!/prod k_i!) for the 19 sorted
    genus-0 profiles with 3 <= n <= 8: the table's value beside the closed
    form."""
    for n in range(3, 9):
        for k in combinations_with_replacement(range(n - 2), n):
            if sum(k) == n - 3:
                yield k, correlator(0, n, k), Fraction(math.factorial(n - 3),
                                                       math.prod(map(math.factorial, k)))
