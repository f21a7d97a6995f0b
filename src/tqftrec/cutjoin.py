"""One memoized cut-and-join engine for the counting recursions.

Each count is a multilinear functional of Frobenius-algebra decorations,
one per boundary, stored as a sparse tensor from basis index tuples to
exact rationals.  A profile (g, mu) is reduced on its distinguished
boundary, the largest degree (ties: lowest position).  Join terms absorb
another boundary and multiply the two decorations through the product
tensor; loop terms (genus g - 1) and split terms (genera g1 + g2 = g) cut
it in two and route its decoration through the coproduct.  Both tensors
are read through the algebra's sparse views.  The scalar counts are the
same recursion over the one-dimensional trivial algebra.

Tensors are memoized on the profile sorted in decreasing order, which the
permutation symmetry of the counts justifies: a query reorders its
decorations into that order, and a child tensor is realigned to the order
its parent asks for.  ``canonicalize=False`` turns that off so the
symmetry can be tested honestly.  An entry is stored only when complete.
A query evaluates its tensor on its decorations with ``contract``, the
engine's one contraction; ``omega_tqft``, which the decorated counts are
checked against, keeps its own.

Every table the package answers from is built once, by ``shared``: one
per family and algebra, and one scalar table per family.
``shared.cache_clear()`` empties them all.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Optional, Sequence, Tuple

from .exact import BudgetError
from .frobenius import AlgebraElement, FrobeniusAlgebra, trivial_algebra

TRIVIAL = trivial_algebra()

# Child tensors one request may visit while it fills profiles not yet
# memoized; a memoized request costs one.  From cold: correlator g=9 needs
# 820181 (about 5 s), g=10 2674162, catalan mu=(1900,) 2256726; no test,
# README example or benchmark query needs more than 13710.
CUTJOIN_WORK_BUDGET = 1000000


def check_decorations(algebra: FrobeniusAlgebra, vs: Sequence[AlgebraElement], n: int):
    """Check n decorations against the algebra."""
    if len(vs) != n:
        raise ValueError("need one decoration per boundary: %d for %d" % (len(vs), n))
    for v in vs:
        if not isinstance(v, AlgebraElement):
            raise TypeError("decorations must be algebra elements, got %r" % (v,))
        if v.algebra is not algebra and v.algebra != algebra:
            raise ValueError("decoration does not belong to the given algebra")


def contract(tensor: dict, vs: Sequence[AlgebraElement]) -> Fraction:
    """The multilinear functional held as the sparse tensor {basis index
    tuple: value} evaluated on one decoration per slot.

    The walk takes the smaller side: the tensor's entries, or the tuples of
    the decorations' nonzero terms, so dense decorations never expand to
    dim^n tuples.  Terms are summed as an int numerator over a running
    common denominator, and one Fraction is built on return."""
    num, den = 0, 1
    terms = [v.terms for v in vs]
    if math.prod(map(len, terms)) > len(tensor):
        rows = [v.coeffs for v in vs]
        found = (
            (val, [c for row, i in zip(rows, idx) if (c := row[i]) != 1])
            for idx, val in tensor.items()
        )
    else:
        found = (
            (tensor.get(tuple(i for i, _ in combo)), [c for _, c in combo if c != 1])
            for combo in product(*terms)
        )
    for val, cs in found:
        if val is None:
            continue
        n, d = val.numerator, val.denominator
        for c in cs:
            n *= c.numerator
            d *= c.denominator
        if n:
            if den % d:
                lcm = math.lcm(den, d)
                num *= lcm // den
                den = lcm
            num += n * (den // d)
    return Fraction(num, den)


@lru_cache(maxsize=None)
def shared(family, algebra: Optional[FrobeniusAlgebra] = None):
    """The one table of a family over an algebra, built on first use; equal
    algebras share it.  The scalar table is ``shared(family)``: pass the
    algebra positionally and only when there is one, so that equal requests
    meet in one entry."""
    return family(algebra)


@lru_cache(maxsize=None)
def _splits(r: int):
    """Ways to share r boundaries between two halves: (I, J, slots of I + J)."""
    halves = [
        (I, tuple(t for t in range(r) if t not in I))
        for size in range(r + 1)
        for I in combinations(range(r), size)
    ]
    return [(I, J, tuple((I + J).index(t) for t in range(r))) for I, J in halves]


class CutJoinTable:
    """Memoized sparse decorated counts, reduced by cut and join.

    A family subclass supplies ``_validate(g, n, mu)``, returning the
    checked profile; ``_vanishes(g, mu)``, a symmetric rule checked before
    the memo so that zero profiles are never stored; ``_base_case(g, mu)``, the
    tensor of a profile that is not reduced, else None; ``_joins(m1, mj,
    stable)``, the (child degree, weight) pairs for absorbing a boundary of
    degree mj into the distinguished one, where ``stable`` says whether the
    child, of type (g, n - 1), has 2g - 2 + (n - 1) > 0; and
    ``_cuts(m1)``, the (degree a, degree b,
    weight) triples for cutting the distinguished boundary.  It may
    override ``_scale`` (a factor on the reduced tensor) and ``stable_splits``.
    """

    degree_column = "mu"
    stable_splits = False  # do split terms skip children with 2g - 2 + n <= 0?

    def __init__(self, algebra: Optional[FrobeniusAlgebra] = None, *, canonicalize: bool = True):
        self.decorated = algebra is not None
        self.algebra = algebra if algebra is not None else TRIVIAL
        self.canonicalize = canonicalize
        self._tensors = {}
        self._work, self._request = 0, None

    def _scale(self, m1: int):
        return None

    def _sparse(self, n: int, fn):
        """The tensor of fn on all basis index tuples, zeros dropped."""
        return {
            idx: v for idx in product(range(self.algebra.dim), repeat=n) if (v := fn(*idx))
        }

    # -- evaluation ------------------------------------------------------------

    def twisted(self, g: int, mu: Sequence[int], vs: Sequence[AlgebraElement],
                n: Optional[int] = None) -> Fraction:
        """The count with decoration vs[i] on boundary i; a given n is
        checked against the length of mu."""
        if not self.decorated:
            raise ValueError("this table was built without an algebra")
        mu = self._validate(g, len(mu) if n is None else n, mu)
        check_decorations(self.algebra, vs, len(mu))
        order = range(len(mu))
        if self.canonicalize:  # the decorations, not the tensor, go to the memoized order
            order = sorted(order, key=mu.__getitem__, reverse=True)
        ordered = tuple(mu[p] for p in order)
        tensor = self._tensors.get((g, ordered))
        if tensor is None:
            tensor = self._lookup(g, ordered, mu)
        return contract(tensor, [vs[p] for p in order])

    def untwisted(self, g: int, mu: Sequence[int], n: Optional[int] = None) -> Fraction:
        """The scalar count: the recursion over the trivial algebra; a
        given n is checked against the length of mu.  A decorated table
        answers from the shared scalar table of its family."""
        if self.decorated:
            return shared(type(self)).untwisted(g, mu, n)
        mu = self._validate(g, len(mu) if n is None else n, mu)
        ordered = tuple(sorted(mu, reverse=True)) if self.canonicalize else mu
        return self._lookup(g, ordered, mu).get((0,) * len(mu), Fraction(0))

    def _lookup(self, g: int, mu: Tuple[int, ...], asked: Sequence[int]):
        """The tensor of (g, mu); ``asked`` is the profile as the caller
        gave it, which a budget error names."""
        self._work, self._request = 0, (g, list(asked))
        try:
            return self._tensor(g, mu)
        except RecursionError:
            msg = "recursion too deep for profile g=%d, mu=%s" % (g, list(asked))
            raise BudgetError(msg) from None

    def _tensor(self, g: int, mu: Tuple[int, ...]):
        """The tensor of (g, mu) with its slots in the order of mu.

        The cut-and-join step on the distinguished boundary is written
        inline, so that each level of the recursion costs one Python frame.
        """
        self._work += 1
        if self._work > CUTJOIN_WORK_BUDGET:
            g0, mu0 = self._request
            raise BudgetError("profile g=%d, %s=%s needs more than %d child tensors"
                              % (g0, self.degree_column, mu0, CUTJOIN_WORK_BUDGET))
        if g < 0 or self._vanishes(g, mu):
            return {}
        canon = tuple(sorted(mu, reverse=True)) if self.canonicalize else mu
        key = (g, canon)
        out = self._tensors.get(key)
        if out is None and (out := self._base_case(g, canon)) is not None:
            self._tensors[key] = out
        if out is None:
            d = max(range(len(canon)), key=lambda i: (canon[i], -i))
            m1 = canon[d]
            rest = canon[:d] + canon[d + 1 :]
            by_output = self.algebra.product_by_output
            by_legs = self.algebra.coproduct_by_legs
            acc = {}

            def add(i1, ridx, w):
                k = ridx[:d] + (i1,) + ridx[d:]
                acc[k] = acc.get(k, 0) + w

            # joins: boundary j is absorbed, the decorations multiply
            stable = 2 * g - 3 + len(canon) > 0
            for j, mj in enumerate(rest):
                others = rest[:j] + rest[j + 1 :]
                for c, w in self._joins(m1, mj, stable):
                    for cidx, val in self._tensor(g, (c,) + others).items():
                        val = w * val
                        head, tail = cidx[1 : j + 1], cidx[j + 1 :]
                        for i1, ij, p in by_output[cidx[0]]:
                            add(i1, head + (ij,) + tail, p * val)
            # loops and splits: the distinguished decoration is coproduced
            for a, b, w in self._cuts(m1):
                for cidx, val in self._tensor(g - 1, (a, b) + rest).items():
                    for i1, c in by_legs[cidx[0]][cidx[1]]:
                        add(i1, cidx[2:], w * c * val)
                for g1 in range(g + 1):
                    for I, J, inv in _splits(len(rest)):
                        if self.stable_splits and min(2 * g1 + len(I), 2 * (g - g1) + len(J)) < 2:
                            continue
                        T1 = self._tensor(g1, (a,) + tuple(rest[t] for t in I))
                        if not T1:
                            continue
                        T2 = self._tensor(g - g1, (b,) + tuple(rest[t] for t in J))
                        for idx1, v1 in T1.items():
                            for idx2, v2 in T2.items():
                                lst = by_legs[idx1[0]][idx2[0]]
                                if not lst:
                                    continue
                                both = idx1[1:] + idx2[1:]
                                ridx = tuple(both[p] for p in inv)
                                vv = w * v1 * v2
                                for i1, c in lst:
                                    add(i1, ridx, c * vv)
            scale = self._scale(m1)
            out = {k: v if scale is None else v * scale for k, v in acc.items() if v}
            self._tensors[key] = out
        if canon == mu or not out:
            return out
        # send each requested position to an unused canonical slot of its degree
        slots = {}
        for pos, m in enumerate(canon):
            slots.setdefault(m, []).append(pos)
        pi = [slots[m].pop(0) for m in mu]
        return {tuple(cidx[p] for p in pi): v for cidx, v in out.items()}

    # -- export ----------------------------------------------------------------

    def rows(self):
        """(g, mu, decor, value) for every memoized nonzero entry, sorted;
        decor is empty for a table built without an algebra."""
        return sorted(
            (g, mu, idx if self.decorated else (), v)
            for (g, mu), T in self._tensors.items()
            for idx, v in T.items()
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["g", "n", self.degree_column, "decor", "value"])
        for g, mu, decor, v in self.rows():
            writer.writerow(
                [g, len(mu), " ".join(map(str, mu)), " ".join(map(str, decor)), str(v)]
            )
        return buf.getvalue()
