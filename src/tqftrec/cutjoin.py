"""One memoized cut-and-join engine for the counting recursions.

Each count is a multilinear functional of Frobenius-algebra decorations,
one per boundary, stored as a sparse tensor from basis index tuples to
exact rationals.  A profile (g, mu) is reduced on its distinguished
boundary, the first slot of the profile sorted in decreasing order, by
three TQFT kernel operators, each adding w times its result into the dict
it is given (which may then hold zeros): ``m_star_contract`` for a join,
which absorbs another boundary and multiplies the two decorations through
the product view; ``delta_star_contract`` for a loop (genus g - 1) and
``delta_star_split`` for a split (genera g1 + g2 = g), which cut the
boundary in two and route its decoration through the coproduct view.

A build first gathers its terms, reading each distinct child tensor it
needs once.  A child the family's vanishing rule zeroes is never read, and
a split is tried only at the genera the family's ``_split_genera`` yields,
those at which neither half vanishes.  A cut (a, b) and its mirror (b, a)
give equal loop terms, and a split and its mirror, the split with its two
halves swapped, give equal split terms: the counts are symmetric in their
boundaries, and the coproduct is cocommutative, Delta_i^{ab} =
Delta_i^{ba}, because every algebra is checked at construction to have a
commutative product and a symmetric pairing.  So each such pair runs once,
with the two weights summed.  The build streams: it reads each child as
its term comes up, so a deep descent holds only the terms of the cuts
already passed.  It then runs the operators in Python ints, on the
children's int forms and on the algebra's constants scaled to ints, with
every weight scaled to one denominator for the whole build, and makes one
Fraction per stored entry.  Each level of the recursion costs one Python
frame, which bounds the depth of a profile that can be built.

Every table is over an algebra: the scalar counts are the table over the
one-dimensional trivial algebra, ``TRIVIAL``.  The operators and the
split enumeration ``_splits`` also serve the B-model: ``bmodel`` sums its
bracket on the coproduct legs and contracts it with
``delta_star_contract``; so the operators stay generic over the value
type.  ``_int_form`` serves it too: its one substitution, for the x and z
frames and the inverse Laplace transform, runs in ints on the int form of
a Laurent map, over one denominator.

Tensors are memoized on the profile sorted in decreasing order, which the
permutation symmetry of the counts justifies: a query reorders its
decorations into that order, and a child tensor is realigned to the order
its parent asks for.  An entry is stored only when complete, and a
profile the family's vanishing rule zeroes is never stored.  A query reads
the memo first and answers a vanishing profile or an empty tensor with
zero at once; otherwise it evaluates its tensor on its decorations with
``contract``, the engine's one contraction, which reads a single entry
when each decoration has one nonzero term and otherwise walks the
tensor's entries.  ``omega_tqft``, which the decorated counts are checked
against, keeps its own contraction.

Every table the package answers from is built once, by ``shared``: one
per family and algebra, the scalar counts living in ``shared(family,
TRIVIAL)``.  ``shared.cache_clear()`` empties them all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from operator import itemgetter
from typing import Optional, Sequence, Tuple

from .exact import BudgetError
from .frobenius import AlgebraElement, FrobeniusAlgebra, trivial_algebra

TRIVIAL = trivial_algebra()

# Children one request may consider while it fills profiles not yet
# memoized: each join child, loop child and split subset a build tests
# against the vanishing rule, and each child tensor it reads, which is at
# most once per build.  A memoized or vanishing request costs none.  The
# time goes into the enumeration, so counting the children considered
# bounds it better than counting reads.  From cold: catalan mu=(1900,)
# considers 903451 children (as many as it read under the old count),
# g=2 with mu 4x9 320823 and 4x10 768200 (about 3 s), g=3 mu=(40,) 270141;
# correlator g=9 155942, g=10 463431 (1.5 s).  No test, README example or
# benchmark query needs more than 9219, except the 550-level catalan
# mu=(1100,) test at 303051.  Cold CLI processes on a 2-core host refuse
# catalan g=2 with mu 4x11 after about 4 s and correlator g=11 after about
# 4 s.  The count does not grow with the size of the tensors, so a
# request over a larger algebra may take much longer within it.
CUTJOIN_WORK_BUDGET = 1000000

_ZERO = Fraction(0)


def check_decorations(algebra: FrobeniusAlgebra, vs: Sequence[AlgebraElement], n: int):
    """Check n decorations against the algebra."""
    if len(vs) != n:
        raise ValueError("need one decoration per boundary: %d for %d" % (len(vs), n))
    for v in vs:
        if not isinstance(v, AlgebraElement):
            raise TypeError("decorations must be algebra elements, got %r" % (v,))
        if v.algebra is not algebra:
            raise ValueError("decoration does not belong to the given algebra")


def contract(tensor: dict, vs: Sequence[AlgebraElement]) -> Fraction:
    """The multilinear functional held as the sparse tensor {basis index
    tuple: value} evaluated on one decoration per slot.

    When each decoration has one nonzero term, as a basis vector has, the
    one entry read is scaled by the coefficients other than 1.  Otherwise
    the tensor's entries are walked, so dense decorations never expand to
    dim^n tuples, and their terms are summed as an int numerator over a
    running common denominator, with one Fraction built on return."""
    terms = [v.terms for v in vs]
    if math.prod(map(len, terms)) == 1:
        val = tensor.get(tuple([t[0][0] for t in terms]))
        if val is None:
            return _ZERO
        for ((_, c),) in terms:
            if c != 1:
                val *= c
        return val
    num, den = 0, 1
    rows = [v.coeffs for v in vs]
    for idx, val in tensor.items():
        n, d = val.numerator, val.denominator
        for row, i in zip(rows, idx):
            c = row[i]
            if c != 1:
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
def shared(family, algebra: FrobeniusAlgebra):
    """The one table of a family over an algebra, built on first use; equal
    algebras are one interned object, so they share it, and the scalar
    counts are ``shared(family, TRIVIAL)``.  The algebra is required and
    positional, so that equal requests meet in one entry."""
    return family(algebra)


@lru_cache(maxsize=None)
def _splits(r: int):
    """Ways to share r boundaries between two halves: (I, J, order), where
    boundary t lands in slot order[t] of I + J, the order delta_star_split takes."""
    halves = [
        (I, tuple(t for t in range(r) if t not in I))
        for size in range(r + 1)
        for I in combinations(range(r), size)
    ]
    return [(I, J, tuple((I + J).index(t) for t in range(r))) for I, J in halves]


@lru_cache(maxsize=4096)  # bounded: profiles with many distinct degrees have many orders
def _reorder(perm: Tuple[int, ...]):
    """The map taking an index tuple t to (t[p] for p in perm), or None
    when perm is the identity."""
    if perm == tuple(range(len(perm))):
        return None
    return itemgetter(*perm)  # perm has two or more entries, so this gives tuples


def m_star_contract(A: FrobeniusAlgebra, F: dict, j: int, out: dict, w=1):
    """Cokernel operator: add w G into out, G inserting a new slot j whose
    input is multiplied into slot 1 before evaluating F,
    G(i_1, .., i_n) = sum_k c_{i_1 i_j}^k F(k, i_2, .., i_n without i_j).
    Slots are 1-based; 2 <= j <= n."""
    if F and not 2 <= j <= len(next(iter(F))) + 1:
        raise ValueError("slot %d out of range 2..%d" % (j, len(next(iter(F))) + 1))
    by_output = A.product_by_output
    for idx, x in F.items():
        x = w * x
        head, tail = idx[1 : j - 1], idx[j - 1 :]
        for i1, ij, c in by_output[idx[0]]:
            key = (i1,) + head + (ij,) + tail
            out[key] = out.get(key, 0) + c * x


def delta_star_contract(A: FrobeniusAlgebra, F: dict, out: dict, w=1):
    """Kernel operator, connected form: add w G into out, G fusing the first
    two slots of F into one via the coproduct of the new first argument,
    G(i, rest) = sum_{a,b} Delta_i^{ab} F(a, b, rest)."""
    if F and len(next(iter(F))) < 2:
        raise ValueError("need at least two slots to contract")
    by_legs = A.coproduct_by_legs
    for idx, x in F.items():
        x = w * x
        rest = idx[2:]
        for i, c in by_legs[idx[0]][idx[1]]:
            key = (i,) + rest
            out[key] = out.get(key, 0) + c * x


def delta_star_split(A: FrobeniusAlgebra, F1: dict, F2: dict, out: dict, w=1,
                     order: Tuple[int, ...] = ()):
    """Kernel operator, split form: add w G into out, G distributing the
    coproduct legs of the first argument over the first slots of F1 and F2,
    G(i, r) = sum_{a,b} Delta_i^{ab} F1(a, r1) F2(b, r2),
    where r lists the other slots r1 + r2 in ``order``: r[t] = (r1 + r2)[order[t]]."""
    by_legs = A.coproduct_by_legs
    permute = _reorder(order)
    for idx1, x in F1.items():
        legs = by_legs[idx1[0]]
        r1 = idx1[1:]
        x = w * x
        for idx2, y in F2.items():
            found = legs[idx2[0]]
            if not found:
                continue
            rest = r1 + idx2[1:]
            if permute is not None:
                rest = permute(rest)
            xy = x * y
            for i, c in found:
                key = (i,) + rest
                out[key] = out.get(key, 0) + c * xy


class _IntConstants:
    """An algebra's kernel constants as ints: its ``product_by_output`` and
    ``coproduct_by_legs`` views with every constant times ``scale``, the lcm
    of their denominators, so the kernel operators run on them as they run
    on the algebra."""

    def __init__(self, A: FrobeniusAlgebra):
        by_output, by_legs = A.product_by_output, A.coproduct_by_legs
        self.scale = D = math.lcm(*(c.denominator for terms in by_output for _, _, c in terms),
                                  *(c.denominator for row in by_legs for terms in row for _, c in terms))
        self.product_by_output = tuple(
            tuple((i, j, c.numerator * (D // c.denominator)) for i, j, c in terms)
            for terms in by_output)
        self.coproduct_by_legs = tuple(
            tuple(tuple((i, c.numerator * (D // c.denominator)) for i, c in terms) for terms in row)
            for row in by_legs)


def _int_form(tensor: dict):
    """(den, {index tuple: int}) with tensor[t] = ints[t] / den, den the lcm
    of the denominators of the tensor's values: a base case or a tensor read
    from a cache file, as a build reads its children."""
    den = math.lcm(*(v.denominator for v in tensor.values()))
    return den, {idx: v.numerator * (den // v.denominator) for idx, v in tensor.items()}


class CutJoinTable:
    """Memoized sparse decorated counts over one algebra, reduced by cut and
    join; over the trivial algebra they are the scalar counts.

    A family subclass supplies ``_validate(g, n, mu)``, returning the
    checked profile; ``_vanishes(g, mu)``, a symmetric rule checked before
    the memo and before a child is read, so that zero profiles are never
    stored or read; ``_base_case(g, mu)``, the tensor of a profile that is
    not reduced, else None; ``_joins(m1, mj, stable)``, the (child degree,
    weight) pairs for absorbing a boundary of degree mj into the
    distinguished one, where ``stable`` says whether the child, of type
    (g, n - 1), has 2g - 2 + (n - 1) > 0; ``_cuts(m1)``, the (degree a,
    degree b, weight) triples for cutting the distinguished boundary, which
    hold (b, a, weight) beside every (a, b, weight), since a build runs
    only a <= b and counts the mirror's weight as equal; and
    ``_split_genera(g, mu1, mu2)``, the genera g1 in 0..g at which neither
    half, (g1, mu1) nor (g - g1, mu2), of a split of a profile that does
    not vanish vanishes itself.  It may override ``stable_splits``.
    """

    degree_column = "mu"
    stable_splits = False  # do split terms skip children with 2g - 2 + n <= 0?

    def __init__(self, algebra: FrobeniusAlgebra = TRIVIAL):
        self.algebra = algebra
        self._tensors = {}
        # the int form of every tensor built, or stored and read as a child,
        # kept beside its Fraction tensor for the life of the table (see ``_tensor``)
        self._ints = {}
        self._work, self._request = 0, None

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
        mu = self._validate(g, len(mu) if n is None else n, mu)
        check_decorations(self.algebra, vs, len(mu))
        ordered = tuple(sorted(mu, reverse=True))
        tensor = self._read(g, ordered, mu)
        if not tensor:
            return _ZERO
        if ordered != mu:
            # the decorations, not the tensor, go to the memoized order;
            # the sort is stable, so equal degrees keep their order
            vs = [vs[p] for p in sorted(range(len(mu)), key=mu.__getitem__, reverse=True)]
        return contract(tensor, vs)

    def untwisted(self, g: int, mu: Sequence[int], n: Optional[int] = None) -> Fraction:
        """The scalar count, read off the trivial algebra's table at the
        index tuple (0, .., 0); a given n is checked against the length of
        mu.  A table over another algebra answers from the shared trivial
        table of its family."""
        if self.algebra is not TRIVIAL:
            return shared(type(self), TRIVIAL).untwisted(g, mu, n)
        mu = self._validate(g, len(mu) if n is None else n, mu)
        return self._read(g, tuple(sorted(mu, reverse=True)), mu).get((0,) * len(mu), _ZERO)

    def _read(self, g: int, mu: Tuple[int, ...], asked: Sequence[int]):
        """The tensor of (g, mu), mu in decreasing order: the memoized one,
        else {} on a vanishing profile, else built by ``_lookup``."""
        tensor = self._tensors.get((g, mu))
        if tensor is None:
            tensor = {} if self._vanishes(g, mu) else self._lookup(g, mu, asked)
        return tensor

    def _lookup(self, g: int, mu: Tuple[int, ...], asked: Sequence[int]):
        """The tensor of (g, mu); ``asked`` is the profile as the caller
        gave it, which a budget error names."""
        self._work, self._request = 0, (g, list(asked))
        try:
            self._tensor(g, mu)
        except RecursionError:
            msg = "recursion too deep for profile g=%d, mu=%s" % (g, list(asked))
            raise BudgetError(msg) from None
        return self._tensors[(g, mu)]

    def _refuse(self):
        """Raise the budget error that names the request."""
        g, mu = self._request
        raise BudgetError("profile g=%d, %s=%s needs more than %d child tensors"
                          % (g, self.degree_column, mu, CUTJOIN_WORK_BUDGET))

    @cached_property
    def _constants(self):
        """The algebra's kernel constants as ints, built on the first build."""
        return _IntConstants(self.algebra)

    def _tensor(self, g: int, mu: Tuple[int, ...]):
        """The int form (den, {index tuple: int}) of the tensor of the
        profile (g, mu), which does not vanish, with its slots in the order
        of mu; the tensor itself is memoized on the sorted profile.

        A build reduces slot 0 by the kernel operators.  It gathers its
        terms first, each an operator, its nonempty int child tensors and
        its weight; a child the vanishing rule zeroes is never read, and
        any other is read once, into ``read``.  A cut runs only when a <=
        b: a loop term or a split term then stands for itself and its
        mirror at twice the weight, except when it is its own mirror.  At
        a = b the mirror of the split (g1, r1 | g - g1, r2) is a split of
        the same cut, and the one kept has the lower genus g1 or, at equal
        genera, boundary 0 of the rest in r1.  ``_work`` counts each child
        or split subset considered and each child read.

        The operators then run on the int constants with each weight
        scaled to one denominator L, the lcm over the terms of (weight
        denominator) x (constant scale) x (child denominators), so the sum
        holds L times the tensor in ints.  The build stays in this method,
        so that each level of the recursion costs one Python frame."""
        self._work += 1
        if self._work > CUTJOIN_WORK_BUDGET:
            self._refuse()
        canon = tuple(sorted(mu, reverse=True))
        key = (g, canon)
        form = self._ints.get(key)
        if form is None:
            out = self._tensors.get(key)
            if out is None and (out := self._base_case(g, canon)) is not None:
                self._tensors[key] = out
            if out is not None:
                form = _int_form(out)
            else:
                vanishes, m1, rest = self._vanishes, canon[0], canon[1:]
                terms = []  # (denominator, weight, operator, int child tensors, other arguments)
                read = {}  # (genus, profile) -> int form of each child this build has read
                # joins: boundary j is absorbed, the decorations multiply
                stable = 2 * g - 3 + len(canon) > 0
                for j, mj in enumerate(rest):
                    others = rest[:j] + rest[j + 1 :]
                    for c, w in self._joins(m1, mj, stable):
                        self._work += 1
                        if not vanishes(g, child := (c,) + others):
                            den, T = read.get(k := (g, child)) or read.setdefault(
                                k, self._tensor(g, child))
                            if T:
                                terms.append((den, w, m_star_contract, (T, j + 2), {}))
                # loops and splits: the distinguished decoration is coproduced; a
                # cut (a, b) runs for itself and its mirror (b, a), a < b
                halves = [(tuple(rest[t] for t in I), tuple(rest[t] for t in J), order)
                          for I, J, order in _splits(len(rest))]
                for a, b, w in self._cuts(m1):
                    if a > b:
                        continue
                    w2 = 2 * w
                    if g:
                        self._work += 1
                        # no other child has n + 1 boundaries, so this one is read once
                        if not vanishes(g - 1, child := (a, b) + rest):
                            den, T = self._tensor(g - 1, child)
                            if T:
                                terms.append((den, w if a == b else w2, delta_star_contract,
                                              (T,), {}))
                    for r1, r2, order in halves:
                        self._work += 1
                        mu1, mu2 = (a,) + r1, (b,) + r2
                        for g1 in self._split_genera(g, mu1, mu2):
                            weight = w2
                            if a == b and 2 * g1 >= g:
                                # the mirror (g - g1, r2) runs instead unless g1 is the
                                # lower genus or, at equal genera, r1 holds boundary 0; a
                                # split of m1 alone into equal genera is its own mirror
                                if 2 * g1 > g or rest and order[0] >= len(r1):
                                    continue
                                if not rest:
                                    weight = w
                            if self.stable_splits and min(2 * g1 + len(mu1),
                                                          2 * (g - g1) + len(mu2)) < 3:
                                continue
                            den1, T1 = read.get(k := (g1, mu1)) or read.setdefault(
                                k, self._tensor(g1, mu1))
                            if not T1:
                                continue
                            den2, T2 = read.get(k := (g - g1, mu2)) or read.setdefault(
                                k, self._tensor(g - g1, mu2))
                            if T2:
                                terms.append((den1 * den2, weight, delta_star_split, (T1, T2),
                                              {"order": order}))
                if self._work > CUTJOIN_WORK_BUDGET:
                    self._refuse()
                M = math.lcm(*(w.denominator * den for den, w, _, _, _ in terms))
                constants, acc = self._constants, {}
                for den, w, operator, children, other in terms:
                    operator(constants, *children, **other, out=acc,
                             w=w.numerator * (M // (w.denominator * den)))
                L = M * constants.scale
                common = math.gcd(L, *acc.values())
                den, ints = L // common, {idx: v // common for idx, v in acc.items() if v}
                self._tensors[key] = {idx: Fraction(v, den) for idx, v in ints.items()}
                form = den, ints
            self._ints[key] = form
        den, ints = form
        if canon == mu or not ints:
            return form
        # canonical slot t holds position order[t]; equal degrees keep their order
        order = sorted(range(len(mu)), key=mu.__getitem__, reverse=True)
        permute = _reorder(tuple(sorted(range(len(mu)), key=order.__getitem__)))
        return den, {permute(cidx): v for cidx, v in ints.items()}

    # -- export ----------------------------------------------------------------

    def rows(self):
        """(g, mu, decor, value) for every memoized nonzero entry, sorted;
        decor is the entry's basis index tuple."""
        return sorted(
            (g, mu, idx, v) for (g, mu), T in self._tensors.items() for idx, v in T.items()
        )
