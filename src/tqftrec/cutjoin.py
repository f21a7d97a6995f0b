"""One memoized cut-and-join engine for the counting recursions.

Each count is a multilinear functional of Frobenius-algebra decorations,
one per boundary, stored as a sparse tensor from basis index tuples to
exact rationals, held as its int form (den, {index tuple: nonzero int}).
A profile (g, mu) is reduced on its distinguished boundary, the first
slot of the profile sorted in decreasing order, by three TQFT kernel
operators, each adding w times its result into the dict it is given
(which may then hold zeros): ``m_star_contract`` for a join, which
absorbs another boundary and multiplies the two decorations through the
product view; ``delta_star_contract`` for a loop (genus g - 1) and
``delta_star_split`` for a split (genera g1 + g2 = g), which cut the
boundary in two and route its decoration through the coproduct view.

A build first gathers its terms, reading each distinct child tensor it
needs once.  A child the family's vanishing rule zeroes is never read, and
a split is tried only at the genera the family's ``_split_genera`` yields,
those at which the split contributes.  A cut (a, b) and its mirror (b, a)
give equal loop terms, and a split and its mirror, the split with its two
halves swapped, give equal split terms: the counts are symmetric in their
boundaries, and the coproduct is cocommutative, Delta_i^{ab} =
Delta_i^{ba}, because every algebra is checked at construction to have a
commutative product and a symmetric pairing.  So each such pair runs once,
with the two weights summed.  The build streams: it reads each child as
its term comes up, so a deep descent holds only the terms of the cuts
already passed; the degrees of each split's halves are taken from the
profile by itemgetters cached per boundary count, in ``_halves``, which
a build asks for at its first cut, and only when the work budget left
pays for the 2^r splits that cut considers; a build with no cut asks for
none.  It then runs the operators in Python ints, on the children's int
forms and on the algebra's constants scaled to ints (``int_constants``,
one cached view per algebra, which its amplitude memo shares), with
every weight scaled to one denominator for the whole build, and stores
the int form it computed; a base case or a loaded tensor goes through
``exact``'s ``_int_form`` once.  Each level of the recursion costs one
Python frame, which bounds the depth of a profile that can be built.

Every table is over an algebra: the scalar counts are the table over the
one-dimensional trivial algebra, ``TRIVIAL``.  ``bmodel`` sums its
bracket on the coproduct legs and contracts it with
``delta_star_contract`` on the algebra's ``int_constants``, its Laurent
maps held as int forms as the tensors are.

Tensors are memoized on the profile sorted in decreasing order, which the
permutation symmetry of the counts justifies: a query reorders its
decorations into that order, and a child tensor is realigned to the order
its parent asks for.  Both orders come from one place, the cached facts
of ``profile``, for reads and builds alike.  An entry is stored only when
complete, and a profile the family's vanishing rule zeroes is never
stored.

Every query, scalar or decorated, goes through one read, ``_read``,
which probes the table's read index, a bounded dict beside the memo
keyed on the genus and the degrees as asked (a tuple, or a list as its
tuple).  Such a key equals a stored one only when its numbers equal
ints, so a hit needs no check of them.  An entry holds the boundary
count, the reordering from the asked order to the memoized one, and a
reference to the memo's own int form, or None for a profile the
vanishing rule zeroes; the memo stays the one store of tensors.  A warm
read is one probe of the index and a call of
``frobenius.check_decorations``, the one rule for a decoration list,
which ``omega_tqft`` follows too and which runs on every call.  A miss
runs every check: ``_validate``, the one profile check of every family,
then the decorations, then the memo, the vanishing rule and a build.
``_validate`` reads the genus, the boundary count and each degree by one
rule, ``exact._as_int``, which reads 4.0 as 4 and refuses 4.5 rather
than truncating it; then it checks the genus, the boundary count and the
length, then the family's own rule through its ``_check`` hook: the
Catalan and lattice counts' nonnegative degrees, the lattice's refusal
of (0,1).  Only a request that passed them is entered, so an invalid one
raises on every call; an n that does not match an entry's boundary count
misses, and ``_validate`` refuses it.  ``_validate`` takes its facts
from ``profile``, which caches on the int degrees, in a bounded cache
that holds no table, the same in decreasing order, the itemgetter that
takes the asked order to it and the one that takes it back, so that the
tables, checks and builds that ask for the same degrees order them once.
A list of basis vectors is read at its index tuple, put in the memoized
order, making a Fraction only for a nonzero entry; any other list goes
through ``contract``, the engine's one contraction, which walks the
tensor's ints.  A scalar count is the trivial table's read at index 0,
the trivial algebra's unit, with no decoration to check.
``omega_tqft``, the reference the counts are checked against, shares no
contraction with the engine.

Every table the package answers from is built once, by ``shared``: one
per family and algebra, the scalar counts living in ``shared(family,
TRIVIAL)``.  ``shared.cache_clear()`` empties them all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import itemgetter
from typing import Optional, Sequence, Tuple

from .exact import BudgetError, _as_int, _int_form
from .frobenius import AlgebraElement, FrobeniusAlgebra, check_decorations, trivial_algebra

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
_SCALAR = object()  # the decorations of ``untwisted``'s read: index 0, none to check

# bounded: entries of one table's read index, each (g, asked degree tuple)
# -> (boundary count, reordering, the memo's own int form or None for a
# vanishing profile), the oldest going first when it is full, since a sweep
# may ask for any number of degree tuples.  An entry holds references, not
# tensors: 4096 of them take about 1.5 MB beside the memo, their asked
# tuples included.  The `recursions` benchmark's queries fill 2177 entries
# over ten tables, 676 at most in one (the scalar Catalan table).
READ_INDEX_SIZE = 4096


def contract(form: tuple, vs: Sequence[AlgebraElement]) -> Fraction:
    """The multilinear functional held as the int form (den, {basis index
    tuple: int}) of a sparse tensor evaluated on one decoration per slot:
    the tensor's ints are walked, so dense decorations never expand to
    dim^n tuples, and summed over a running common denominator.  One
    Fraction is built, on return."""
    scale, tensor = form
    num, den = 0, 1
    rows = [v.coeffs for v in vs]
    for idx, n in tensor.items():
        d = 1
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
    return Fraction(num, den * scale)


# unbounded: one table per family and algebra a process asks for, which
# ``shared.cache_clear()`` empties
@lru_cache(maxsize=None)
def shared(family, algebra: FrobeniusAlgebra):
    """The one table of a family over an algebra, built on first use; equal
    algebras are one interned object, so they share it, and the scalar
    counts are ``shared(family, TRIVIAL)``.  The algebra is required and
    positional, so that equal requests meet in one entry."""
    return family(algebra)


def _picker(positions: Tuple[int, ...]):
    """The map taking a tuple t to (t[p] for p in positions), as a tuple
    also for fewer than two positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return itemgetter(slice(p, p + 1))
    return itemgetter(slice(0))


# unbounded: one entry per boundary count r asked, each of 2^r splits; the
# engine asks at a build's first cut, and only when the work budget left pays
# for the 2^r splits, so r stays below log2(CUTJOIN_WORK_BUDGET); the B-model
# asks for r = n - 1 < n, which its own budget bounds
@lru_cache(maxsize=None)
def _halves(r: int):
    """Ways to share r boundaries between two halves I and J, as (take I,
    take J, order): the takes map the r other degrees of a profile to those
    of each half, and boundary t lands in slot order[t] of I + J, the order
    delta_star_split takes."""
    return [(_picker(I), _picker(J), tuple((I + J).index(t) for t in range(r)))
            for size in range(r + 1) for I in combinations(range(r), size)
            for J in (tuple(t for t in range(r) if t not in I),)]


@lru_cache(maxsize=4096)  # bounded: profiles with many distinct degrees have many orders
def _reorder(perm: Tuple[int, ...]):
    """The map taking an index tuple t to (t[p] for p in perm), or None
    when perm is the identity."""
    if perm == tuple(range(len(perm))):
        return None
    return itemgetter(*perm)  # perm has two or more entries, so this gives tuples


@lru_cache(maxsize=4096)  # bounded: a sweep may ask for any number of degree tuples
def _profile(ints: Tuple[int, ...]):
    # the sort is stable, so equal degrees keep their order: canonical slot t
    # holds asked position order[t], and asked position p canonical slot back[p]
    order = tuple(sorted(range(len(ints)), key=ints.__getitem__, reverse=True))
    permute = _reorder(order)
    if permute is None:
        return ints, ints, None, None
    back = tuple(sorted(range(len(ints)), key=order.__getitem__))
    return ints, permute(ints), permute, _reorder(back)


def profile(mu: Sequence[int]):
    """(ints, ordered, permute, realign) for a profile as it is asked: its
    degrees read as ints by ``exact._as_int``, the same in decreasing order,
    the map taking a tuple in the asked order to the decreasing one (equal
    degrees keep their order), and its inverse, taking a tuple in the
    decreasing order back to the asked one; both maps are None when the two
    orders agree.  Cached on the int degrees, so that each distinct degree
    tuple is put in order once, whichever table, check or build asks for it
    (a table's read index misses once per table, ``amodel.twisted_dessin``
    checks its degrees on every call, and ``_tensor`` orders each profile it
    is asked for from here); the cache holds no table."""
    # a tuple of ints is what the rule reads it as, so only other degrees go through it
    if type(mu) is not tuple or not all(type(m) is int for m in mu):
        mu = tuple(map(_as_int, mu))
    return _profile(mu)


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


class CutJoinTable:
    """Memoized sparse decorated counts over one algebra, reduced by cut and
    join; over the trivial algebra they are the scalar counts.

    A family subclass supplies ``_vanishes(g, mu)``, a symmetric rule
    checked before the memo and before a child is read, so that zero
    profiles are never stored or read; ``_base_case(g, mu)``, the tensor of
    a profile that is not reduced, else None; ``_joins(m1, mj, stable)``,
    the (child degree, weight) pairs for absorbing a boundary of degree mj
    into the distinguished one, where ``stable`` says whether the child, of
    type (g, n - 1), has 2g - 2 + (n - 1) > 0; ``_cuts(m1)``, the
    (degree a, degree b, weight) triples for cutting the distinguished
    boundary, which hold (b, a, weight) beside every (a, b, weight), since a
    build runs only a <= b and counts the mirror's weight as equal; and
    ``_split_genera(g, mu1, mu2)``, the genera g1 in 0..g at which the
    split into (g1, mu1) and (g - g1, mu2) contributes, by a rule that
    does not change when the halves swap.  It may add its own rule for a
    request in ``_check(g, checked)``, which ``_validate`` runs after the
    engine's checks on every read that misses the read index.
    """

    degree_column = "mu"

    def __init__(self, algebra: FrobeniusAlgebra = TRIVIAL):
        self.algebra = algebra
        self._tensors = {}  # the one memo: sorted profile -> int form of its tensor
        # (g, asked degrees) -> (n, permute, memo's int form or None); see READ_INDEX_SIZE
        self._reads = {}
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
        return self._read(g, mu, n, vs)

    def untwisted(self, g: int, mu: Sequence[int], n: Optional[int] = None) -> Fraction:
        """The scalar count: index 0 of the family's shared trivial table; a
        given n is checked as for ``twisted``."""
        table = self if self.algebra is TRIVIAL else shared(type(self), TRIVIAL)
        return table._read(g, mu, n, _SCALAR)

    def _read(self, g: int, mu: Sequence[int], n: Optional[int], vs) -> Fraction:
        """The one read: a probe of the read index, and on a miss
        ``_validate``, the decorations and the entry, in that order; a hit
        checks the decorations too.  ``untwisted``'s ``_SCALAR`` has none to
        check and reads index 0.  Basis vectors read the int at their indices
        in the memoized order, making a Fraction only for a nonzero entry;
        other lists are reordered and contracted."""
        key = entry = None
        if type(mu) is tuple or type(mu) is list:
            try:
                entry = self._reads.get(key := (g, tuple(mu)))
            except TypeError:  # an unhashable genus or degree, which _validate refuses
                key = None
        if entry is None or n is not None and n != entry[0]:
            g, checked = self._validate(g, len(mu) if n is None else n, mu)
            if vs is not _SCALAR:
                idx = check_decorations(self.algebra, vs, len(checked[0]))
            entry = self._enter(key, g, checked)
        elif vs is not _SCALAR:
            idx = check_decorations(self.algebra, vs, entry[0])
        size, permute, form = entry
        if form is None:
            return _ZERO
        if vs is _SCALAR:
            num = form[1].get((0,) * size)
        elif None in idx:
            return contract(form, vs if permute is None else permute(vs))
        else:
            num = form[1].get(tuple(idx) if permute is None else permute(idx))
        return _ZERO if num is None else Fraction(num, form[0])

    def _validate(self, g: int, n: int, mu: Sequence[int]):
        """(g, facts) for a request with a genus of at least 0, n >= 1
        degrees and the family's ``_check``: the genus as an int and the
        ``profile`` facts (ints, ordered, permute, realign) of the degrees.
        The genus, n and every degree are read by ``exact._as_int``, the one
        rule, before anything is checked or cached, so that 4.0 reads as 4
        and 4.5 is refused, cold and warm alike."""
        g, n = _as_int(g), _as_int(n)
        if g < 0:
            raise ValueError("genus must be non-negative, got %d" % g)
        if n < 1:
            raise ValueError("need at least one boundary, got n=%d" % n)
        checked = profile(mu)
        if len(checked[0]) != n:
            raise ValueError("profile length %d does not match n=%d" % (len(checked[0]), n))
        self._check(g, checked)
        return g, checked

    def _check(self, g: int, checked):
        """The family's own rule, raising ValueError; none by default."""

    def _enter(self, key, g: int, checked):
        """The entry (n, permute, form) of a profile checked by
        ``_validate``, its int genus and ``profile`` facts given: the
        boundary count, the reordering into the memoized order and the
        memo's own int form, built here if need be, or None when the
        vanishing rule zeroes the profile.  The memo is read before the
        vanishing rule.  The entry is stored under key unless key is None,
        the oldest one going first when the index is full."""
        ints, ordered, permute, _ = checked
        form = self._tensors.get((g, ordered))
        if form is None and not self._vanishes(g, ordered):
            form = self._lookup(g, ordered, ints)
        entry = len(ints), permute, form
        if key is not None:
            reads = self._reads
            if len(reads) >= READ_INDEX_SIZE:
                del reads[next(iter(reads))]
            reads[key] = entry
        return entry

    def _lookup(self, g: int, mu: Tuple[int, ...], asked: Sequence[int]):
        """The int form of the tensor of (g, mu), mu in decreasing order;
        ``asked`` is the profile as the caller gave it, which a budget
        error names."""
        self._work, self._request = 0, (g, list(asked))
        try:
            return self._tensor(g, mu)
        except RecursionError:
            msg = "recursion too deep for profile g=%d, mu=%s" % (g, list(asked))
            raise BudgetError(msg) from None

    def _refuse(self):
        """Raise the budget error that names the request."""
        g, mu = self._request
        raise BudgetError("profile g=%d, %s=%s considers more than %d children"
                          % (g, self.degree_column, mu, CUTJOIN_WORK_BUDGET))

    def _tensor(self, g: int, mu: Tuple[int, ...]):
        """The int form (den, {index tuple: int}) of the tensor of the
        profile (g, mu), which does not vanish, with its slots in the order
        of mu; the int form is memoized on the sorted profile, and is
        realigned to mu by the maps of ``_profile``, the one ordering.

        A build reduces slot 0 by the kernel operators.  It gathers its
        terms first, each an operator, its nonempty int child tensors and
        its weight; a child the vanishing rule zeroes is never read, and
        any other is read once, into ``read``.  A cut runs only when a <=
        b: a loop term or a split term then stands for itself and its
        mirror at twice the weight, except when it is its own mirror.  At
        a = b the mirror of the split (g1, r1 | g - g1, r2) is a split of
        the same cut, and the one kept has the lower genus g1 or, at equal
        genera, boundary 0 of the rest in r1.  ``_work`` counts each child
        or split subset considered and each child read; the first cut
        considers all 2^r splits of the r other boundaries, so the build
        refuses before it asks ``_halves`` for them unless the budget left
        pays for that many.

        The operators then run on the int constants with each weight
        scaled to one denominator L, the lcm over the terms of (weight
        denominator) x (constant scale) x (child denominators), so the sum
        holds L times the tensor in ints; divided by their gcd, they are
        the stored form.  The build stays in this method, so that each
        level of the recursion costs one Python frame."""
        self._work += 1
        if self._work > CUTJOIN_WORK_BUDGET:
            self._refuse()
        _, canon, _, realign = _profile(mu)
        key = (g, canon)
        form = self._tensors.get(key)
        if form is None:
            out = self._base_case(g, canon)
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
                halves = None
                for a, b, w in self._cuts(m1):
                    if a > b:
                        continue
                    if halves is None:
                        # the first cut considers each of the 2^r splits, so a
                        # budget that cannot pay for them refuses before they are built
                        if 1 << len(rest) > CUTJOIN_WORK_BUDGET - self._work:
                            self._refuse()
                        halves = [(take1(rest), take2(rest), order)
                                  for take1, take2, order in _halves(len(rest))]
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
                constants, acc = self.algebra.int_constants, {}
                for den, w, operator, children, other in terms:
                    operator(constants, *children, **other, out=acc,
                             w=w.numerator * (M // (w.denominator * den)))
                L = M * constants.scale
                common = math.gcd(L, *acc.values())
                form = L // common, {idx: v // common for idx, v in acc.items() if v}
            self._tensors[key] = form
        den, ints = form
        if realign is None or not ints:
            return form
        return den, {realign(cidx): v for cidx, v in ints.items()}

    # -- export ----------------------------------------------------------------

    def rows(self):
        """(g, mu, decor, value) for every memoized entry, sorted; decor is
        the entry's basis index tuple, and value its Fraction."""
        return sorted(
            (g, mu, idx, Fraction(v, den))
            for (g, mu), (den, T) in self._tensors.items() for idx, v in T.items()
        )
