"""Commutative Frobenius algebras and their surface amplitudes.

An algebra is built from exact structure tensors (product, pairing).
Construction derives the inverse pairing and the unit by Fraction
elimination, then the counit, the three-point tensor, the coproduct tensor
and the Euler element as sparse contractions: each sum runs over the
nonzero product constants of ``product_by_pair`` and the nonzero rows of
the pairing and its inverse, never over zero terms.  It then verifies every
axiom on every index tuple in lexicographic order, comparing both sides of
a law as a vector over its last indices, so an ``AxiomError`` names the
least failing witness.  Amplitudes Omega_{g,n}(v_1..v_n) = counit(v_1 ...
v_n e^g) where e is the Euler element.  The kernel operators Delta* and m*
that the cut-and-join engine builds its counts with live in
``tqftrec.cutjoin``.

Algebras are interned on their labels and normalized tensors: building
one that exists returns that instance, which passed the axiom checks and
is never mutated.  So equality and hashing are identity, and every load,
copy or unpickling of an algebra shares its caches.

The algebra owns the data its consumers derive from the tensors, cached on
the instance:

- four sparse views holding only the nonzero structure constants:
  ``product_by_pair[i][j]`` lists (k, c) with c = product_tensor[i][j][k],
  ``product_by_output[k]`` lists (i, j, c), ``coproduct_by_input[i]`` lists
  (a, b, w) with w = coproduct_tensor[i][a][b], and
  ``coproduct_by_legs[a][b]`` lists (i, w).  Construction builds
  ``product_by_pair`` and ``coproduct_by_input``, which the derivation and
  the verification read; ``product_by_output`` and ``coproduct_by_legs``
  are built on first use;
- the basis vectors and the Euler powers e^g, as elements: e^0 with the
  algebra, any other e^g by square-and-multiply once asked for, keeping no
  power between.  ``basis``, ``unit_element`` (e^0), ``euler_element``
  (e^1) and ``euler_power`` return the cached element itself on every call;
- the amplitudes of basis tuples, keyed on (g, sorted basis indices): the
  product is commutative, so Omega_{g,n} depends only on the multiset of
  basis classes.  Each entry is filled by the e^g e_i ... chain when first
  asked for.

Caches hold only immutable values: ``AlgebraElement``s, tuples of
Fractions, and Fractions.  An element refuses attribute assignment, so
equal elements hash alike for their whole life, and it computes its
nonzero ``terms`` once, on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from typing import Sequence

from .exact import BudgetError, Rational, rat_from_str, rat_to_str

# Bits the coefficients of e^g may need, checked before any product.  With
# L x = x e, D clearing the denominators of the e_j c[i][j][k] and M = max_k
# sum_{i,j} |e_j c[i][j][k]|, D L is an integer matrix of infinity-norm at
# most D M and e^g = L^g unit, so e^g's numerators and denominators outgrow
# the unit's by at most g * b(A) bits, b(A) the bit length of D * ceil(M).
# S3 admits g <= 16666; e^16666 builds and prints in 17 ms on a 2-core host.
EULER_POWER_BITS = 100000


class AxiomError(ValueError):
    """A structure tensor violates a Frobenius-algebra axiom.

    ``axiom`` names the violated law; ``witness`` holds the offending
    basis indices (or None when the failure is global, e.g. a singular
    pairing).
    """

    def __init__(self, axiom: str, witness=None, detail: str = ""):
        self.axiom = axiom
        self.witness = witness
        msg = f"axiom violated: {axiom}"
        if witness is not None:
            msg += f" at {witness}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _frac(x) -> Fraction:
    if isinstance(x, str):
        return rat_from_str(x)
    return Fraction(x)


def _solve(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    """The unique X with a X = b, by Gauss-Jordan elimination over the
    rationals; None when a has rank below its column count or the system
    has no solution."""
    s = len(a[0])
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(s):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = [x / rows[col][col] for x in rows[col]]
        rows[col] = top
        for r, row in enumerate(rows):
            if r != col and row[col]:
                f = row[col]
                rows[r] = [x - f * y for x, y in zip(row, top)]
    if any(any(row[s:]) for row in rows[s:]):
        return None
    return [row[s:] for row in rows[:s]]


_ZERO = Fraction(0)


def _nonzero(vector) -> tuple:
    """((k, x), ...) for the nonzero entries x = vector[k]."""
    return tuple((k, x) for k, x in enumerate(vector) if x)


def _rows(matrix) -> tuple:
    """[i] -> ((k, x), ...): the nonzero entries of each row."""
    return tuple(map(_nonzero, matrix))


def _combine(terms, rows, s: int) -> list:
    """The dense vector of length s summing x * rows[k] over (k, x) in
    terms, where rows[k] lists the (m, y) pairs of its nonzero entries."""
    out = [_ZERO] * s
    for k, x in terms:
        for m, y in rows[k]:
            out[m] += x * y
    return out


_INTERNED = {}  # (labels, product, pairing) -> the algebra; entered once verified


class FrobeniusAlgebra:
    """Finite-dimensional commutative Frobenius algebra over the rationals."""

    def __new__(cls, dim: int, labels: Sequence[str], product_tensor: Sequence, pairing: Sequence):
        if dim < 1:
            raise ValueError("dim must be positive")
        if len(labels) != dim:
            raise ValueError("label count does not match dim")
        labels = tuple(str(l) for l in labels)
        product_tensor = tuple(tuple(tuple(_frac(product_tensor[i][j][k]) for k in range(dim))
                                     for j in range(dim)) for i in range(dim))
        pairing = tuple(tuple(_frac(pairing[i][j]) for j in range(dim)) for i in range(dim))
        key = (labels, product_tensor, pairing)
        self = _INTERNED.get(key)
        if self is None:
            self = object.__new__(cls)
            self.dim, self.labels, self.product_tensor, self.pairing = dim, *key
            self._derive()
            self._verify()
            self._euler_powers = {0: AlgebraElement(self, self.unit)}  # g -> e^g; euler_power fills it
            self._amplitudes = {}  # (g, sorted basis indices) -> Omega; ``_amplitude`` fills it
            self = _INTERNED.setdefault(key, self)  # the first one registered wins
        return self

    def __reduce__(self):
        return FrobeniusAlgebra, (self.dim, self.labels, self.product_tensor, self.pairing)

    # -- construction ------------------------------------------------------

    def _derive(self) -> None:
        s = self.dim
        c = self.product_tensor
        eta = self.pairing
        if any(eta[i][j] != eta[j][i] for i in range(s) for j in range(i)):
            raise AxiomError("symmetric pairing")
        inv = _solve(eta, [[Fraction(int(i == j)) for j in range(s)] for i in range(s)])
        if inv is None:
            raise AxiomError("degenerate pairing")
        self.pairing_inverse = tuple(tuple(row) for row in inv)
        # unit: solve sum_i u_i c[i][j][k] = delta_{jk}; a unit is unique
        # when it exists, so a system without exactly one solution has none
        u = _solve([[c[i][j][k] for i in range(s)] for j in range(s) for k in range(s)],
                   [[Fraction(int(j == k))] for j in range(s) for k in range(s)])
        if u is None:
            raise AxiomError("unit existence")
        self.unit = tuple(x for (x,) in u)
        eta_rows = _rows(eta)
        self.counit = tuple(_combine(_nonzero(self.unit), eta_rows, s))
        pairs = self.product_by_pair
        # three_point[i][j][k] = sum_l c[i][j][l] eta[l][k]
        self.three_point = tuple(
            tuple(tuple(_combine(terms, eta_rows, s)) for terms in plane) for plane in pairs
        )
        # coproduct[i][a][b] = sum_{k,l} three_point[i][k][l] inv[k][a] inv[l][b];
        # the pairing in three_point cancels against the inverse on the b leg,
        # exactly, leaving sum_k inv[k][a] c[i][k][b]
        inv_cols = _rows(zip(*inv))
        self.coproduct_tensor = tuple(
            tuple(tuple(_combine(inv_cols[a], plane, s)) for a in range(s)) for plane in pairs
        )
        # Euler element: multiply the two coproduct legs of the unit
        e = [_ZERO] * s
        for i, x in _nonzero(self.unit):
            for a, b, w in self.coproduct_by_input[i]:
                for k, y in pairs[a][b]:
                    e[k] += x * w * y
        self.euler = tuple(e)
        # b(A) of EULER_POWER_BITS, the bits e^g's coefficients may gain per genus
        D, rows = 1, [_ZERO] * s
        for (j, x), plane in iproduct(_nonzero(e), pairs):
            for k, y in plane[j]:
                D, rows[k] = math.lcm(D, (x * y).denominator), rows[k] + abs(x * y)
        self._euler_bits = (D * math.ceil(max(rows))).bit_length()

    def _verify(self) -> None:
        """Check every axiom on every index tuple, in lexicographic order,
        so that the first failure names the least witness.  Each law is
        compared as a vector over its last indices, built from the nonzero
        structure constants only."""
        s = self.dim
        c = self.product_tensor
        eta = self.pairing
        pairs = self.product_by_pair
        for i in range(s):
            for j in range(i + 1, s):
                if c[i][j] != c[j][i]:
                    raise AxiomError("commutativity", (i, j))
        # (e_i e_j) e_l against e_i (e_j e_l) over m; the product is now
        # known commutative, so e_k e_l is row k of pairs[l]
        for i in range(s):
            for j in range(s):
                for l in range(s):
                    if _combine(pairs[i][j], pairs[l], s) != _combine(pairs[j][l], pairs[i], s):
                        raise AxiomError("associativity", (i, j, l))
        # eta(e_i e_j, e_k) against eta(e_i, e_j e_k) over k
        phi = self.three_point
        for i in range(s):
            eta_i = eta[i]
            for j in range(s):
                for k in range(s):
                    right = sum((x * eta_i[l] for l, x in pairs[j][k] if eta_i[l]), _ZERO)
                    if phi[i][j][k] != right:
                        raise AxiomError("Frobenius compatibility", (i, j, k))
        # counit law: (counit x id) after coproduct is the identity
        D = self.coproduct_by_input
        for i in range(s):
            val = [_ZERO] * s
            for a, b, w in D[i]:
                val[b] += w * self.counit[a]
            for b in range(s):
                if val[b] != (1 if i == b else 0):
                    raise AxiomError("counit law", (i, b))
        # coproduct of a product factors through either side: the (a, b)
        # planes of sum_k c[i][j][k] D[k] and sum_x D[i][a][x] c[x][j]
        for i in range(s):
            for j in range(s):
                lhs = [_ZERO] * (s * s)
                for k, x in pairs[i][j]:
                    for a, b, w in D[k]:
                        lhs[a * s + b] += x * w
                rhs = [_ZERO] * (s * s)
                for a, x, w in D[i]:
                    for b, y in pairs[x][j]:
                        rhs[a * s + b] += w * y
                if lhs != rhs:
                    ab = next(n for n, (p, q) in enumerate(zip(lhs, rhs)) if p != q)
                    raise AxiomError("Frobenius relation", (i, j) + divmod(ab, s))
        # product recovered from coproduct and pairing: c[i][j][a] against
        # sum_b D[i][a][b] eta[b][j], over (j, a)
        eta_rows = _rows(eta)
        for i in range(s):
            rhs = [[_ZERO] * s for _ in range(s)]
            for a, b, w in D[i]:
                for j, y in eta_rows[b]:
                    rhs[j][a] += w * y
            for j in range(s):
                for a in range(s):
                    if c[i][j][a] != rhs[j][a]:
                        raise AxiomError("product from coproduct and pairing", (i, j, a))

    # -- sparse views and caches; construction builds product_by_pair and
    # coproduct_by_input, the rest wait for first use -----------------------

    @cached_property
    def product_by_pair(self):
        """[i][j] -> ((k, c), ...): the nonzero c = product_tensor[i][j][k]."""
        return tuple(_rows(plane) for plane in self.product_tensor)

    @cached_property
    def product_by_output(self):
        """[k] -> ((i, j, c), ...): the nonzero c = product_tensor[i][j][k]."""
        by_k = [[] for _ in range(self.dim)]
        for i, plane in enumerate(self.product_by_pair):
            for j, terms in enumerate(plane):
                for k, c in terms:
                    by_k[k].append((i, j, c))
        return tuple(map(tuple, by_k))

    @cached_property
    def coproduct_by_input(self):
        """[i] -> ((a, b, w), ...): the nonzero w = coproduct_tensor[i][a][b]."""
        return tuple(
            tuple((a, b, w) for a, row in enumerate(plane) for b, w in enumerate(row) if w)
            for plane in self.coproduct_tensor
        )

    @cached_property
    def coproduct_by_legs(self):
        """[a][b] -> ((i, w), ...): the nonzero w = coproduct_tensor[i][a][b]."""
        s = self.dim
        by_ab = [[[] for _ in range(s)] for _ in range(s)]
        for i, terms in enumerate(self.coproduct_by_input):
            for a, b, w in terms:
                by_ab[a][b].append((i, w))
        return tuple(tuple(map(tuple, row)) for row in by_ab)

    @cached_property
    def _basis(self):
        """The basis vectors, as elements."""
        one, zero = Fraction(1), Fraction(0)
        return tuple(AlgebraElement(self, [one if i == j else zero for j in range(self.dim)])
                     for i in range(self.dim))

    # -- elements -----------------------------------------------------------

    def element(self, coeffs: Sequence) -> "AlgebraElement":
        return AlgebraElement(self, coeffs)

    def basis(self, i: int) -> "AlgebraElement":
        return self._basis[i]

    def unit_element(self) -> "AlgebraElement":
        return euler_power(self, 0)

    def euler_element(self) -> "AlgebraElement":
        return euler_power(self, 1)

    def __repr__(self):
        return f"FrobeniusAlgebra(dim={self.dim}, labels={self.labels})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "labels": list(self.labels),
            "product": [
                [[rat_to_str(x) for x in row] for row in plane]
                for plane in self.product_tensor
            ],
            "pairing": [[rat_to_str(x) for x in row] for row in self.pairing],
        }


class AlgebraElement:
    """An immutable element of a Frobenius algebra: ``coeffs`` holds dim Fractions."""

    __slots__ = ("algebra", "coeffs", "_terms")

    def __init__(self, algebra: FrobeniusAlgebra, coeffs: Sequence):
        if len(coeffs) != algebra.dim:
            raise ValueError("coefficient vector length does not match dim")
        if all(type(x) is Fraction for x in coeffs):
            coeffs = coeffs if type(coeffs) is tuple else tuple(coeffs)
        else:
            coeffs = tuple(_frac(x) for x in coeffs)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def __reduce__(self):
        return AlgebraElement, (self.algebra, self.coeffs)

    @property
    def terms(self) -> tuple:
        """((i, c), ...) for the nonzero coefficients c = coeffs[i], computed
        on first use."""
        try:
            return self._terms
        except AttributeError:
            terms = _nonzero(self.coeffs)
            object.__setattr__(self, "_terms", terms)
            return terms

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def __repr__(self):
        terms = [
            f"{rat_to_str(c)}*{l}"
            for c, l in zip(self.coeffs, self.algebra.labels)
            if c != 0
        ]
        return " + ".join(terms) if terms else "0"


def _same_algebra(*elems) -> FrobeniusAlgebra:
    A = elems[0].algebra
    if any(e.algebra is not A for e in elems):
        raise ValueError("algebra mismatch")
    return A


def _multiply(A: FrobeniusAlgebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> list:
    """Coefficients of the product of two coefficient vectors, through the
    pair view of the product tensor."""
    out = [Fraction(0)] * A.dim
    pairs = A.product_by_pair
    for i, a in enumerate(x):
        if a:
            row = pairs[i]
            for j, b in enumerate(y):
                if b:
                    w = a * b
                    for k, c in row[j]:
                        out[k] += w * c
    return out


def product(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    A = _same_algebra(u, v)
    return AlgebraElement(A, _multiply(A, u.coeffs, v.coeffs))


def pairing(u: AlgebraElement, v: AlgebraElement) -> Rational:
    A = _same_algebra(u, v)
    return sum(
        (u.coeffs[i] * v.coeffs[j] * A.pairing[i][j]
         for i in range(A.dim) for j in range(A.dim)),
        Fraction(0),
    )


def _counit(A: FrobeniusAlgebra, x: Sequence[Fraction]) -> Rational:
    """The counit of a coefficient vector."""
    return sum((a * e for a, e in zip(x, A.counit) if a), Fraction(0))


def counit(v: AlgebraElement) -> Rational:
    return _counit(v.algebra, v.coeffs)


def three_point(u: AlgebraElement, v: AlgebraElement, w: AlgebraElement) -> Rational:
    A = _same_algebra(u, v, w)
    s = A.dim
    return sum(
        (u.coeffs[i] * v.coeffs[j] * w.coeffs[k] * A.three_point[i][j][k]
         for i in range(s) for j in range(s) for k in range(s)),
        Fraction(0),
    )


def coproduct(v: AlgebraElement):
    """Coefficient matrix of the coproduct of v on e_a (x) e_b."""
    A = v.algebra
    s = A.dim
    return [
        [
            sum((v.coeffs[i] * A.coproduct_tensor[i][a][b] for i in range(s)),
                Fraction(0))
            for b in range(s)
        ]
        for a in range(s)
    ]


def handle(v: AlgebraElement) -> AlgebraElement:
    """Multiply the two legs of the coproduct back together."""
    A = v.algebra
    out = [Fraction(0)] * A.dim
    for a, row in enumerate(coproduct(v)):
        for b, w in enumerate(row):
            if w:
                for k, c in A.product_by_pair[a][b]:
                    out[k] += w * c
    return AlgebraElement(A, out)


def euler_power(A: FrobeniusAlgebra, g: int) -> AlgebraElement:
    """e^g from the algebra's cache, built by square-and-multiply when first asked for."""
    power = A._euler_powers.get(g)
    if power is None:
        if g < 0:
            raise ValueError("g must be non-negative")
        if g * A._euler_bits > EULER_POWER_BITS:
            raise BudgetError("genus g=%d: e^g may need %d-bit coefficients, more than %d"
                              % (g, g * A._euler_bits, EULER_POWER_BITS))
        acc = A.euler
        for bit in bin(g)[3:]:  # the binary digits of g after the leading 1
            acc = _multiply(A, acc, acc)
            if bit == "1":
                acc = _multiply(A, acc, A.euler)
        power = A._euler_powers[g] = AlgebraElement(A, acc)
    return power


def _amplitude(A: FrobeniusAlgebra, g: int, idx: tuple) -> Fraction:
    """Omega_{g,n} on the basis tuple idx, from the algebra's memo."""
    key = (g, tuple(sorted(idx)))
    x = A._amplitudes.get(key)
    if x is None:
        acc = euler_power(A, g).coeffs
        for i in key[1]:
            acc = _multiply(A, acc, A._basis[i].coeffs)
        x = A._amplitudes[key] = _counit(A, acc)
    return x


def omega_tqft(A: FrobeniusAlgebra, g: int, n: int, vs: Sequence[AlgebraElement]) -> Rational:
    """Amplitude of a genus-g surface with n inputs.

    When each decoration has one nonzero term, the memoized amplitude of
    their basis tuple is scaled by the coefficients other than 1; otherwise
    the cached e^g has each decoration multiplied in through the pair view,
    so that dense decorations never expand to dim^n tuples, and the counit
    is taken."""
    if n < 1 or len(vs) != n:
        raise ValueError("need n >= 1 inputs")
    e_g = euler_power(A, g)
    _same_algebra(e_g, *vs)
    terms = [v.terms for v in vs]
    if math.prod(map(len, terms)) == 1:
        x = _amplitude(A, g, tuple([t[0][0] for t in terms]))
        for ((_, c),) in terms:
            if c != 1:
                x *= c
        return x
    acc = e_g.coeffs
    for v in vs:
        acc = _multiply(A, acc, v.coeffs)
    return _counit(A, acc)


def trivial_algebra() -> FrobeniusAlgebra:
    return FrobeniusAlgebra(1, ["1"], [[[1]]], [[1]])
