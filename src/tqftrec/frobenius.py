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
v_n e^g) where e is the Euler element.  ``omega_functional`` holds
Omega_{g,n} as a sparse tensor {basis index tuple: Fraction} with no zero
value, the form the cut-and-join engine stores its counts in; the kernel
operators Delta* and m* that the engine builds its counts with live in
``tqftrec.cutjoin``, and are checked against these tensors.

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
- the basis vectors, as coefficient tuples with their nonzero terms, and
  the Euler powers e^g as coefficient tuples, built on first use;
- the amplitudes of basis tuples, keyed on (g, sorted basis indices): the
  product is commutative, so Omega_{g,n} depends only on the multiset of
  basis classes.  Each entry is filled by the e^g e_i ... chain when first
  asked for.

Caches hold only immutable values: tuples of Fractions, and Fractions.
``basis``, ``euler_power`` and ``unit_element`` hand out fresh
``AlgebraElement``s that wrap the cached tuples without checking them
again, so no caller can change what a later call returns.  An element
computes its nonzero ``terms`` once, on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product as iproduct
from typing import Sequence

from .exact import BudgetError, Rational, rat_from_str, rat_to_str

# Euler-element products one request may compute to extend an algebra's
# cache of powers e^g; cached powers cost none.  The coefficients grow
# with g: over S3, on a 2-core host, e^5000 takes 0.16 s to build and has
# 7780-digit coefficients, and e^1500 takes 0.06 s.
EULER_POWER_BUDGET = 5000


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


class FrobeniusAlgebra:
    """Finite-dimensional commutative Frobenius algebra over the rationals."""

    def __init__(
        self,
        dim: int,
        labels: Sequence[str],
        product_tensor: Sequence,
        pairing: Sequence,
    ):
        if dim < 1:
            raise ValueError("dim must be positive")
        if len(labels) != dim:
            raise ValueError("label count does not match dim")
        self.dim = dim
        self.labels = tuple(str(l) for l in labels)
        self.product_tensor = tuple(
            tuple(tuple(_frac(product_tensor[i][j][k]) for k in range(dim))
                  for j in range(dim))
            for i in range(dim)
        )
        self.pairing = tuple(
            tuple(_frac(pairing[i][j]) for j in range(dim)) for i in range(dim)
        )
        self._derive()
        self._verify()
        self._euler_powers = [self.unit]  # e^0, e^1, ...; ``euler_power`` extends it
        self._amplitudes = {}  # (g, sorted basis indices) -> Omega; ``_amplitude`` fills it
        # the tensors are immutable tuples, so the hash is fixed
        self._hash = hash((self.dim, self.product_tensor, self.pairing))

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
        """(coefficient tuple, (that tuple, its nonzero terms)) of each basis
        vector."""
        one, zero = Fraction(1), Fraction(0)
        out = []
        for i in range(self.dim):
            coeffs = tuple(one if i == j else zero for j in range(self.dim))
            out.append((coeffs, (coeffs, ((i, one),))))
        return tuple(out)

    # -- elements -----------------------------------------------------------

    def element(self, coeffs: Sequence) -> "AlgebraElement":
        return AlgebraElement(self, coeffs)

    def basis(self, i: int) -> "AlgebraElement":
        return AlgebraElement._wrap(self, *self._basis[i])

    def unit_element(self) -> "AlgebraElement":
        return AlgebraElement._wrap(self, self.unit)

    def euler_element(self) -> "AlgebraElement":
        return AlgebraElement._wrap(self, self.euler)

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusAlgebra)
            and self.dim == other.dim
            and self.product_tensor == other.product_tensor
            and self.pairing == other.pairing
        )

    def __hash__(self):
        return self._hash

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
    __slots__ = ("algebra", "coeffs", "_terms")

    def __init__(self, algebra: FrobeniusAlgebra, coeffs: Sequence):
        if len(coeffs) != algebra.dim:
            raise ValueError("coefficient vector length does not match dim")
        self.algebra = algebra
        if all(type(x) is Fraction for x in coeffs):
            self.coeffs = coeffs if type(coeffs) is tuple else tuple(coeffs)
        else:
            self.coeffs = tuple(_frac(x) for x in coeffs)
        self._terms = None

    @classmethod
    def _wrap(cls, algebra: FrobeniusAlgebra, coeffs: tuple, terms: tuple = None):
        """An element over a tuple of dim Fractions that the algebra has
        already checked, taken as it is; ``terms``, when known, is the
        (coeffs, nonzero terms) pair that ``terms`` caches."""
        v = object.__new__(cls)
        v.algebra, v.coeffs, v._terms = algebra, coeffs, terms
        return v

    @property
    def terms(self) -> tuple:
        """((i, c), ...) for the nonzero coefficients c = coeffs[i], cached
        with the tuple they were read from, so that a reassigned
        ``coeffs`` is read again."""
        cached = self._terms
        if cached is None or cached[0] is not self.coeffs:
            cached = self._terms = (self.coeffs, _nonzero(self.coeffs))
        return cached[1]

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
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
    for e in elems[1:]:
        if e.algebra is not A and e.algebra != A:
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
    """e^g, from the algebra's cache of Euler powers."""
    if g < 0:
        raise ValueError("g must be non-negative")
    powers = A._euler_powers
    if g - len(powers) >= EULER_POWER_BUDGET:  # e^g needs g + 1 - len(powers) products
        raise BudgetError("genus g=%d needs more than %d Euler-element products"
                          % (g, EULER_POWER_BUDGET))
    while len(powers) <= g:
        powers.append(tuple(_multiply(A, powers[-1], A.euler)))
    return AlgebraElement._wrap(A, powers[g])


def _amplitude(A: FrobeniusAlgebra, g: int, idx: tuple) -> Fraction:
    """Omega_{g,n} on the basis tuple idx, from the algebra's memo; e^g must
    be cached already."""
    key = (g, tuple(sorted(idx)))
    x = A._amplitudes.get(key)
    if x is None:
        acc = A._euler_powers[g]
        for i in key[1]:
            acc = _multiply(A, acc, A._basis[i][0])
        x = A._amplitudes[key] = _counit(A, acc)
    return x


def omega_tqft(A: FrobeniusAlgebra, g: int, n: int, vs: Sequence[AlgebraElement]) -> Rational:
    """Amplitude of a genus-g surface with n inputs.

    When each decoration has one nonzero term, the memoized amplitude of
    their basis tuple is scaled by the coefficients other than 1.  While
    the product of the decorations' support sizes is at most n * dim, the
    memoized basis amplitudes are summed over the supports.  Otherwise, so
    that dense decorations never expand to dim^n tuples, the cached e^g has
    each decoration multiplied in through the pair view, and the counit is
    taken."""
    if n < 1 or len(vs) != n:
        raise ValueError("need n >= 1 inputs")
    e_g = euler_power(A, g)
    _same_algebra(e_g, *vs)
    terms = [v.terms for v in vs]
    size = math.prod(map(len, terms))
    if size == 1:
        x = _amplitude(A, g, tuple([t[0][0] for t in terms]))
        for ((_, c),) in terms:
            if c != 1:
                x *= c
        return x
    if size <= n * A.dim:
        total = Fraction(0)
        for combo in iproduct(*terms):
            x = _amplitude(A, g, tuple(i for i, _ in combo))
            for _, c in combo:
                if c != 1:
                    x *= c
            total += x
        return total
    acc = e_g.coeffs
    for v in vs:
        acc = _multiply(A, acc, v.coeffs)
    return _counit(A, acc)


def _sparse(terms: dict) -> dict:
    """terms without its zero values."""
    return {key: x for key, x in terms.items() if x}


def is_symmetric(F: dict) -> bool:
    """Whether the sparse tensor F takes one value on every permutation of
    each of its index tuples."""
    return all(F.get(perm) == x for key, x in F.items() for perm in permutations(key))


def omega_functional(A: FrobeniusAlgebra, g: int, n: int) -> dict:
    """Omega_{g,n} as a sparse tensor {basis index tuple: value}; for (0,1)
    the counit and for (0,2) the pairing, matching how the contraction
    identities fold the unstable cases in."""
    if (g, n) == (0, 1):
        return _sparse({(i,): x for i, x in enumerate(A.counit)})
    if (g, n) == (0, 2):
        return _sparse({(i, j): x for i, row in enumerate(A.pairing) for j, x in enumerate(row)})
    return _sparse({key: omega_tqft(A, g, n, [A.basis(i) for i in key])
                    for key in iproduct(range(A.dim), repeat=n)})


def trivial_algebra() -> FrobeniusAlgebra:
    return FrobeniusAlgebra(1, ["1"], [[[1]]], [[1]])
