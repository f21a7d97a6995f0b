"""The spectral-curve side of the recursion.

The curve is x = z + 1/z, y = -z, written in the coordinate
t = (z+1)/(z-1).  The stable coefficient functions w_{g,n}(t_1..t_n)
(differential frame dt_1...dt_n implicit) satisfy a residue recursion:
the kernel times a bracket of lower differentials, summed over the poles
t = +-t_i.  The recursion is written once, over a Frobenius algebra, and
twisted as the counts are: the bracket is summed on the two coproduct legs
and contracted by the engine's Delta*; its splits come from the engine's
enumeration.  The scalar w_{g,n} is the one-dimensional trivial algebra.

The recursion runs in Python ints.  Every w_{g,n} is memoized as one
reduced int form (den, {index tuple: {exponent tuple: int}}), one sparse
Laurent map per index tuple over one denominator, as the engine keeps its
tensors.  A bracket's terms are gathered with their denominators and
scaled to their lcm; Delta* runs on the algebra's ``int_constants``, the
(0,2) factors come from its ``pairing_rows``, and the kernel's cube
(t^2-1)^3/32 is its ints over 32.  Since every stable w is a Laurent
polynomial, the integrand's only poles besides +-t_i are t = 0 and
t = oo, so the residue sum is minus the residues there: the t^-1
coefficients of two truncated expansions.  No rational-function
arithmetic runs on the recursion, and its int forms become ``MultiRatFun``
values and the input of the inverse Laplace transform as they are,
without sympy and without a Fraction.  The checks load no sympy either:
the curve is written once, in ``SpectralCurve``, and the kernel once, in
``eo_kernel``, as exact maps that the checks evaluate in ``MultiRatFun``,
whose arithmetic cancels natively, so that a value is zero exactly when
its numerator map is empty.  Of the package only ``exact`` loads sympy.
The oracle the recursion is checked against, ``residue_recursion``, takes
the paper's twisted residue formula literally, over any algebra, in
``MultiRatFun``: residues at t = +-t_i of the kernel times brackets of its
own lower values.

Every output leaves the Laurent map through one substitution, which
replaces t_i^e, one variable at a time, by a univariate map: the x frame
by the Jacobian (t^2-1)^2/(8t), the z frame by the expansion of
t^e dt/dz over a common denominator in z, and the inverse Laplace
transform back to the counting side by the u = 1/x series of
(t^2-1)^2/(8t) t^e at x = infinity.  The contract of the latter is that
the coefficient of prod x_i^(-mu_i - 1) equals (-1)^n C_{g,n}(mu).  The
unstable w_{0,2} = 1/(t1+t2)^2 is not a Laurent polynomial; it goes
through the same transform written in the basis s = t - 1.  The
substitution runs in Python ints, on the int form of the Laurent map:
every univariate image has integer coefficients (the u-series of t and
1/t, and 8 times the Jacobian), and the output is divided by the
denominator times 8^n only at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iproduct
from math import comb, gcd, lcm
from operator import add
from typing import Dict, Tuple

from .cutjoin import TRIVIAL, _halves, _reorder, delta_star_contract, shared
from .exact import BudgetError, MultiRatFun, Rational, _as_int, _plus, _times
from .frobenius import FrobeniusAlgebra, trivial_algebra

__all__ = [
    "SpectralCurve",
    "TwistedDifferential",
    "w02",
    "verify_w02_identity",
    "eo_kernel",
    "verify_kernel_integral",
    "wgn",
    "twisted_wgn",
    "residue_recursion",
    "residue_check",
    "inverse_laplace_coeffs",
    "convert_frame",
    "tvars",
]

SERIES_ORDER_BUDGET = 10


def tvars(n: int) -> Tuple[str, ...]:
    return tuple("t%d" % (i + 1) for i in range(n))


def _stable(g: int, n: int) -> Tuple[int, int]:
    """(g, n) read as ints by ``exact._as_int``, the rule of every count
    request, so that 1.0 reads as 1 and 1.5 is refused; ValueError unless
    the type is stable."""
    g, n = _as_int(g), _as_int(n)
    if not (g >= 0 and n >= 1 and 2 * g - 2 + n > 0):
        raise ValueError("w_{%d,%d} is unstable; w02() gives (0,2)" % (g, n))
    return g, n


# -- exact symbolic checks --------------------------------------------------


def _residue(f: MultiRatFun, j: int, s: int) -> MultiRatFun:
    """The residue of f in its first variable at s = +-1 times its variable
    j, a function of the others.  The first variable = eps + s v_j, expanded
    binomially, makes numerator and denominator eps^a sum N_m eps^m and
    eps^b sum D_m eps^m with N_0, D_0 nonzero; the residue is q_k / D_0^(k+1)
    for k = b - a - 1, where q_m = N_m D_0^m - sum_(i=1..m) D_i q_(m-i) D_0^(i-1)."""
    def shifted(p):
        out: Dict = {}
        for e, c in p.items():
            for m in range(e[0] + 1):
                key, term = e[1:j] + (e[j] + e[0] - m,) + e[j + 1:], out.setdefault(m, {})
                term[key] = term.get(key, 0) + c * comb(e[0], m) * s ** (e[0] - m)
        return {m: term for m, term in out.items() if any(term.values())}

    N, D = shifted(f._num), shifted(f._den)
    if not N or min(D) <= min(N):
        return MultiRatFun.constant(0, f.vars[1:])
    a, b = min(N), min(D)
    powers, q = [{(0,) * (len(f.vars) - 1): 1}], []
    for m in range(b - a):
        powers.append(_times(powers[-1], D[b]))
        q.append(_times(N.get(a + m, {}), powers[m]))
        for i in range(1, m + 1):
            q[m] = _plus(q[m], _times(_times(D.get(b + i, {}), q[m - i]), powers[i - 1]), -1)
    return MultiRatFun._from_pair(q[-1], powers[-1], f.vars[1:])


# -- spectral curve ---------------------------------------------------------


class SpectralCurve:
    """The curve x = z + 1/z, y = -z and its coordinate t = (z+1)/(z-1),
    written once as exact maps of a ``Fraction`` or a ``MultiRatFun``.

    The constructor checks, in ``MultiRatFun``, that x(z(t)) = x(t) and
    y(z(t)) = y(t).
    """

    def __init__(self):
        (t,) = MultiRatFun.gens(("t",))
        z = self.z_of_t(t)
        if not ((self.x(z) - self.x_of_t(t)).is_zero() and (self.y(z) - self.y_of_t(t)).is_zero()):
            raise AssertionError("coordinate maps are inconsistent")

    @staticmethod
    def x(z):
        return z + 1 / z

    @staticmethod
    def y(z):
        return -z

    @staticmethod
    def z_of_t(t):
        return (t + 1) / (t - 1)

    @staticmethod
    def x_of_t(t):
        return 2 * (t**2 + 1) / (t**2 - 1)

    @staticmethod
    def y_of_t(t):
        return -(t + 1) / (t - 1)


# -- unstable differentials -------------------------------------------------


def w02() -> MultiRatFun:
    """The (0,2) coefficient function 1/(t1+t2)^2."""
    return MultiRatFun._from_reduced({(0, 0): 1}, {(2, 0): 1, (1, 1): 2, (0, 2): 1}, tvars(2))


def verify_w02_identity() -> bool:
    """Check the double-pole subtraction defining w_{0,2}, exactly, in
    rational functions of t1, t2.

    dt1 dt2 / (t1-t2)^2 minus the x-frame double pole, written in t,
    must equal 1/(t1+t2)^2.
    """
    t1, t2 = MultiRatFun.gens(tvars(2))
    x = SpectralCurve().x_of_t
    dx1, dx2 = x(t1).partial_derivative("t1"), x(t2).partial_derivative("t2")
    lhs = 1 / (t1 - t2) ** 2 - dx1 * dx2 / (x(t1) - x(t2)) ** 2
    return (lhs - 1 / (t1 + t2) ** 2).is_zero()


# -- recursion kernel -------------------------------------------------------


def eo_kernel(t, t1):
    """The recursion kernel K(t, t1), with the 1/dt * dt1 frame implicit, at
    ``Fraction`` or ``MultiRatFun`` values of t and t1.

    The sign convention: the recursion integrates K against the bracket
    over a contour enclosing all +-t_i between two circles, which
    evaluates to minus the sum of the residues at those points.
    """
    return (1 / (t + t1) + 1 / (t - t1)) / 2 * (t**2 - 1) ** 3 / (32 * t**2)


def verify_kernel_integral() -> bool:
    """Check the closed kernel form against its defining integral.

    K(t,t1) = (1/2) * Int_t^{-t} w_{0,2}(s,t1) ds / ((y(t) - y(-t)) dx/dt),
    in rational functions of t, t1, s: the antiderivative F(s) = -1/(s+t1)
    must have F' = w_{0,2}(s,t1), and (F(-t) - F(t)) / (2 (y(t) - y(-t)) x'(t))
    must equal ``eo_kernel(t, t1)``.  The denominator is the difference of
    the one-form on the two sheets in a common dt frame; its orientation is
    the one under which the residue recursion reproduces the counting
    oracle (writing the difference with the sheets swapped flips the
    overall sign, and that sign ambiguity is resolved here by the oracle,
    not by typography).
    """
    t, t1, s = MultiRatFun.gens(("t", "t1", "s"))
    curve = SpectralCurve()
    F = lambda u: -1 / (u + t1)
    if not (F(s).partial_derivative("s") - 1 / (s + t1) ** 2).is_zero():
        return False
    y, dx = curve.y_of_t, curve.x_of_t(t).partial_derivative("t")
    integral = (F(-t) - F(t)) / (2 * (y(t) - y(-t)) * dx)
    return (integral - eo_kernel(t, t1)).is_zero()


# -- the recursion on sparse Laurent maps -----------------------------------

# Monomial products one call of wgn/twisted_wgn may spend on types not yet
# memoized.  From cold: twisted w_{0,5} over Z2 needs 50048, the most any
# test, README example or benchmark query needs; w_{0,6} 39556, w_{1,5}
# 159322, w_{0,7} 442556.
WGN_WORK_BUDGET = 100000

_CUBE = {0: -1, 2: 3, 4: -3, 6: 1}  # (t^2-1)^3 by degree in t


def _mul(a: Dict, b: Dict) -> Dict:
    """Product of two Laurent maps {exponent tuple: int}."""
    out: Dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def _place(terms: Dict, dest, n: int) -> Dict:
    """The Laurent map in n slots: source slot k goes to slot dest[k][0],
    its variable times the sign dest[k][1]."""
    out: Dict = {}
    for e, c in terms.items():
        key = [0] * n
        for (slot, sign), x in zip(dest, e):
            key[slot] += x
            c = -c if sign < 0 and x % 2 else c
        key = tuple(key)
        out[key] = out.get(key, 0) + c
    return out


def _pole(s: int, j: int, n: int, terms: Dict, at_infinity: bool) -> Dict:
    """1/(s t + t_j)^2 to as many terms as ``terms`` can meet in a degree the
    kernel keeps: sum (l+1)(-s)^l t^l t_j^(-l-2) at t = 0, keeping t^m with
    m <= 0, and the same with t and t_j swapped at t = oo, keeping m >= 2."""
    degrees = [e[0] for e in terms] or [0]
    out = {}
    for l in range(max(degrees) - 3 if at_infinity else 1 - min(degrees)):
        e = [0] * n
        e[0], e[j] = (-l - 2, l) if at_infinity else (l, -l - 2)
        out[tuple(e)] = (l + 1) * (-s) ** l
    return out


class _Recursion:
    """The recursion over one algebra, memoized by (g, n), in Python ints.

    w_{g,n} is kept as one reduced int form (den, {index tuple: Laurent
    map of ints}): the map over den, den > 0 sharing no factor with all of
    the ints, zero entries left out.  A bracket term is a Laurent map in
    (t, t2..tn), exponent slot 0 being the integration variable t, times
    the (0,2) pole factors 1/(s t + t_j)^2 its split carries, listed as (s,
    j); it is summed on the coproduct legs, over one denominator for the
    whole bracket, and contracted by the engine's Delta* on the algebra's
    int constants, and the residue evaluation turns slot 0 into t1.
    """

    def __init__(self, algebra: FrobeniusAlgebra):
        self.algebra = algebra
        self.memo: Dict[Tuple[int, int], Tuple[int, Dict]] = {}
        self.work, self.request = 0, (0, 0)

    def _product(self, a: Dict, b: Dict) -> Dict:
        self.work += len(a) * len(b)
        if self.work > WGN_WORK_BUDGET:
            raise BudgetError("w_{%d,%d} exceeds the budget of %d monomial products"
                              % (self.request + (WGN_WORK_BUDGET,)))
        return _mul(a, b)

    def tensor(self, g: int, n: int) -> Tuple[int, Dict]:
        hit = self.memo.get((g, n))
        if hit is None:
            hit = self.memo[(g, n)] = self._evaluate(n, *self._bracket(g, n))
        return hit

    def _placed(self, g: int, slots: Tuple[int, ...], sign: int, n: int):
        """(den, [(a, indices, poles, Laurent map)]) for w_{g,1+len(slots)}
        at (sign*t, t_{j+1} for j in slots), written in the n slots of a
        bracket, each map over den."""
        if (g, len(slots)) == (0, 1):
            C = self.algebra.int_constants
            return C.pairing_scale, [(a, (i,), ((sign, slots[0] + 1),), {(0,) * n: x})
                                     for a, row in enumerate(C.pairing_rows) for i, x in row]
        dest = [(0, sign)] + [(j + 1, 1) for j in slots]
        den, tensor = self.tensor(g, 1 + len(slots))
        return den, [(idx[0], idx[1:], (), _place(terms, dest, n))
                     for idx, terms in tensor.items()]

    def _bracket(self, g: int, n: int):
        """(den, {(index tuple, poles): Laurent map}), the maps over den: the
        loop term and every split but those with a (0,1) part, gathered
        with their denominators, each monomial then scaled to their lcm and
        summed on the coproduct legs, keyed (a, b, rest, poles, e), and
        contracted once by Delta*."""
        C = self.algebra.int_constants
        terms = []  # (den, a, b, rest, poles, Laurent map)
        if (g, n) == (1, 1):  # the (0,2) loop term at (t,-t), regularized
            # every pair (a, b), a zero pairing too, as the work budget counts them
            rows = [dict(row) for row in C.pairing_rows]
            for a, b in iproduct(range(len(rows)), repeat=2):
                terms.append((4 * C.pairing_scale, a, b, (), (), {(-2,): rows[a].get(b, 0)}))
        elif g >= 1:
            dest = [(0, 1), (0, -1)] + [(j, 1) for j in range(1, n)]
            den, tensor = self.tensor(g - 1, n + 1)
            for idx, laurent in tensor.items():
                terms.append((den, idx[0], idx[1], idx[2:], (), _place(laurent, dest, n)))
        slots = tuple(range(n - 1))
        splits = [(take1(slots), take2(slots), order) for take1, take2, order in _halves(n - 1)]
        for g1 in range(g + 1):
            for I, J, order in splits:
                if (g1, len(I)) == (0, 0) or (g - g1, len(J)) == (0, 0):
                    continue
                permute = _reorder(order)
                den2, right = self._placed(g - g1, J, -1, n)
                den1, left = self._placed(g1, I, 1, n)
                for a, ia, pa, la in left:
                    for b, ib, pb, lb in right:
                        rest = ia + ib if permute is None else permute(ia + ib)
                        terms.append((den1 * den2, a, b, rest, pa + pb, self._product(la, lb)))
        M = lcm(*(term[0] for term in terms))
        legs, contracted, out = {}, {}, {}
        for den, a, b, rest, poles, laurent in terms:
            w = M // den
            for e, c in laurent.items():
                key = (a, b, rest, poles, e)
                legs[key] = legs.get(key, 0) + w * c
        delta_star_contract(C, legs, contracted)
        for (i, rest, poles, e), c in contracted.items():
            out.setdefault(((i,) + rest, poles), {})[e] = c
        return M * C.scale, out

    def _evaluate(self, n: int, den: int, bracket: Dict) -> Tuple[int, Dict]:
        """Minus the residues of K * bracket at every t = +-t_i, the
        bracket's maps over den, as a reduced int form.

        Every stable w is a Laurent polynomial, so the integrand's only other
        poles are t = 0 and t = oo, and the residue sum is -(Res_0 + Res_oo).
        K = (t^2-1)^3 / (32 t (t^2-t1^2)), and 1/(t(t^2-t1^2)) is
        -sum t^(2k-1) t1^(-2k-2) at 0 and sum t1^(2k) t^(-2k-3) at oo.  So a
        bracket term times (t^2-1)^3/32 and its poles gives -t1^(m-2) times
        each even t^m coefficient: from its expansion at 0 when m <= 0, and
        from its expansion at oo when m >= 2.  The cube's ints go over 32.
        """
        cube = {(d,) + (0,) * (n - 1): c for d, c in _CUBE.items()}
        out: Dict = {}
        for (idx, poles), terms in bracket.items():
            base, acc = self._product(terms, cube), out.setdefault(idx, {})
            for at_infinity in (False, True):
                keep = (lambda m: m >= 2) if at_infinity else (lambda m: m <= 0)
                expansion = {e: c for e, c in base.items() if keep(e[0])}
                for s, j in poles:
                    factor = _pole(s, j, n, expansion, at_infinity)
                    expansion = {e: c for e, c in self._product(expansion, factor).items() if keep(e[0])}
                for e, c in expansion.items():
                    if e[0] % 2 == 0:
                        key = (e[0] - 2,) + e[1:]
                        acc[key] = acc.get(key, 0) - c
        out = {idx: {e: c for e, c in acc.items() if c} for idx, acc in out.items()}
        out = {idx: acc for idx, acc in out.items() if acc}
        den *= 32
        common = gcd(den, *(c for acc in out.values() for c in acc.values()))
        if common == 1:
            return den, out
        return den // common, {idx: {e: c // common for e, c in acc.items()}
                               for idx, acc in out.items()}


def _laurent_wgn(g: int, n: int, algebra: FrobeniusAlgebra) -> Tuple[int, Dict]:
    """w_{g,n} over the algebra as its int form (den, {index tuple:
    Laurent map of ints})."""
    rec = shared(_Recursion, algebra)
    rec.work, rec.request = 0, (g, n)
    return rec.tensor(g, n)


def wgn(g: int, n: int) -> MultiRatFun:
    """The stable coefficient function w_{g,n}(t1..tn): the recursion over
    the trivial algebra."""
    g, n = _stable(g, n)
    den, tensor = _laurent_wgn(g, n, TRIVIAL)
    return MultiRatFun._from_laurent(tensor.get((0,) * n, {}), tvars(n), den)


def residue_recursion(g: int, n: int, A: FrobeniusAlgebra) -> Dict[Tuple[int, ...], MultiRatFun]:
    """W_{g,n} over A, {basis tuple: function of t1..tn}, by the paper's
    twisted Eynard-Orantin formula, its residues taken in rational
    functions of t, t1..tn:

        W^{i_1..i_n} = -sum_{j, +-} Res_{t=+-t_j} K(t, t1) sum_{a,b} Delta_{i_1}^{ab} B_ab,
        B_ab = W_{g-1,n+1}^{a b i_2..i_n}(t, -t, t_2..t_n)
               + sum W_{g1,1+|I|}^{a i_I}(t, t_I) W_{g2,1+|J|}^{b i_J}(-t, t_J),

    the sum over g1 + g2 = g and I + J = {2..n}, with no (0,1) part.  A
    (0,2) part is W_{0,2}^{ab}(x, y) = eta_ab / (x + y)^2, and at (1,1) the
    loop term is the regularized eta_ab / (4 t^2).  The kernel is
    ``eo_kernel`` and the residues ``_residue``; the lower W come from the
    call's own memo, and the algebra enters only through its dense
    coproduct and pairing, so the recursion's Laurent maps, its Delta* and
    its splits are not read.  Its cost grows fast with n: on a 2-core host
    the scalar (3,1) takes 0.1 s, (0,5) 1.5 s and (4,1) 3 s, and Z3 at
    (1,2) 0.1 s; Z2 at (0,4) takes 0.5 s and at (0,5) 24 s."""
    g, n = _stable(g, n)
    memo: Dict = {}

    def W(h: int, m: int) -> Dict:
        if (h, m) not in memo:
            memo[h, m] = solve(h, m)
        return memo[h, m]

    def solve(h: int, m: int) -> Dict:
        names = ("t",) + tvars(m)
        t, *ts = MultiRatFun.gens(names)
        zero = MultiRatFun.constant(0, names)

        def placed(f: MultiRatFun, dest) -> MultiRatFun:
            # f with its variable k put at names[dest[k][0]], times dest[k][1]
            def move(p):
                out: Dict = {}
                for e, c in p.items():
                    key = [0] * (m + 1)
                    for (slot, sign), x in zip(dest, e):
                        key[slot] += x
                        c = -c if sign < 0 and x % 2 else c
                    out[tuple(key)] = out.get(tuple(key), 0) + c
                return out
            return MultiRatFun._from_pair(move(f._num), move(f._den), names)

        def part(h1: int, slots: Tuple[int, ...], sign: int) -> Dict:
            # {(a,) + indices at the slots: W_{h1,1+|slots|} at (sign t, t_slots)}
            if (h1, len(slots)) == (0, 1):
                pole = (sign * t + ts[slots[0] - 1]) ** -2
                return {(a, i): pole * x for a, row in enumerate(A.pairing) for i, x in enumerate(row)}
            dest = [(0, sign)] + [(j, 1) for j in slots]
            return {idx: placed(f, dest) for idx, f in W(h1, 1 + len(slots)).items()}

        rest = tuple(range(2, m + 1))
        if (h, m) == (1, 1):
            loop = {(a, b): x / (4 * t**2) for a, row in enumerate(A.pairing) for b, x in enumerate(row)}
        elif h >= 1:
            dest = [(0, 1), (0, -1)] + [(j, 1) for j in rest]
            loop = {idx: placed(f, dest) for idx, f in W(h - 1, m + 1).items()}
        else:
            loop = {}
        splits = []
        for k in range(len(rest) + 1):
            for I in combinations(rest, k):
                J = tuple(j for j in rest if j not in I)
                for h1 in range(h + 1):
                    if (h1, len(I)) != (0, 0) and (h - h1, len(J)) != (0, 0):
                        splits.append((I, J, part(h1, I, 1), part(h - h1, J, -1)))
        kernel, out = eo_kernel(t, ts[0]), {}
        for idx in iproduct(range(A.dim), repeat=m - 1):
            at = dict(zip(rest, idx))
            brackets = {}
            for a, b in iproduct(range(A.dim), repeat=2):
                B = loop.get((a, b) + idx, zero)
                for I, J, left, right in splits:
                    B = B + left[(a,) + tuple(at[j] for j in I)] * right[(b,) + tuple(at[j] for j in J)]
                brackets[a, b] = B
            for i, plane in enumerate(A.coproduct_tensor):
                f = kernel * sum((w * brackets[a, b] for a, row in enumerate(plane)
                                  for b, w in enumerate(row) if w), zero)
                value = MultiRatFun.constant(0, names[1:])
                for j in range(1, m + 1):
                    value = value - _residue(f, j, 1) - _residue(f, j, -1)
                out[(i,) + idx] = value
        return out

    return W(g, n)


def residue_check(g: int, n: int) -> dict:
    """w_{g,n}, (g, n) read by ``_stable``, recomputed by
    ``residue_recursion`` over the trivial algebra and compared with
    production exactly."""
    g, n = _stable(g, n)
    production = wgn(g, n)
    (value,) = residue_recursion(g, n, trivial_algebra()).values()
    return {"g": g, "n": n, "production": production, "equal": value == production}


# -- twisted differentials --------------------------------------------------


class TwistedDifferential:
    """A decorated differential: class-index tuples to coefficient functions."""

    def __init__(self, g: int, n: int, algebra: FrobeniusAlgebra, values: Dict):
        self.g = g
        self.n = n
        self.algebra = algebra
        self.values = dict(values)

    def __repr__(self):
        return "TwistedDifferential(g=%d, n=%d, dim=%d)" % (
            self.g,
            self.n,
            self.algebra.dim,
        )


def twisted_wgn(g: int, n: int, algebra: FrobeniusAlgebra) -> TwistedDifferential:
    """The decorated differential: the recursion with its bracket contracted
    through the algebra's coproduct, one value for every index tuple."""
    g, n = _stable(g, n)
    den, tensor = _laurent_wgn(g, n, algebra)
    values = {
        idx: MultiRatFun._from_laurent(tensor.get(idx, {}), tvars(n), den)
        for idx in iproduct(range(algebra.dim), repeat=n)
    }
    return TwistedDifferential(g, n, algebra, values)


# -- one substitution: the x and z frames and the inverse Laplace transform -

_JACOBIAN = {3: 1, 1: -2, -1: 1}  # 8 (t^2-1)^2/(8t) = (t^2-1)^2/t by degree


def _substitute(terms: Dict, n: int, image) -> Dict:
    """Replace t_i^e by the univariate map image(i, e) = {k: c}, one variable
    at a time, and sum: the map of sum c prod_i image(i, e_i), with slot i
    holding the exponent k of image(i, e_i)."""
    images: Dict = {}
    for i in range(n):
        out: Dict = {}
        for e, c in terms.items():
            if (i, e[i]) not in images:
                images[i, e[i]] = image(i, e[i])
            for k, v in images[i, e[i]].items():
                key = e[:i] + (k,) + e[i + 1:]
                out[key] = out.get(key, 0) + c * v
        terms = {e: c for e, c in out.items() if c}
    return terms


def _binomials(p: int, q: int) -> Dict[int, int]:
    """(z+1)^p (z-1)^q by degree in z."""
    out: Dict[int, int] = {}
    for j, k in iproduct(range(p + 1), range(q + 1)):
        out[j + k] = out.get(j + k, 0) + comb(p, j) * comb(q, k) * (-1) ** (q - k)
    return out


# -- inverse Laplace --------------------------------------------------------


def _series_tables(order: int):
    """Truncated series in u = 1/x of the powers of t(x), in ints.

    On the large branch of z + 1/z = x, w = 1/z solves w = u (1 + w^2), so
    w is the series of the Catalan numbers, t = (1+w)/(1-w) = 1 + 2 sum_j
    w^j, and 1/t is the same series in -w: every coefficient of every
    power of t is an integer.
    """

    def smul(a, b):
        r = {}
        for i, ca in a.items():
            for j, cb in b.items():
                k = i + j
                if k <= order:
                    r[k] = r.get(k, 0) + ca * cb
        return {k: v for k, v in r.items() if v}

    w: Dict[int, int] = {}
    for _ in range(order):  # each pass fixes one more degree of w
        w = {1: 1, **{k + 1: c for k, c in smul(w, w).items() if k < order}}
    powers = {k: {0: 1} for k in (0, 1, -1)}
    wj = powers[0]
    for j in range(1, order + 1):
        wj = smul(wj, w)
        for s in (1, -1):
            for k, c in wj.items():
                powers[s][k] = powers[s].get(k, 0) + 2 * s**j * c

    def tpow(k):
        if k not in powers:
            powers[k] = smul(tpow(k - 1), powers[1]) if k > 0 else smul(tpow(k + 1), powers[-1])
        return powers[k]

    return tpow


def _ilt(form, n: int, mu_max: int, basis) -> Dict[Tuple[int, ...], Rational]:
    """The coefficients of prod x_i^(-mu_i-1), 1 <= mu_i <= mu_max, in the
    u = 1/x expansion of sum c prod_i J(t_i) basis(e_i) over the Laurent map
    {e: c} whose int form (den, {e: int}) is ``form``, where J(t) =
    (t^2-1)^2/(8t) and basis(e) is a Laurent map in t with int coefficients.
    The substitution runs in ints, with 8 J(t) for J(t); each coefficient
    becomes one Fraction over den 8^n at the end."""
    den, ints = form
    tpow = _series_tables(mu_max + 1)

    def image(i, e):
        out: Dict[int, int] = {}
        for j, b in basis(e).items():
            for d, c in _JACOBIAN.items():
                for k, v in tpow(j + d).items():
                    if k >= 2:  # mu = k - 1 must be at least 1
                        out[k] = out.get(k, 0) + b * c * v
        return out

    den *= 8**n
    return {tuple(k - 1 for k in key): Fraction(v, den)
            for key, v in _substitute(ints, n, image).items()}


def inverse_laplace_coeffs(g: int, n: int, mu_max: int) -> Dict[Tuple[int, ...], Rational]:
    """Coefficients of prod x_i^(-mu_i-1) in the x-frame expansion of w_{g,n}.

    Returns a sparse map; absent profiles have coefficient zero.  The
    contract under test is coefficient(mu) = (-1)^n * C_{g,n}(mu).
    """
    mu_max = _as_int(mu_max)
    if mu_max < 1:
        raise ValueError("mu_max must be positive")
    if mu_max > SERIES_ORDER_BUDGET:
        raise BudgetError("mu_max %d exceeds budget %d" % (mu_max, SERIES_ORDER_BUDGET))
    order = mu_max + 1
    if (g, n) == (0, 2):
        # 1/(t1+t2)^2 = 1/(2+s1+s2)^2 in the basis s = t - 1, its s1^a s2^b
        # coefficient written over 4^(order+1); s is O(1/x) at x = oo, so
        # s^a with a > order cannot reach u^order
        ints = {(a, b): (-1) ** (a + b) * (a + b + 1) * comb(a + b, a) * 2 ** (2 * order - a - b)
                for a in range(order + 1) for b in range(order + 1)}
        return _ilt((4 ** (order + 1), ints), 2, mu_max, lambda a: _binomials(0, a))
    g, n = _stable(g, n)
    den, tensor = _laurent_wgn(g, n, TRIVIAL)
    return _ilt((den, tensor.get((0,) * n, {})), n, mu_max, lambda e: {e: 1})


# -- coordinate frames ------------------------------------------------------


def convert_frame(fn: MultiRatFun, n: int, coords: str) -> MultiRatFun:
    """Express a t-frame coefficient function of n variables in the
    requested frame; an n other than its number of variables raises
    ValueError.

    "t" is the identity.  "x" multiplies by prod (t_i^2-1)^2 / (8 t_i),
    the Jacobian that makes the x-expansion coefficients match the counts
    (the orientation of each dx against dt is absorbed here); the result
    stays written in the t variables since x does not invert rationally.
    "z" substitutes t = (z+1)/(z-1) and multiplies by dt/dz = -2/(z-1)^2
    per variable.  Both need a Laurent polynomial (ValueError otherwise),
    as every stable and twisted w is.  Both substitute in ints, on the int
    form (den, {e: int}) of the Laurent map, and divide by den (times 8^n
    in the x frame) only at the end.
    """
    n = _as_int(n)
    if n != len(fn.vars):
        raise ValueError("n=%d does not match the function's %d variables" % (n, len(fn.vars)))
    if coords == "t":
        return fn
    if coords not in ("x", "z"):
        raise ValueError("unknown coordinate frame %r" % coords)
    den, ints = fn._laurent_form()
    if coords == "x":
        jacobian = lambda i, e: {e + d: c for d, c in _JACOBIAN.items()}
        return MultiRatFun._from_laurent(_substitute(ints, n, jacobian), fn.vars, den * 8**n)
    # t^e dt = -2 (z+1)^e (z-1)^(-e-2) dz, put over the denominator
    # (z+1)^low (z-1)^(high+2) in each variable.  Only z_i +- 1 could divide
    # numerator and denominator, and the least and greatest powers of t_i
    # survive at z_i = -1 and z_i = 1, so the pair is reduced.
    low = [-min([0] + [e[i] for e in ints]) for i in range(n)]
    high = [max([-2] + [e[i] for e in ints]) for i in range(n)]
    num = _substitute(ints, n, lambda i, e: {
        k: -2 * c for k, c in _binomials(e + low[i], high[i] - e).items()})
    zden = _substitute({(0,) * n: 1}, n, lambda i, e: _binomials(low[i], high[i] + 2))
    return MultiRatFun._from_reduced(num, {e: den * c for e, c in zden.items()},
                                     tuple("z%d" % (i + 1) for i in range(n)))
