"""Exact scalar and rational-function arithmetic.

Scalars are ``fractions.Fraction`` (aliased ``Rational``).  Multivariate
rational functions are kept in a canonical reduced form: numerator and
denominator share no polynomial factor, their coefficients are ints with
no common divisor, and the denominator's leading coefficient under graded
lexicographic order is positive.  A reduced pair is unique up to a
rational scalar, and these two rules fix the scalar, so equality is
structural.  No floating point is used anywhere.

A ``MultiRatFun`` stores its numerator and denominator as
``{exponent tuple: int}`` maps and computes on them in Python ints:
arithmetic (``+ - * / **``), ``partial_derivative``,
``series_at_infinity`` and ``from_json`` cancel with one multivariate
polynomial GCD over Z, ``_gcd``, and the constructors from a Laurent map
or a reduced pair, JSON, comparison, hashing and the structural
predicates need no GCD at all.  A ``Fraction`` is made only where a value
leaves: ``to_json``, ``as_rational``, ``_laurent``, ``expr`` and the
read-only ``num``/``den`` views, which give the pair scaled so that the
denominator's leading coefficient is 1.  None of these loads sympy.
Sympy is imported inside the call, and only there, by the members whose
work is symbolic: the expression constructor ``MultiRatFun(expr, vars)``,
``symbol``, ``expr``, ``str``/``repr`` and ``substitute``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from numbers import Number
from operator import add, sub
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

Scalar = Union[Rational, int]


class ZeroDenominatorError(ZeroDivisionError):
    """Raised when a denominator polynomial is identically zero."""


class BudgetError(RuntimeError):
    """Raised when a requested computation exceeds its iteration budget."""


class UnknownVariableError(ValueError):
    """Raised when an operation references a variable the function lacks."""


def _as_int(x) -> int:
    """x read as an int by ``int()``, the one rule for the genus, the
    boundary count and the degrees of a count request: "4", 3.0 and True
    read as 4, 3 and 1, and ``int()`` raises for what it cannot read, but a
    number whose value is not that int, such as 4.5, raises ValueError
    rather than being truncated."""
    i = int(x)
    if i != x and isinstance(x, Number):
        raise ValueError("expected an integer, got %r" % (x,))
    return i


def rat_to_str(r: Scalar) -> str:
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def rat_from_str(s: str) -> Rational:
    return Fraction(s.strip())


def _frac_to_sym(q: Scalar):
    import sympy as sp

    q = Fraction(q)
    return sp.Rational(q.numerator, q.denominator)


_SYMBOL_CACHE: dict = {}


def symbol(name: str):
    """The sympy ``Symbol`` of a variable name, one instance per name."""
    s = _SYMBOL_CACHE.get(name)
    if s is None:
        import sympy as sp

        s = _SYMBOL_CACHE[name] = sp.Symbol(name)
    return s


def _grlex(e: tuple):
    return (sum(e), e)


def _int_form(terms: Mapping):
    """(den, {key: int}) with terms[k] = ints[k] / den, den the lcm of the
    denominators of the map's values, which may be Fractions or ints: how
    a Fraction map enters int arithmetic."""
    den = lcm(*(v.denominator for v in terms.values()))
    return den, {k: v.numerator * (den // v.denominator) for k, v in terms.items()}


def _integral_pair(num: Mapping, den: Mapping):
    """Int maps (p, q) with p / q = num / den, for maps of Fraction or int
    coefficients."""
    (dn, p), (dd, q) = _int_form(num), _int_form(den)
    if dn == dd:
        return p, q
    return {e: c * dd for e, c in p.items()}, {e: c * dn for e, c in q.items()}


def _canonical(num: Mapping, den: Mapping):
    """A reduced pair of int maps scaled to the canonical one: coefficients
    with no common divisor, and the denominator's graded-lex leading
    coefficient positive.  A pair already so is returned as it is."""
    if not num:
        return {}, {(0,) * len(next(iter(den))): 1}
    k = gcd(*num.values(), *den.values())
    if den[max(den, key=_grlex)] < 0:
        k = -k
    if k == 1:
        return num, den
    return {e: c // k for e, c in num.items()}, {e: c // k for e, c in den.items()}


def _terms(p) -> dict:
    """The {exponent tuple: Fraction} map of a ``Poly``'s dict over QQ."""
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in p.items()}


# -- polynomial maps ------------------------------------------------------------
#
# A polynomial is a {exponent tuple: int} map with no zero coefficient.


def _times(a: Mapping, b: Mapping) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _plus(a: Mapping, b: Mapping, scale=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _power(p: Mapping, k: int) -> dict:
    """p**k for k >= 1, by repeated squaring."""
    out = None
    while k:
        if k & 1:
            out = p if out is None else _times(out, p)
        k >>= 1
        if k:
            p = _times(p, p)
    return dict(out)


def _shift(p: Mapping, by: Sequence[int], sign: int = -1) -> dict:
    """p times the monomial x^(sign * by); p itself when by is zero."""
    if not any(by):
        return p
    step = add if sign > 0 else sub
    return {tuple(map(step, e, by)): c for e, c in p.items()}


def _low(p: Mapping) -> tuple:
    """The monomial content: the least exponent of each variable."""
    return tuple(map(min, zip(*p)))


def _gcd(p: Mapping, q: Mapping):
    """(h, p/h, q/h) for integer polynomials, h a greatest common divisor,
    the cofactors integer polynomials too.

    The monomial contents are split off first.  What is left is settled at
    once when one side is a single term or the two are proportional, which
    cross-multiplying tells, and otherwise by ``_general_gcd``.
    """
    if not p or not q:
        one = (0,) * len(next(iter(p or q)))
        return (q, {}, {one: 1}) if q else (p, {one: 1}, {})
    lp, lq = _low(p), _low(q)
    low = tuple(map(min, lp, lq))
    p, q = _shift(p, lp), _shift(q, lq)
    one = (0,) * len(low)
    first = next(iter(p))
    p0, q0 = p[first], q.get(first, 0)
    if len(p) == 1 or len(q) == 1:
        h, cp, cq = {one: 1}, p, q
    elif p.keys() == q.keys() and all(q[e] * p0 == c * q0 for e, c in p.items()):
        # q = (q0/p0) p is an integer multiple of the primitive part h of p
        k, h = _primitive(p)
        cp, cq = {one: k}, {one: q0 // h[first]}
    else:
        h, cp, cq = _general_gcd(p, q)
    return (_shift(h, low, 1), _shift(cp, [x - y for x, y in zip(lp, low)], 1),
            _shift(cq, [x - y for x, y in zip(lq, low)], 1))


def _general_gcd(p: Mapping, q: Mapping):
    """``_gcd`` past its fast paths: the exponents are deflated by their
    common divisor in each variable, the contents split off, and the GCD of
    the primitive parts found by ``_integer_gcd``."""
    step = [gcd(*x) or 1 for x in zip(*p, *q)]
    deflated = lambda f: {tuple([x // j for x, j in zip(e, step)]): c for e, c in f.items()}
    (p_scale, P), (q_scale, Q) = _primitive(deflated(p)), _primitive(deflated(q))
    h, cp, cq = _integer_gcd(P, Q)
    inflated = lambda f, s=1: {tuple([x * j for x, j in zip(e, step)]): s * c for e, c in f.items()}
    return inflated(h), inflated(cp, p_scale), inflated(cq, q_scale)


def _integer_gcd(f: Mapping, g: Mapping):
    """(h, f/h, g/h) for nonzero integer polynomials, h their GCD: the
    heuristic's, or the remainder sequence's when the heuristic gives up."""
    found = _heuristic_gcd(f, g)
    if found is None:
        h = _prs_gcd(f, g)
        found = h, _divide(f, h), _divide(g, h)
    return found


def _primitive(p: Mapping):
    """(k, P) with p = k P, k > 0 the content of an integer polynomial p."""
    k = gcd(*p.values())
    return k, p if k == 1 else {e: c // k for e, c in p.items()}


_HEURISTIC_TRIES = 6


def _heuristic_gcd(f: Mapping, g: Mapping):
    """(h, f/h, g/h) for nonzero integer polynomials, h their GCD, or None.

    The heuristic GCD of Char, Geddes and Gonnet: set the first variable to
    an integer xi, take the GCD of the images, one variable fewer (integers
    at the bottom), and read h and its cofactors back off the balanced
    base-xi digits of that GCD and of the image cofactors.  For
    xi >= 2 min(|f|, |g|) + 2, with |.| the largest coefficient, the
    primitive part of the h read back is the GCD as soon as it divides f
    and g.  That holds at once for h = 1; otherwise it is checked by
    multiplying out, or by dividing where a cofactor has coefficients too
    large to be read back.  Each failure enlarges xi; after a few the
    caller falls back to an exact method.
    """
    content = gcd(*f.values(), *g.values())
    f = {e: c // content for e, c in f.items()}
    g = {e: c // content for e, c in g.items()}
    if not next(iter(f)):  # no variable left
        return {(): content}, f, g
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEURISTIC_TRIES):
        ff, gg = _evaluate(f, xi), _evaluate(g, xi)
        image = _heuristic_gcd(ff, gg) if ff and gg else None
        if image is not None:
            h = _interpolate(image[0], xi)
            k = gcd(*h.values())
            h = {e: c // k for e, c in h.items()}
            if len(h) == 1 and not any(next(iter(h))):
                return {next(iter(h)): content}, f, g
            cf = _cofactor(f, h, {e: c * k for e, c in image[1].items()}, xi)
            cg = cf and _cofactor(g, h, {e: c * k for e, c in image[2].items()}, xi)
            if cg:
                return {e: c * content for e, c in h.items()}, cf, cg
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate(f: Mapping, xi: int) -> dict:
    """f with its first variable set to xi."""
    powers = [1]
    out: dict = {}
    for e, c in f.items():
        while len(powers) <= e[0]:
            powers.append(powers[-1] * xi)
        out[e[1:]] = out.get(e[1:], 0) + c * powers[e[0]]
    return {e: c for e, c in out.items() if c}


def _cofactor(f: Mapping, h: Mapping, image: Mapping, xi: int):
    """f / h read back from its image at xi, or found by division; None
    when h does not divide f."""
    c = _interpolate(image, xi)
    return c if _times(h, c) == f else _divide(f, h)


def _interpolate(h: Mapping, xi: int) -> dict:
    """The polynomial in one variable more, first, whose value there at xi
    is h: the balanced base-xi digits of each coefficient of h."""
    out = {}
    for e, c in h.items():
        i = 0
        while c:
            digit = c % xi
            if digit > xi // 2:
                digit -= xi
            if digit:
                out[(i,) + e] = digit
            c = (c - digit) // xi
            i += 1
    return out


def _prs_gcd(f: Mapping, g: Mapping) -> dict:
    """The GCD of two nonzero integer polynomials by a primitive remainder
    sequence in the first variable, the contents, polynomials in the
    others, taken by ``_integer_gcd``.  Slow where the intermediate
    coefficients grow, and right for every input."""
    if not next(iter(f)):  # no variable left
        return {(): gcd(f[()], g[()])}

    def split(p):
        out: dict = {}
        for e, c in p.items():
            out.setdefault(e[0], {})[e[1:]] = c
        return out

    def primitive(P):
        c = reduce(lambda a, b: _integer_gcd(a, b)[0], P.values())
        return c, {d: _divide(v, c) for d, v in P.items()}

    (cf, F), (cg, G) = primitive(split(f)), primitive(split(g))
    if max(F) < max(G):
        F, G = G, F
    while G:
        m = max(G)
        while F and max(F) >= m:  # F := lc(G) F - F's top x^(k-m) G
            k = max(F)
            top = F[k]
            F = {d: _times(v, G[m]) for d, v in F.items()}
            for j, v in G.items():
                F[k - m + j] = _plus(F.get(k - m + j, {}), _times(top, v), -1)
            F = {d: v for d, v in F.items() if v}
        F, G = G, (primitive(F)[1] if F else {})
    c = _integer_gcd(cf, cg)[0]
    return _times({(d,) + e: v for d, p in F.items() for e, v in p.items()},
                  {(0,) + e: v for e, v in c.items()})


def _divide(f: Mapping, d: Mapping):
    """f / d for integer polynomials by leading terms, or None when d does
    not divide f."""
    lead = max(d, key=_grlex)
    f, q = dict(f), {}
    while f:
        e = max(f, key=_grlex)
        s = tuple([x - y for x, y in zip(e, lead)])
        c, r = divmod(f[e], d[lead])
        if r or min(s, default=0) < 0:
            return None
        q[s] = c
        for t, v in d.items():
            t = tuple([x + y for x, y in zip(s, t)])
            v = f.get(t, 0) - c * v
            if v:
                f[t] = v
            else:
                f.pop(t, None)
    return q


class MultiRatFun:
    """A multivariate rational function over the rationals.

    Immutable.  ``vars`` is the ordered tuple of variable names; ``_num``
    and ``_den`` are the canonical reduced numerator and denominator as
    {exponent tuple: int} maps with no zero coefficient (the zero function
    has an empty numerator and the denominator 1).  ``num`` and ``den``
    read them as {exponent tuple: Fraction} maps scaled so that the
    denominator's leading coefficient is 1.
    """

    __slots__ = ("vars", "_num", "_den")

    def __init__(self, expr, vars: Sequence[str]):
        import sympy as sp

        if not vars:
            raise ValueError("MultiRatFun needs at least one variable")
        syms = [symbol(v) for v in vars]
        expr = sp.sympify(expr)
        extra = expr.free_symbols - set(syms)
        if extra:
            raise UnknownVariableError(
                f"expression uses undeclared variables {sorted(map(str, extra))}"
            )
        expr = sp.cancel(sp.together(expr))
        if expr.has(sp.zoo, sp.nan):
            raise ZeroDenominatorError("division by zero polynomial")
        num, den = (sp.Poly(p, *syms, domain="QQ") for p in sp.fraction(expr))
        self._set(vars, *_canonical(*_integral_pair(_terms(num.as_dict(native=True)),
                                                    _terms(den.as_dict(native=True)))))

    def _set(self, vars: Sequence[str], num: dict, den: dict) -> None:
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        if hasattr(self, "_den"):
            raise AttributeError("MultiRatFun is immutable")
        object.__setattr__(self, name, value)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar, vars: Sequence[str]) -> "MultiRatFun":
        if not vars:
            raise ValueError("MultiRatFun needs at least one variable")
        one = (0,) * len(vars)
        return cls._from_reduced({one: value.numerator} if value else {},
                                 {one: value.denominator}, vars)

    @classmethod
    def gens(cls, vars: Sequence[str]) -> list:
        """The variables themselves, as functions of ``vars``, in order."""
        one = (0,) * len(vars)
        return [cls._from_reduced({one[:i] + (1,) + one[i + 1:]: 1}, {one: 1}, vars)
                for i in range(len(vars))]

    @classmethod
    def _from_reduced(cls, num: Mapping[tuple, int], den: Mapping[tuple, int],
                      vars: Sequence[str]) -> "MultiRatFun":
        """Numerator and denominator {exponent tuple: int} with no zero
        coefficient, scaled to the canonical pair without cancelling: the
        caller guarantees they share no polynomial factor."""
        self = object.__new__(cls)
        self._set(vars, *_canonical(num, den))
        return self

    @classmethod
    def _from_laurent(cls, terms: Mapping[tuple, Scalar], vars: Sequence[str],
                      den: int = 1) -> "MultiRatFun":
        """A Laurent polynomial {exponent tuple: coefficient} divided by the
        positive int den, built in canonical form without cancelling: the
        denominator is den times the monomial clearing every negative
        exponent, and the numerator then has a monomial free of each
        variable that monomial contains."""
        scale, ints = _int_form({e: c for e, c in terms.items() if c})
        low = [min([0] + [e[i] for e in ints]) for i in range(len(vars))]
        return cls._from_reduced(
            {tuple([x - l for x, l in zip(e, low)]): c for e, c in ints.items()},
            {tuple([-l for l in low]): den * scale}, vars)

    @classmethod
    def _from_pair(cls, num: Mapping, den: Mapping, vars: Sequence[str]) -> "MultiRatFun":
        """num / den for polynomial maps of Fraction or int coefficients,
        den nonzero, cancelled."""
        _, num, den = _gcd(*_integral_pair(num, den))
        return cls._from_reduced(num, den, vars)

    def _laurent_form(self):
        """(den, {exponent tuple: int}), the int form of a function whose
        denominator is a monomial: the function is the map over den, den > 0
        sharing no factor with all of its ints.  ValueError for any other
        function."""
        if len(self._den) != 1:
            raise ValueError("not a Laurent polynomial: the denominator is not a monomial")
        ((shift, lead),) = self._den.items()
        return lead, {tuple([x - s for x, s in zip(e, shift)]): c for e, c in self._num.items()}

    def _laurent(self) -> dict:
        """The {exponent tuple: Fraction} map of a function whose
        denominator is a monomial; ValueError for any other function."""
        den, ints = self._laurent_form()
        return {e: Fraction(c, den) for e, c in ints.items()}

    # -- basic views -----------------------------------------------------

    def _lead(self) -> int:
        return self._den[max(self._den, key=_grlex)]

    @property
    def num(self) -> dict:
        """The numerator as {exponent tuple: Fraction}, over the
        denominator's leading coefficient."""
        lead = self._lead()
        return {e: Fraction(c, lead) for e, c in self._num.items()}

    @property
    def den(self) -> dict:
        """The denominator as {exponent tuple: Fraction}, its graded-lex
        leading coefficient 1."""
        lead = self._lead()
        return {e: Fraction(c, lead) for e, c in self._den.items()}

    def _poly_expr(self, terms: Mapping):
        import sympy as sp

        return sp.Poly.from_dict({e: _frac_to_sym(c) for e, c in terms.items()},
                                 *[symbol(v) for v in self.vars], domain="QQ").as_expr()

    @property
    def expr(self):
        return self._poly_expr(self.num) / self._poly_expr(self.den)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not any(any(e) for e in self._num) and not any(any(e) for e in self._den)

    def as_rational(self) -> Rational:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        if not self._num:
            return Fraction(0)
        ((_, n),) = self._num.items()
        ((_, d),) = self._den.items()
        return Fraction(n, d)

    def __repr__(self):
        return f"MultiRatFun({self.expr}, vars={self.vars})"

    def __str__(self):
        return str(self.expr)

    # -- ring/field structure ---------------------------------------------

    def _coerce(self, other) -> "MultiRatFun":
        if isinstance(other, MultiRatFun):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch {other.vars} vs {self.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiRatFun.constant(other, self.vars)
        return NotImplemented  # type: ignore[return-value]

    def _sum(self, o: "MultiRatFun") -> "MultiRatFun":
        """self + o.  With g = gcd(b, d), a/b + c/d = t / (b/g d/g g) for
        t = a d/g + c b/g, and only g can share a factor with t."""
        g, b, d = _gcd(self._den, o._den)
        t = _plus(_times(self._num, d), _times(o._num, b))
        _, t, g = _gcd(t, g)
        return MultiRatFun._from_reduced(t, _times(_times(b, d), g), self.vars)

    def _product(self, o: "MultiRatFun") -> "MultiRatFun":
        """self * o, cancelled crosswise: a/b c/d = (a/gcd(a, d) c/gcd(c, b))
        / (b/gcd(c, b) d/gcd(a, d))."""
        _, a, d = _gcd(self._num, o._den)
        _, c, b = _gcd(o._num, self._den)
        return MultiRatFun._from_reduced(_times(a, c), _times(b, d), self.vars)

    def _inverse(self) -> "MultiRatFun":
        if self.is_zero():
            raise ZeroDenominatorError("division by zero polynomial")
        return MultiRatFun._from_reduced(self._den, self._num, self.vars)

    def _scaled(self, c: Scalar) -> "MultiRatFun":
        """c times self: the reduced pair with its numerator times c's
        numerator and its denominator times c's denominator."""
        n, d = c.numerator, c.denominator
        if not n:
            return MultiRatFun.constant(0, self.vars)
        return MultiRatFun._from_reduced({e: n * v for e, v in self._num.items()},
                                         {e: d * v for e, v in self._den.items()}, self.vars)

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._sum(o)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._sum(o._scaled(-1))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        o = self._coerce(other)
        return o if o is NotImplemented else self._product(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._product(o._inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o._product(self._inverse())

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:  # 0**0 is 1, as for sympy expressions
            return MultiRatFun.constant(1, self.vars)
        # a reduced pair stays reduced, and its leading monomials multiply
        base = self if k > 0 else self._inverse()
        return MultiRatFun._from_reduced(_power(base._num, abs(k)), _power(base._den, abs(k)),
                                         self.vars)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiRatFun.constant(other, self.vars)
        if not isinstance(other, MultiRatFun):
            return NotImplemented
        return (
            self.vars == other.vars
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self):
        # a constant equals its rational value, so it hashes as that value
        if self.is_constant():
            return hash(self.as_rational())
        return hash((self.vars, frozenset(self._num.items()), frozenset(self._den.items())))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, var: str) -> "MultiRatFun":
        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} not among {self.vars}")
        i = self.vars.index(var)
        d = lambda p: {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.items() if e[i]}
        num = _plus(_times(d(self._num), self._den), _times(self._num, d(self._den)), -1)
        return MultiRatFun._from_pair(num, _times(self._den, self._den), self.vars)

    def substitute(self, var: str, g: Union["MultiRatFun", Scalar]) -> "MultiRatFun":
        """Exact composition self(var := g), normalized.

        ``g`` may be a scalar or a MultiRatFun; the result lives in the
        union of the remaining variables and g's variables, ordered with
        self's variables first.
        """
        import sympy as sp

        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} not among {self.vars}")
        if isinstance(g, (int, Fraction)):
            g_expr = _frac_to_sym(g)
            g_vars: tuple[str, ...] = ()
        else:
            g_expr = g.expr
            g_vars = g.vars
        new_vars = tuple(v for v in self.vars if v != var) + tuple(
            v for v in g_vars if v != var and v not in self.vars
        )
        if var in g_vars:
            new_vars = new_vars + (var,) if var not in new_vars else new_vars
        if not new_vars:
            new_vars = (var,)
        den_sub = self._poly_expr(self._den).subs(symbol(var), g_expr)
        if sp.simplify(sp.together(den_sub)) == 0:
            raise ZeroDenominatorError("substitution makes denominator identically zero")
        return MultiRatFun(self.expr.subs(symbol(var), g_expr), new_vars)

    def series_at_infinity(self, var: str, order: int) -> dict:
        """Expansion in inverse powers of ``var`` at infinity.

        Returns ``{k: coefficient of var**(-k)}`` for 1 <= k <= order.
        Coefficients are Rational when no other variable remains, else
        MultiRatFun in the remaining variables.  Terms of non-negative
        degree in ``var`` are not reported; truncation at ``order`` is part
        of the contract.
        """
        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} not among {self.vars}")
        i = self.vars.index(var)
        others = self.vars[:i] + self.vars[i + 1:]
        if others:
            one = {(0,) * len(others): 1}
            elem = lambda terms: MultiRatFun._from_reduced(terms, one, others)
        else:
            elem = lambda terms: Fraction(terms.get((), 0))
        if not self._num:
            return {k: elem({}) for k in range(1, order + 1)}

        def reversed_in_u(terms):
            """(top, {j: coefficient of u^j}) with P = u^-top sum_j P_j u^j
            for u = 1/var, each P_j a function of the other variables."""
            top = max(e[i] for e in terms)
            out: dict = {}
            for e, c in terms.items():
                out.setdefault(top - e[i], {})[e[:i] + e[i + 1:]] = c
            return top, {j: elem(t) for j, t in out.items()}

        # f = u^shift N(u)/D(u) with N(0) and D(0) nonzero; invert D as a series
        top_n, N = reversed_in_u(self._num)
        top_d, D = reversed_in_u(self._den)
        shift = top_d - top_n
        c: dict = {}
        for k in range(order - shift + 1):
            acc = N.get(k, elem({}))
            for j, dj in D.items():
                if 1 <= j <= k:
                    acc -= dj * c[k - j]
            c[k] = acc / D[0]
        return {m: c.get(m - shift, elem({})) for m in range(1, order + 1)}

    # -- structural predicates ----------------------------------------------

    def denominator_is_monomial(self) -> bool:
        return len(self._den) == 1

    def is_laurent_in_squares(self) -> bool:
        """True when the reduced denominator is a monomial in the squared
        variables, i.e. a single term with all exponents even."""
        if len(self._den) != 1:
            return False
        (exps,) = self._den
        return all(e % 2 == 0 for e in exps)

    def is_even_in(self, var: str) -> bool:
        """f(var := -var) == f.  Flipping a variable keeps the pair reduced
        and the leading monomials, so the two canonical forms agree up to
        the sign of the denominator's leading coefficient."""
        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} not among {self.vars}")
        i = self.vars.index(var)
        flip = lambda terms: {e: -c if e[i] % 2 else c for e, c in terms.items()}
        return (self._num, self._den) == _canonical(flip(self._num), flip(self._den))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        def poly_terms(terms: Mapping) -> list:
            return [[rat_to_str(c), [int(x) for x in e]] for e, c in sorted(terms.items())]

        return {
            "vars": list(self.vars),
            "num": poly_terms(self.num),
            "den": poly_terms(self.den),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MultiRatFun":
        vars = tuple(data["vars"])
        if not vars:
            raise ValueError("MultiRatFun needs at least one variable")

        def build(terms: Iterable):
            acc: dict = {}
            for coeff, exps in terms:
                e = tuple(int(x) for x in exps)
                acc[e] = acc.get(e, 0) + rat_from_str(coeff)
            return {e: c for e, c in acc.items() if c}

        den = build(data["den"])
        if not den:
            raise ZeroDenominatorError("division by zero polynomial")
        return cls._from_pair(build(data["num"]), den, vars)
