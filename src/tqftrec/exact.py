"""Exact scalar and rational-function arithmetic.

Scalars are ``fractions.Fraction`` (aliased ``Rational``).  Multivariate
rational functions are kept in a canonical reduced form: numerator and
denominator share no polynomial factor and the denominator's leading
coefficient under graded lexicographic order is 1.  Equality is therefore
structural.  No floating point is used anywhere.

A ``MultiRatFun`` stores its numerator and denominator as
``{exponent tuple: Fraction}`` maps, so building one from a Laurent map or
an already reduced pair, reading it back, serializing it to JSON,
comparing, hashing, negating, scaling by a rational and the structural
predicates (``is_zero``, ``is_constant``, ``as_rational``, the denominator
tests, ``is_even_in``) never load sympy.  Sympy is imported inside the
call, and only there, by the members whose work is symbolic: the
expression constructor ``MultiRatFun(expr, vars)``, ``symbol``, ``expr``,
``str``/``repr``, ``from_json``, general arithmetic (``+ - * / **``, which
cancels in ``sympy.polys.fields`` over QQ), ``partial_derivative``,
``substitute`` and ``series_at_infinity`` in more than one variable.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

Scalar = Union[Rational, int]


class ZeroDenominatorError(ZeroDivisionError):
    """Raised when a denominator polynomial is identically zero."""


class BudgetError(RuntimeError):
    """Raised when a requested computation exceeds its iteration budget."""


class UnknownVariableError(ValueError):
    """Raised when an operation references a variable the function lacks."""


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


def _canonical(num: Mapping, den: Mapping):
    """A reduced pair of term maps scaled so that the denominator's
    graded-lex leading coefficient is 1."""
    lead = den[max(den, key=_grlex)]
    return {e: c / lead for e, c in num.items()}, {e: c / lead for e, c in den.items()}


def _field(vars: Sequence[str]):
    """The field of rational functions over QQ in the variables (sympy
    caches one instance per variable tuple)."""
    from sympy.polys.domains import QQ
    from sympy.polys.fields import FracField

    return FracField([symbol(v) for v in vars], QQ)


def _terms(p) -> dict:
    """The {exponent tuple: Fraction} map of a sympy ``PolyElement`` or of
    a ``Poly``'s dict over QQ."""
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in p.items()}


def _ring_element(R, terms: Mapping):
    return R.from_dict({e: R.domain(c.numerator, c.denominator) for e, c in terms.items()})


class MultiRatFun:
    """A multivariate rational function over the rationals.

    Immutable.  ``vars`` is the ordered tuple of variable names; ``num``
    and ``den`` are the canonical reduced numerator and denominator as
    {exponent tuple: Fraction} maps with no zero coefficient (the zero
    function has an empty numerator and the denominator 1).
    """

    __slots__ = ("vars", "num", "den")

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
        self._set(vars, *_canonical(_terms(num.as_dict(native=True)),
                                    _terms(den.as_dict(native=True))))

    def _set(self, vars: Sequence[str], num: Mapping, den: Mapping) -> None:
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "num", {e: Fraction(c) for e, c in num.items() if c})
        object.__setattr__(self, "den", {e: Fraction(c) for e, c in den.items() if c})

    def __setattr__(self, name, value):
        if name in ("vars", "num", "den") and hasattr(self, "den"):
            raise AttributeError("MultiRatFun is immutable")
        object.__setattr__(self, name, value)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar, vars: Sequence[str]) -> "MultiRatFun":
        if not vars:
            raise ValueError("MultiRatFun needs at least one variable")
        one = (0,) * len(vars)
        return cls._from_reduced({one: value}, {one: 1}, vars)

    @classmethod
    def _from_reduced(cls, num: Mapping[tuple, Scalar], den: Mapping[tuple, Scalar],
                      vars: Sequence[str]) -> "MultiRatFun":
        """Numerator and denominator {exponent tuple: coefficient} taken as
        they are: the caller guarantees they share no factor and that the
        denominator's graded-lex leading coefficient is 1."""
        self = object.__new__(cls)
        self._set(vars, num, den)
        return self

    @classmethod
    def _from_laurent(cls, terms: Mapping[tuple, Scalar], vars: Sequence[str]) -> "MultiRatFun":
        """A Laurent polynomial {exponent tuple: coefficient}, built in
        canonical form without cancelling: the denominator is the monomial
        clearing every negative exponent, and the numerator then has a
        monomial free of each variable that monomial contains."""
        terms = {e: c for e, c in terms.items() if c}
        low = [min([0] + [e[i] for e in terms]) for i in range(len(vars))]
        return cls._from_reduced(
            {tuple(x - l for x, l in zip(e, low)): c for e, c in terms.items()},
            {tuple(-l for l in low): 1}, vars)

    @classmethod
    def _from_frac(cls, f, vars: Sequence[str]) -> "MultiRatFun":
        """A sympy ``FracElement``, whose numerator and denominator are
        reduced, scaled to the canonical form."""
        return cls._from_reduced(*_canonical(_terms(f.numer), _terms(f.denom)), vars)

    def _frac(self, K):
        """This function as an element of the field ``K`` over its variables."""
        R = K.ring
        return K.raw_new(_ring_element(R, self.num), _ring_element(R, self.den))

    def _laurent(self) -> dict:
        """The {exponent tuple: Fraction} map of a function whose
        denominator is a monomial; ValueError for any other function."""
        if len(self.den) != 1:
            raise ValueError("not a Laurent polynomial: the denominator is not a monomial")
        ((shift, lead),) = self.den.items()
        return {tuple(x - s for x, s in zip(e, shift)): c / lead
                for e, c in self.num.items()}

    # -- basic views -----------------------------------------------------

    def _poly_expr(self, terms: Mapping):
        import sympy as sp

        return sp.Poly.from_dict({e: _frac_to_sym(c) for e, c in terms.items()},
                                 *[symbol(v) for v in self.vars], domain="QQ").as_expr()

    @property
    def expr(self):
        return self._poly_expr(self.num) / self._poly_expr(self.den)

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not any(any(e) for e in self.num) and not any(any(e) for e in self.den)

    def as_rational(self) -> Rational:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        if not self.num:
            return Fraction(0)
        ((_, n),) = self.num.items()
        ((_, d),) = self.den.items()
        return n / d

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

    def _binary(self, other, op):
        """op applied in the field over the variables, with other coerced."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        K = _field(self.vars)
        return MultiRatFun._from_frac(op(self._frac(K), o._frac(K)), self.vars)

    def _scaled(self, c: Fraction) -> "MultiRatFun":
        """c times self: the reduced pair with its numerator scaled."""
        if not c:
            return MultiRatFun.constant(0, self.vars)
        return MultiRatFun._from_reduced({e: c * v for e, v in self.num.items()},
                                         self.den, self.vars)

    def __add__(self, other):
        return self._binary(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(Fraction(-1))

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        return self._binary(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDenominatorError("division by zero polynomial")
        return self._binary(o, operator.truediv)

    def __rtruediv__(self, other):
        if self.is_zero():
            raise ZeroDenominatorError("division by zero polynomial")
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o._binary(self, operator.truediv)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0 and self.is_zero():
            raise ZeroDenominatorError("division by zero polynomial")
        if k == 0:  # 0**0 is 1, as for sympy expressions
            return MultiRatFun.constant(1, self.vars)
        return MultiRatFun._from_frac(self._frac(_field(self.vars)) ** k, self.vars)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiRatFun.constant(other, self.vars)
        if not isinstance(other, MultiRatFun):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # a constant equals its rational value, so it hashes as that value
        if self.is_constant():
            return hash(self.as_rational())
        return hash((self.vars, frozenset(self.num.items()), frozenset(self.den.items())))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, var: str) -> "MultiRatFun":
        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} not among {self.vars}")
        K = _field(self.vars)
        return MultiRatFun._from_frac(self._frac(K).diff(K.gens[self.vars.index(var)]),
                                      self.vars)

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
        den_sub = self._poly_expr(self.den).subs(symbol(var), g_expr)
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
            K = _field(others)
            elem = lambda terms: K.raw_new(_ring_element(K.ring, terms), K.ring.one)
            wrap = lambda f: MultiRatFun._from_frac(f, others)
        else:
            elem = lambda terms: terms.get((), Fraction(0))
            wrap = lambda f: f
        if not self.num:
            return {k: wrap(elem({})) for k in range(1, order + 1)}

        def reversed_in_u(terms):
            """(top, {j: coefficient of u^j}) with P = u^-top sum_j P_j u^j
            for u = 1/var, each P_j a function of the other variables."""
            top = max(e[i] for e in terms)
            out: dict = {}
            for e, c in terms.items():
                out.setdefault(top - e[i], {})[e[:i] + e[i + 1:]] = c
            return top, {j: elem(t) for j, t in out.items()}

        # f = u^shift N(u)/D(u) with N(0) and D(0) nonzero; invert D as a series
        top_n, N = reversed_in_u(self.num)
        top_d, D = reversed_in_u(self.den)
        shift = top_d - top_n
        c: dict = {}
        for k in range(order - shift + 1):
            acc = N.get(k, elem({}))
            for j, dj in D.items():
                if 1 <= j <= k:
                    acc -= dj * c[k - j]
            c[k] = acc / D[0]
        return {m: wrap(c.get(m - shift, elem({}))) for m in range(1, order + 1)}

    # -- structural predicates ----------------------------------------------

    def denominator_is_monomial(self) -> bool:
        return len(self.den) == 1

    def is_laurent_in_squares(self) -> bool:
        """True when the reduced denominator is a monomial in the squared
        variables, i.e. a single term with all exponents even."""
        if len(self.den) != 1:
            return False
        (exps,) = self.den
        return all(e % 2 == 0 for e in exps)

    def is_even_in(self, var: str) -> bool:
        """f(var := -var) == f.  Flipping a variable keeps the pair reduced
        and the leading monomials, so the two canonical forms agree up to
        the sign of the denominator's leading coefficient."""
        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} not among {self.vars}")
        i = self.vars.index(var)
        flip = lambda terms: {e: -c if e[i] % 2 else c for e, c in terms.items()}
        return (self.num, self.den) == _canonical(flip(self.num), flip(self.den))

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
        K = _field(vars)

        def build(terms: Iterable):
            acc: dict = {}
            for coeff, exps in terms:
                e = tuple(int(x) for x in exps)
                acc[e] = acc.get(e, 0) + rat_from_str(coeff)
            return _ring_element(K.ring, {e: c for e, c in acc.items() if c})

        den = build(data["den"])
        if not den:
            raise ZeroDenominatorError("division by zero polynomial")
        return cls._from_frac(K.new(build(data["num"]), den), vars)
