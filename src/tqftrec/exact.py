"""Exact scalar and rational-function arithmetic.

Scalars are ``fractions.Fraction`` (aliased ``Rational``).  Multivariate
rational functions are kept in a canonical reduced form: numerator and
denominator share no polynomial factor and the denominator's leading
coefficient under graded lexicographic order is 1.  Equality is therefore
structural.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import sympy as sp

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


def _sym_to_frac(q) -> Rational:
    q = sp.Rational(q)
    return Fraction(int(q.p), int(q.q))


def _frac_to_sym(q: Scalar):
    q = Fraction(q)
    return sp.Rational(q.numerator, q.denominator)


_SYMBOL_CACHE: dict[str, sp.Symbol] = {}


def symbol(name: str) -> sp.Symbol:
    s = _SYMBOL_CACHE.get(name)
    if s is None:
        s = sp.Symbol(name)
        _SYMBOL_CACHE[name] = s
    return s


class MultiRatFun:
    """A multivariate rational function over the rationals.

    Immutable.  ``vars`` is the ordered tuple of variable names; every
    instance stores the canonical reduced numerator/denominator pair as
    sympy ``Poly`` objects in those variables.
    """

    __slots__ = ("vars", "num", "den")

    def __init__(self, expr, vars: Sequence[str]):
        if not vars:
            raise ValueError("MultiRatFun needs at least one variable")
        self.vars = tuple(vars)
        syms = [symbol(v) for v in self.vars]
        expr = sp.sympify(expr)
        extra = expr.free_symbols - set(syms)
        if extra:
            raise UnknownVariableError(
                f"expression uses undeclared variables {sorted(map(str, extra))}"
            )
        num, den = sp.fraction(sp.cancel(sp.together(expr)))
        den_poly = sp.Poly(den, *syms, domain="QQ")
        if den_poly.is_zero:
            raise ZeroDenominatorError("division by zero polynomial")
        num_poly = sp.Poly(num, *syms, domain="QQ")
        # canonical scaling: leading coefficient of the denominator under
        # graded lex order fixed to 1
        lc = _grlex_leading_coeff(den_poly)
        if lc != 1:
            inv = sp.Rational(1) / lc
            num_poly = num_poly.mul_ground(inv)
            den_poly = den_poly.mul_ground(inv)
        object.__setattr__(self, "num", num_poly)
        object.__setattr__(self, "den", den_poly)

    def __setattr__(self, name, value):
        if name in ("vars", "num", "den") and hasattr(self, "den"):
            raise AttributeError("MultiRatFun is immutable")
        object.__setattr__(self, name, value)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_fraction(cls, num, den, vars: Sequence[str]) -> "MultiRatFun":
        """Normalize a raw polynomial fraction into canonical form."""
        syms = [symbol(v) for v in vars]
        den_expr = sp.sympify(den)
        if sp.Poly(den_expr, *syms, domain="QQ").is_zero if vars else den_expr == 0:
            raise ZeroDenominatorError("division by zero polynomial")
        return cls(sp.sympify(num) / den_expr, vars)

    @classmethod
    def constant(cls, value: Scalar, vars: Sequence[str]) -> "MultiRatFun":
        return cls(_frac_to_sym(value), vars)

    @classmethod
    def var(cls, name: str, vars: Sequence[str]) -> "MultiRatFun":
        if name not in vars:
            raise UnknownVariableError(f"{name!r} not among {vars}")
        return cls(symbol(name), vars)

    @classmethod
    def _from_reduced(cls, num: Mapping[tuple, Scalar], den: Mapping[tuple, Scalar],
                      vars: Sequence[str]) -> "MultiRatFun":
        """Numerator and denominator {exponent tuple: coefficient} taken as
        they are: the caller guarantees they share no factor and that the
        denominator's graded-lex leading coefficient is 1."""
        syms = [symbol(v) for v in vars]
        self = object.__new__(cls)
        object.__setattr__(self, "vars", tuple(vars))
        for name, terms in (("num", num), ("den", den)):
            object.__setattr__(self, name, sp.Poly.from_dict(
                {e: _frac_to_sym(c) for e, c in terms.items() if c}, *syms, domain="QQ"))
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

    def _laurent(self) -> dict:
        """The {exponent tuple: Fraction} map of a function whose
        denominator is a monomial; ValueError for any other function."""
        den = self.den.as_dict()
        if len(den) != 1:
            raise ValueError("not a Laurent polynomial: the denominator is not a monomial")
        ((shift, lead),) = den.items()
        return {tuple(x - s for x, s in zip(e, shift)): _sym_to_frac(c / lead)
                for e, c in self.num.as_dict().items()}

    # -- basic views -----------------------------------------------------

    @property
    def expr(self):
        return self.num.as_expr() / self.den.as_expr()

    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_constant(self) -> bool:
        return self.num.is_ground and self.den.is_ground

    def as_rational(self) -> Rational:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        if self.num.is_zero:
            return Fraction(0)
        n = _sym_to_frac(self.num.coeffs()[0])
        d = _sym_to_frac(self.den.coeffs()[0])
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

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return MultiRatFun(self.expr + o.expr, self.vars)

    __radd__ = __add__

    def __neg__(self):
        return MultiRatFun(-self.expr, self.vars)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return MultiRatFun(self.expr - o.expr, self.vars)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return MultiRatFun(self.expr * o.expr, self.vars)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDenominatorError("division by zero polynomial")
        return MultiRatFun(self.expr / o.expr, self.vars)

    def __rtruediv__(self, other):
        if self.is_zero():
            raise ZeroDenominatorError("division by zero polynomial")
        o = self._coerce(other)
        return MultiRatFun(o.expr / self.expr, self.vars)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0 and self.is_zero():
            raise ZeroDenominatorError("division by zero polynomial")
        return MultiRatFun(self.expr ** k, self.vars)

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
        return hash((self.vars, self.num, self.den))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, var: str) -> "MultiRatFun":
        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} not among {self.vars}")
        return MultiRatFun(sp.diff(self.expr, symbol(var)), self.vars)

    def substitute(self, var: str, g: Union["MultiRatFun", Scalar]) -> "MultiRatFun":
        """Exact composition self(var := g), normalized.

        ``g`` may be a scalar or a MultiRatFun; the result lives in the
        union of the remaining variables and g's variables, ordered with
        self's variables first.
        """
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
        den_sub = self.den.as_expr().subs(symbol(var), g_expr)
        if sp.simplify(sp.together(den_sub)) == 0:
            raise ZeroDenominatorError("substitution makes denominator identically zero")
        expr = self.expr.subs(symbol(var), g_expr)
        return MultiRatFun(expr, new_vars)

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
        x = symbol(var)
        u = sp.Dummy("u")
        num_u, den_u = sp.fraction(
            sp.cancel(sp.together(self.expr.subs(x, 1 / u)))
        )
        others = tuple(v for v in self.vars if v != var)
        nd = sp.Poly(num_u, u).as_dict() if num_u != 0 else {}
        if not nd:
            return {k: self._series_coeff(0, others) for k in range(1, order + 1)}
        dd = sp.Poly(den_u, u).as_dict()
        nmin = min(k[0] for k in nd)
        dmin = min(k[0] for k in dd)
        shift = nmin - dmin
        N = {k[0] - nmin: v for k, v in nd.items()}
        D = {k[0] - dmin: v for k, v in dd.items()}
        # series inversion: c[k] solves sum_j D[j] c[k-j] = N[k]
        need = order - shift
        c: dict[int, sp.Expr] = {}
        d0 = D[0]
        for k in range(0, max(need, 0) + 1):
            acc = N.get(k, sp.Integer(0))
            for j, dj in D.items():
                if 1 <= j <= k:
                    acc -= dj * c[k - j]
            c[k] = sp.cancel(acc / d0)
        out = {}
        for m in range(1, order + 1):
            out[m] = self._series_coeff(c.get(m - shift, sp.Integer(0)), others)
        return out

    def _series_coeff(self, expr, others: tuple):
        if not others:
            return _sym_to_frac(expr) if expr != 0 else Fraction(0)
        if expr == 0:
            return MultiRatFun.constant(0, others)
        return MultiRatFun(expr, others)

    # -- structural predicates ----------------------------------------------

    def denominator_is_monomial(self) -> bool:
        return len(self.den.as_dict()) == 1

    def is_laurent_in_squares(self) -> bool:
        """True when the reduced denominator is a monomial in the squared
        variables, i.e. a single term with all exponents even."""
        terms = self.den.as_dict()
        if len(terms) != 1:
            return False
        (exps,) = terms.keys()
        return all(e % 2 == 0 for e in exps)

    def is_even_in(self, var: str) -> bool:
        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} not among {self.vars}")
        x = symbol(var)
        return sp.cancel(self.expr - self.expr.subs(x, -x, simultaneous=True)) == 0

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        def poly_terms(p: sp.Poly) -> list:
            return [
                [rat_to_str(_sym_to_frac(c)), [int(e) for e in exps]]
                for exps, c in sorted(p.as_dict().items())
            ]

        return {
            "vars": list(self.vars),
            "num": poly_terms(self.num),
            "den": poly_terms(self.den),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MultiRatFun":
        vars = tuple(data["vars"])
        syms = [symbol(v) for v in vars]

        def build(terms: Iterable) -> sp.Expr:
            acc = sp.Integer(0)
            for coeff, exps in terms:
                t = _frac_to_sym(rat_from_str(coeff))
                for s, e in zip(syms, exps):
                    t *= s ** int(e)
                acc += t
            return acc

        den = build(data["den"])
        if den == 0:
            raise ZeroDenominatorError("division by zero polynomial")
        return cls(build(data["num"]) / den, vars)


def _grlex_leading_coeff(p: sp.Poly):
    """Leading coefficient under graded lex order (total degree, then lex)."""
    best = None
    best_c = None
    for exps, c in p.as_dict().items():
        key = (sum(exps), exps)
        if best is None or key > best:
            best = key
            best_c = c
    return sp.Rational(best_c)


def normalize(num, den, vars: Sequence[str]) -> MultiRatFun:
    """Public entry point for canonical reduction of a raw fraction."""
    return MultiRatFun.from_fraction(num, den, vars)
