"""Unit tests for the exact rational-function layer."""

import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftrec import exact
from tqftrec.exact import (
    BudgetError,
    MultiRatFun,
    UnknownVariableError,
    ZeroDenominatorError,
    rat_from_str,
    rat_to_str,
    symbol,
)


def _ev(f, a):
    return f.substitute("x", a).as_rational()


def test_rat_str_round_trip():
    for q in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7)):
        assert rat_from_str(rat_to_str(q)) == q
    assert rat_to_str(Fraction(3)) == "3"
    assert rat_to_str(Fraction(-1, 2)) == "-1/2"


def test_symbol_is_cached():
    assert symbol("t1") is symbol("t1")


def test_constructor_rejects_unknown_variables():
    with pytest.raises(UnknownVariableError):
        MultiRatFun("x + y", ["x"])


def test_constructor_rejects_zero_denominator():
    for expr in ("1/0", "x/(x - x)", "1/((x + 1)**2 - x**2 - 2*x - 1)"):
        with pytest.raises(ZeroDenominatorError):
            MultiRatFun(expr, ["x"])


def test_canonical_form_is_deterministic():
    f = MultiRatFun("(x**2 - 1)/(2*x - 2)", ["x"])
    g = MultiRatFun("(x + 1)/2", ["x"])
    assert f.to_json() == g.to_json()


def test_laurent_constructor_is_canonical():
    x, y = symbol("x"), symbol("y")
    cases = [
        ({}, 0),
        ({(0, 0): Fraction(3, 2), (-1, 0): Fraction(0)}, Fraction(3, 2)),
        ({(2, 1): Fraction(1), (0, 3): Fraction(-1, 4)}, x**2 * y - y**3 / 4),
        ({(-2, 1): Fraction(2), (1, -3): Fraction(1, 3), (0, 0): Fraction(-1)},
         2 * y / x**2 + x / (3 * y**3) - 1),
    ]
    for terms, expr in cases:
        f = MultiRatFun._from_laurent(terms, ["x", "y"])
        g = MultiRatFun(expr, ["x", "y"])
        assert f == g and hash(f) == hash(g) and f.to_json() == g.to_json()


def test_constants_hash_as_the_rationals_they_equal():
    for value in (Fraction(0), Fraction(1, 2)):
        c = MultiRatFun.constant(value, ("t1",))
        assert c == value and hash(c) == hash(value)
        assert len({c, value}) == 1
    assert len({MultiRatFun.constant(Fraction(1, 2), ("t1",)), Fraction(0)}) == 2


def test_laurent_reader_inverts_the_constructor():
    terms = {(-2, 1): Fraction(2), (1, -3): Fraction(1, 3), (0, 0): Fraction(-1)}
    assert MultiRatFun._from_laurent(terms, ["x", "y"])._laurent() == terms
    assert MultiRatFun("(4*x - 2)/(2*y)", ["x", "y"])._laurent() == {(1, -1): 2, (0, -1): -1}
    with pytest.raises(ValueError):
        MultiRatFun("1/(x + y)", ["x", "y"])._laurent()


def test_arithmetic_matches_fraction_evaluation():
    x = symbol("x")
    f = MultiRatFun((x**2 - 1) / (x + 2), ["x"])
    g = MultiRatFun(1 / x, ["x"])
    for a in (Fraction(1), Fraction(-3), Fraction(5, 2)):
        fv = Fraction(a**2 - 1, 1) / (a + 2)
        gv = 1 / a
        assert _ev(f + g, a) == fv + gv
        assert _ev(f - g, a) == fv - gv
        assert _ev(f * g, a) == fv * gv


def test_json_round_trip():
    f = MultiRatFun("(3*x*y - 1)/(2*y**2)", ["x", "y"])
    assert MultiRatFun.from_json(f.to_json()) == f


def test_denominator_predicates():
    assert MultiRatFun("1/x**2", ["x"]).denominator_is_monomial()
    assert MultiRatFun("1/x**2", ["x"]).is_laurent_in_squares()
    assert not MultiRatFun("1/x**3", ["x"]).is_laurent_in_squares()
    assert not MultiRatFun("1/(x + 1)", ["x"]).denominator_is_monomial()


def test_parity_predicate():
    assert MultiRatFun("x**2 + 1/x**2", ["x"]).is_even_in("x")
    assert not MultiRatFun("x**3", ["x"]).is_even_in("x")
    with pytest.raises(UnknownVariableError):
        MultiRatFun("x", ["x"]).is_even_in("y")


def test_series_at_infinity_geometric():
    # 1/(x-1) = sum_k x^(-k)
    f = MultiRatFun("1/(x - 1)", ["x"])
    series = f.series_at_infinity("x", 5)
    assert series == {k: Fraction(1) for k in range(1, 6)}


def test_series_at_infinity_multivariate_coefficients():
    f = MultiRatFun("y/(x - y)", ["x", "y"])
    series = f.series_at_infinity("x", 3)
    assert series[1] == MultiRatFun("y", ["y"])
    assert series[2] == MultiRatFun("y**2", ["y"])


def test_immutability():
    f = MultiRatFun("x", ["x"])
    with pytest.raises(AttributeError):
        f.num = None


def test_budget_error_is_runtime_error():
    assert issubclass(BudgetError, RuntimeError)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.integers(1, 7),
)
def test_add_mul_agree_with_rationals(coeffs_f, coeffs_g, point):
    x = symbol("x")
    pf = sum(c * x**i for i, c in enumerate(coeffs_f))
    pg = sum(c * x**i for i, c in enumerate(coeffs_g))
    f = MultiRatFun(pf / (x**2 + 1), ["x"])
    g = MultiRatFun(pg / (x + 9), ["x"])
    a = Fraction(point)
    fv = sum(Fraction(c) * a**i for i, c in enumerate(coeffs_f)) / (a**2 + 1)
    gv = sum(Fraction(c) * a**i for i, c in enumerate(coeffs_g)) / (a + 9)
    assert _ev(f * g + f, a) == fv * gv + fv


# -- the field arithmetic against the expression constructor's cancel path --


def _cancel_path(expr, vars):
    """The canonical form sympy.cancel gives, through the expression constructor."""
    return MultiRatFun(expr, vars)


def _same(got, want):
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert got == want and hash(got) == hash(want)


def test_w04_operations_match_the_cancel_path():
    # the benchmark's six rational-function operations on w_{0,4}
    from tqftrec.bmodel import wgn

    f = wgn(0, 4)
    e, vs = f.expr, f.vars
    _same(f + f, _cancel_path(e + e, vs))
    _same(f * f, _cancel_path(e * e, vs))
    _same((f + 1) * (f - 1), _cancel_path((e + 1) * (e - 1), vs))
    _same(f / (f + 1), _cancel_path(e / (e + 1), vs))
    u = sp.Symbol("u")
    for var in ("t1", "t2"):
        rest = tuple(v for v in vs if v != var)
        # w_{0,4} is a Laurent polynomial: its expansion at infinity is its
        # terms of negative degree in var
        expanded = sp.expand(e.subs(symbol(var), 1 / u))
        series = f.series_at_infinity(var, 4)
        assert sorted(series) == [1, 2, 3, 4]
        for k, coeff in series.items():
            _same(coeff, _cancel_path(expanded.coeff(u, k), rest))


@pytest.mark.parametrize("g,n", [(0, 4), (1, 2), (2, 1)])
def test_operations_on_w_match_the_cancel_path(g, n):
    # each quotient needs a general GCD; w is a Laurent polynomial, so the
    # derivative cancels against its monomial denominator
    from tqftrec.bmodel import wgn

    f = wgn(g, n)
    e, vs = f.expr, f.vars
    _same(f / (f + 1), _cancel_path(e / (e + 1), vs))
    _same((f * f + 1) / (f + 1), _cancel_path((e * e + 1) / (e + 1), vs))
    _same((f + 1) / (f - 1) * (f - 1), _cancel_path((e + 1) / (e - 1) * (e - 1), vs))
    _same(f.partial_derivative("t1"), _cancel_path(e.diff(symbol("t1")), vs))


def test_native_arithmetic_never_loads_sympy():
    # a fresh interpreter: the differentials, their frames and transforms,
    # and the rational-function arithmetic run without sympy
    script = """
import sys
from tqftrec import bmodel
from tqftrec.exact import MultiRatFun
from tqftrec.groups import load_group, orbifold_frobenius

f = bmodel.wgn(0, 4)
bmodel.twisted_wgn(1, 1, orbifold_frobenius(load_group("builtin:S3")))
bmodel.inverse_laplace_coeffs(1, 2, 4)
for coords in ("x", "z"):
    bmodel.convert_frame(bmodel.wgn(1, 1), 1, coords)
q = (f + 1) / (f - 2)
g = q * f ** 2 - f ** -1
assert MultiRatFun.from_json(g.to_json()) == g
q.partial_derivative("t1")
h = MultiRatFun.from_json({"vars": ["x", "y"], "num": [["1", [1, 1]]],
                           "den": [["1", [2, 0]], ["-1", [0, 1]]]})
assert h.series_at_infinity("x", 4)[3] == MultiRatFun.from_json(
    {"vars": ["y"], "num": [["1", [2]]], "den": [["1", [0]]]})
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
assert not loaded, loaded[:5]
"""
    path = [str(pathlib.Path(__file__).resolve().parents[1] / "src")]
    path += [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


_VARS = ("x", "y", "z")


@st.composite
def _ratfuns(draw, nvars):
    """(sympy expression, vars): a sum of up to three monomials with exponents
    in [-2, 2] (a Laurent polynomial), over 1 or over 1 + c * m for a
    monomial m of non-negative exponents (not a Laurent polynomial)."""
    syms = [symbol(v) for v in _VARS[:nvars]]
    monomial = lambda low: st.tuples(*[st.integers(low, 2)] * nvars)
    terms = draw(st.lists(st.tuples(st.integers(-3, 3), monomial(-2)), max_size=3))
    expr = sum((c * _mono(syms, e) for c, e in terms), sp.Integer(0))
    if draw(st.booleans()):
        c, e = draw(st.integers(1, 3)), draw(monomial(0).filter(any))
        expr = expr / (1 + c * _mono(syms, e))
    return expr, _VARS[:nvars]


def _mono(syms, exps):
    out = 1
    for s, e in zip(syms, exps):
        out = out * s**e
    return out


@st.composite
def _operands(draw):
    """(a, b, shared, vars): two sympy expressions from ``_ratfuns``, each
    times the power -1, 0 or 1 of ``shared``, one polynomial of two or three
    terms with non-negative exponents, so that cancelling may need a general
    GCD."""
    nvars = draw(st.integers(1, 3))
    (ea, vs), (eb, _) = draw(_ratfuns(nvars)), draw(_ratfuns(nvars))
    syms = [symbol(v) for v in vs]
    terms = draw(st.lists(st.tuples(st.integers(1, 3), st.tuples(*[st.integers(0, 2)] * nvars)),
                          min_size=2, max_size=3, unique_by=lambda t: t[1]))
    shared = sum(c * _mono(syms, e) for c, e in terms)
    i, j = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
    return ea * shared**i, eb * shared**j, shared, vs


def _unreduced(expr, factor, vars):
    """The JSON form of expr with numerator and denominator both times factor."""
    syms = [symbol(v) for v in vars]
    terms = lambda p: [[str(c), list(e)] for e, c in sp.Poly(p * factor, *syms, domain="QQ").terms()]
    num, den = sp.fraction(sp.together(expr))
    return {"vars": list(vars), "num": terms(num), "den": terms(den)}


@settings(max_examples=40, deadline=None)
@given(_operands(), st.integers(-2, 3), st.fractions(max_denominator=5))
def test_field_arithmetic_matches_the_cancel_path(operands, k, c):
    ea, eb, shared, vs = operands
    a, b = MultiRatFun(ea, vs), MultiRatFun(eb, vs)
    _same(a + b, _cancel_path(ea + eb, vs))
    _same(a - b, _cancel_path(ea - eb, vs))
    _same(a * b, _cancel_path(ea * eb, vs))
    _same(-a, _cancel_path(-ea, vs))
    _same(a * c, _cancel_path(ea * sp.Rational(c.numerator, c.denominator), vs))
    if not b.is_zero():
        _same(a / b, _cancel_path(ea / eb, vs))
    if k >= 0 or not a.is_zero():
        _same(a**k, _cancel_path(ea**k, vs))
    _same(a.partial_derivative(vs[-1]), _cancel_path(ea.diff(symbol(vs[-1])), vs))
    _same(MultiRatFun.from_json(a.to_json()), a)
    _same(MultiRatFun.from_json(_unreduced(ea, shared, vs)), a)
    flipped = ea.subs(symbol(vs[0]), -symbol(vs[0]))
    assert a.is_even_in(vs[0]) == (_cancel_path(flipped, vs) == a)


@settings(max_examples=15, deadline=None)
@given(_operands())
def test_the_exact_gcd_fallback_matches_the_cancel_path(operands):
    # with the heuristic GCD giving up at once, every general GCD is the
    # remainder sequence's
    ea, eb, shared, vs = operands
    a, b = MultiRatFun(ea, vs), MultiRatFun(eb, vs)
    with mock.patch("tqftrec.exact._heuristic_gcd", return_value=None):
        _same(a + b, _cancel_path(ea + eb, vs))
        _same(a * b, _cancel_path(ea * eb, vs))
        _same(MultiRatFun.from_json(_unreduced(ea, shared, vs)), a)


def test_each_gcd_path_finds_a_shared_multivariate_factor():
    x, y = symbol("x"), symbol("y")
    shared = (x + y + 1) * (x - y)
    expr = (2 * x + 3) * (x - y) / (y**2 + 1)
    want = MultiRatFun(expr, ["x", "y"])
    real = exact._heuristic_gcd
    heuristics = {
        "heuristic": real,
        "remainder sequence": lambda f, g: None,
        # the heuristic gives up on the two-variable operands only, so the
        # remainder sequence takes the contents, in y, from it
        "remainder sequence over heuristic contents":
            lambda f, g: None if len(next(iter(f))) == 2 else real(f, g),
    }
    for name, heuristic in heuristics.items():
        with mock.patch("tqftrec.exact._heuristic_gcd", side_effect=heuristic), \
                mock.patch("tqftrec.exact._prs_gcd", wraps=exact._prs_gcd) as prs:
            _same(MultiRatFun.from_json(_unreduced(expr, shared, ["x", "y"])), want)
        assert prs.called == (name != "heuristic"), name


def test_heuristic_gcd_divides_where_a_cofactor_is_not_read_back():
    # f = s^2 t and g = s: the first xi is 2 |g| + 2 = 12, and the cofactor
    # s t has the coefficient -20 outside the digits -6..6
    s = {(0, 0, 2): 1, (1, 1, 0): -5}  # z^2 - 5xy
    t = {(0, 0, 1): 4, (2, 3, 0): 1}  # 4z + x^2 y^3
    f = exact._times(exact._times(s, s), t)
    h, cf, cg = exact._heuristic_gcd(f, s)
    assert exact._times(h, cf) == f and exact._times(h, cg) == s
    assert h in (s, {e: -c for e, c in s.items()})


def test_series_at_infinity_matches_sympy_series():
    x, y, u = symbol("x"), symbol("y"), sp.Symbol("u")
    for expr in ((x**3 + y) / (x**2 - 3 * x * y + 2), y / (x + y**2) ** 2, (x + 1) / (2 * x**4 - y)):
        f = MultiRatFun(expr, ["x", "y"])
        want = sp.series(expr.subs(x, 1 / u), u, 0, 6).removeO()
        for k, coeff in f.series_at_infinity("x", 5).items():
            _same(coeff, _cancel_path(want.coeff(u, k), ["y"]))


# -- the canonical int pair, whatever route made the value ------------------


def _assert_canonical(f):
    """f holds the canonical pair: int maps with no zero coefficient that
    share no polynomial factor, their coefficients with no common divisor,
    and the denominator's graded-lex leading coefficient positive; zero is
    held as 0 / 1."""
    num, den = f._num, f._den
    assert all(type(c) is int and c for c in (*num.values(), *den.values())), f
    if not num:
        assert den == {(0,) * len(f.vars): 1}, f
        return
    assert math.gcd(*num.values(), *den.values()) == 1, f
    assert den[max(den, key=lambda e: (sum(e), e))] > 0, f
    poly = lambda terms: sp.Poly.from_dict(terms, *[symbol(v) for v in f.vars], domain="ZZ")
    assert sp.gcd(poly(num), poly(den)).is_ground, f


@st.composite
def _laurent_maps(draw):
    """(terms, vars): up to four monomials with exponents in [-2, 2] and
    Fraction coefficients, zero among them, in 1 to 3 variables."""
    nvars = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * nvars), coeff, max_size=4))
    return terms, _VARS[:nvars]


def _laurent_expr(terms, vars):
    syms = [symbol(v) for v in vars]
    return sum((sp.Rational(c.numerator, c.denominator) * _mono(syms, e)
                for e, c in terms.items()), sp.Integer(0))


@settings(max_examples=40, deadline=None)
@given(_operands(), _laurent_maps(), st.integers(-2, 3), st.fractions(max_denominator=5),
       st.integers(1, 12))
def test_every_route_returns_the_canonical_pair(operands, laurent, k, c, den):
    ea, eb, shared, vs = operands
    a, b = MultiRatFun(ea, vs), MultiRatFun(eb, vs)
    made = [a, b, a + b, a - b, a * b, -a, a * c, c - a, a + c, a.partial_derivative(vs[-1]),
            MultiRatFun.from_json(a.to_json()), MultiRatFun.from_json(_unreduced(ea, shared, vs)),
            MultiRatFun.constant(c, vs)]
    if not b.is_zero():
        made += [a / b, c / b]
    if k >= 0 or not a.is_zero():
        made.append(a**k)
    if len(vs) > 1:
        made += a.series_at_infinity(vs[0], 3).values()
    terms, lvs = laurent
    made += [MultiRatFun._from_laurent(terms, lvs), MultiRatFun._from_laurent(terms, lvs, den)]
    for f in made:
        _assert_canonical(f)


@settings(max_examples=40, deadline=None)
@given(_operands(), _laurent_maps(), st.fractions(max_denominator=5), st.integers(1, 12))
def test_equal_values_hash_alike_whatever_their_route(operands, laurent, c, den):
    # __eq__ is structural on the canonical pair, so each route to a value
    # must reach the same pair, and __hash__ must agree with __eq__
    ea, eb, _, vs = operands
    a, b = MultiRatFun(ea, vs), MultiRatFun(eb, vs)
    routes = [MultiRatFun.from_json(a.to_json()), (a + b) - b]
    if not b.is_zero():
        routes.append((a * b) / b)
    for f in routes:
        assert f == a and hash(f) == hash(a), f
    terms, lvs = laurent
    want = MultiRatFun(_laurent_expr(terms, lvs) / den, lvs)
    got = MultiRatFun._from_laurent(terms, lvs, den)
    assert got == want and hash(got) == hash(want), got
    # a constant equals its Fraction and hashes as it, whatever made it
    constants = [MultiRatFun.constant(c, vs), (a + c) - a,
                 MultiRatFun(sp.Rational(c.numerator, c.denominator), vs)]
    if not b.is_zero():
        constants.append(b * c / b)
    for f in constants:
        assert f == c and hash(f) == hash(c), f
