"""Unit tests for the exact rational-function layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(ZeroDenominatorError):
        MultiRatFun.from_fraction("1", "0", ["x"])


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
