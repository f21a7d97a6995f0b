"""Unit tests for psi-class correlators and their decorated variant."""

import math
from fractions import Fraction

from tqftrec.frobenius import omega_tqft
from tqftrec.groups import load_group, orbifold_frobenius
from tqftrec.intersect import (
    CorrelatorTable,
    check_tauG,
    correlator,
    double_factorial,
    twisted_correlator,
)


def test_double_factorial_convention():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48


def test_base_correlators():
    assert correlator(0, 3, (0, 0, 0)) == 1
    assert correlator(1, 1, (1,)) == Fraction(1, 24)


def test_dimension_gate():
    assert correlator(0, 3, (1, 0, 0)) == 0
    assert correlator(1, 1, (0,)) == 0
    assert correlator(2, 1, (3,)) == 0


def test_pinned_higher_values():
    # <tau_0^2 tau_1>_{0,4} = 1, <tau_4>_{2,1} = 1/1152
    assert correlator(0, 4, (0, 0, 1, 0)) == 1
    assert correlator(2, 1, (4,)) == Fraction(1, 1152)
    assert correlator(1, 2, (0, 2)) == Fraction(1, 24)


def test_one_point_closed_form():
    # <tau_{3g-2}>_{g,1} = 1 / (24^g g!)
    factorial = 1
    for g in range(1, 7):
        factorial *= g
        assert correlator(g, 1, (3 * g - 2,)) == Fraction(1, 24**g * factorial), g


def _dijkgraaf_two_point(g):
    """{k1: <tau_k1 tau_k2>_g}, k1 + k2 = 3g - 1, from Dijkgraaf's two-point
    function (hep-th/9201003):
        sum <tau_k1 tau_k2>_g x^k1 y^k2
            = exp((x^3 + y^3)/24) / (x + y) sum_n n!/(2n+1)! (xy(x+y)/2)^n,
    less the unstable genus-0 term 1/(x + y).  The numerator's part of
    degree 3g is sum_{m+n=g} (x^3+y^3)^m / (24^m m!) n!/(2n+1)! (xy(x+y)/2)^n,
    held as {power of x: coefficient}, and is divided by x + y exactly."""
    top = [Fraction(0)] * (3 * g + 1)  # top[i]: the coefficient of x^i y^(3g-i)
    for n in range(g + 1):
        m = g - n
        scale = Fraction(math.factorial(n), math.factorial(2 * n + 1) * 2 ** n
                         * 24 ** m * math.factorial(m))
        # (x^3 + y^3)^m (xy)^n (x + y)^n
        for a in range(m + 1):
            for b in range(n + 1):
                top[3 * a + n + b] += scale * math.comb(m, a) * math.comb(n, b)
    quotient, carry = {}, Fraction(0)
    for i in range(3 * g):  # top[i] = q[i - 1] + q[i] for q the quotient by x + y
        quotient[i] = carry = top[i] - carry
    assert top[3 * g] == carry
    return quotient


def test_two_point_correlators_match_dijkgraaf():
    # a whole-table oracle for the correlator's two-point profiles, whose
    # terms all come from the split loop and the joins
    assert _dijkgraaf_two_point(1) == {0: Fraction(1, 24), 1: Fraction(1, 24), 2: Fraction(1, 24)}
    for g in range(1, 5):
        for k1, value in _dijkgraaf_two_point(g).items():
            assert correlator(g, 2, (k1, 3 * g - 1 - k1)) == value != 0, (g, k1)


def test_string_equation_sample():
    # <tau_0 prod tau_k> = sum_j <... tau_{k_j - 1} ...>
    for (g, k) in [(0, (0, 0, 1)), (1, (1, 1)), (1, (2,)), (2, (4,))]:
        n = len(k)
        lhs = correlator(g, n + 1, (0,) + k)
        rhs = sum(
            correlator(g, n, k[:j] + (k[j] - 1,) + k[j + 1 :])
            for j in range(n)
            if k[j] >= 1
        )
        assert lhs == rhs, (g, k)


def test_dilaton_equation_sample():
    # <tau_1 prod tau_k> = (2g - 2 + n) <prod tau_k>
    for (g, k) in [(0, (0, 0, 0)), (1, (1,)), (2, (4,)), (1, (0, 2))]:
        n = len(k)
        lhs = correlator(g, n + 1, (1,) + k)
        rhs = (2 * g - 2 + n) * correlator(g, n, k)
        assert lhs == rhs, (g, k)


class PrintedTable(CorrelatorTable):
    """The pair term divided by (2 k1 - 1)!! instead of (2 k1 + 1)!!."""

    def _joins(self, k1, kj, stable):
        ((c, w),) = super()._joins(k1, kj, stable)
        return ((c, w * (2 * k1 + 1)),)


def test_printed_convention_breaks_dilaton():
    # the documented reason the recursion divides by (2 k1 + 1)!!
    assert PrintedTable().untwisted(0, (1, 0, 0, 0)) == 3
    assert correlator(0, 4, (1, 0, 0, 0)) == 1


def test_negative_exponents_vanish():
    assert correlator(0, 3, (-1, 1, 0)) == 0


def test_twisted_base_cases():
    A = orbifold_frobenius(load_group("builtin:Z2"))
    one = A.basis(0)
    # <tau_1(e_[1])>^{Z2}_{1,1} = 1/12
    assert twisted_correlator(1, 1, (1,), A, [one]) == Fraction(1, 12)
    vs = [one, one, one]
    assert twisted_correlator(0, 3, (0, 0, 0), A, vs) == A.three_point[0][0][0]


def test_twisted_factorizes_spot():
    A = orbifold_frobenius(load_group("builtin:S3"))
    for idx in ((0,), (1,), (2,)):
        vs = [A.basis(i) for i in idx]
        report = check_tauG(1, 1, (1,), A, vs)
        assert report["equal"], report
        assert report["lhs"] == correlator(1, 1, (1,)) * omega_tqft(A, 1, 1, vs)


def test_twisted_multilinearity():
    A = orbifold_frobenius(load_group("builtin:Z3"))
    v = A.element([1, 2, -1])
    direct = twisted_correlator(1, 1, (1,), A, [v])
    expanded = sum(
        c * twisted_correlator(1, 1, (1,), A, [A.basis(i)])
        for i, c in enumerate([1, 2, -1])
    )
    assert direct == expanded


def test_decorated_table_answers_scalar_queries():
    # from the shared trivial-algebra table of its own family
    z2 = orbifold_frobenius(load_group("Z2"))
    assert CorrelatorTable(z2).untwisted(2, (4,)) == correlator(2, 1, (4,))
    assert PrintedTable(z2).untwisted(0, (1, 0, 0, 0)) == 3
