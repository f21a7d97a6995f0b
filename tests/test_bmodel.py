"""Unit tests for the spectral-curve differentials."""

import itertools
import math
import random
from fractions import Fraction
from math import comb, factorial

import pytest
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import field

from tqftrec import bmodel
from tqftrec.amodel import catalan
from tqftrec.bmodel import (
    SpectralCurve,
    _residue,
    convert_frame,
    eo_kernel,
    inverse_laplace_coeffs,
    residue_check,
    tvars,
    twisted_wgn,
    verify_kernel_integral,
    verify_w02_identity,
    w02,
    wgn,
)
from tqftrec.exact import BudgetError, MultiRatFun, symbol
from tqftrec.frobenius import omega_tqft, trivial_algebra
from tqftrec.groups import load_group, orbifold_frobenius


def _in_sympy_field(fn):
    """fn as an element of sympy's field of rational functions over QQ in its
    variables, followed by the field's generators.  The field keeps its
    elements cancelled, so two are equal exactly when their difference is 0."""
    K, *gens = field(fn.vars, QQ)
    return (_to_field(K, fn), *gens)


def _to_field(K, f):
    """A value with ``num`` and ``den`` term maps over K's variables, in K."""
    poly = lambda terms: K.ring.from_dict({e: QQ(c.numerator, c.denominator)
                                           for e, c in terms.items()})
    return K.new(poly(f.num), poly(f.den))


def _from_field(f, vars):
    """A sympy field element as a MultiRatFun."""
    terms = lambda p: {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in p.items()}
    return MultiRatFun._from_pair(terms(f.numer), terms(f.denom), vars)


def test_spectral_curve_parametrization(monkeypatch):
    curve = SpectralCurve()
    assert curve.x(Fraction(2)) == Fraction(5, 2)
    assert curve.y(Fraction(2)) == Fraction(-2)
    assert curve.x(curve.z_of_t(Fraction(3))) == curve.x_of_t(Fraction(3))
    assert curve.y(curve.z_of_t(Fraction(3))) == curve.y_of_t(Fraction(3))
    # the constructor compares the maps as rational functions of t
    monkeypatch.setattr(SpectralCurve, "y_of_t", staticmethod(lambda t: (t + 1) / (t - 1)))
    with pytest.raises(AssertionError):
        SpectralCurve()


def test_w02_identity():
    assert verify_w02_identity()


def test_kernel_integral():
    assert verify_kernel_integral()


def test_a_wrong_kernel_fails_both_checks(monkeypatch):
    # the kernel checked against its defining integral is the one the
    # residue check integrates against
    real = bmodel.eo_kernel
    for scale in (2, -1):
        monkeypatch.setattr(bmodel, "eo_kernel", lambda t, t1: scale * real(t, t1))
        assert not verify_kernel_integral(), scale
        assert residue_check(1, 1)["equal"] is False, scale


def test_w02_coefficient():
    got, t1, t2 = _in_sympy_field(w02())
    assert not (got - 1 / (t1 + t2) ** 2)


def test_w11_pinned():
    got, t1 = _in_sympy_field(wgn(1, 1))
    target = -((t1**2 - 1) ** 3) / (128 * t1**4)
    assert not (got - target)


def test_w03_pinned():
    got, t1, t2, t3 = _in_sympy_field(wgn(0, 3))
    target = -(1 - 1 / (t1**2 * t2**2 * t3**2)) / 16
    assert not (got - target)


def test_w21_pinned():
    got, t1 = _in_sympy_field(wgn(2, 1))
    target = (
        -21 * (t1**2 - 1) ** 7 * (5 * t1**4 + 6 * t1**2 + 5)
        / (524288 * t1**10)
    )
    assert not (got - target)


def _random_poly(rng, n):
    """A nonzero polynomial map in n variables: up to three terms of degree
    at most 2 in each variable, with small rational coefficients."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            terms[e] = terms.get(e, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        terms = {e: c for e, c in terms.items() if c}
    return terms


def _sympy_residue(f, t, a, k):
    """The residue of f at t = a, a pole of order at most k, by the limit
    formula: d^(k-1)/dt^(k-1) [(t-a)^k f] / (k-1)! at t = a."""
    h = (t - a) ** k * f
    for _ in range(k - 1):
        h = h.diff(t)
    at = lambda p: p.compose(t.numer, a.numer)
    return h.field.new(at(h.numer), at(h.denom)) / factorial(k - 1)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_residue_agrees_with_sympy(order):
    # f = p (t - a)^c / ((t - a)^(order + c) r), a = +-t_j, built with c
    # common factors for the arithmetic to cancel, so that the pole has the
    # given order exactly when r and p do not vanish at a; order 0 is a
    # regular point
    vars = ("t", "t1", "t2")
    rng = random.Random(order)
    K, t, *ts = field(vars, QQ)
    one = {(0, 0, 0): 1}
    checked = 0
    for j, s, c in itertools.product((1, 2), (1, -1), (0, 1)):
        p, r = (_random_poly(rng, 3) for _ in range(2))
        r[(0, 0, 0)] = r.get((0, 0, 0), 0) + 5  # r(a) is not the zero polynomial
        x, *xs = MultiRatFun.gens(vars)
        f = (MultiRatFun._from_pair(p, one, vars) * (x - s * xs[j - 1]) ** c
             / ((x - s * xs[j - 1]) ** (order + c) * MultiRatFun._from_pair(r, one, vars)))
        ours = _residue(f, j, s)
        theirs = _sympy_residue(_to_field(K, f), t, s * ts[j - 1], order) if order else K.zero
        assert ours.vars == vars[1:]
        lifted = lambda terms: {(0,) + e: v for e, v in terms.items()}
        ours = MultiRatFun._from_pair(lifted(ours.num), lifted(ours.den), vars)
        assert not (ours - _from_field(theirs, vars)).num, (j, s, c)
        checked += bool(theirs)
    assert bool(checked) == bool(order)


@pytest.mark.parametrize("g, n", [(1, 1), (0, 3)])
def test_residue_check_fails_on_a_perturbed_production(monkeypatch, g, n):
    real = bmodel.wgn
    terms = real(g, n)._laurent()
    terms[min(terms)] += Fraction(1, 10**9)
    wrong = MultiRatFun._from_laurent(terms, tvars(n))
    monkeypatch.setattr(bmodel, "wgn", lambda *gn: wrong if gn == (g, n) else real(*gn))
    report = residue_check(g, n)
    assert report["in_budget"] and report["production"] is wrong
    assert report["equal"] is False


def test_unstable_wgn_rejected():
    with pytest.raises(ValueError):
        wgn(0, 1)


def test_twisted_wgn_trivial_algebra_reduces():
    A = trivial_algebra()
    tw = twisted_wgn(1, 1, A)
    assert omega_tqft(A, 1, 1, [A.basis(0)]) == 1
    assert tw.values[(0,)] == wgn(1, 1)


def test_twisted_wgn_z2_pinned():
    A = orbifold_frobenius(load_group("builtin:Z2"))
    tw = twisted_wgn(1, 1, A)
    # e_[1] decoration: Omega_{1,1} = 2, so the differential doubles
    assert tw.values[(0,)] == 2 * wgn(1, 1)


@pytest.mark.parametrize("g, n", [(2, 2), (0, 5)])
def test_twisted_wgn_z2_factorizes_past_acceptance(g, n):
    A = orbifold_frobenius(load_group("builtin:Z2"))
    tw = twisted_wgn(g, n, A)
    scalar = wgn(g, n)
    scaled = {}
    assert len(tw.values) == A.dim**n
    for idx, value in tw.values.items():
        om = omega_tqft(A, g, n, [A.basis(i) for i in idx])
        if om not in scaled:
            scaled[om] = scalar * om
        assert value == scaled[om], idx


def test_a_split_carries_each_index_to_its_slot():
    # a split term joins the index tuples of its two halves and puts them in
    # the order of the bracket's slots, as _place puts the variables; every
    # w is Omega times a scalar, symmetric in its slots, so a lower w is
    # planted whose Laurent map records its own index tuple: slot j of the
    # index tuple idx carries t_j^(idx[j] + 1).  In w_{0,4} each split has a
    # planted (0,3) half, and each slot not from the (0,2) half, which its
    # pole names, must carry the index its exponent records
    S3 = orbifold_frobenius(load_group("builtin:S3"))
    rec = bmodel._Recursion(S3)
    rec.memo[(0, 3)] = (1, {idx: {(0,) + tuple(i + 1 for i in idx[1:]): 1}
                            for idx in itertools.product(range(S3.dim), repeat=3)})
    checked = 0
    _, bracket = rec._bracket(0, 4)
    for (idx, poles), terms in bracket.items():
        paired = {j for _, j in poles}
        for e in terms:
            for j in set(range(1, 4)) - paired:
                assert e[j] == idx[j] + 1, (idx, poles, e)
                checked += 1
    assert checked > 100


def test_each_memo_entry_is_one_reduced_int_form():
    # the recursion keeps each w_{g,n} as (den, {index tuple: Laurent map of
    # ints}): den > 0, no zero int, no empty entry, and no factor common to
    # den and every int; over the trivial algebra it is the scalar w_{g,n}
    for A in (trivial_algebra(), orbifold_frobenius(load_group("builtin:Z3")),
              orbifold_frobenius(load_group("builtin:S3"))):
        rec = bmodel._Recursion(A)
        rec.tensor(0, 4)
        rec.tensor(2, 1)
        assert set(rec.memo) == {(1, 1), (0, 3), (0, 4), (1, 2), (2, 1)}
        for (g, n), form in rec.memo.items():
            assert type(form) is tuple and len(form) == 2, (g, n)
            den, tensor = form
            assert type(den) is int and den > 0, (g, n)
            assert tensor and all(tensor.values()), (g, n)
            ints = [c for laurent in tensor.values() for c in laurent.values()]
            assert all(type(c) is int and c for c in ints), (g, n)
            assert math.gcd(den, *ints) == 1, (g, n)
            if A.dim == 1:
                (laurent,) = tensor.values()
                assert {e: Fraction(c, den) for e, c in laurent.items()} == wgn(g, n)._laurent()


def test_inverse_laplace_budget_gate():
    with pytest.raises(BudgetError):
        inverse_laplace_coeffs(1, 1, 40)


def test_series_tables_satisfy_identities_they_do_not_use():
    # the tables build w = u (1 + w^2) by iteration and t = 1 + 2 sum w^j;
    # (1 - W) t = 1 + W for the closed form W = sum_k Catalan(k) u^(2k+1)
    # pins their w to W, and t^k t^-k = 1, each truncated at the order
    order = bmodel.SERIES_ORDER_BUDGET + 1
    tpow = bmodel._series_tables(order)

    def mul(a, b):
        out = {}
        for (i, x), (j, y) in itertools.product(a.items(), b.items()):
            if i + j <= order:
                out[i + j] = out.get(i + j, 0) + x * y
        return {k: c for k, c in out.items() if c}

    W = {2 * k + 1: comb(2 * k, k) // (k + 1) for k in range((order + 1) // 2)}
    one_minus_W = {0: 1, **{k: -c for k, c in W.items()}}
    assert mul(one_minus_W, tpow(1)) == {0: 1, **W}
    for k in range(1, order + 1):
        assert mul(tpow(k), tpow(-k)) == {0: 1}, k
    for k in range(-order, order + 1):
        assert tpow(k) and all(type(c) is int for c in tpow(k).values()), k


def test_inverse_laplace_matches_catalan_spot():
    for g, n, mu_max in [(1, 1, 6), (2, 1, 10), (2, 2, 6), (1, 3, 4), (0, 5, 2),
                         (0, 4, 6), (0, 2, 10), (0, 5, 4), (1, 4, 4)]:
        coeffs = inverse_laplace_coeffs(g, n, mu_max)
        profiles = list(itertools.product(range(1, mu_max + 1), repeat=n))
        assert set(coeffs) <= set(profiles)
        # the values go to the CLI, which renders Fractions
        assert all(type(v) is Fraction for v in coeffs.values()), (g, n)
        nonzero = 0
        for mu in profiles:
            expected = (-1) ** n * catalan(g, n, mu)
            assert coeffs.get(mu, Fraction(0)) == expected, (g, n, mu)
            nonzero += expected != 0
        assert nonzero, (g, n)
    # a one-vertex genus-3 graph has at least six edges, so C_{3,1}(mu) = 0
    # for mu <= 10: every term of w_{3,1} must cancel out of these coefficients
    assert inverse_laplace_coeffs(3, 1, 10) == {}
    assert not any(catalan(3, 1, (mu,)) for mu in range(1, 11))
    assert catalan(3, 1, (12,))


def test_inverse_laplace_02_matches_counts():
    from tqftrec.cellgraph import count_arrowed_graphs

    coeffs = inverse_laplace_coeffs(0, 2, 4)
    for mu in [(1, 1), (2, 2), (1, 3), (4, 2)]:
        assert coeffs.get(mu, Fraction(0)) == count_arrowed_graphs(0, 2, mu)


def test_convert_frame_t_is_identity():
    f = wgn(1, 1)
    assert convert_frame(f, 1, "t") == f


def test_convert_frame_unknown_coords():
    with pytest.raises(ValueError):
        convert_frame(wgn(1, 1), 1, "q")


def _direct_frame(fn: MultiRatFun, n: int, coords: str) -> MultiRatFun:
    """The frame change by sympy substitution and cancellation."""
    ts = [symbol("t%d" % (i + 1)) for i in range(n)]
    if coords == "x":
        return MultiRatFun(fn.expr * sp.prod([(t**2 - 1) ** 2 / (8 * t) for t in ts]), fn.vars)
    zs = [symbol("z%d" % (i + 1)) for i in range(n)]
    sub = fn.expr.subs({t: (z + 1) / (z - 1) for t, z in zip(ts, zs)}, simultaneous=True)
    return MultiRatFun(sub * sp.prod([-2 / (z - 1) ** 2 for z in zs]), [str(z) for z in zs])


def test_frames_match_direct_substitution():
    cases = [(wgn(g, n), n) for g, n in [(1, 1), (0, 3), (2, 1), (1, 2)]]
    S3 = orbifold_frobenius(load_group("builtin:S3"))
    cases += [(fn, 3) for fn in twisted_wgn(0, 3, S3).values.values()]
    assert any(fn.is_zero() for fn, _ in cases)
    direct = {}
    for fn, n in cases:
        for coords in ("x", "z"):
            if (fn, coords) not in direct:
                direct[fn, coords] = _direct_frame(fn, n, coords).to_json()
            assert convert_frame(fn, n, coords).to_json() == direct[fn, coords], (fn, coords)


def test_z_frame_w04_at_rational_points():
    w, fz = wgn(0, 4), convert_frame(wgn(0, 4), 4, "z")
    for point in [(2, 3, -2, 5), (sp.Rational(1, 2), 7, sp.Rational(-5, 3), 4),
                  (sp.Rational(9, 4), sp.Rational(-1, 3), 6, sp.Rational(2, 7))]:
        zs = [sp.Rational(q) for q in point]
        want = w.expr.subs({symbol("t%d" % (i + 1)): (z + 1) / (z - 1) for i, z in enumerate(zs)})
        want *= sp.prod([-2 / (z - 1) ** 2 for z in zs])
        got = fz.expr.subs({symbol("z%d" % (i + 1)): z for i, z in enumerate(zs)})
        assert got == want != 0, point


def test_convert_frame_rejects_non_laurent_input():
    for coords in ("x", "z"):
        with pytest.raises(ValueError):
            convert_frame(w02(), 2, coords)


def test_eo_kernel_shape():
    assert eo_kernel(Fraction(2), Fraction(1)) == Fraction(9, 64)
    k = eo_kernel(*MultiRatFun.gens(("t", "t1")))
    assert isinstance(k, MultiRatFun)
    assert k.vars == ("t", "t1")
