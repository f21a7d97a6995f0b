"""Unit tests for the spectral-curve differentials."""

import itertools
from fractions import Fraction

import pytest
import sympy as sp

from tqftrec import bmodel
from tqftrec.amodel import catalan
from tqftrec.bmodel import (
    SpectralCurve,
    convert_frame,
    eo_kernel,
    in_field,
    inverse_laplace_coeffs,
    rational_field,
    residue_check,
    spectral_curve,
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


def test_spectral_curve_parametrization():
    curve = spectral_curve()
    assert isinstance(curve, SpectralCurve)
    # x = z + 1/z and the t-parametrization agree by construction
    assert curve.x.substitute("z", Fraction(2)).as_rational() == Fraction(5, 2)
    assert curve.y.substitute("z", Fraction(2)).as_rational() == Fraction(-2)
    assert curve.x.substitute("z", curve.z_of_t) == curve.x_of_t


def test_w02_identity():
    assert verify_w02_identity()


def test_kernel_integral():
    assert verify_kernel_integral()


def test_w02_coefficient():
    K, t1, t2 = rational_field(("t1", "t2"))
    assert not (in_field(w02(), K) - 1 / (t1 + t2) ** 2)


def test_w11_pinned():
    K, t1 = rational_field(("t1",))
    target = -((t1**2 - 1) ** 3) / (128 * t1**4)
    assert not (in_field(wgn(1, 1), K) - target)


def test_w03_pinned():
    K, t1, t2, t3 = rational_field(("t1", "t2", "t3"))
    target = -(1 - 1 / (t1**2 * t2**2 * t3**2)) / 16
    assert not (in_field(wgn(0, 3), K) - target)


def test_w21_pinned():
    K, t1 = rational_field(("t1",))
    target = (
        -21 * (t1**2 - 1) ** 7 * (5 * t1**4 + 6 * t1**2 + 5)
        / (524288 * t1**10)
    )
    assert not (in_field(wgn(2, 1), K) - target)


def test_structural_invariants():
    for (g, n) in [(1, 1), (0, 3), (0, 4), (1, 2), (2, 1)]:
        f = wgn(g, n)
        assert f.denominator_is_monomial(), (g, n)
        assert f.is_laurent_in_squares(), (g, n)
        for i in range(1, n + 1):
            assert f.is_even_in("t%d" % i), (g, n, i)


def test_residue_check_reports_agreement():
    for (g, n) in [(1, 1), (0, 3)]:
        report = residue_check(g, n)
        assert report["in_budget"] and report["equal"], report


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


def test_inverse_laplace_budget_gate():
    with pytest.raises(BudgetError):
        inverse_laplace_coeffs(1, 1, 40)


def test_inverse_laplace_matches_catalan_spot():
    for g, n, mu_max in [(1, 1, 6), (2, 1, 10), (2, 2, 6), (1, 3, 4), (0, 5, 2),
                         (0, 4, 6), (0, 2, 10)]:
        coeffs = inverse_laplace_coeffs(g, n, mu_max)
        profiles = list(itertools.product(range(1, mu_max + 1), repeat=n))
        assert set(coeffs) <= set(profiles)
        nonzero = 0
        for mu in profiles:
            expected = (-1) ** n * catalan(g, n, mu)
            assert coeffs.get(mu, Fraction(0)) == expected, (g, n, mu)
            nonzero += expected != 0
        assert nonzero, (g, n)


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
    k = eo_kernel()
    assert isinstance(k, MultiRatFun)
    assert set(k.vars) >= {"t", "t1"}
