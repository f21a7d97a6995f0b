"""Unit tests for Frobenius algebras and the surface amplitudes."""

from fractions import Fraction

import pytest

from tqftrec.frobenius import (
    AxiomError,
    FrobeniusAlgebra,
    coproduct,
    counit,
    delta_star_contract,
    delta_star_split,
    euler_power,
    handle,
    m_star_contract,
    omega_functional,
    omega_tqft,
    pairing,
    product,
    three_point,
    trivial_algebra,
)
from tqftrec.groups import BUILTIN_GROUPS, load_group, orbifold_frobenius


def z2_algebra():
    return orbifold_frobenius(load_group("builtin:Z2"))


def test_trivial_algebra_amplitudes():
    A = trivial_algebra()
    one = A.unit_element()
    assert omega_tqft(A, 0, 1, [one]) == 1
    assert omega_tqft(A, 5, 2, [one, one]) == 1


def test_degenerate_pairing_rejected():
    with pytest.raises(AxiomError):
        FrobeniusAlgebra(1, ["1"], [[[1]]], [[0]])


def test_derived_inverse_and_unit_match_sympy():
    # the Fraction elimination against sympy's matrix inverse and solver
    import sympy as sp

    for name in BUILTIN_GROUPS:
        A = orbifold_frobenius(load_group("builtin:" + name))
        s = A.dim
        eta = sp.Matrix(s, s, lambda i, j: sp.Rational(str(A.pairing[i][j])))
        inv = eta.inv()
        assert [[sp.Rational(str(x)) for x in row] for row in A.pairing_inverse] == \
            [[inv[i, j] for j in range(s)] for i in range(s)], name
        u = sp.symbols("u0:%d" % s)
        eqs = [sum(u[i] * sp.Rational(str(A.product_tensor[i][j][k])) for i in range(s))
               - (1 if j == k else 0) for j in range(s) for k in range(s)]
        (sol,) = sp.linsolve(eqs, u)
        assert [sp.Rational(str(x)) for x in A.unit] == list(sol), name


@pytest.mark.parametrize("product_tensor, pairing_matrix, axiom", [
    ([[[1]]], [[0]], "degenerate pairing"),
    ([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [[1, 1], [1, 1]], "degenerate pairing"),
    ([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [[1, 0], [2, 1]], "symmetric pairing"),
    ([[[0]]], [[1]], "unit existence"),
    ([[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[1, 0], [0, 1]], "unit existence"),
])
def test_derivation_failures_name_their_axiom(product_tensor, pairing_matrix, axiom):
    with pytest.raises(AxiomError) as info:
        FrobeniusAlgebra(len(pairing_matrix), [str(i) for i in range(len(pairing_matrix))],
                         product_tensor, pairing_matrix)
    assert info.value.axiom == axiom


def test_non_associative_product_rejected():
    # c[i][j][k] with (e1*e1)*e1 != e1*(e1*e1)
    prod = [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 1]],
    ]
    bad = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 1]],
    ]
    FrobeniusAlgebra(2, ["1", "e"], prod, [[1, 0], [0, 1]])
    with pytest.raises(AxiomError):
        FrobeniusAlgebra(2, ["1", "e"], bad, [[1, 0], [0, 1]])


def test_z2_structure():
    A = z2_algebra()
    # two classes, both self-inverse, centralizer order 2
    assert A.dim == 2
    assert A.pairing[0][0] == Fraction(1, 2)
    assert A.pairing[0][1] == 0
    assert A.pairing[1][1] == Fraction(1, 2)
    one, e = A.basis(0), A.basis(1)
    assert product(e, e).coeffs == one.coeffs
    assert pairing(one, one) == Fraction(1, 2)
    assert counit(one) == Fraction(1, 2)
    assert three_point(one, e, e) == Fraction(1, 2)


def test_z2_euler_element_and_handle():
    A = z2_algebra()
    one = A.unit_element()
    # e = (m o delta)(1); for Z2 the euler element is 4 * identity class
    assert A.euler == (Fraction(4), Fraction(0))
    assert handle(one).coeffs == A.euler
    assert euler_power(A, 2).coeffs == (Fraction(16), Fraction(0))
    # genus pinned values: Omega_{g,1}(1) = sum over classes of weights
    assert omega_tqft(A, 1, 1, [one]) == 2


def test_pairing_of_coproduct_legs_closes_a_handle():
    # eta(delta(v)) = counit(m(delta(v))) = counit(e * v)
    A = z2_algebra()
    for i in range(A.dim):
        v = A.basis(i)
        mat = coproduct(v)
        paired = sum(
            mat[a][b] * A.pairing[a][b]
            for a in range(A.dim)
            for b in range(A.dim)
        )
        assert paired == counit(product(A.euler_element(), v))
        assert handle(v).coeffs == product(A.euler_element(), v).coeffs


def test_omega_functional_unstable_cases():
    A = z2_algebra()
    F01 = omega_functional(A, 0, 1)
    F02 = omega_functional(A, 0, 2)
    assert F01.values[(0,)] == A.counit[0]
    assert F02.values[(0, 1)] == A.pairing[0][1]
    assert F02.is_symmetric()


def test_contraction_identities_match_surfaces():
    A = z2_algebra()
    # contracting the first two legs of Omega_{g-1,n+1} closes a handle
    assert delta_star_contract(omega_functional(A, 0, 2)) == omega_functional(A, 1, 1)
    assert delta_star_contract(omega_functional(A, 0, 3)) == omega_functional(A, 1, 2)
    # splitting distributes the legs over two lower surfaces
    assert delta_star_split(
        omega_functional(A, 0, 2), omega_functional(A, 1, 1)
    ) == omega_functional(A, 1, 2)
    # inserting a multiplied slot adds a puncture
    assert m_star_contract(omega_functional(A, 1, 1), 2) == omega_functional(A, 1, 2)


def test_functional_symmetry():
    A = z2_algebra()
    assert omega_functional(A, 2, 3).is_symmetric()


def test_element_validation():
    A = z2_algebra()
    with pytest.raises(ValueError):
        omega_tqft(A, 0, 2, [A.basis(0)])


def test_to_json_has_stable_fields():
    A = z2_algebra()
    data = A.to_json()
    assert data["dim"] == 2
    assert list(data["labels"]) == list(A.labels)


def test_hash_agrees_with_equality():
    A, B = z2_algebra(), z2_algebra()
    assert A is not B and A == B and hash(A) == hash(B)
    assert A.basis(1) == B.basis(1)
    assert len({A.basis(1), B.basis(1)}) == 1
    assert len({A.basis(0), B.basis(1)}) == 2
