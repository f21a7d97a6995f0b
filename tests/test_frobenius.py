"""Unit tests for Frobenius algebras and the surface amplitudes."""

import copy
import itertools
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from tqftrec.exact import BudgetError
from tqftrec.frobenius import (
    EULER_POWER_BITS,
    AlgebraElement,
    AxiomError,
    FrobeniusAlgebra,
    coproduct,
    counit,
    euler_power,
    handle,
    omega_tqft,
    pairing,
    product,
    three_point,
    trivial_algebra,
)
from tqftrec.groups import (
    BUILTIN_GROUPS,
    conjugacy,
    group_from_permutations,
    load_group,
    omega_brute,
    orbifold_frobenius,
)

from functionals import amplitude_chain, is_symmetric, omega_functional, rescaled


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
    assert F01.get((0,), 0) == A.counit[0]
    assert F02.get((0, 1), 0) == A.pairing[0][1]
    assert is_symmetric(F02)


def test_functional_symmetry():
    A = z2_algebra()
    assert is_symmetric(omega_functional(A, 2, 3))


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
    # an equal algebra is the same object, so equality and hashing are identity
    A, B = z2_algebra(), z2_algebra()
    assert A is B
    assert FrobeniusAlgebra.__eq__ is object.__eq__ and FrobeniusAlgebra.__hash__ is object.__hash__
    assert A.basis(1) == B.basis(1)
    assert len({A.basis(1), B.basis(1)}) == 1
    assert len({A.basis(0), B.basis(1)}) == 2


def test_copies_and_pickles_are_the_interned_instance():
    A = orbifold_frobenius(load_group("builtin:S3"))
    assert copy.copy(A) is A
    assert copy.deepcopy(A) is A
    assert pickle.loads(pickle.dumps(A)) is A
    v = copy.deepcopy(A.basis(1))
    assert v.algebra is A and v == A.basis(1)


def test_labels_are_part_of_the_interned_key():
    # the trivial algebra under two labels: two objects, each with its own labels
    builtin = orbifold_frobenius(load_group("builtin:trivial"))
    assert trivial_algebra() is trivial_algebra()
    assert builtin is not trivial_algebra()
    assert (builtin.labels, trivial_algebra().labels) == (("[1]",), ("1",))
    assert builtin.product_tensor == trivial_algebra().product_tensor


# -- the algebra's sparse views and caches -----------------------------------


def _algebras():
    yield "trivial_algebra", trivial_algebra()
    for name in BUILTIN_GROUPS:
        yield name, orbifold_frobenius(load_group("builtin:" + name))


def _zeros(s, depth):
    return [_zeros(s, depth - 1) for _ in range(s)] if depth else Fraction(0)


def test_sparse_views_equal_their_dense_tensors():
    for name, A in _algebras():
        s = A.dim
        views = {
            "product_by_pair": (A.product_tensor, [
                ((i, j, k), c) for i in range(s) for j in range(s)
                for k, c in A.product_by_pair[i][j]]),
            "product_by_output": (A.product_tensor, [
                ((i, j, k), c) for k in range(s) for i, j, c in A.product_by_output[k]]),
            "coproduct_by_input": (A.coproduct_tensor, [
                ((i, a, b), w) for i in range(s) for a, b, w in A.coproduct_by_input[i]]),
            "coproduct_by_legs": (A.coproduct_tensor, [
                ((i, a, b), w) for a in range(s) for b in range(s)
                for i, w in A.coproduct_by_legs[a][b]]),
        }
        for view, (dense, entries) in views.items():
            rebuilt = _zeros(s, 3)
            for (x, y, z), c in entries:
                assert c != 0 and rebuilt[x][y][z] == 0, (name, view, (x, y, z))
                rebuilt[x][y][z] = c
            assert rebuilt == [[list(row) for row in plane] for plane in dense], (name, view)


def _dense_product(A, x, y):
    s = A.dim
    return tuple(
        sum((x[i] * y[j] * A.product_tensor[i][j][k] for i in range(s) for j in range(s)),
            Fraction(0))
        for k in range(s)
    )


def test_euler_powers_equal_repeated_dense_products():
    # 16 = 10000 and 37 = 100101 in binary: square-and-multiply takes its
    # products in the order furthest from the chain of g products
    checked = set(range(6)) | {16, 37}
    for name, A in _algebras():
        acc = A.unit
        for g in range(max(checked) + 1):
            if g in checked:
                assert euler_power(A, g).coeffs == acc, (name, g)
            acc = _dense_product(A, acc, A.euler)


def test_elements_from_ints_strings_and_fractions_agree():
    A = z2_algebra()
    assert A.element([1, -2]).coeffs == A.element(["1", "-2"]).coeffs \
        == A.element([Fraction(1), Fraction(-2)]).coeffs == (Fraction(1), Fraction(-2))
    half = A.element(["1/2", 0]).coeffs
    assert half == A.element([Fraction(1, 2), Fraction(0)]).coeffs == (Fraction(1, 2), Fraction(0))
    assert all(type(c) is Fraction for c in half + A.element([3, True]).coeffs)
    with pytest.raises(ValueError):
        A.element([Fraction(1)])


def test_handed_out_elements_cannot_change_the_caches():
    A = orbifold_frobenius(load_group("builtin:S3"))
    before = (A.basis(1).coeffs, euler_power(A, 2).coeffs, A.unit_element().coeffs,
              omega_tqft(A, 2, 2, [A.basis(1), A.basis(2)]))
    for el in (A.basis(1), euler_power(A, 2), A.unit_element()):
        with pytest.raises(AttributeError):
            el.coeffs = (Fraction(7),) * A.dim
    after = (A.basis(1).coeffs, euler_power(A, 2).coeffs, A.unit_element().coeffs,
             omega_tqft(A, 2, 2, [A.basis(1), A.basis(2)]))
    assert after == before


def test_elements_are_immutable_values_that_the_algebra_hands_out_once():
    A = orbifold_frobenius(load_group("builtin:S3"))
    mixed = A.element([1, 0, "-2/3"])
    for el in (A.basis(1), mixed):
        for name, value in (("coeffs", A.basis(2).coeffs), ("algebra", z2_algebra())):
            with pytest.raises(AttributeError):
                setattr(el, name, value)
    assert mixed.coeffs == (1, 0, Fraction(-2, 3)) and mixed.algebra is A
    found = {A.basis(1): "x"}
    with pytest.raises(AttributeError):
        A.basis(1).coeffs = A.basis(2).coeffs
    assert found[A.basis(1)] == "x" and A.basis(2) not in found
    assert all(A.basis(i) is A.basis(i) for i in range(A.dim))
    assert A.unit_element() is A.unit_element() is euler_power(A, 0)
    assert A.euler_element() is A.euler_element() is euler_power(A, 1)
    assert euler_power(A, 3) is euler_power(A, 3)
    for v in (A.basis(1), euler_power(A, 3), mixed):
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert twin == v and hash(twin) == hash(v) and twin.algebra is A
            assert twin.index == v.index


def test_an_element_knows_whether_it_is_a_basis_vector():
    A = orbifold_frobenius(load_group("builtin:S3"))
    half = Fraction(3, 2)
    for i in range(A.dim):
        built = A.element([int(j == i) for j in range(A.dim)])
        assert A.basis(i).index == built.index == i
        assert built == A.basis(i)
        scaled = A.element([half * c for c in A.basis(i).coeffs])
        assert scaled.index is None
    assert A.element([0] * A.dim).index is None
    two = A.element([1, 0, 1])
    assert two.index is None
    assert trivial_algebra().unit_element().index == 0
    # the index is the one fact an element derives from its coefficients
    assert AlgebraElement.__slots__ == ("algebra", "coeffs", "index")
    for v in (A.basis(2), A.element([half, 0, 0]), A.element([0] * A.dim), two):
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert twin.index == v.index
            with pytest.raises(AttributeError):
                twin.index = 1


def test_int_amplitude_fill_equals_the_fraction_chain():
    from tqftrec.frobenius import _amplitude

    algebras = [orbifold_frobenius(load_group("builtin:" + name)) for name in BUILTIN_GROUPS]
    S3 = orbifold_frobenius(load_group("builtin:S3"))
    algebras.append(rescaled(S3, (2, 3, 1), Fraction(5, 7)))
    algebras.append(rescaled(S3, (1, Fraction(1, 2), 3), Fraction(-4, 3)))
    for A in algebras:
        for g in range(4):
            for n in range(1, 5):
                for idx in itertools.combinations_with_replacement(range(A.dim), n):
                    A._amplitudes.pop((g, idx), None)  # so that _amplitude fills it
                    want = amplitude_chain(A, g, idx)
                    got = _amplitude(A, g, idx[::-1])
                    assert got == want and type(got) is Fraction, (A, g, idx)
                    assert A._amplitudes[(g, idx)] is got
                    assert omega_tqft(A, g, n, [A.basis(i) for i in reversed(idx)]) is got


def test_omega_tqft_rejects_a_foreign_algebra():
    A, B = z2_algebra(), orbifold_frobenius(load_group("builtin:S3"))
    with pytest.raises(ValueError):
        omega_tqft(A, 1, 1, [B.basis(0)])


def test_every_decorated_entry_point_refuses_a_bad_decoration_list_alike():
    # one rule, check_decorations, for the amplitude, the counts and the
    # correlators: each refuses each bad list with one exception and message
    from tqftrec.amodel import lattice_twisted, twisted_catalan, twisted_dessin
    from tqftrec.intersect import twisted_correlator

    A = orbifold_frobenius(load_group("builtin:S3"))
    e, foreign = A.basis(1), z2_algebra().basis(1)
    entry_points = {
        "omega_tqft": lambda vs: omega_tqft(A, 1, 2, vs),
        "twisted_catalan": lambda vs: twisted_catalan(1, 2, (4, 2), A, vs),
        "lattice_twisted": lambda vs: lattice_twisted(1, 2, (4, 2), A, vs),
        "twisted_correlator": lambda vs: twisted_correlator(1, 2, (1, 1), A, vs),
        "twisted_dessin": lambda vs: twisted_dessin(1, 2, (4, 2), A, vs),
    }
    bad = [
        ([e], ValueError, "need one decoration per boundary: 1 for 2"),
        ([e, e, e], ValueError, "need one decoration per boundary: 3 for 2"),
        ([e, 1], TypeError, "decorations must be algebra elements, got 1"),
        ([Fraction(1), e], TypeError, "decorations must be algebra elements, got Fraction(1, 1)"),
        ([e, foreign], ValueError, "decoration does not belong to the given algebra"),
    ]
    for name, request in entry_points.items():
        assert request([e, e]) != 0, name
        for vs, kind, message in bad:
            with pytest.raises(Exception) as err:
                request(vs)
            assert (type(err.value), str(err.value)) == (kind, message), (name, vs)


def test_dense_decorations_never_expand_the_support_product(monkeypatch):
    # 5**13 support tuples: summing the amplitude memo over them would take
    # hours, so dense decorations must take the multiply-through chain
    import tqftrec.frobenius as frobenius

    def probe(*args):
        raise AssertionError("a dense decoration probed the amplitude memo")

    A = orbifold_frobenius(load_group("builtin:Q8"))
    monkeypatch.setattr(frobenius, "_amplitude", probe)
    dense = A.element([1] * A.dim)
    chain = euler_power(A, 1)
    for _ in range(13):
        chain = product(chain, dense)
    assert omega_tqft(A, 1, 13, [dense] * 13) == counit(chain)


def test_scaled_and_zero_decorations_through_the_euler_power_equal_the_brute_count():
    G = load_group("builtin:S3")
    cd = conjugacy(G)
    A = orbifold_frobenius(G, cd)
    half, zero = Fraction(3, 2), A.element([0] * A.dim)
    mixed = A.element([1, 0, "-2/3"])
    for g in (0, 1):
        for i, j in itertools.product(range(A.dim), repeat=2):
            scaled = A.element([half * c for c in A.basis(i).coeffs])
            assert omega_tqft(A, g, 2, [scaled, A.basis(j)]) == half * omega_brute(G, g, (i, j), cd=cd)
            assert omega_tqft(A, g, 2, [A.basis(j), zero]) == 0
        for j in range(A.dim):
            assert omega_tqft(A, g, 2, [mixed, A.basis(j)]) == omega_brute(
                G, g, (0, j), cd=cd) - Fraction(2, 3) * omega_brute(G, g, (2, j), cd=cd)
    # a two-term decoration among three inputs over Q8
    Q = load_group("builtin:Q8")
    qd = conjugacy(Q)
    B = orbifold_frobenius(Q, qd)
    pair = B.element([0, 1, 0, "-2/3", 0])
    for j, k in itertools.product(range(B.dim), repeat=2):
        assert omega_tqft(B, 1, 3, [B.basis(j), pair, B.basis(k)]) == omega_brute(
            Q, 1, (j, 1, k), cd=qd) - Fraction(2, 3) * omega_brute(Q, 1, (j, 3, k), cd=qd)


def test_single_term_decorations_equal_the_multiply_through_chain():
    A = orbifold_frobenius(load_group("builtin:S3"))
    singles = [A.element([c if j == i else 0 for j in range(A.dim)])
               for c in (1, 3, Fraction(-1, 2)) for i in range(A.dim)]
    for g in (0, 1, 2):
        for vs in itertools.product(singles, repeat=2):
            chain = euler_power(A, g)
            for v in vs:
                chain = product(chain, v)
            got = omega_tqft(A, g, 2, list(vs))
            assert got == counit(chain) and type(got) is Fraction, (g, vs)


def test_euler_powers_past_the_budget_are_refused_before_any_product(monkeypatch):
    import tqftrec.frobenius as frobenius

    A = z2_algebra()  # e = 4 * unit: 3 bits per genus, so g <= 33333 is admitted
    last = EULER_POWER_BITS // 3

    def probe(*args):
        raise AssertionError("a refused genus computed a product")

    def refused(g):
        with monkeypatch.context() as m:
            m.setattr(frobenius, "_multiply", probe)
            with pytest.raises(BudgetError, match=r"genus g=%d: e\^g may need %d-bit coefficients, "
                               "more than %d" % (g, 3 * g, EULER_POWER_BITS)):
                omega_tqft(A, g, 1, [A.basis(0)])

    refused(last + 1)
    refused(4 * last)
    # the verdict depends on the genus alone, not on the powers cached before
    assert euler_power(A, 5000).coeffs[0] == 4 ** 5000
    assert euler_power(A, last).coeffs[0] == 4 ** last
    refused(last + 1)
    assert euler_power(A, 2 * 5000).coeffs[0] == 4 ** (2 * 5000)


def test_euler_powers_stay_within_the_bit_bound_of_the_gate():
    # e^g's numerators and denominators outgrow the unit's by at most
    # g * b(A) bits.  A pairing weight of 1000 makes e = 1/1000, whose
    # denominators the bound covers although D * M = 1 there
    def bits(x):
        return max(x.numerator.bit_length(), x.denominator.bit_length())

    third, weight = Fraction(1, 3), Fraction(5, 4)
    algebras = list(_dense_reference_algebras()) + [
        ("e = 1/1000", FrobeniusAlgebra(1, ["1"], [[[1]]], [[1000]])),
        ("weighted", FrobeniusAlgebra(2, ["1", "y"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                                      [[weight, third], [third, weight]])),
    ]
    for name, A in algebras:
        unit = max(map(bits, A.unit))
        for g in (1, 2, 3, 16, 37, 100):
            assert max(map(bits, euler_power(A, g).coeffs)) <= unit + g * A._euler_bits, (name, g)


def test_an_euler_power_keeps_only_the_genera_asked_for():
    # a fresh interpreter, so the interned S3 holds no earlier powers: e^5000
    # by square-and-multiply keeps no chain of 5001 powers
    script = (
        "import resource, sys\n"
        "from tqftrec.frobenius import omega_tqft\n"
        "from tqftrec.groups import load_group, orbifold_frobenius\n"
        "A = orbifold_frobenius(load_group('builtin:S3'))\n"
        "kb = 1 / 1024 if sys.platform == 'darwin' else 1\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "omega_tqft(A, 5000, 1, [A.basis(0)])\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) * kb, sorted(A._euler_powers))\n"
    )
    path = [str(pathlib.Path(__file__).resolve().parents[1] / "src")]
    path += [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    grown_kb, held = proc.stdout.split(" ", 1)
    assert float(grown_kb) < 5 * 1024 and held.strip() == "[0, 5000]", proc.stdout


def test_cutjoin_imports_no_contraction_routine_from_frobenius():
    # the engine and omega_tqft may share the algebra's data views, never a
    # contraction routine: omega_tqft is the reference the engine is checked by
    import ast
    import pathlib

    import tqftrec.cutjoin

    tree = ast.parse(pathlib.Path(tqftrec.cutjoin.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # the module itself is never imported, so no routine comes through it
            assert not any(a.name.split(".")[-1] == "frobenius" for a in node.names)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "frobenius":
            imported.update(alias.name for alias in node.names)
    assert imported and imported <= {"AlgebraElement", "FrobeniusAlgebra", "check_decorations",
                                     "trivial_algebra"}


# -- derived tensors against plain dense sums ---------------------------------


def _change_basis(A):
    """A's structure tensors in the basis f_i = e_0 + ... + e_i.  The
    pairing becomes dense, and so does its inverse."""
    s = A.dim
    # coordinates of e_k in the new basis: e_k = f_k - f_{k-1}
    to_f = [[Fraction(int(j == k) - int(j == k - 1)) for j in range(s)] for k in range(s)]

    def f_coords(v):
        return [sum((v[k] * to_f[k][j] for k in range(s)), Fraction(0)) for j in range(s)]

    basis = [[Fraction(int(k <= i)) for k in range(s)] for i in range(s)]
    prod = [[f_coords(_dense_product(A, x, y)) for y in basis] for x in basis]
    pair = [[sum((x[a] * y[b] * A.pairing[a][b] for a in range(s) for b in range(s)), Fraction(0))
             for y in basis] for x in basis]
    return FrobeniusAlgebra(s, ["f%d" % i for i in range(s)], prod, pair)


def _dense_reference_algebras():
    yield from _algebras()
    yield "S5", orbifold_frobenius(group_from_permutations(["(1 2)", "(1 2 3 4 5)"]))
    for name in ("Z2", "S3"):
        yield name + " in a triangular basis", _change_basis(
            orbifold_frobenius(load_group("builtin:" + name)))


def test_derived_tensors_equal_plain_dense_sums():
    zero = Fraction(0)
    seen_dense_inverse = False
    for name, A in _dense_reference_algebras():
        s, c, eta, inv = A.dim, A.product_tensor, A.pairing, A.pairing_inverse
        r = range(s)
        delta = [[int(i == j) for j in r] for i in r]
        assert [[sum((eta[i][k] * inv[k][j] for k in r), zero) for j in r] for i in r] == delta, name
        assert [[sum((A.unit[i] * c[i][j][k] for i in r), zero) for k in r] for j in r] == delta, name
        assert A.counit == tuple(sum((A.unit[a] * eta[a][i] for a in r), zero) for i in r), name
        phi = [[[sum((c[i][j][l] * eta[l][k] for l in r), zero) for k in r] for j in r] for i in r]
        assert [[list(row) for row in plane] for plane in A.three_point] == phi, name
        D = [[[sum((phi[i][k][l] * inv[k][a] * inv[l][b] for k in r for l in r), zero)
               for b in r] for a in r] for i in r]
        assert [[list(row) for row in plane] for plane in A.coproduct_tensor] == D, name
        assert A.euler == tuple(
            sum((A.unit[i] * D[i][a][b] * c[a][b][k] for i in r for a in r for b in r), zero)
            for k in r), name
        for x in (A.pairing_inverse, A.three_point, A.coproduct_tensor, [A.unit, A.counit, A.euler]):
            assert all(type(v) is Fraction for v in _flatten(x)), name
        seen_dense_inverse |= all(all(row) for row in inv)
    assert seen_dense_inverse


def _flatten(x):
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _flatten(y)
    else:
        yield x


# -- the first failing witness of each axiom ----------------------------------


def _unital(s, rest):
    """A product tensor with e_0 as its unit and e_i e_j = rest[(i, j)] for
    i, j >= 1."""
    c = [[[int(k == max(i, j)) if min(i, j) == 0 else 0 for k in range(s)]
          for j in range(s)] for i in range(s)]
    for (i, j), v in rest.items():
        c[i][j] = list(v)
    return c


_I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("product_tensor, pairing_matrix, axiom, witness", [
    # e_1 e_2 = e_1 but e_2 e_1 = e_2
    (_unital(3, {(1, 1): (0, 0, 1), (1, 2): (0, 1, 0), (2, 1): (0, 0, 1), (2, 2): (1, 0, 0)}),
     _I3, "commutativity", (1, 2)),
    # x^2 = y, xy = x, y^2 = x: (x x) y = x but x (x y) = y
    (_unital(3, {(1, 1): (0, 0, 1), (1, 2): (0, 1, 0), (2, 1): (0, 1, 0), (2, 2): (0, 1, 0)}),
     _I3, "associativity", (1, 1, 2)),
    # e^2 = 1 with eta(e, e) = 2, but eta(1, e e) = eta(1, 1) = 1
    ([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [[1, 0], [0, 2]], "Frobenius compatibility", (0, 1, 1)),
    # e^2 = 1/3 with eta(e, e) = 1/4, but eta(1, e e) = 1/3: the int check
    # scales the two sides by different denominators
    ([[[1, 0], [0, 1]], [[0, 1], [Fraction(1, 3), 0]]], [[1, 0], [0, Fraction(1, 4)]],
     "Frobenius compatibility", (0, 1, 1)),
])
def test_axiom_failures_name_their_first_witness(product_tensor, pairing_matrix, axiom, witness):
    s = len(pairing_matrix)
    with pytest.raises(AxiomError) as info:
        FrobeniusAlgebra(s, [str(i) for i in range(s)], product_tensor, pairing_matrix)
    assert (info.value.axiom, info.value.witness) == (axiom, witness)


def _verify_with(A, **tensors):
    """Run the axiom checks of a private clone of A over replaced derived
    tensors; A itself is interned and shared, so it is never changed."""
    clone = object.__new__(FrobeniusAlgebra)
    clone.__dict__.update(A.__dict__)
    for name, value in tensors.items():
        setattr(clone, name, value)
    clone.__dict__.pop("coproduct_by_input", None)  # rebuilt from the replaced tensor
    with pytest.raises(AxiomError) as info:
        clone._verify()
    return info.value.axiom, info.value.witness


def test_coproduct_law_failures_name_their_first_witness():
    # a genuine algebra passes the first three laws, so the later ones are
    # reached only through corrupted derived tensors
    for name, last in (("Z2", 1), ("S3", 2), ("Q8", 4)):
        A = orbifold_frobenius(load_group("builtin:" + name))
        doubled = tuple(tuple(tuple(2 * w for w in row) for row in plane)
                        for plane in A.coproduct_tensor)
        assert _verify_with(A, coproduct_tensor=doubled) == ("counit law", (0, 0)), name

        A = orbifold_frobenius(load_group("builtin:" + name))
        D = [[list(row) for row in plane] for plane in A.coproduct_tensor]
        D[1][1][last] += 1  # leaves the counit law intact: counit[1] = 0
        assert _verify_with(A, coproduct_tensor=D) == ("Frobenius relation", (0, 1, 1, last)), name

        A = orbifold_frobenius(load_group("builtin:" + name))
        eta = tuple(tuple(2 * x for x in row) for row in A.pairing)
        phi = tuple(tuple(tuple(2 * x for x in row) for row in plane) for plane in A.three_point)
        assert _verify_with(A, pairing=eta, three_point=phi) == \
            ("product from coproduct and pairing", (0, 0, 0)), name
