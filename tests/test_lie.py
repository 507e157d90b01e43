"""Structure constants, brackets, adjoint exponentials, the Cartan DGLA
as its own adjoint representation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartankit.ce import cohomology_dims
from cartankit.lie import LieAlgebra, abelian, heisenberg3, sl2, su2
from cartankit.linalg import EXACT, FLOAT, ModeError, max_abs
from cartankit.reps import adjoint_rep, cartan_dgla, cartan_residuals, hom_space, restrict
from dense_reference import (ad_operator, apply, exp_operator, flatten_operator,
                             tensordot_jacobi)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def ad_exp(g, x, t=1):
    """exp(t ad_x) as a dense matrix; exact mode requires nilpotent ad_x."""
    return flatten_operator(exp_operator(ad_operator(g, x), t))


def test_fixture_algebras_satisfy_jacobi(algebras):
    for name, g in algebras.items():
        assert g.check_jacobi() == 0, name


def test_antisymmetry_violation_reported():
    g = abelian(2)
    g.c[0, 1, 0] = Fraction(1)
    g.c[1, 0, 0] = Fraction(1)          # deliberately symmetric entry
    assert g.check_jacobi() > 0


def test_jacobi_violation_reported():
    # antisymmetric but non-Jacobi constants on dimension 3
    g = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    assert g.check_jacobi() > 0


def _symmetric_entry():
    g = abelian(2)
    g.c[0, 1, 0] = Fraction(1)
    g.c[1, 0, 0] = Fraction(1)
    return g


@pytest.mark.parametrize("make", [
    sl2, heisenberg3, su2, _symmetric_entry,
    lambda: LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}}),
    lambda: LieAlgebra(3, {(0, 1): {2: Fraction(3, 4)}, (0, 2): {0: Fraction(-5, 6)},
                           (1, 2): {1: Fraction(7, 10)}}),
    lambda: LieAlgebra(2, {(0, 1): {0: Fraction(2, 3), 1: Fraction(-1, 9)}}),
    lambda: LieAlgebra(3, {(0, 1): {2: 3 * 10 ** 9}, (0, 2): {0: Fraction(1, 7)}}),
])
def test_jacobi_on_integer_numerators_matches_fraction_contraction(make):
    """One common denominator and integer numerators (Python ints past the
    int64 bound, as in the last case) give the same ``Fraction``."""
    g = make()
    got = g.check_jacobi()
    assert isinstance(got, Fraction)
    assert got == tensordot_jacobi(g.c)


def test_bracket_abelian_vanishes():
    g = abelian(3)
    x = g.vector([1, 2, 3])
    y = g.vector([4, 5, 6])
    assert max_abs(g.bracket(x, y)) == 0.0


def test_bracket_sl2_table():
    g = sl2()
    e, f, h = (g.basis_vector(i) for i in range(3))
    assert np.array_equal(g.bracket(h, e), 2 * e)
    assert np.array_equal(g.bracket(h, f), -2 * f)
    assert np.array_equal(g.bracket(e, f), h)


@settings(max_examples=25, deadline=None)
@given(st.lists(rationals, min_size=3, max_size=3))
def test_bracket_self_is_zero(coords):
    g = sl2()
    x = g.vector(coords)
    assert max_abs(g.bracket(x, x)) == 0.0


def test_ad_matrix_matches_bracket(algebras):
    for g in algebras.values():
        for i in range(g.n):
            for j in range(g.n):
                x, y = g.basis_vector(i), g.basis_vector(j)
                assert np.array_equal(g.ad(x).dot(y), g.bracket(x, y))
                assert np.array_equal(g.bracket(x, y), g.c[i, j])


@settings(max_examples=25, deadline=None)
@given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
def test_ad_and_bracket_are_the_contraction_with_the_constants(xs, ys):
    # the loops are the reference; exact results are equal and Fractions,
    # float brackets sum in another order, so they agree to 1e-12 (|terms| <= 18)
    g = sl2()
    x, y = g.vector(xs), g.vector(ys)
    ad = g.ad(x)
    assert all(isinstance(v, Fraction) for v in ad.ravel())
    assert all(ad[k, j] == sum(g.c[i, j, k] * x[i] for i in range(3))
               for k in range(3) for j in range(3))
    loop = [sum(g.c[i, j, k] * x[i] * y[j] for i in range(3) for j in range(3))
            for k in range(3)]
    assert list(g.bracket(x, y)) == loop
    xf, yf = g.vector(xs, FLOAT), g.vector(ys, FLOAT)
    assert max_abs(g.bracket(xf, yf) - np.array(loop, dtype=float)) < 1e-12


def test_ad_h_diagonal_and_traceless():
    g = sl2()
    ad_h = g.ad(g.basis_vector(2))
    assert [ad_h[i, i] for i in range(3)] == [2, -2, 0]
    assert sum(ad_h[i, i] for i in range(3)) == 0
    for i in range(3):
        assert sum(g.ad(g.basis_vector(i))[j, j] for j in range(3)) == 0


def test_ad_exp_identity_cases():
    g = heisenberg3()
    x = g.basis_vector(0)
    assert max_abs(ad_exp(g, x, 0) - np.eye(3)) == 0.0
    ab = abelian(3)
    assert max_abs(ad_exp(ab, ab.vector([1, 2, 3]), 7) - np.eye(3)) == 0.0


def test_ad_exp_heisenberg_two_terms():
    g = heisenberg3()
    x, y, z = (g.basis_vector(i) for i in range(3))
    assert np.array_equal(ad_exp(g, x, 1).dot(y), y + z)


def test_ad_exp_group_law_float():
    g = su2()
    x = g.vector([0.3, -0.7, 0.5], FLOAT)
    lhs = ad_exp(g, x, 0.4).dot(ad_exp(g, x, 0.35))
    rhs = ad_exp(g, x, 0.75)
    assert max_abs(lhs - rhs) < 1e-12


def test_ad_exp_exact_requires_nilpotent():
    g = sl2()
    with pytest.raises(ModeError):
        ad_exp(g, g.basis_vector(2), 1)


def test_cartan_dgla_shape_and_tables():
    g = sl2()
    dgla = cartan_dgla(g)
    n = g.n
    assert dgla.complex.space.total_dim == 2 * n
    assert dgla.complex.dims == {-1: n, 0: n}       # I_1 .. I_n, then L_1 .. L_n
    d = dgla.differential
    for j in range(n):
        unit = g.basis_vector(j)
        for i in range(n):
            assert apply(dgla.B[i], {-1: unit}) == {}                  # [I, I] = 0
        # d(I_j) = L_j, d(L_j) = 0
        assert list(apply(d, {-1: unit})) == [0]
        assert np.array_equal(apply(d, {-1: unit})[0], unit)
        assert apply(d, {0: unit}) == {}
    # [L_i, L_j] realizes the structure constants, [L_i, I_j] and [I_i, L_j] the I copy
    for i in range(n):
        for j in range(n):
            unit = g.basis_vector(j)
            assert np.array_equal(apply(dgla.L[i], {0: unit})[0], g.c[i, j])
            assert np.array_equal(apply(dgla.L[i], {-1: unit})[-1], g.c[i, j])
            assert np.array_equal(apply(dgla.B[i], {0: unit})[-1], g.c[i, j])


FIXTURE_NAMES = ["abelian3", "heisenberg3", "sl2", "su2"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cartan_dgla_satisfies_the_cartan_relations(algebras, name):
    assert cartan_residuals(cartan_dgla(algebras[name])).worst == 0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cartan_dgla_is_acyclic(algebras, name):
    # d is an isomorphism from the I copy onto the L copy
    assert cohomology_dims(cartan_dgla(algebras[name]).complex) == {-1: 0, 0: 0}


@pytest.mark.parametrize("name, dim", [("abelian3", 9), ("heisenberg3", 3), ("sl2", 1),
                                       ("su2", 1)])
def test_cartan_dgla_endomorphisms_are_equivariant_maps_of_g(algebras, name, dim):
    # a chain map commuting with d is fixed by its degree-0 part, so hom(T, T)
    # is End_g(g): Schur on the simple ones, phi x = ax + bz, phi y = ay + cz,
    # phi z = az on heisenberg3
    dgla = cartan_dgla(algebras[name])
    assert len(hom_space(dgla, dgla)) == dim


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cartan_dgla_restricts_to_the_adjoint_representation(algebras, name):
    g = algebras[name]
    for op, ad in zip(restrict(cartan_dgla(g)).operators, adjoint_rep(g).operators):
        assert np.array_equal(op.block(0), ad.block(0))


def test_cartan_dgla_rejects_invalid_constants():
    g = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    with pytest.raises(ValueError) as err:
        cartan_dgla(g)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("n", [0, -1])
def test_algebra_needs_a_positive_dimension(n):
    for build in (lambda: abelian(n), lambda: LieAlgebra(n, {}, labels=[])):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"dim must be at least 1, got {n}"


def test_vector_mode_and_length_checks():
    g = sl2()
    with pytest.raises(ValueError):
        g.vector([1, 2])
    with pytest.raises(ModeError):
        g.bracket(g.basis_vector(0, EXACT), g.basis_vector(1, FLOAT))
