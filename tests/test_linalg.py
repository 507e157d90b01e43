"""Exact ranks and nullspaces, against sympy as an independent oracle."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cartankit import linalg
from cartankit.linalg import EXACT


@st.composite
def rational_matrices(draw):
    """Up to 8 x 8, mostly zeros, with some rows combinations of earlier ones."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.fractions(min_value=-5, max_value=5, max_denominator=4))
    a = linalg.zeros((n_rows, n_cols), EXACT)
    for i in range(n_rows):
        a[i] = draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
        if i >= 2 and draw(st.booleans()):
            s, t = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                                 min_size=2, max_size=2))
            a[i] = s * a[draw(st.integers(0, i - 1))] + t * a[draw(st.integers(0, i - 1))]
    return a


def _sympy(a):
    return sympy.Matrix(a.shape[0], a.shape[1],
                        [sympy.Rational(v.numerator, v.denominator) for v in a.reshape(-1)])


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_exact_rank_and_nullspace_match_sympy(a):
    m = _sympy(a)
    assert linalg.rank(a) == m.rank()
    basis = linalg.nullspace(a)
    expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    assert [list(v) for v in basis] == expected
    for v in basis:
        assert all(type(x) is Fraction for x in v)
        assert all(x == 0 for x in a.dot(v))


def test_exact_nullspace_of_a_matrix_without_rows_is_exact():
    basis = linalg.nullspace(linalg.zeros((0, 3), EXACT))
    assert [list(v) for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert all(type(x) is Fraction for v in basis for x in v)

