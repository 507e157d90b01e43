"""Exact ranks and nullspaces, against sympy as an independent oracle, the
peel of forced zeros against the whole system and a reference peel, and
the float exponential against scipy's."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartankit import linalg
from cartankit.linalg import EXACT, ModeError
from dense_reference import peeled_system


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


@st.composite
def sparse_integer_matrices(draw):
    """Up to 40 x 40 integer matrices with at most four nonzeros per drawn
    row, some rows combinations of earlier ones, and a positive scale per
    row."""
    n_rows, n_cols = draw(st.integers(0, 40)), draw(st.integers(1, 40))
    a = np.zeros((n_rows, n_cols), dtype=object)
    for i in range(n_rows):
        if i >= 2 and draw(st.booleans()):
            s, t = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
            a[i] = s * a[draw(st.integers(0, i - 1))] + t * a[draw(st.integers(0, i - 1))]
        else:
            for _ in range(draw(st.integers(0, 4))):
                a[i, draw(st.integers(0, n_cols - 1))] = draw(st.integers(-9, 9))
    return a, draw(st.lists(st.integers(1, 50), min_size=n_rows, max_size=n_rows))


@settings(max_examples=40, deadline=None)
@given(sparse_integer_matrices())
def test_sparse_rows_match_the_dense_matrix_and_sympy(case):
    """The rows times their scales, as sparse integer rows, and the rows over
    their scales, as a dense ``Fraction`` array, have the rank and the
    nullspace basis that sympy gives the matrix."""
    a, scales = case
    n_rows, n_cols = a.shape
    rows = [{j: int(v) * s for j, v in enumerate(row) if v} for row, s in zip(a, scales)]
    dense = linalg.zeros(a.shape, EXACT)
    for i, s in enumerate(scales):
        dense[i] = [Fraction(int(v), s) for v in a[i]]
    m = sympy.Matrix(n_rows, n_cols, [int(v) for v in a.reshape(-1)])
    assert linalg.rank(rows, n_cols=n_cols) == linalg.rank(dense) == m.rank()
    expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    assert [list(v) for v in linalg.nullspace(rows, n_cols=n_cols)] == expected
    assert [list(v) for v in linalg.nullspace(dense)] == expected


@st.composite
def sparse_systems(draw):
    """Up to 30 equations in up to 30 unknowns, each with one to four
    nonzero integer coefficients, as row dicts."""
    n_rows, n_cols = draw(st.integers(0, 30)), draw(st.integers(1, 30))
    rows = []
    for _ in range(n_rows):
        cols = draw(st.sets(st.integers(0, n_cols - 1), min_size=1, max_size=4))
        rows.append({j: draw(st.integers(-9, 9).filter(bool)) for j in sorted(cols)})
    return rows, n_cols


# x0 = 0 forces x1, then x2, then x3: four rounds, and x4 + x5 is left
CHAIN = ([{0: 2}, {0: 1, 1: -3}, {1: 1, 2: 4}, {2: -1, 3: 1}, {3: 5, 4: 1, 5: 1}], 6)
# x0 = 0, then x1 = 0 and x2 = 0 from the next two rows: nothing is live
ALL_FORCED = ([{0: 3}, {0: 1, 1: 2}, {0: -1, 2: 7}, {1: 1, 2: 1}], 3)
# no row has one entry: nothing is peeled
NO_SINGLE = ([{0: 1, 1: 1}, {1: 2, 2: -1}, {0: 1, 2: 1}], 4)
# two equations, each given up to three times with other factors
REPEATED = ([{0: 2, 1: 4}, {0: -1, 1: -2}, {1: 3, 2: -6}, {0: 3, 1: 6}, {1: -1, 2: 2}], 3)
EMPTY = ([], 3)


@settings(max_examples=60, deadline=None)
@given(sparse_systems())
@example(CHAIN)
@example(ALL_FORCED)
@example(NO_SINGLE)
@example(REPEATED)
@example(EMPTY)
def test_peeled_nullspace_is_the_whole_nullspace(case):
    """``peel`` and ``primitive_rows`` on the entry arrays keep what the
    reference peel on row dicts keeps, and the nullspace of what is left,
    written back at full length with 0 at every forced unknown, is bit for
    bit the nullspace of the whole system, and sympy's."""
    rows, n_cols = case
    row = np.array([i for i, r in enumerate(rows) for _ in r], dtype=int)
    col = np.array([j for r in rows for j in r], dtype=int)
    data = np.array([v for r in rows for v in r.values()], dtype=np.int64)
    dead = np.zeros(n_cols, dtype=bool)
    row, col, data = linalg.peel(row, col, data, dead)
    live = np.flatnonzero(~dead)
    rest = linalg.primitive_rows(row, (np.cumsum(~dead) - 1)[col], data)
    want_rest, want_live, _ = peeled_system(rows, n_cols)
    assert rest == want_rest and np.array_equal(live, want_live)
    assert all(len(r) >= 2 for r in rest)
    peeled = []
    for v in linalg.nullspace(rest, n_cols=len(live)):
        full = linalg.zeros(n_cols, EXACT)
        full[live] = v
        peeled.append(list(full))
    whole = [list(v) for v in linalg.nullspace(rows, n_cols=n_cols)]
    assert peeled == whole
    assert all(type(x) is Fraction for v in peeled for x in v)
    m = sympy.Matrix(len(rows), n_cols, lambda i, j: rows[i].get(j, 0))
    assert whole == [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    if case is CHAIN:
        assert rest == [{0: 1, 1: 1}] and live.tolist() == [4, 5]
    if case is ALL_FORCED:
        assert rest == [] and live.tolist() == [] and whole == []
    if case is NO_SINGLE:
        assert rest == rows and live.tolist() == [0, 1, 2, 3]
    if case is REPEATED:
        assert rest == [{0: 1, 1: 2}, {1: 1, 2: -2}] and live.tolist() == [0, 1, 2]
    if case is EMPTY:
        assert rest == [] and live.tolist() == [0, 1, 2]


@pytest.mark.parametrize("dim", [3, 8, 24])
def test_expm_matches_scipy(dim):
    """``expm(a, t)``, the one-point Taylor table, against scipy's Pade-13
    ``expm(t a)`` on seeded random matrices of infinity-norm 1e-4 to 10, to
    1e-11 relative to max(1, |entry|); an exact array raises."""
    rng = np.random.default_rng(dim)
    for norm in (1e-4, 1e-2, 0.5, 1.0, 3.0, 10.0):
        a = rng.standard_normal((dim, dim))
        a *= norm / np.abs(a).sum(axis=1).max()
        for t in (1, -1, 0.37):
            want = scipy.linalg.expm(t * a)
            assert np.all(np.abs(linalg.expm(a, t) - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))
    with pytest.raises(ModeError):
        linalg.expm(linalg.zeros((2, 2), EXACT))
