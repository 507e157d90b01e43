"""The exact coefficient series as one stacked product, the exact
polynomials in t as stacked operators, the per-letter operators of a
representation, and ``label_combination`` past int64.

``integrate_series`` composes each letter's power stack B, B A, ..., B A^c
from the right, one ``graded.product_sum`` per product, the last applying
every coefficient; the per-term loop of ``dense_reference`` must agree
entry for entry.  A product of polynomials is one ``product_sum`` by the
Cauchy array; the per-pair ``MatPoly`` of ``dense_reference`` must agree
entry for entry and denominator for denominator.  Exact Stokes, its inner
faces integrated by the same polynomials with one merged slot, holds
exactly on every word with k <= 3."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cartankit import graded, integrate, reps
from cartankit.graded import (GradedOperator, GradedVectorSpace, compose, label_combination,
                              stack, unstack)
from cartankit.lie import heisenberg3
from cartankit.linalg import EXACT, FLOAT, ModeError
from cartankit.reps import (LETTER_CACHE, adjoint_rep, chain_rep, cochain_rep,
                            trivial_lie_rep)
from dense_reference import (MatPoly, exp_poly, loop_series, operator_from_entries,
                             pairwise_merged_pair, pairwise_word_integral, unfused_stokes)
from test_ce import _nilpotent
from test_stacked import _assert_int64_iff_fits, _assert_same

HEISENBERG_LETTERS = ([1, -2, 1], [2, 1, -1], [-1, 2, 2])
# the nine words of the exact benchmark workload, as indices into the letters
NINE_WORDS = ((0,), (1,), (2,), (0, 1), (1, 2), (2, 0), (0, 1, 2), (1, 2, 0), (2, 0, 1))
N4_LETTERS = ([1, 0, 2, -1, 1, 0], [0, 1, -1, 2, 0, 1], [2, -1, 0, 1, 1, -1])


@pytest.fixture(scope="module")
def h3_reps():
    g = heisenberg3()
    return {coeff: chain_rep(g, v)
            for coeff, v in (("trivial", trivial_lie_rep(g)), ("adjoint", adjoint_rep(g)))}


def _letters(rep, rows):
    return [rep.algebra.vector(x) for x in rows]


@pytest.mark.parametrize("coeff", ["trivial", "adjoint"])
@pytest.mark.parametrize("word", NINE_WORDS)
def test_stacked_series_equals_the_per_term_loop_on_heisenberg(h3_reps, coeff, word):
    """The adjoint chain is the 24-dim one, so its three-letter words are
    the k = 3 case there."""
    rep = h3_reps[coeff]
    letters = _letters(rep, [HEISENBERG_LETTERS[i] for i in word])
    _assert_same(integrate.integrate_series(rep, letters), loop_series(rep, letters))


@pytest.mark.parametrize("word", [(0,), (1, 2), (2, 0, 1)])
def test_stacked_series_equals_the_per_term_loop_on_n4(word):
    g = _nilpotent(4)
    rep = chain_rep(g, trivial_lie_rep(g))
    letters = _letters(rep, [N4_LETTERS[i] for i in word])
    _assert_same(integrate.integrate_series(rep, letters), loop_series(rep, letters))


def test_stacked_series_equals_the_per_term_loop_at_four_letters():
    """On n4, whose chains reach degree -6: a degree -4 operator on the
    Heisenberg chains (degrees -3 .. 0) is zero."""
    g = _nilpotent(4)
    rep = chain_rep(g, trivial_lie_rep(g))
    letters = _letters(rep, [N4_LETTERS[i] for i in (0, 1, 2, 0)])
    out = integrate.integrate_series(rep, letters)
    assert out.degree == -4 and out.norm() != 0.0
    _assert_same(out, loop_series(rep, letters))


def _count_products(monkeypatch):
    """Products made: one per term of ``product_sum`` that has a g, so that a
    relabelling (``relabel``, ``label_combination``, ``stack``: terms
    without g) counts none.  ``compose`` is the one-product ``product_sum``
    and counts through it, once."""
    calls = []
    product_sum = graded.product_sum

    def summed(terms):
        calls.extend(1 for term in terms if len(term) == 3)
        return product_sum(terms)

    for module in (graded, reps, integrate):
        monkeypatch.setattr(module, "product_sum", summed)
    return calls


def _recorded(monkeypatch, module):
    """Every (terms, result) of the ``product_sum`` calls that ``module``
    makes, in order."""
    made, product_sum = [], module.product_sum

    def recording(terms):
        made.append((terms, product_sum(terms)))
        return made[-1][1]

    monkeypatch.setattr(module, "product_sum", recording)
    return made


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_warm_series_makes_k_minus_one_composes(h3_reps, monkeypatch, k):
    """The letters have different numbers of powers (the central z has
    none past B), and the count does not depend on them."""
    rep = h3_reps["adjoint"]
    pool = _letters(rep, HEISENBERG_LETTERS + ([0, 0, 3],))
    letters = [pool[i % len(pool)] for i in (3, 0, 1, 3)[:k]]
    assert len({rep.letter(x).powers[1] for x in pool}) > 1
    want = integrate.integrate_series(rep, letters)
    calls = _count_products(monkeypatch)
    _assert_same(integrate.integrate_series(rep, letters), want)
    assert len(calls) == k - 1


def _assert_poly(stacked, reference):
    """A stacked polynomial (operator, count) against a ``MatPoly``."""
    op, count = stacked
    for got, want in zip(unstack(op, count), reference.coeffs, strict=True):
        _assert_same(got, want)


@pytest.mark.parametrize("coeff", ["trivial", "adjoint"])
@pytest.mark.parametrize("word", NINE_WORDS)
def test_stacked_polynomials_equal_the_per_pair_reference(h3_reps, coeff, word):
    """Each step of the polynomial route, from the last letter: exp(t A) B,
    its product with the inner polynomial, the antiderivative, and the value
    at 1; then the route, and the slot route on the first two letters
    merged into one slot, as a whole."""
    rep = h3_reps[coeff]
    letters = _letters(rep, [HEISENBERG_LETTERS[i] for i in word])
    inner = reference = None
    for x in reversed(letters):
        exp, count = rep.letter(x).exp_stack
        _assert_poly((exp, count), exp_poly(rep, x))
        factor = compose(exp, rep.letter(x).B), count
        factor_ref = exp_poly(rep, x).dot(MatPoly([rep.letter(x).B]))
        _assert_poly(factor, factor_ref)
        product_ref = factor_ref if reference is None else factor_ref.dot(reference)
        if inner is not None:
            _assert_poly(integrate._poly_product(factor, inner), product_ref)
        inner = integrate._poly_product(factor, inner, antiderivative=True)
        reference = product_ref.antiderivative()
        _assert_poly(inner, reference)
    _assert_same(label_combination((1,) * inner[1], inner[0]), reference.value_at_1())
    _assert_same(integrate.word_integral_polynomial_exact(rep, letters),
                 pairwise_word_integral(rep, letters))
    if len(letters) > 1:
        _assert_same(integrate._slot_integral(rep, [letters[:2]]),
                     pairwise_merged_pair(rep, *letters[:2]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polynomial_route_makes_one_compose_per_product(h3_reps, monkeypatch, k):
    """Warm letters: exp(t A) B for each letter, and one product with the
    inner polynomial for each letter before the last; one merged slot is
    the product of two exponentials and one with B(xi)."""
    rep = h3_reps["adjoint"]
    letters = _letters(rep, HEISENBERG_LETTERS[:k])
    want = integrate.word_integral_polynomial_exact(rep, letters)
    merged = integrate._slot_integral(rep, [letters]) if k == 2 else None
    calls = _count_products(monkeypatch)
    _assert_same(integrate.word_integral_polynomial_exact(rep, letters), want)
    assert len(calls) == 2 * k - 1
    if merged is not None:
        calls.clear()
        _assert_same(integrate._slot_integral(rep, [letters]), merged)
        assert len(calls) == 2


# the 39 words with k <= 3 over three letters, as indices into the letters
STOKES_WORDS = [w for k in (1, 2, 3) for w in product(range(3), repeat=k)]


@pytest.mark.parametrize("algebra, functor, coeff, words", [
    ("heisenberg3", "chain", "trivial", STOKES_WORDS),
    ("heisenberg3", "chain", "adjoint", STOKES_WORDS),
    ("heisenberg3", "cochain", "trivial", STOKES_WORDS),
    ("heisenberg3", "cochain", "adjoint", STOKES_WORDS),
    ("n4", "chain", "trivial", STOKES_WORDS),
    ("n4", "cochain", "trivial", STOKES_WORDS),
    ("n4", "chain", "adjoint", NINE_WORDS[6:]),
], ids=["h3_chain_trivial", "h3_chain_adjoint", "h3_cochain_trivial", "h3_cochain_adjoint",
        "n4_chain_trivial", "n4_cochain_trivial", "n4_chain_adjoint_k3"])
def test_exact_stokes_is_zero_on_every_word(monkeypatch, algebra, functor, coeff, words):
    """The alternating sum of the k + 1 faces equals [d, integral] exactly:
    the 8- and 24-dim Heisenberg complexes, the 64-dim n4 complexes, and
    the three k = 3 words on the 384-dim n4 adjoint chains.  The residual,
    one ``product_sum``, equals the face-by-face ``unfused_stokes``."""
    g, pool = (heisenberg3(), HEISENBERG_LETTERS) if algebra == "heisenberg3" \
        else (_nilpotent(4), N4_LETTERS)
    coefficients = {"trivial": trivial_lie_rep, "adjoint": adjoint_rep}[coeff](g)
    rep = {"chain": chain_rep, "cochain": cochain_rep}[functor](g, coefficients)
    made = _recorded(monkeypatch, integrate)
    for word in words:
        letters = _letters(rep, [pool[i] for i in word])
        assert integrate.dg_module_exact(rep, letters) == 0.0, word
        _assert_same(made[-1][1], unfused_stokes(rep, letters))


@pytest.mark.parametrize("k", [2, 3])
def test_exact_stokes_is_nonzero_with_the_merged_pair_reversed(h3_reps, monkeypatch, k):
    """A true negative: each inner face with its merged slot read as
    exp(ty) exp(tx) instead of exp(tx) exp(ty)."""
    rep = h3_reps["trivial"]
    letters = _letters(rep, HEISENBERG_LETTERS[:k])
    density = integrate._slot_density
    monkeypatch.setattr(integrate, "_slot_density", lambda rep, slot: density(rep, slot[::-1]))
    made = _recorded(monkeypatch, integrate)
    assert integrate.dg_module_exact(rep, letters) > 0
    _assert_same(made[-1][1], unfused_stokes(rep, letters))


def test_exact_stokes_refuses_the_empty_word_and_float_mode(h3_reps):
    with pytest.raises(ValueError, match="length at least 1"):
        integrate.dg_module_exact(h3_reps["trivial"], [])
    g = heisenberg3()
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    for k in (1, 2, 3):
        with pytest.raises(ModeError):
            integrate.dg_module_exact(rep, [g.vector(x, FLOAT) for x in HEISENBERG_LETTERS[:k]])


def _labels(entries):
    """A stacked operator over len(entries) labels on a 2-dim degree-0
    space, label i the diagonal entries[i]."""
    space = GradedVectorSpace({0: 2})
    return stack([operator_from_entries(space, space, 0,
                                        [(0, r, r, v) for r, v in enumerate(row)], EXACT)
                  for row in entries])


@pytest.mark.parametrize("x, entries", [
    # coprime denominators: the numerators over their lcm leave int64, the
    # label that would need them holds no entry
    ((Fraction(1, 2 ** 31 - 1), Fraction(1, 2 ** 31), Fraction(1, 2 ** 61 - 1)),
     ((3, 0), (0, 5), (0, 0))),
    # products past int64 that cancel: (2^62 + 1) 4 - 2^62 4 = 4
    ((2 ** 62 + 1, -(2 ** 62)), ((4, 1), (4, 1))),
])
def test_label_combination_wide_path_matches_fractions(x, entries):
    out = label_combination(x, _labels(entries))
    want = [sum(Fraction(c) * row[r] for c, row in zip(x, entries)) for r in range(2)]
    assert [out.block(0)[r, r] for r in range(2)] == want
    assert out._data.dtype == np.int64


@pytest.mark.parametrize("x, top", [((1, 1), 2 ** 63),
                                    ((Fraction(1, 2), Fraction(1, 2)), 2 ** 62)],
                         ids=["sum", "halves"])
def test_label_combination_past_int64_is_exact(x, top):
    """2^62 + 2^62 is held as a Python int; halved, the sum fits int64."""
    out = label_combination(x, _labels(((2 ** 62, 1), (2 ** 62, 1))))
    assert [out.block(0)[r, r] for r in range(2)] == [top, sum(map(Fraction, x))]
    _assert_int64_iff_fits(out)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_letter_cache_shares_operators_and_stays_bounded(h3_reps, mode):
    g = heisenberg3()
    rep = chain_rep(g, adjoint_rep(g, mode=mode)) if mode == FLOAT else h3_reps["adjoint"]
    stacks = [(op._rows.copy(), op._cols.copy(), op._data.copy(), op._den)
              for op in (rep.L_stack, rep.B_stack)]
    x = g.vector([1, -2, 1], mode)
    first = rep.letter(x)
    assert rep.letter(list(x)) is first
    assert rep.letter(x).L is first.L and rep.letter(g.vector([1, -2, 1], mode)).B is first.B
    assert not first.L._data.flags.writeable and not first.B._data.flags.writeable
    for i in range(LETTER_CACHE + 10):
        rep.letter(g.vector([i, 1, 2], mode))
    assert len(rep._letters) == LETTER_CACHE
    for op, (rows, cols, data, den) in zip((rep.L_stack, rep.B_stack), stacks):
        assert np.array_equal(op._rows, rows) and np.array_equal(op._cols, cols)
        assert np.array_equal(op._data, data) and op._den == den


def test_label_maps_are_built_once_and_read_only(h3_reps):
    rep = h3_reps["trivial"]
    g, n = rep.algebra, rep.algebra.n
    maps = reps._label_maps(g, rep.mode)
    assert reps._label_maps(g, rep.mode) is maps
    assert not any(h.flags.writeable for h in maps.values())
    swap, consts = maps["swap"].reshape(n * n, n * n), maps["c"]
    for i in range(n):
        for j in range(n):
            assert swap[j * n + i].tolist() == [int(r == i * n + j) for r in range(n * n)]
            assert consts[j * n + i].tolist() == g.c[i, j].tolist()
    for name in ("one", "swap", "c", "after", "before", "eye", "unit"):
        assert np.array_equal(maps[f"minus_{name}"], -maps[name])
