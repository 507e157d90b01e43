"""Integration of representation forms: series, quadrature, closed forms,
Stokes, multiplicativity, product pullbacks, differentiation round trip."""

import json
import pathlib
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cartankit import cli, graded, integrate, reps
from cartankit.evaluators import (FlatRep, MaxCollapseReparam, PermReparam,
                                  PointEvaluator, WordEvaluator, ez_product)
from cartankit.graded import (CochainComplex, GradedOperator, GradedVectorSpace,
                              compose, graded_commutator)
from cartankit.integrate import (ChainModule, density_at,
                                 dg_module_exact, dg_module_residual,
                                 differentiate_module, equivariance_residual,
                                 integrate_chain, integrate_quadrature,
                                 integrate_series,
                                 multiplicativity_residual, mu_p_residual,
                                 point_value, roundtrip_errors, series_coefficient,
                                 simplex_nodes, word_integral_polynomial_exact)
from cartankit.lie import abelian, heisenberg3, sl2
from cartankit.linalg import EXACT, FLOAT, ModeError, format_scalar
from cartankit.reps import (CartanRep, adjoint_rep, cartan_residuals, chain_rep,
                            trivial_cartan_rep, trivial_lie_rep)
from cartankit.schemas import dump_operator
from aw_coproduct import aw_monoidality_residual, aw_tensor_residual, differentiate_richardson
from dense_reference import (concatenating_series, contraction_of, exp_operator,
                             flatten_operator, operator_from_blocks, pairwise_merged_pair,
                             pairwise_word_integral, phi1)
from test_stacked import _assert_int64_iff_fits, _assert_same


def eval_form(flat, ev, point) -> GradedOperator:
    """Pullback density of the representation form at one parameter point."""
    dens = density_at(flat, ev, np.asarray([point], dtype=float).reshape(1, ev.k))
    return GradedOperator.from_block_entries(flat.space, flat.space, -ev.k, dens[0], FLOAT)


def pullback_word_closed(rep, letters, point) -> GradedOperator:
    """Closed form of the word pullback: B_1 e^{t_1 A_1} ... B_k e^{t_k A_k}."""
    out = None
    for x, t in zip(letters, point):
        factor = compose(rep.letter(x).B, exp_operator(rep.letter(x).L, t))
        out = factor if out is None else compose(out, factor)
    if out is None:
        return GradedOperator.identity(rep.complex.space, rep.mode)
    return out


@pytest.fixture(scope="module")
def flat(sl2_chain_float):
    return FlatRep(sl2_chain_float)


def test_simplex_nodes_integrate_monomials_exactly():
    # the nested rule must reproduce the classical simplex moments
    t, w = simplex_nodes(2, 12)
    assert abs(np.sum(w) - 0.5) < 1e-14                       # area of the triangle
    # iterated integral: int_0^1 int_0^{t1} t1^2 t2 dt2 dt1 = 1/10
    assert abs(np.sum(w * t[:, 0] ** 2 * t[:, 1]) - 0.1) < 1e-14
    t3, w3 = simplex_nodes(3, 8)
    assert abs(np.sum(w3) - 1.0 / 6.0) < 1e-14                # volume of the 3-simplex
    # int over t1>=t2>=t3 of t2 dt = 1/12
    assert abs(np.sum(w3 * t3[:, 1]) - 1.0 / 12.0) < 1e-14


def test_series_leading_coefficients():
    assert series_coefficient((0,), True) == 1
    assert series_coefficient((0, 0), True) == Fraction(1, 2)
    assert series_coefficient((1,), True) == Fraction(1, 2)   # 1/(1! * (1+1))
    assert series_coefficient((2,), True) == Fraction(1, 6)   # 1/(2! * 3)


def test_series_one_letter_zero_action_gives_contraction(h3_chain_exact):
    rep = h3_chain_exact
    g = rep.algebra
    z = g.basis_vector(2)                                     # central: L_z = 0 on scalars
    out = integrate_series(rep, [z])
    assert (out - rep.letter(z).B).norm() == 0.0


def test_series_two_letters_zero_action_gives_half_product():
    g = abelian(3)
    rep = chain_rep(g, trivial_lie_rep(g))                    # all L vanish
    x, y = g.basis_vector(0), g.basis_vector(1)
    out = integrate_series(rep, [x, y])
    want = Fraction(1, 2) * compose(rep.letter(x).B, rep.letter(y).B)
    assert (out - want).norm() == 0.0


def test_series_matches_phi1_closed_form(sl2_chain_float):
    rep = sl2_chain_float
    g = rep.algebra
    rng = np.random.default_rng(7)
    for _ in range(5):
        coords = rng.normal(size=3)
        coords /= np.linalg.norm(coords)
        x = g.vector(list(coords), FLOAT)
        a = flatten_operator(rep.letter(x).L)
        b = flatten_operator(rep.letter(x).B)
        series = flatten_operator(integrate_series(rep, [x]))
        assert np.max(np.abs(series - b.dot(phi1(a)))) < 1e-12


def test_quadrature_on_prescribed_nilpotent_block():
    # one-letter integral against the hand value B(I + A/2) for A^2 = 0
    g = abelian(1)
    space = GradedVectorSpace({-1: 2, 0: 2})
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    delta = operator_from_blocks(space, space, 1, {-1: a})
    ell = operator_from_blocks(space, space, 0, {-1: a, 0: a})
    bee = operator_from_blocks(space, space, -1, {0: np.eye(2)})
    rep = CartanRep(g, CochainComplex(space, delta), [ell], [bee])
    assert cartan_residuals(rep).worst == 0.0
    fl = FlatRep(rep)
    x = g.basis_vector(0, FLOAT)
    out = integrate_quadrature(fl, WordEvaluator(fl, [x]), 8)
    want = np.eye(2) + a / 2.0
    assert np.max(np.abs(out.block(0) - want)) < 1e-12


def test_series_vs_quadrature_all_short_words(flat, sl2_chain_float, sl2_basis_float):
    e = sl2_basis_float
    rep = sl2_chain_float
    words = [[e[i]] for i in range(3)]
    words += [[e[i], e[j]] for i in range(3) for j in range(3)]
    words += [[e[0], e[2], e[1]], [e[1], e[1], e[2]]]
    for letters in words:
        s = integrate_series(rep, letters)
        q = integrate_quadrature(flat, WordEvaluator(flat, letters), 24)
        assert (s - q).norm() < 1e-12


def test_exact_series_equals_polynomial_oracle(h3_chain_exact):
    rep = h3_chain_exact
    g = rep.algebra
    basis = [g.basis_vector(i) for i in range(3)]
    words = [[basis[0]], [basis[0], basis[1]], [basis[1], basis[0], basis[2]]]
    for letters in words:
        s = integrate_series(rep, letters)
        p = word_integral_polynomial_exact(rep, letters)
        assert (s - p).norm() == 0.0


def test_series_requires_nilpotent_in_exact_mode():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g))
    with pytest.raises(ModeError):
        integrate_series(rep, [g.basis_vector(2)])


def test_exact_series_reads_caps_from_its_own_products(h3_chain_exact, monkeypatch):
    """The exact series stops each letter at its first vanishing B A^j and
    builds no exponential series of its own."""
    g = h3_chain_exact.algebra
    basis = [g.basis_vector(i) for i in range(3)]
    words = [[basis[0]], [basis[0], basis[1]], [basis[1], basis[0], basis[2]],
             [basis[0] + 2 * basis[1], basis[1] - basis[2]]]
    polys = [word_integral_polynomial_exact(h3_chain_exact, w) for w in words]

    def no_exp_terms(*args, **kwargs):
        raise AssertionError("exp_terms called")

    monkeypatch.setattr(reps, "exp_terms", no_exp_terms)
    for letters, poly in zip(words, polys):
        assert (integrate_series(h3_chain_exact, letters) - poly).norm() == 0.0


def test_series_cap_reports_nonconvergence(sl2_chain_float):
    g = sl2_chain_float.algebra
    x = g.vector([0.0, 0.0, 9.0], FLOAT)      # semisimple direction: no early termination
    with pytest.raises(RuntimeError):
        integrate_series(sl2_chain_float, [x], max_degree=3)


SERIES_LETTERS = [[0.3, 0.7, -0.5], [0.8, -0.2, 0.4], [-0.6, 0.5, 0.45]]
ZERO_LETTERS = [[0.0, 0.7, -0.5], [-0.8, -0.0, 0.0], [0.0, 0.0, 0.45]]


def _assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_float_series_equals_the_concatenating_loop(sl2_chain_float, k):
    """The float series reads its letter blocks off ``rep.flat`` and writes
    each layer in place into one preallocated array; the loop reads them off
    the letter operators (``rep.letter(x).L.block(s)``) and concatenates
    every layer.  Both agree bit for bit (``np.array_equal`` and sign bits),
    letter blocks and series alike, on both sl2 chain representations (8-
    and 24-dim) and the heisenberg3 float chain, for generic letters, basis
    letters and letters with zero coordinates (signed zeros included), and
    stop with the same error when they do not converge or overflow."""
    g, h = sl2_chain_float.algebra, heisenberg3()
    sl2_reps = [sl2_chain_float, chain_rep(g, adjoint_rep(g, mode=FLOAT))]
    for rep in sl2_reps + [chain_rep(h, trivial_lie_rep(h, mode=FLOAT))]:
        alg, space = rep.algebra, rep.complex.space
        basis = [list(alg.basis_vector(i, FLOAT)) for i in range(3)]
        for letters in (SERIES_LETTERS[:k], [basis[2], basis[0], basis[1]][:k], ZERO_LETTERS[:k]):
            letters = [alg.vector(x, FLOAT) for x in letters]
            for x in letters:
                for d in rep.flat.L:
                    _assert_same_bits(rep.flat.action(x, d), rep.letter(x).L.block(d))
                for s in rep.flat.B:
                    _assert_same_bits(rep.flat.contraction(x, s), rep.letter(x).B.block(s))
            got = integrate_series(rep, letters)
            want = concatenating_series(rep, letters) if k else \
                GradedOperator.identity(space, FLOAT)
            _assert_same(got, want)
            _assert_same_bits(flatten_operator(got), flatten_operator(want))
    for rep in sl2_reps if k else ():
        for letters, cap in (([[0, 0, 9.0], [0, 9.0, 9.0], [9.0, 0, 9.0]], 3),
                             ([[1e6, 1e6, 0], [1e6, -1e6, 0], [0, 1e6, 1e6]], 60)):
            letters = [g.vector(x, FLOAT) for x in letters[:k]]
            with pytest.raises(integrate.ConvergenceError) as got:
                integrate_series(rep, letters, max_degree=cap)
            with pytest.raises(integrate.ConvergenceError) as want:
                concatenating_series(rep, letters, max_degree=cap)
            assert str(got.value) == str(want.value)


def test_float_routes_cross_an_empty_degree():
    """On a space with an empty degree between two others, a word whose
    chain crosses it reads empty blocks off ``rep.flat``: series and
    quadrature both give the zero operator."""
    g = sl2()
    space = GradedVectorSpace({0: 1, 2: 1})
    family = {k: GradedOperator.zero(space, graded.tensor_space(graded.label_space(3), space),
                                     k, FLOAT) for k in (0, -1)}
    rep = CartanRep(g, CochainComplex(space, GradedOperator.zero(space, space, 1, FLOAT)),
                    family[0], family[-1])
    letters = [g.vector(x, FLOAT) for x in SERIES_LETTERS[:2]]
    series = integrate_series(rep, letters)
    quadrature = integrate_quadrature(rep.flat, WordEvaluator(rep.flat, letters))
    assert series.degree == quadrature.degree == -2
    assert series.norm() == quadrature.norm() == 0.0


def test_empty_word_acts_as_identity(h3_chain_exact):
    out = integrate_series(h3_chain_exact, [])
    ident = GradedOperator.identity(h3_chain_exact.complex.space, EXACT)
    assert (out - ident).norm() == 0.0


def test_closed_form_pullback_matches_generic_density(flat, sl2_chain_float, sl2_basis_float):
    # five interior values per axis; full grid of 5^k points
    e = sl2_basis_float
    rep = sl2_chain_float
    axis = [0.11, 0.31, 0.52, 0.73, 0.94]
    for letters, k in (([e[0]], 1), ([e[0], e[2]], 2)):
        ev = WordEvaluator(flat, letters)
        grid = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
        for point in grid:
            closed = pullback_word_closed(rep, letters, point)
            generic = eval_form(flat, ev, point)
            assert (closed - generic).norm() < 1e-11


def test_eval_form_zero_simplices(flat, sl2_chain_float, sl2_basis_float):
    # the empty word acts as the identity; a translated point acts by the
    # group value
    from cartankit.graded import GradedOperator
    out = eval_form(flat, PointEvaluator(flat), [])
    ident = GradedOperator.identity(sl2_chain_float.complex.space, FLOAT)
    assert (out - ident).norm() == 0.0
    e = sl2_basis_float
    moved = eval_form(flat, PointEvaluator(flat, prefix=[e[0]]), [])
    assert (moved - exp_operator(sl2_chain_float.letter(e[0]).L)).norm() < 1e-13


def test_point_value_is_exact_only(sl2_chain_float, sl2_basis_float):
    with pytest.raises(ModeError):
        point_value(sl2_chain_float, [sl2_basis_float[0]])


def test_act_point_route_by_mode(sl2_chain_float, sl2_basis_float, h3_chain_exact):
    """A float point acts by ``PointEvaluator.value``, an exact one by the
    product of the letters' cached exponentials, bit for bit."""
    e = sl2_basis_float
    prefix = [e[0], 0.5 * e[2] - e[1]]
    got = ChainModule(sl2_chain_float).act_point(prefix)
    want = PointEvaluator(FlatRep(sl2_chain_float), prefix=prefix).value()
    assert np.array_equal(flatten_operator(got), flatten_operator(want))
    rep = h3_chain_exact
    x, y = rep.algebra.vector([1, 0, 0]), rep.algebra.vector([1, 2, -3])
    got = ChainModule(rep).act_point([x, y])
    want = compose(rep.letter(x).exp, rep.letter(y).exp)
    assert got.mode == EXACT
    assert np.array_equal(flatten_operator(got), flatten_operator(want))


def test_degenerate_one_parameter_word_acts_by_zero(flat, sl2_chain_float, sl2_basis_float):
    e = sl2_basis_float
    module = ChainModule(sl2_chain_float)
    assert module.act_word([0.0 * e[0]]).norm() == 0.0
    assert integrate_quadrature(flat, WordEvaluator(flat, [0.0 * e[0]]), 8).norm() == 0.0


def test_density_antisymmetric_in_tangents(flat, sl2_basis_float):
    e = sl2_basis_float
    ev = WordEvaluator(flat, [e[0], e[2]])
    data = ev.eval(np.array([[0.5, 0.2]]))
    b1 = contraction_of(flat, data.xi[0, 0])
    b2 = contraction_of(flat, data.xi[0, 1])
    assert np.max(np.abs(b1.dot(b2) + b2.dot(b1))) < 1e-12


def test_dg_module_float(flat, sl2_basis_float):
    e = sl2_basis_float
    for letters in ([e[0]], [e[0], e[2]], [e[2], e[0], e[1]]):
        assert dg_module_residual(flat, letters, 16) < 1e-9


def test_dg_module_exact_words(h3_chain_exact):
    g = h3_chain_exact.algebra
    x, y = g.basis_vector(0), g.basis_vector(1)
    assert dg_module_exact(h3_chain_exact, [x]) == 0.0
    assert dg_module_exact(h3_chain_exact, [x, y]) == 0.0


def test_stokes_one_letter_exact_form(h3_chain_exact):
    # the commutator with the differential reproduces group value minus one
    rep = h3_chain_exact
    g = rep.algebra
    x = g.vector([1, 2, 0])
    action = integrate_series(rep, [x])
    lhs = graded_commutator(rep.complex.differential, action)
    rhs = point_value(rep, [x]) - GradedOperator.identity(rep.complex.space, EXACT)
    assert (lhs - rhs).norm() == 0.0


def merged_slot(rep, x, y) -> GradedOperator:
    """The slot route on one slot, x and y merged: the inner face
    t_1 = t_2 of the word simplex of (x, y)."""
    return integrate._slot_integral(rep, [(x, y)])


def test_merged_pair_exact_integral_used_by_stokes(h3_chain_exact):
    rep = h3_chain_exact
    g = rep.algebra
    x, y = g.basis_vector(0), g.basis_vector(1)
    merged = merged_slot(rep, x, y)
    assert merged.degree == -1
    # cross-check against float quadrature of the diagonal face
    frep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    fl = FlatRep(frep)
    from cartankit.evaluators import AffineReparam, face_map
    word = WordEvaluator(fl, [g.basis_vector(0, FLOAT), g.basis_vector(1, FLOAT)])
    mat, off = face_map(2, 1)
    quad = integrate_quadrature(fl, AffineReparam(word, mat, off), 16)
    for k in merged.blocks:
        assert np.max(np.abs(np.array(merged.block(k), dtype=float)
                             - quad.block(k))) < 1e-12


def test_multiplicativity_and_square(flat, sl2_basis_float):
    e = sl2_basis_float
    assert multiplicativity_residual(flat, [e[0]], [e[2]], 16) < 1e-8
    assert multiplicativity_residual(flat, [e[0], e[1]], [e[2]], 16) < 1e-8
    square = ez_product(WordEvaluator(flat, [e[1]]), WordEvaluator(flat, [e[1]]))
    assert integrate_chain(flat, square, 16).norm() < 1e-10


def test_thin_words_integrate_to_zero(flat, sl2_basis_float):
    g = abelian(3)
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    fl = FlatRep(rep)
    x = g.basis_vector(0, FLOAT)
    assert integrate_quadrature(fl, WordEvaluator(fl, [x, x]), 16).norm() < 1e-12
    # collapse composites of a non-identity permutation are thin simplices
    e = sl2_basis_float
    word = WordEvaluator(flat, [e[0], e[2]])
    swapped = PermReparam(MaxCollapseReparam(word), (1, 0), "simplex")
    assert integrate_quadrature(flat, swapped, 16).norm() < 1e-9


def test_equivariance_of_densities(flat, sl2_basis_float):
    e = sl2_basis_float
    assert equivariance_residual(flat, [e[0], e[2]], [e[1]]) < 1e-10


def test_mu_p_residuals(flat, sl2_basis_float):
    e = sl2_basis_float
    tangents = np.array([
        [[0.7, -0.3, 0.2], [0.1, 0.9, -0.5], [0.4, 0.2, 0.8]],
        [[-0.2, 0.5, 0.6], [0.8, -0.1, 0.3], [0.2, 0.7, -0.4]],
    ])
    assert mu_p_residual(flat, [[e[0]], [e[1]]], tangents[:1, :2]) < 1e-9
    assert mu_p_residual(flat, [[e[0]], [e[1]]], tangents[:2, :2]) < 1e-9
    assert mu_p_residual(flat, [[e[0]], [e[1]], [e[2]]], tangents[:2, :3]) < 1e-9


def test_mu_p_trivial_rep_vanishes():
    g = sl2()
    rep = trivial_cartan_rep(g, mode=FLOAT)
    fl = FlatRep(rep)
    e = [g.basis_vector(i, FLOAT) for i in range(3)]
    tangents = np.array([[[0.7, -0.3, 0.2], [0.1, 0.9, -0.5]]])
    assert mu_p_residual(fl, [[e[0]], [e[1]]], tangents) == 0.0


def test_differentiate_trivial_module_is_zero():
    g = sl2()
    rep = trivial_cartan_rep(g, mode=FLOAT)
    module = ChainModule(rep)
    rec = differentiate_module(module, 1e-4)
    assert all(op.norm() == 0.0 for op in rec.L + rec.B)


def test_roundtrip_recovery_and_order(sl2_chain_float):
    e1, e2, ratio = roundtrip_errors(sl2_chain_float, 1e-4)
    assert e1 < 1e-6
    assert ratio >= 3.5


def test_float_routes_read_the_one_float_view(monkeypatch, sl2_basis_float):
    """On a fresh float rep, the series, the round trip and the product
    pullback read the generators through ``rep.flat``, built once: no float
    letter enters the letter cache, and the series reads no operator block."""
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    e = sl2_basis_float
    flat = rep.flat
    reads = []
    block = GradedOperator.block
    monkeypatch.setattr(GradedOperator, "block", lambda op, k: reads.append(k) or block(op, k))
    integrate_series(rep, [e[0], 0.5 * e[2] - e[1]])
    assert reads == []
    monkeypatch.undo()
    roundtrip_errors(rep, 1e-4)
    mu_p_residual(flat, [[e[0]], [e[1]]], np.array([[[0.7, -0.3, 0.2], [0.1, 0.9, -0.5]]]))
    assert rep._letters == {}
    assert rep.flat is rep.flat is flat


def test_roundtrip_richardson_sharpens(sl2_chain_float):
    module = ChainModule(sl2_chain_float)
    plain = differentiate_module(module, 1e-3)
    sharp = differentiate_richardson(module, 1e-3)
    worst_plain = max((a - b).norm() for a, b in zip(plain.B, sl2_chain_float.B))
    worst_sharp = max((a - b).norm() for a, b in zip(sharp.B, sl2_chain_float.B))
    assert worst_sharp < worst_plain / 100


def test_differentiated_module_passes_cartan(sl2_chain_float):
    module = ChainModule(sl2_chain_float)
    rec = differentiate_module(module, 1e-4)
    assert cartan_residuals(rec).worst < 1e-6


def test_quadrature_determinism(flat, sl2_basis_float):
    e = sl2_basis_float
    ev = WordEvaluator(flat, [e[0], e[2]])
    a = integrate_quadrature(flat, ev, 16)
    b = integrate_quadrature(flat, WordEvaluator(flat, [e[0], e[2]]), 16)
    assert (a - b).norm() == 0.0


def test_aw_route_exact_for_single_letters_without_group_action():
    # with all degree-0 actions zero the coproduct route is exact at k = 1;
    # at k = 2 the cross terms of the squared contraction already differ
    # from the single front/back term, so the gap persists
    g = abelian(3)
    a = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    b = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    x, y = g.basis_vector(0, FLOAT), g.basis_vector(1, FLOAT)
    assert aw_tensor_residual(a, b, [x]) < 1e-13
    assert aw_tensor_residual(a, b, [x, y]) > 0.1


def test_aw_route_differentiates_to_tensor_rep(sl2_chain_float, sl2_cochain_float):
    assert aw_monoidality_residual(sl2_chain_float, sl2_cochain_float) < 1e-8


def test_aw_route_strict_gap_is_real(sl2_chain_float, sl2_cochain_float, sl2_basis_float):
    # the coproduct route is a chain module but is not subdivision
    # invariant, so it differs from the integrated tensor form at finite
    # scale; the gap is an order-one fact, not a numerical artifact
    gap = aw_tensor_residual(sl2_chain_float, sl2_cochain_float, [sl2_basis_float[0]])
    assert gap > 0.1


# tests/data/integrate_exact.json holds the exact integrals as the dense
# Fraction routes computed them, before they moved to the sparse int64
# kernel, as sparse [row, col, "p/q"] entries per source degree: the series,
# the polynomial route and the point value of every word of length 1-3 over
# three letters, and the merged-slot integral of every pair, on the
# heisenberg3 chain representations with trivial and adjoint coefficients.
PINNED_INTEGRALS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "integrate_exact.json").read_text())
PINNED_WORDS = [w for k in (1, 2, 3) for w in product(range(3), repeat=k)]


def _sparse(op):
    return {str(k): [[int(r), int(c), format_scalar(b[r, c])] for r, c in zip(*b.nonzero())]
            for k, b in sorted(op.blocks.items())}


@pytest.fixture(scope="module")
def h3_chain_reps():
    g = heisenberg3()
    return {coeff: chain_rep(g, v)
            for coeff, v in (("trivial", trivial_lie_rep(g)), ("adjoint", adjoint_rep(g)))}


@pytest.mark.parametrize("coeff", ["trivial", "adjoint"])
@pytest.mark.parametrize("route", ["series", "polynomial", "merged", "point"])
def test_exact_integrals_match_pinned_entries(h3_chain_reps, coeff, route):
    rep = h3_chain_reps[coeff]
    letters = [rep.algebra.vector(x) for x in PINNED_INTEGRALS["letters"]]
    compute = {
        "series": lambda w: integrate_series(rep, w),
        "polynomial": lambda w: word_integral_polynomial_exact(rep, w),
        "merged": lambda w: merged_slot(rep, *w),
        "point": lambda w: point_value(rep, w),
    }[route]
    words = [w for w in PINNED_WORDS if route != "merged" or len(w) == 2]
    got = {",".join(map(str, w)): _sparse(compute([letters[i] for i in w])) for w in words}
    assert got == PINNED_INTEGRALS[f"heisenberg3/chain_{coeff}"][route]


def test_exact_integration_never_goes_dense(h3_chain_reps, monkeypatch):
    """No dense block or total matrix of an operator on a representation
    space: every dense copy of an operator goes through ``_dense``, which
    operators on other spaces may still use (a merged slot takes
    its adjoint series on coordinate vectors)."""
    spaces = {rep.complex.space for rep in h3_chain_reps.values()}
    to_dense = GradedOperator._dense

    def guarded(op, *args):
        if op.source in spaces or op.target in spaces:
            raise AssertionError("exact integration built a dense operator block")
        return to_dense(op, *args)

    def dense(*args, **kwargs):
        raise AssertionError("exact integration built a dense operator block")

    monkeypatch.setattr(GradedOperator, "_dense", guarded)
    monkeypatch.setattr(GradedOperator, "block", dense)
    for rep in h3_chain_reps.values():
        x, y, z = [rep.algebra.vector(v) for v in PINNED_INTEGRALS["letters"]]
        for word in ([x], [x, y], [x, y, z]):
            integrate_series(rep, word)
            word_integral_polynomial_exact(rep, word)
            point_value(rep, word)
        assert dg_module_exact(rep, [x]) == 0.0
        assert dg_module_exact(rep, [x, y]) == 0.0
        assert dg_module_exact(rep, [x, y, z]) == 0.0


def _big_letters(shape, n):
    if shape == "diagonal":
        return [[n, 1, 1], [1, n, 3], [2, 1, n]]
    return [[n, n, n], [n, -n, n], [-n, n, n]]


@pytest.mark.parametrize("coeff, shape, route, last", [
    ("trivial", "diagonal", "polynomial", 6),
    ("trivial", "full", "polynomial", 6),
    ("adjoint", "diagonal", "polynomial", 4),
    ("adjoint", "full", "polynomial", 4),
    ("trivial", "diagonal", "merged", 9),
    ("trivial", "full", "merged", 9),
    ("adjoint", "diagonal", "merged", 6),
    ("adjoint", "full", "merged", 6),
])
def test_exact_polynomial_routes_reach_on_large_letters(h3_chain_reps, coeff, shape, route,
                                                        last):
    """The polynomial route (three letters) and one merged slot (the first
    two) equal their per-pair ``MatPoly`` references at N = 10^last (the
    largest power of ten they reached while every operator had to fit
    int64) and past it, at 10^(last + 1) and 10^30; the polynomial route
    equals the series too.  A result whose reduced numerators fit is
    int64."""
    rep = h3_chain_reps[coeff]
    for n in (10 ** last, 10 ** (last + 1), 10 ** 30):
        word = [rep.algebra.vector(x) for x in _big_letters(shape, n)]
        if route == "polynomial":
            got = word_integral_polynomial_exact(rep, word)
            _assert_same(got, pairwise_word_integral(rep, word))
            _assert_same(got, integrate_series(rep, word))
        else:
            got = merged_slot(rep, *word[:2])
            _assert_same(got, pairwise_merged_pair(rep, *word[:2]))
        assert got.norm() > 0
        _assert_int64_iff_fits(got)
    assert got._data.dtype == object            # N = 10^30


@pytest.mark.parametrize("rep, shape, n, block", [
    ("chain_trivial", "full", 10 ** 4, [["-2000000000000/3"]]),
    ("chain_trivial", "full", 10 ** 6, [["-2000000000000000000/3"]]),
    ("chain_trivial", "full", 2 * 10 ** 6, [["-16000000000000000000/3"]]),
    ("chain_trivial", "full", 10 ** 9, [["-2000000000000000000000000000/3"]]),
    ("chain_adjoint", "diagonal", 10 ** 3, None),
    ("chain_adjoint", "full", 10 ** 4, None),
    ("chain_adjoint", "full", 10 ** 5, None),
    ("chain_adjoint", "full", 2 * 10 ** 6, None),
    ("chain_adjoint", "full", 10 ** 9, None),
])
def test_cli_exact_series_reach_on_large_letters(tmp_path, capsys, h3_chain_reps, rep, shape,
                                                 n, block):
    """The exact series keeps the reach of exact rationals: past int64 its
    numerators are Python ints, so the CLI prints the integral the
    polynomial route gives (on the trivial chains -2 N^3 / 3) and exits 0."""
    root = pathlib.Path(__file__).resolve().parents[1]
    payload = json.loads((root / "problems" / "heisenberg_exact.json").read_text())
    payload["words"]["big"] = _big_letters(shape, n)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    got = cli.main(["integrate", str(path), "--rep", rep, "--word", "big",
                    "--method", "series", "--json", "--test-mode"])
    out, err = capsys.readouterr()
    assert got == 0 and err == ""
    chain = h3_chain_reps[rep.removeprefix("chain_")]
    want = word_integral_polynomial_exact(chain, [chain.algebra.vector(x)
                                                  for x in _big_letters(shape, n)])
    blocks = json.loads(out.splitlines()[0])["inputs"]["operator"]["blocks"]
    assert blocks == dump_operator(want)["blocks"]
    if block is not None:
        assert blocks == {"0": block}
