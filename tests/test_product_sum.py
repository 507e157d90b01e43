"""The one relation kernel ``graded.product_sum`` and the hom-space equations
``graded.hom_system`` against their step-by-step references.

``dense_reference.composed_product_sum`` builds each product through
``on_labels`` (1_K ox f as a tensor product), then ``compose``, relabels it
label by label (``unstack``, ``concatenated_combination``, ``stack``) and
takes one ``concatenated_combination``; the kernel must equal it entry for
entry in exact mode (denominator and dtypes included, past int64 too) and
within 1e-13 in float mode.  ``compose``, ``stack`` and ``combination``,
all ``product_sum`` terms, must equal ``matched_compose``, ``layout_stack``
and ``concatenated_combination`` bit for bit.
``dense_reference.tensor_intertwiner_system`` builds the equations
phi A = A' phi through dual and tensor operators; the exact hom-space bases
read off both must be bit-equal, and float adjunction reports must agree
within 1e-13.
"""

from fractions import Fraction

import numpy as np
import pytest

from cartankit import graded, integrate, reps
from cartankit.graded import (CochainComplex, GradedOperator, GradedVectorSpace, hom_system,
                              product_sum)
from cartankit.lie import abelian, heisenberg3, sl2, su2
from cartankit.linalg import EXACT, FLOAT, ModeError
from cartankit.reps import (CartanRep, adjoint_rep, adjunction_check, cartan_dgla, chain_rep,
                            cochain_rep, evaluation_pairing_residual, hom_space, restrict,
                            trivial_lie_rep)
from dense_reference import (composed_product_sum, concatenated_combination, layout_stack,
                             matched_compose, operator_from_blocks, stepwise_induced_map,
                             tensor_intertwiner_system)
from test_ce import _nilpotent
from test_exact_series import _count_products, _recorded
from test_relation_families import REPS, _broken, _rebased_sl2
from test_stacked import _assert_int64_iff_fits, _assert_same

BROKEN = {f"{name}-bumped-{family}": _broken(rep, family)
          for name, rep in REPS.items() for family in ("L", "B", "d")}


def _families(rep):
    """The term lists of every relation family of ``reps`` on ``rep``: the
    four Cartan families, the two of ``LieRep.residuals`` on L, and the
    three of ``intertwiner_residual`` for the identity of ``rep``."""
    L, B, d = rep.L_stack, rep.B_stack, rep.differential
    h = reps._label_maps(rep.algebra, rep.mode)
    one = GradedOperator.identity(rep.complex.space, rep.mode)
    return [
        [(h["one"], L, L), (h["minus_swap"], L, L), (h["minus_c"], L)],
        [(h["one"], L, B), (h["minus_swap"], B, L), (h["minus_c"], B)],
        [(h["one"], B, B), (h["swap"], B, B)],
        [(h["after"], d, B), (h["before"], B, d), (h["minus_eye"], L)],
        [(h["after"], d, L), (h["minus_before"], L, d)],
        [(h["unit"], one, d), (h["minus_unit"], d, one)],
        [(h["after"], one, L), (h["minus_before"], L, one)],
        [(h["after"], one, B), (h["minus_before"], B, one)],
    ]


def _assert_kernel_matches(terms, mode):
    got, want = product_sum(terms), composed_product_sum(terms)
    if mode == EXACT:
        _assert_same(got, want)
    else:
        assert (got.source, got.target, got.degree) == (want.source, want.target, want.degree)
        assert (got - want).norm() <= 1e-13


@pytest.mark.parametrize("name", sorted(REPS) + sorted(BROKEN))
def test_kernel_equals_the_composed_reference(name):
    rep = REPS[name] if name in REPS else BROKEN[name]
    for terms in _families(rep):
        _assert_kernel_matches(terms, rep.mode)


def _ceiling_rep(entry):
    """abelian(1) on degrees -1, 0 with every entry of L and B equal to
    ``entry`` and d the identity from degree -1 to 0."""
    space = GradedVectorSpace({-1: 1, 0: 1})
    big = np.array([[Fraction(entry)]], dtype=object)
    one = np.array([[Fraction(1)]], dtype=object)
    d = operator_from_blocks(space, space, 1, {-1: one}, mode=EXACT)
    L = operator_from_blocks(space, space, 0, {-1: big, 0: big}, mode=EXACT)
    B = operator_from_blocks(space, space, -1, {0: big}, mode=EXACT)
    return CartanRep(abelian(1), CochainComplex(space, d), [L], [B])


CEILING = [2 ** 62, 3 * 10 ** 9, 3037000499, 3037000500, 2 ** 31 + 1,
           Fraction(3 * 10 ** 9, 7), Fraction(2 ** 62, 3), Fraction(3037000500, 2)]


@pytest.mark.parametrize("entry", CEILING, ids=str)
def test_kernel_equals_the_steps_near_the_int64_ceiling(entry):
    """Near the int64 ceiling the kernel equals the step-by-step
    composition, in int64 exactly where its reduced entries fit."""
    for terms in _families(_ceiling_rep(entry)):
        got = product_sum(terms)
        _assert_same(got, composed_product_sum(terms))
        _assert_int64_iff_fits(got)


def test_kernel_past_the_bound_is_exact_where_each_step_fits():
    """f has two entries in its row but g meets only one of them: the bound
    max|f| max|g| * 2 leaves int64 while the one product fits, so the sum is
    made in Python ints and stored in int64, exactly."""
    space = GradedVectorSpace({0: 2})
    x = 3 * 10 ** 9
    f = operator_from_blocks(space, space, 0, {0: np.array([[x, x], [0, 0]], dtype=object)},
                             mode=EXACT)
    g = operator_from_blocks(space, space, 0, {0: np.array([[x, 0], [0, 0]], dtype=object)},
                             mode=EXACT)
    terms = [(np.ones((1, 1, 1), dtype=int), f, g)]
    got = product_sum(terms)
    _assert_same(got, composed_product_sum(terms))
    assert got.norm() == float(x * x) and got._data.dtype == np.int64


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_kernel_validates_its_terms(mode):
    g = sl2()
    rep = chain_rep(g, adjoint_rep(g, mode=mode))
    h = reps._label_maps(g, mode)
    with pytest.raises(ValueError, match="not parallel"):
        product_sum([(h["one"], rep.L_stack, rep.L_stack), (h["one"], rep.L_stack, rep.B_stack)])
    with pytest.raises(ValueError, match="m x q x p"):
        product_sum([(h["eye"], rep.L_stack, rep.L_stack)])
    other = chain_rep(g, adjoint_rep(g, mode=FLOAT if mode == EXACT else EXACT))
    with pytest.raises(ModeError):
        product_sum([(h["one"], rep.L_stack, other.L_stack)])
    if mode == EXACT:
        with pytest.raises(ModeError, match="float coefficient"):
            product_sum([(h["one"] * 0.5, rep.L_stack, rep.L_stack)])


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

def _through_tensors(monkeypatch, mode):
    monkeypatch.setattr(reps, "hom_system", lambda source, target, pairs, n:
                        tensor_intertwiner_system(source, target, pairs, mode, n))


def _assert_same_bases(monkeypatch, a, b):
    got = hom_space(a, b)
    _through_tensors(monkeypatch, a.mode)
    want = hom_space(a, b)
    monkeypatch.undo()
    assert len(got) == len(want)
    for x, y in zip(got, want):
        _assert_same(x, y)
    return len(got)


CRITERION_10 = [(abelian(3), "trivial", chain_rep, "trivial"),
                (heisenberg3(), "trivial", cochain_rep, "trivial"),
                (sl2(), "trivial", chain_rep, "trivial"),
                (sl2(), "adjoint", chain_rep, "adjoint"),
                (heisenberg3(), "adjoint", chain_rep, "trivial"),
                (sl2(), "adjoint", cochain_rep, "trivial"),
                (_rebased_sl2(), "adjoint", chain_rep, "trivial"),
                (_rebased_sl2(), "trivial", cochain_rep, "adjoint")]


def _coefficients(g, name, mode=EXACT):
    return trivial_lie_rep(g, mode=mode) if name == "trivial" else adjoint_rep(g, mode=mode)


@pytest.mark.parametrize("case", range(len(CRITERION_10)))
def test_exact_hom_bases_are_bit_equal_on_adjunction_pairs(monkeypatch, case):
    g, v_name, build, w_name = CRITERION_10[case]
    v, w = _coefficients(g, v_name), build(g, _coefficients(g, w_name))
    lie_side = _assert_same_bases(monkeypatch, v, restrict(w))
    assert _assert_same_bases(monkeypatch, chain_rep(g, v), w) == lie_side


@pytest.mark.parametrize("g, dim", [(abelian(3), 9), (heisenberg3(), 3), (sl2(), 1),
                                    (su2(), 1)], ids=lambda x: getattr(x, "name", str(x)))
def test_exact_hom_bases_are_bit_equal_on_the_cartan_dgla(monkeypatch, g, dim):
    dgla = cartan_dgla(g)
    assert _assert_same_bases(monkeypatch, dgla, dgla) == dim


def test_exact_hom_bases_are_bit_equal_on_n4(monkeypatch):
    g = _nilpotent(4)
    v, w = adjoint_rep(g), chain_rep(g, trivial_lie_rep(g))
    assert _assert_same_bases(monkeypatch, v, restrict(w)) == 3
    assert _assert_same_bases(monkeypatch, chain_rep(g, v), w) == 3
    triv = trivial_lie_rep(g)
    assert _assert_same_bases(monkeypatch, triv, restrict(w)) == 1


@pytest.mark.parametrize("g", [sl2(), heisenberg3(), abelian(3)], ids=lambda g: g.name)
def test_float_adjunction_reports_agree_with_the_tensor_system(monkeypatch, g):
    """Twelve float pairs: trivial and adjoint V against the chain and
    cochain representations of the trivial coefficients."""
    for v_name in ("trivial", "adjoint"):
        for build in (chain_rep, cochain_rep):
            v = _coefficients(g, v_name, FLOAT)
            w = build(g, trivial_lie_rep(g, mode=FLOAT))
            got = adjunction_check(v, w)
            _through_tensors(monkeypatch, FLOAT)
            want = adjunction_check(v, w)
            monkeypatch.undo()
            assert (got.dim_cartan_side, got.dim_lie_side, got.ok) == \
                (want.dim_cartan_side, want.dim_lie_side, want.ok)
            assert abs(got.reconstruction_residual - want.reconstruction_residual) <= 1e-13


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_hom_system_has_the_tensor_rows_without_the_empty_ones(mode):
    g = heisenberg3()
    v = adjoint_rep(g, mode=mode)
    a, b = chain_rep(g, v), chain_rep(g, trivial_lie_rep(g, mode=mode))
    pairs = [(a.differential, b.differential), (a.L_stack, b.L_stack), (a.B_stack, b.B_stack)]
    source, target = a.complex.space, b.complex.space
    got, n_cols = hom_system(source, target, pairs, g.n)
    want, want_cols = tensor_intertwiner_system(source, target, pairs, mode, g.n)
    assert n_cols == want_cols
    if mode == EXACT:
        want = [row for row in want if row]
        assert all(got) and len(got) == len(want)
        for x, y in zip(got, want):
            # the same equation up to the row's common factor
            assert x.keys() == y.keys()
            assert {Fraction(x[k], y[k]) for k in x} == {Fraction(x[min(x)], y[min(x)])}
    else:
        assert np.array_equal(got, want[np.abs(want).sum(axis=1) > 0])


def test_hom_system_builds_no_identity_dual_or_tensor(monkeypatch):
    g = heisenberg3()
    a, b = chain_rep(g, adjoint_rep(g)), chain_rep(g, trivial_lie_rep(g))

    def refuse(*args, **kwargs):
        raise AssertionError("operator built for the hom-space system")

    for name in ("tensor_operator", "dual_operator", "_tensor_sum"):
        monkeypatch.setattr(graded, name, refuse)
    monkeypatch.setattr(GradedOperator, "identity", classmethod(refuse))
    monkeypatch.setattr(GradedOperator, "__init__", refuse)
    system, n_cols = hom_system(a.complex.space, b.complex.space,
                                [(a.differential, b.differential), (a.L_stack, b.L_stack),
                                 (a.B_stack, b.B_stack)], g.n)
    assert n_cols and system and all(system)


def test_hom_system_past_int64_equals_the_tensor_system():
    """phi A - A' phi with numerators past int64 at their common denominator
    is the exact difference, as the two tensor operators give it."""
    space = GradedVectorSpace({0: 1})
    big = operator_from_blocks(space, space, 0, {0: np.array([[2 ** 62]], dtype=object)},
                               mode=EXACT)
    third = operator_from_blocks(space, space, 0, {0: np.array([[Fraction(1, 3)]],
                                                               dtype=object)}, mode=EXACT)
    zero = GradedOperator.zero(space, space, 0, EXACT)
    # 2^62 phi - phi / 3 at denominator 3; 2^62 phi - 2^62 phi = 0
    for pairs, want in (([(big, big)], []), ([(big, third)], [{0: 3 * 2 ** 62 - 1}]),
                        ([(big, zero)], [{0: 2 ** 62}])):
        got, n_cols = hom_system(space, space, pairs, 1)
        rows, cols = tensor_intertwiner_system(space, space, pairs, EXACT, 1)
        assert got == want == [row for row in rows if row] and n_cols == cols == 1
        assert all(type(v) is int for row in got for v in row.values())


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def _count_fills(monkeypatch):
    calls = []
    original = GradedOperator.__init__

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(GradedOperator, "__init__", counted)
    return calls


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_warm_pairing_check_builds_fewer_operators(monkeypatch, mode):
    """``evaluation_pairing_residual`` into the trivial target: one
    ``product_sum`` per family of ``intertwiner_residual``, 22 operators
    built where composing each family built 29."""
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g, mode=mode))
    want = evaluation_pairing_residual(rep)
    calls = _count_fills(monkeypatch)
    assert evaluation_pairing_residual(rep) == want
    assert len(calls) <= 22


def test_exact_point_value_starts_from_the_first_letter(monkeypatch):
    """k = 1 exact Stokes: the face exp(x) after the empty integral and the
    two products of [d, integral], 3 products."""
    g = heisenberg3()
    rep = chain_rep(g, adjoint_rep(g))
    x = g.vector([1, -2, 1])
    want = integrate.dg_module_exact(rep, [x])
    calls = _count_products(monkeypatch)
    assert integrate.dg_module_exact(rep, [x]) == want == 0.0
    assert len(calls) == 3
    _assert_same(integrate.point_value(rep, [x]), rep.letter(x).exp)


# ---------------------------------------------------------------------------
# compose and stack as product_sum terms
# ---------------------------------------------------------------------------

SPACES = [GradedVectorSpace(dims) for dims in
          ({}, {0: 1}, {-1: 2, 0: 3}, {-1: 1, 0: 2, 1: 2}, {0: 2, 1: 1})]


def _random_operator(rng, source, target, degree, mode):
    """About half the block entries nonzero: floats of every sign and scale,
    some whose products underflow to signed zeros or overflow; exact ones
    small integers, fractions and numerators past int64."""
    size = len(graded._block_entries(source, target, degree))
    keep = rng.random(size) < 0.5
    if mode == FLOAT:
        scale = rng.choice([1.0, 1e-170, 1e170, -1e-170], size, p=[0.7, 0.1, 0.1, 0.1])
        return GradedOperator.from_block_entries(source, target, degree,
                                                 keep * scale * rng.standard_normal(size), mode)
    pool = [1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), 2 ** 62,
            -(2 ** 62) + 1, 3 * 10 ** 18, 10 ** 25, Fraction(10 ** 21, 7), 3 * 10 ** 9,
            -(3 * 10 ** 9)]
    vec = np.array([pool[i] if k else 0 for i, k in zip(rng.integers(len(pool), size=size),
                                                          keep)], dtype=object)
    return GradedOperator.from_block_entries(source, target, degree, vec, mode)


def _stacked(rng, space):
    """``space`` itself, or K_p ox ``space`` for a random p of 2 or 3."""
    p = int(rng.integers(1, 4))
    return space if p == 1 else graded.tensor_space(graded.label_space(p), space)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_compose_and_stack_equal_their_own_kernels_bit_for_bit(mode):
    """150 seeded cases per mode: ``compose`` against ``matched_compose`` and
    ``stack`` against ``layout_stack`` on random operators between graded
    spaces, empty spaces and empty operators included, with stacked spaces
    K_p ox W as operands and targets."""
    rng = np.random.default_rng(2024)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for _ in range(150):
            v, u, w = (_stacked(rng, SPACES[i]) for i in rng.integers(len(SPACES), size=3))
            a, b = (int(x) for x in rng.integers(-1, 2, size=2))
            f, g = _random_operator(rng, u, w, a, mode), _random_operator(rng, v, u, b, mode)
            _assert_same(graded.compose(f, g), matched_compose(f, g))
            ops = [_random_operator(rng, v, w, a, mode) for _ in range(rng.integers(1, 5))]
            _assert_same(graded.stack(ops), layout_stack(ops))
            _assert_same(graded.stack([GradedOperator.zero(v, w, a, mode)] * 2),
                         layout_stack([GradedOperator.zero(v, w, a, mode)] * 2))


def test_compose_and_stack_past_int64_equal_their_own_kernels():
    """Numerators whose products, sums of products (3e9 squared fits, twice
    it does not) and common-denominator scalings leave int64: stored as
    Python ints, or narrowed back to int64 where the reduced result fits,
    the same way by both kernels."""
    space = GradedVectorSpace({0: 2})
    x = 3 * 10 ** 9
    wide = operator_from_blocks(space, space, 0, {0: np.array([[x, x], [x, -x]], dtype=object)},
                                mode=EXACT)
    got = graded.compose(wide, wide)
    _assert_same(got, matched_compose(wide, wide))
    assert got.block(0).tolist() == [[2 * x * x, 0], [0, 2 * x * x]] and got._data.dtype == object
    big = operator_from_blocks(space, space, 0, {0: np.array(
        [[2 ** 62, 3 * 10 ** 18], [Fraction(1, 3), -(2 ** 62)]], dtype=object)}, mode=EXACT)
    half = operator_from_blocks(space, space, 0, {0: np.array(
        [[Fraction(1, 2), 0], [0, 2 ** 62]], dtype=object)}, mode=EXACT)
    for f, g in ((big, big), (big, half), (half, big)):
        got = graded.compose(f, g)
        _assert_same(got, matched_compose(f, g))
        _assert_int64_iff_fits(got)
    for ops in ([big, half], [half, half, big]):
        got = graded.stack(ops)
        _assert_same(got, layout_stack(ops))
        _assert_int64_iff_fits(got)
    assert graded.stack([big, half])._data.dtype == object


EXACT_COEFFS = [1, -1, 0, 2, -3, Fraction(1, 2), Fraction(-2, 3), 2 ** 62, -(10 ** 20)]
FLOAT_COEFFS = EXACT_COEFFS + [1.0, -1.0, 0.0, -0.0, 2.5, 1e170, -1e-170]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_combination_equals_its_own_kernel_bit_for_bit(mode):
    """150 seeded cases per mode: ``combination`` (and ``+``, ``-``, scalar
    ``*``) against ``concatenated_combination`` on random parallel
    operators, empty spaces and empty operators included: +-1, ``Fraction``,
    zero and (float mode) float coefficients, exact numerators and sums of
    them past int64 (stored as Python ints, or narrowed back where the
    reduced result fits), floats whose products overflow or underflow."""
    rng = np.random.default_rng(2025)
    pool = EXACT_COEFFS if mode == EXACT else FLOAT_COEFFS
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for _ in range(150):
            v, w = (_stacked(rng, SPACES[i]) for i in rng.integers(len(SPACES), size=2))
            a = int(rng.integers(-1, 2))
            ops = [_random_operator(rng, v, w, a, mode) if rng.random() < 0.8 else
                   GradedOperator.zero(v, w, a, mode) for _ in range(rng.integers(1, 5))]
            coeffs = [pool[i] for i in rng.integers(len(pool), size=len(ops))]
            _assert_same(graded.combination(coeffs, ops), concatenated_combination(coeffs, ops))
            f, g = ops[0], ops[-1]
            _assert_same(f + g, concatenated_combination((1, 1), (f, g)))
            _assert_same(f - g, concatenated_combination((1, -1), (f, g)))
            _assert_same(coeffs[0] * f, concatenated_combination(coeffs[:1], (f,)))


def test_combination_past_int64_equals_its_own_kernel():
    """Sums whose numerators pass int64 only at the common denominator or
    only summed: kept as Python ints, or narrowed to int64 where the reduced
    sum fits."""
    space = GradedVectorSpace({0: 2})
    big = operator_from_blocks(space, space, 0, {0: np.array(
        [[2 ** 62, 3 * 10 ** 18], [Fraction(1, 3), -(2 ** 62)]], dtype=object)}, mode=EXACT)
    half = operator_from_blocks(space, space, 0, {0: np.array(
        [[Fraction(1, 2), 0], [0, 2 ** 62]], dtype=object)}, mode=EXACT)
    for coeffs, ops in (((1, 1), (big, big)), ((1, -1), (big, big)), ((3, 1), (big, half)),
                        ((Fraction(1, 7), 2), (half, big)), ((2 ** 62, -1, 1), (half, big, big))):
        got = graded.combination(coeffs, ops)
        _assert_same(got, concatenated_combination(coeffs, ops))
        _assert_int64_iff_fits(got)
    assert (big + big)._data.dtype == object and (big - big).norm() == 0


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_combination_raises_the_kinds_it_raised(mode):
    """``product_sum`` raises what ``combination`` raised before it became its
    relabel terms: ``ValueError`` for operators that are not parallel,
    ``ModeError`` for mixed modes and for a float coefficient on an exact
    operator, the float 1.0 included (only an int +-1 is ``UNIT``)."""
    one, wide = (GradedOperator.identity(GradedVectorSpace({0: d}), mode) for d in (2, 3))
    shifted = GradedOperator.zero(one.source, one.target, 1, mode)
    for f, g in ((one, wide), (one, shifted)):
        with pytest.raises(ValueError, match="not parallel"):
            f + g
        with pytest.raises(ValueError, match="not parallel"):
            graded.combination((1, 1), (f, g))
    other = GradedOperator.identity(one.source, FLOAT if mode == EXACT else EXACT)
    with pytest.raises(ModeError):
        one - other
    if mode == EXACT:
        for c in (1.0, -1.0, 0.5, np.float64(2)):
            with pytest.raises(ModeError, match="float coefficient"):
                c * one
            with pytest.raises(ModeError, match="float coefficient"):
                graded.combination((c,), (one,))
    else:
        _assert_same(1.0 * one, 1 * one)


def test_compose_keeps_its_space_check():
    """The space check that ``compose`` makes before its ``product_sum``."""
    one, wide = (GradedOperator.identity(GradedVectorSpace({0: d}), EXACT) for d in (2, 3))
    with pytest.raises(ValueError, match="compose: target of g differs"):
        graded.compose(one, wide)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("case", range(len(CRITERION_10)))
def test_fused_adjunction_sites_equal_their_unfused_forms(monkeypatch, case, mode):
    """On the criterion-10 pairs: ``induced_map``, each step one
    ``product_sum``, equals the step-by-step ``stepwise_induced_map``, and
    the reconstruction phi iota - phi0 of ``adjunction_check``, one
    ``product_sum``, equals ``compose`` then ``-``; bit for bit in both
    modes, the products of each step summed before phi."""
    g, v_name, build, w_name = CRITERION_10[case]
    v, w = _coefficients(g, v_name, mode), build(g, _coefficients(g, w_name, mode))
    lie_maps = hom_space(v, restrict(w))
    for phi0 in lie_maps:
        _assert_same(reps.induced_map(v, w, phi0), stepwise_induced_map(v, w, phi0))
    made = _recorded(monkeypatch, reps)
    assert adjunction_check(v, w).ok
    rebuilt = [(terms, out) for terms, out in made
               if len(terms) == 2 and terms[1][0] is graded.MINUS_UNIT and len(terms[1]) == 2]
    assert len(rebuilt) == len(lie_maps)
    for ((_, phi, iota), (_, phi0)), out in rebuilt:
        _assert_same(out, matched_compose(phi, iota) - phi0)
