"""The one relation kernel ``graded.product_sum`` and the hom-space equations
``graded.hom_system`` against their step-by-step references.

``dense_reference.composed_product_sum`` builds each product through
``on_labels`` (1_K ox f as a tensor product), then ``compose``, relabels it
label by label (``unstack``, ``combination``, ``stack``) and takes one
``combination``; the kernel must equal it entry for entry in exact mode
(denominator and dtypes included, past int64 too) and within 1e-13 in float
mode.
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
from dense_reference import (composed_product_sum, operator_from_blocks,
                             tensor_intertwiner_system)
from test_ce import _nilpotent
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
    two products of [d, integral], 3 composes."""
    g = heisenberg3()
    rep = chain_rep(g, adjoint_rep(g))
    x = g.vector([1, -2, 1])
    want = integrate.dg_module_exact(rep, [x])
    calls = []
    original = graded.compose

    def counted(f, h):
        calls.append(1)
        return original(f, h)

    for module in (graded, reps, integrate):
        monkeypatch.setattr(module, "compose", counted)
    assert integrate.dg_module_exact(rep, [x]) == want == 0.0
    assert len(calls) == 3
    _assert_same(integrate.point_value(rep, [x]), rep.letter(x).exp)
