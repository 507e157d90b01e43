"""Generators stored stacked: every representation keeps each family as one
operator V -> K ox V (``graded.stack``), and the constructions build those
stacks in a fixed number of kernel calls.  The per-generator references of
``dense_reference`` must agree bit for bit; the identity is shared."""

import numpy as np
import pytest

from cartankit import ce, graded, reps
from cartankit.graded import (GradedOperator, GradedVectorSpace, combination,
                              compose, dual_space, stack, tensor_operator)
from cartankit.lie import abelian, heisenberg3, sl2
from cartankit.linalg import EXACT, FLOAT
from cartankit.reps import (CartanRep, LieRep, adjoint_rep, cartan_residuals, chain_rep,
                            cochain_rep, dual_rep, tensor_rep, trivial_lie_rep)
from dense_reference import (loop_exterior, operator_from_entries, per_generator_adjoint,
                             per_generator_cartan_operators, per_generator_dual,
                             per_generator_tensor)
from test_ce import _nilpotent
from test_relation_families import _rebased_sl2

ALGEBRAS = {g.name: g for g in (abelian(3), heisenberg3(), sl2(), _nilpotent(4),
                                _rebased_sl2())}


def _assert_same(a, b):
    """Same spaces, degree, mode and stored entries, dtypes included."""
    assert (a.source, a.target, a.degree, a.mode) == (b.source, b.target, b.degree, b.mode)
    for x, y in ((a._rows, b._rows), (a._cols, b._cols), (a._data, b._data)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a._den == b._den


def _assert_int64_iff_fits(op):
    """Exact numerators are stored in int64 exactly when each reduced one
    fits, as Python ints otherwise."""
    fits = all(abs(int(v)) <= 2 ** 63 - 1 for v in op._data)
    assert op._data.dtype == (np.int64 if fits else object)


def _assert_family(stacked, blocks, reference):
    _assert_same(stacked, stack(reference))
    for got, want in zip(blocks, reference, strict=True):
        _assert_same(got, want)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_stacked_constructions_equal_the_per_generator_ones(name, mode):
    g = ALGEBRAS[name]
    adjoint = adjoint_rep(g, mode=mode)
    _assert_family(adjoint.stacked, adjoint.operators, per_generator_adjoint(g, mode))
    for coeff in (trivial_lie_rep(g, mode=mode), adjoint):
        for build, complex_of in ((chain_rep, ce.ce_chain), (cochain_rep, ce.ce_cochain)):
            rep = build(g, coeff)
            L, B = per_generator_cartan_operators(complex_of(g, coeff))
            _assert_family(rep.L_stack, rep.L, L)
            _assert_family(rep.B_stack, rep.B, B)
            dual = dual_rep(rep)
            L, B = per_generator_dual(rep, dual_space(rep.complex.space))
            _assert_family(dual.L_stack, dual.L, L)
            _assert_family(dual.B_stack, dual.B, B)
            if g.n < 6:
                prod = tensor_rep(rep, dual)
                L, B = per_generator_tensor(rep, dual)
                _assert_family(prod.L_stack, prod.L, L)
                _assert_family(prod.B_stack, prod.B, B)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_labelled_combination_is_the_combination_of_the_blocks(mode):
    g = sl2()
    rep = chain_rep(g, adjoint_rep(g, mode=mode))
    x = g.vector([2, -1, 3], mode)
    _assert_same(rep.L_of(x), combination(list(x), rep.L))
    _assert_same(rep.B_of(x), combination(list(x), rep.B))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("n", range(1, 9))
def test_exterior_entries_equal_the_subset_loop(n, mode):
    ext = ce.exterior(n, mode)
    eps, iota = loop_exterior(n, mode)
    _assert_family(ext.wedge, ext.eps, eps)
    _assert_family(ext.contraction, ext.iota, iota)


def _count_fills(monkeypatch):
    calls = []
    original = GradedOperator.__init__

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(GradedOperator, "__init__", counted)
    return calls


CONSTRUCTIONS = {
    "chain_rep": lambda g, mode: chain_rep(g, trivial_lie_rep(g, mode=mode)),
    "cochain_rep": lambda g, mode: cochain_rep(g, adjoint_rep(g, mode=mode)),
    "tensor_rep": lambda g, mode: tensor_rep(*[chain_rep(g, trivial_lie_rep(g, mode=mode))] * 2),
    "dual_rep": lambda g, mode: dual_rep(chain_rep(g, adjoint_rep(g, mode=mode))),
    "cartan_residuals": lambda g, mode: cartan_residuals(
        chain_rep(g, trivial_lie_rep(g, mode=mode))),
}


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_kernel_calls_do_not_grow_with_the_algebra(monkeypatch, name, mode):
    """Operators built (``GradedOperator.__init__`` calls) by one warm call:
    the same on abelian(3) and abelian(5)."""
    run = CONSTRUCTIONS[name]
    counts = []
    for n in (3, 5):
        g = abelian(n)
        run(g, mode)                              # fill the caches of exterior and layout
        calls = _count_fills(monkeypatch)
        run(g, mode)
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1] > 0


def test_stacked_input_is_validated():
    g = sl2()
    rep = chain_rep(g, adjoint_rep(g))
    two = chain_rep(abelian(2), trivial_lie_rep(abelian(2)))
    with pytest.raises(ValueError, match="need one L and one B per basis vector"):
        CartanRep(abelian(2), rep.complex, rep.L_stack, rep.B_stack)
    with pytest.raises(ValueError, match="need one L and one B per basis vector"):
        CartanRep(g, rep.complex, rep.L_stack, stack(rep.B[:2]))
    with pytest.raises(ValueError, match="need one L and one B per basis vector"):
        CartanRep(g, two.complex, rep.L_stack, rep.B_stack)
    with pytest.raises(ValueError, match="L operators must have degree 0"):
        CartanRep(g, rep.complex, rep.B_stack, rep.B_stack)
    with pytest.raises(ValueError, match="B operators must have degree -1"):
        CartanRep(g, rep.complex, rep.L_stack, rep.L_stack)
    with pytest.raises(ValueError, match="need one operator per basis vector"):
        LieRep(abelian(2), rep.complex, rep.L_stack)
    with pytest.raises(ValueError, match="Lie algebra actions must have degree 0"):
        LieRep(g, rep.complex, rep.B_stack)
    rebuilt = CartanRep(g, rep.complex, rep.L, rep.B)         # lists are stacked once
    assert (reps.restrict(rebuilt).stacked - rep.L_stack).norm() == 0


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_identity_is_cached_and_read_only(mode):
    space = GradedVectorSpace({-1: 2, 0: 3})
    one = GradedOperator.identity(space, mode)
    assert GradedOperator.identity(GradedVectorSpace({0: 3, -1: 2}), mode) is one
    assert GradedOperator.identity(space, FLOAT if mode == EXACT else EXACT) is not one
    before = [a.copy() for a in (one._rows, one._cols, one._data)]
    for a in (one._rows, one._cols, one._data):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
    other = operator_from_entries(space, space, 0, [(0, 1, 2, 5), (-1, 0, 1, -3)], mode)
    compose(one, other), compose(other, one), combination((2, -1), (one, other))
    tensor_operator(one, other), tensor_operator(other, one), one + one, 3 * one
    for got, want in zip((one._rows, one._cols, one._data), before):
        assert np.array_equal(got, want)
    assert one._den == 1 and (compose(one, other) - other).norm() == 0


def test_stacked_families_reject_unlabelled_factors():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g))
    space = rep.complex.space
    other = GradedOperator.zero(space, GradedVectorSpace({0: 1}), 0, EXACT)
    with pytest.raises(ValueError, match="not stacked over 2 labels"):
        tensor_operator(other, rep.L_stack, labels=2)
    with pytest.raises(ValueError, match="family of endomorphisms"):
        tensor_operator(graded.stack([other] * 3), rep.L_stack, labels=3)
    with pytest.raises(ValueError, match="not stacked over 2 labels"):
        graded.unstack(rep.L_stack, 2)
