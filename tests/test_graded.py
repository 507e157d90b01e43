"""Graded operators, Koszul signs, tensor complexes."""

import gc
import itertools
import json
import math
import pathlib
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartankit import cli, graded, linalg
from cartankit.ce import ce_chain, ce_cochain
from cartankit.graded import (CochainComplex, GradedOperator, GradedVectorSpace, combination,
                              compose, dual_complex, dual_operator, dual_space,
                              graded_commutator, hom_system, label_combination, label_space,
                              product_sum, relabel, reversed_tensor, stack, stack_entries,
                              tensor_basis_index, tensor_complex, tensor_operator,
                              tensor_space)
from cartankit.lie import sl2
from cartankit.linalg import EXACT, FLOAT, ModeError
from cartankit.reps import adjoint_rep, chain_rep, cochain_rep, trivial_lie_rep
from cartankit.schemas import load_operator, load_problem
from dense_reference import (apply, on_labels, operator_from_blocks, operator_from_entries,
                             peeled_system)
from test_stacked import _assert_int64_iff_fits, _assert_same


def _space(dims):
    return GradedVectorSpace(dims)


def _op(space, degree, blocks):
    return operator_from_blocks(space, space, degree,
                                {k: np.asarray(b, dtype=float) for k, b in blocks.items()})


@pytest.fixture
def two_degree_space():
    return _space({-1: 2, 0: 2})


def _random_op(space, degree, rng):
    blocks = {}
    for k in space.degrees:
        rows, cols = space.dim(k + degree), space.dim(k)
        if rows and cols:
            blocks[k] = rng.uniform(-1, 1, size=(rows, cols))
    return operator_from_blocks(space, space, degree, blocks, mode=FLOAT)


def test_identity_compose(two_degree_space):
    rng = np.random.default_rng(0)
    f = _random_op(two_degree_space, -1, rng)
    ident = GradedOperator.identity(two_degree_space, FLOAT)
    assert (compose(ident, f) - f).norm() == 0.0
    assert (compose(f, ident) - f).norm() == 0.0


def test_compose_degree_addition(two_degree_space):
    rng = np.random.default_rng(1)
    f = _random_op(two_degree_space, -1, rng)
    g = _random_op(two_degree_space, -1, rng)
    assert compose(f, g).degree == -2


def test_differential_squares_to_zero_enforced(two_degree_space):
    good = _op(two_degree_space, 1, {-1: [[0.0, 1.0], [0.0, 0.0]]})
    complex_ = CochainComplex(two_degree_space, good)
    sq = compose(complex_.differential, complex_.differential)
    assert sq.norm() == 0.0
    bad_space = _space({-1: 1, 0: 1, 1: 1})
    bad = operator_from_blocks(bad_space, bad_space, 1,
                               {-1: np.array([[1.0]]), 0: np.array([[1.0]])})
    with pytest.raises(ValueError):
        CochainComplex(bad_space, bad)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_d_squared_check_composes_only_a_stored_differential(monkeypatch, mode):
    """An empty differential squares to zero without a ``compose``; one with
    d^2 != 0 is still refused."""
    from cartankit import graded
    calls = []
    real = graded.compose
    monkeypatch.setattr(graded, "compose", lambda f, g: calls.append(1) or real(f, g))
    space = _space({-1: 2, 0: 1})
    CochainComplex.concentrated(3, 0, mode)
    CochainComplex(space, GradedOperator.zero(space, space, 1, mode))
    assert calls == []
    line = _space({0: 1, 1: 1, 2: 1})
    bad = stack_entries(1, line, line, 1, ([0, 0], [0, 1], [0, 0], [0, 0], [1, 1]), mode)
    with pytest.raises(ValueError, match="does not square to zero"):
        CochainComplex(line, bad)
    assert calls == [1]


def test_commutator_even_and_odd_signs(two_degree_space):
    rng = np.random.default_rng(2)
    a = _random_op(two_degree_space, 0, rng)
    b = _random_op(two_degree_space, 0, rng)
    plain = compose(a, b) - compose(b, a)
    assert (graded_commutator(a, b) - plain).norm() == 0.0
    f = _random_op(two_degree_space, -1, rng)
    g = _random_op(two_degree_space, -1, rng)
    anti = compose(f, g) + compose(g, f)
    assert (graded_commutator(f, g) - anti).norm() == 0.0
    self_bracket = graded_commutator(f, f)
    assert (self_bracket - 2 * compose(f, f)).norm() == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
def test_commutator_graded_antisymmetry(seed, da, db):
    space = _space({-1: 2, 0: 2, 1: 2})
    rng = np.random.default_rng(seed)
    f = _random_op(space, da, rng)
    g = _random_op(space, db, rng)
    sign = -1 if (da % 2) and (db % 2) else 1
    lhs = graded_commutator(f, g)
    rhs = (-sign) * graded_commutator(g, f)
    assert (lhs - rhs).norm() < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
def test_commutator_graded_jacobi(seed, da, db, dc):
    space = _space({-1: 2, 0: 2, 1: 2})
    rng = np.random.default_rng(seed)
    a = _random_op(space, da, rng)
    b = _random_op(space, db, rng)
    c = _random_op(space, dc, rng)
    sign = -1 if (da % 2) and (db % 2) else 1
    lhs = graded_commutator(a, graded_commutator(b, c))
    rhs = graded_commutator(graded_commutator(a, b), c) + sign * graded_commutator(b, graded_commutator(a, c))
    assert (lhs - rhs).norm() < 1e-10


def test_tensor_with_unit_is_identity(two_degree_space):
    diff = _op(two_degree_space, 1, {-1: [[0.0, 1.0], [0.0, 0.0]]})
    v = CochainComplex(two_degree_space, diff)
    unit = CochainComplex.concentrated(1, 0, FLOAT)
    prod = tensor_complex(v, unit)
    assert prod.space.dims == v.space.dims
    for k in v.space.degrees:
        assert np.allclose(prod.differential.block(k), v.differential.block(k))


def test_tensor_dims_graded_convolution():
    v = _space({0: 2})
    w = _space({-1: 1, 0: 1})
    assert tensor_space(v, w).dims == {-1: 2, 0: 2}


def _koszul_apply_differential(vec, v, w):
    """Independent expansion of d(x (x) y) = dx (x) y + (-1)^p x (x) dy on
    pure tensors of basis vectors, bypassing the assembled matrices."""
    out = {}
    for (p, i, q, j), coeff in vec.items():
        dv = v.differential.block(p)
        for r in range(v.space.dim(p + 1)):
            if dv.size and dv[r, i]:
                key = (p + 1, r, q, j)
                out[key] = out.get(key, 0.0) + coeff * dv[r, i]
        dw = w.differential.block(q)
        sign = -1.0 if p % 2 else 1.0
        for r in range(w.space.dim(q + 1)):
            if dw.size and dw[r, j]:
                key = (p, i, q + 1, r)
                out[key] = out.get(key, 0.0) + sign * coeff * dw[r, j]
    return out


def test_tensor_differential_squares_to_zero_oracle():
    # two 2-term complexes; double expansion of the sign rule must cancel
    space = _space({0: 1, 1: 1})
    d = _op(space, 1, {0: [[1.0]]})
    v = CochainComplex(space, d)
    w = CochainComplex(space, d)
    for start in [(0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)]:
        once = _koszul_apply_differential({start: 1.0}, v, w)
        twice = _koszul_apply_differential(once, v, w)
        assert all(abs(c) < 1e-15 for c in twice.values())
    prod = tensor_complex(v, w)
    assert compose(prod.differential, prod.differential).norm() == 0.0


def test_tensor_leibniz_sign_matches_matrix():
    # assembled tensor differential agrees with the basis-level sign rule
    space = _space({0: 2, 1: 1})
    d = _op(space, 1, {0: [[1.0, -2.0]]})
    v = CochainComplex(space, d)
    w = CochainComplex(space, d)
    prod = tensor_complex(v, w)
    for p in v.space.degrees:
        for q in w.space.degrees:
            for i in range(v.space.dim(p)):
                for j in range(w.space.dim(q)):
                    deg, col = tensor_basis_index(v.space, w.space, p, i, q, j)
                    vec = np.zeros(prod.space.dim(deg))
                    vec[col] = 1.0
                    image = apply(prod.differential, {deg: vec})
                    expect = _koszul_apply_differential({(p, i, q, j): 1.0}, v, w)
                    got = image.get(deg + 1, np.zeros(prod.space.dim(deg + 1)))
                    want = np.zeros_like(got)
                    for (pp, ii, qq, jj), c in expect.items():
                        _, idx = tensor_basis_index(v.space, w.space, pp, ii, qq, jj)
                        want[idx] += c
                    assert np.allclose(got, want)


def test_nat_apply_signs():
    space = _space({-1: 1, 0: 1})
    ident = GradedOperator.identity(space, FLOAT)
    b = _op(space, -1, {0: [[1.0]]})
    # identity (x) identity acts as the identity
    both = tensor_operator(ident, ident)
    assert (both - GradedOperator.identity(tensor_space(space, space), FLOAT)).norm() == 0.0
    # degree-0 second factor introduces no sign
    l = _op(space, 0, {-1: [[2.0]], 0: [[3.0]]})
    no_sign = tensor_operator(ident, l)
    for p in (-1, 0):
        for q in (-1, 0):
            deg, col = tensor_basis_index(space, space, p, 0, q, 0)
            out = apply(no_sign, {deg: _unit(no_sign.source.dim(deg), col)})
            _, idx = tensor_basis_index(space, space, p, 0, q, 0)
            expect = l.block(q)[0, 0]
            assert abs(out[deg][idx] - expect) < 1e-15
    # odd-degree second factor picks up (-1)^{|v|} on the first slot
    ts = tensor_space(space, space)
    deg, col_even = tensor_basis_index(space, space, 0, 0, 0, 0)
    out_even = apply(tensor_operator(ident, b), {deg: _unit(ts.dim(deg), col_even)})
    _, tgt = tensor_basis_index(space, space, 0, 0, -1, 0)
    assert abs(out_even[deg - 1][tgt] - 1.0) < 1e-15          # (+1) for |v| = 0
    deg_o, col_odd = tensor_basis_index(space, space, -1, 0, 0, 0)
    out_odd = apply(tensor_operator(ident, b), {deg_o: _unit(ts.dim(deg_o), col_odd)})
    _, tgt_o = tensor_basis_index(space, space, -1, 0, -1, 0)
    assert abs(out_odd[deg_o - 1][tgt_o] - (-1.0)) < 1e-15    # (-1) for |v| = -1


def _unit(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_mixed_mode_rejected(two_degree_space):
    exact_block = np.empty((2, 2), dtype=object)
    exact_block[...] = Fraction(1)
    f = operator_from_blocks(two_degree_space, two_degree_space, 0, {0: exact_block}, mode=EXACT)
    g = _op(two_degree_space, 0, {0: [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(ModeError):
        compose(f, g)
    with pytest.raises(ModeError):
        f + g
    with pytest.raises(ModeError):
        0.5 * f


def test_dual_complex_squares_and_dims(two_degree_space):
    diff = _op(two_degree_space, 1, {-1: [[0.0, 1.0], [0.0, 0.0]]})
    v = CochainComplex(two_degree_space, diff)
    d = dual_complex(v)
    assert d.space.dims == {1: 2, 0: 2}
    assert compose(d.differential, d.differential).norm() == 0.0


# ---------------------------------------------------------------------------
# storage invariant: a block is stored if and only if it has a nonzero entry
# ---------------------------------------------------------------------------

def test_zero_exact_blocks_give_an_empty_exact_operator(two_degree_space):
    """All-zero exact input stays exact: a block-entries vector of zero
    ``Fraction``s, and problem-file blocks of zeros."""
    space = two_degree_space
    read = GradedOperator.from_block_entries(space, space, 0, linalg.zeros(8, EXACT), EXACT)
    loaded = load_operator({"-1": [[0, 0], [0, 0]], "0": [["0", "0/3"], [0, 0]]}, space, 0, EXACT)
    for op in (read, loaded):
        assert op.mode == EXACT
        assert op.blocks == {}
        assert op.norm() == 0


@pytest.mark.parametrize("build", [ce_chain, ce_cochain])
def test_ce_differential_squares_to_no_stored_block(build):
    g = sl2()
    d = build(g, adjoint_rep(g, mode=EXACT)).differential
    assert d.mode == EXACT
    assert compose(d, d).blocks == {}


def _assert_stored_blocks_nonzero(op):
    assert all(b.any() for b in op.blocks.values())


@pytest.mark.parametrize("functor", [chain_rep, cochain_rep])
def test_results_store_only_nonzero_blocks(functor):
    g = sl2()
    rep = functor(g, trivial_lie_rep(g, mode=EXACT))
    assert rep.complex.space.total_dim == 8
    ops = rep.L + rep.B + [rep.differential]
    dual = dual_space(rep.complex.space)
    for x in ops:
        _assert_stored_blocks_nonzero(x)
        _assert_stored_blocks_nonzero(dual_operator(x, dual, lambda q: -1 if q % 2 else 1))
        for y in ops:
            _assert_stored_blocks_nonzero(compose(x, y))
            _assert_stored_blocks_nonzero(tensor_operator(x, y))
            if x.degree == y.degree:
                _assert_stored_blocks_nonzero(x + y)
                _assert_stored_blocks_nonzero(x - y)


# ---------------------------------------------------------------------------
# sparse storage against dense references built from block(k)
# ---------------------------------------------------------------------------

_DEGREES = (-1, 0, 1)


def _random_entry(rng, mode):
    value = Fraction(int(rng.integers(-6, 7)), int(rng.choice([1, 2, 3, 4, 6, 7])))
    return value if mode == EXACT else float(value)


def _sparse_random_op(space, degree, rng, mode):
    """Mostly zero operator with rational entries of mixed denominators."""
    blocks = {}
    for k in space.degrees:
        block = linalg.zeros((space.dim(k + degree), space.dim(k)), mode)
        for idx in np.ndindex(block.shape):
            if rng.random() < 0.3:
                block[idx] = _random_entry(rng, mode)
        blocks[k] = block
    return operator_from_blocks(space, space, degree, blocks, mode=mode)


def _dense(op):
    return {k: op.block(k) for k in op.source.degrees}


def _tensor_index(v, w, p, i, q, j):
    """Offset of v_i^p ox w_j^q in (V ox W)^(p+q): the (p', q') pairs by
    increasing p', Kronecker order inside each pair."""
    start = sum(v.dim(pp) * w.dim(p + q - pp) for pp in v.degrees if pp < p)
    return start + i * w.dim(q) + j


def _assert_blocks(op, want, mode):
    """op.block(k) equals want[k] (zero where absent): exactly in exact
    mode, to rounding in float mode."""
    for k in op.source.degrees:
        got = op.block(k)
        ref = want.get(k, linalg.zeros(got.shape, mode))
        if mode == EXACT:
            assert got.dtype == object and all(isinstance(v, Fraction) for v in got.flat)
            assert np.array_equal(got, ref)
        else:
            assert got.dtype == float and np.allclose(got, np.asarray(ref, dtype=float),
                                                      rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([EXACT, FLOAT]),
       st.sampled_from(_DEGREES), st.sampled_from(_DEGREES))
def test_sparse_storage_matches_dense_reference(seed, mode, df, dg):
    rng = np.random.default_rng(seed)
    space = _space({k: int(rng.integers(0, 5)) for k in _DEGREES})
    f = _sparse_random_op(space, df, rng, mode)
    g = _sparse_random_op(space, dg, rng, mode)
    h = _sparse_random_op(space, df, rng, mode)
    bf, bg, bh = _dense(f), _dense(g), _dense(h)
    assert f.blocks.keys() == {k for k, b in bf.items() if b.any()}
    _assert_blocks(compose(f, g), {k: bf[k + dg].dot(b) for k, b in bg.items()
                                   if k + dg in bf}, mode)
    _assert_blocks(f + h, {k: bf[k] + bh[k] for k in bf}, mode)
    _assert_blocks(f - h, {k: bf[k] - bh[k] for k in bf}, mode)
    c = Fraction(-3, 4) if mode == EXACT else -0.75
    _assert_blocks(c * f, {k: c * b for k, b in bf.items()}, mode)
    cs = (Fraction(2, 3), -1, Fraction(5, 7)) if mode == EXACT else (2 / 3, -1.0, 5 / 7)
    _assert_blocks(combination(cs, (f, h, f)),
                   {k: cs[0] * bf[k] + cs[1] * bh[k] + cs[2] * bf[k] for k in bf}, mode)
    want_norm = max((linalg.max_abs(b) for b in bf.values()), default=0.0)
    assert f.norm() == want_norm
    vec = {k: np.array([_random_entry(rng, mode) for _ in range(space.dim(k))], dtype=object
                       if mode == EXACT else float) for k in space.degrees}
    out = apply(f, vec)
    assert out.keys() == {k + df for k, b in bf.items() if b.any()}
    for k in f.blocks:
        want = bf[k].dot(vec[k])
        same = np.array_equal if mode == EXACT else np.allclose
        assert same(out[k + df], want)
    dual = dual_space(space)
    sign = lambda q: -1 if q % 2 else 1      # noqa: E731
    _assert_blocks(dual_operator(f, dual, sign),
                   {q: sign(q) * bf[-q - df].T for q in dual.degrees if -q - df in bf}, mode)
    tensor = tensor_operator(f, g)
    ts = tensor.source
    want = {n: linalg.zeros((ts.dim(n + df + dg), ts.dim(n)), mode) for n in ts.degrees}
    for p in space.degrees:
        for q in space.degrees:
            koszul = -1 if (p % 2) and (dg % 2) else 1
            for i in range(space.dim(p)):
                for j in range(space.dim(q)):
                    col = _tensor_index(space, space, p, i, q, j)
                    assert tensor_basis_index(space, space, p, i, q, j) == (p + q, col)
                    for r in range(space.dim(p + df)):
                        for s in range(space.dim(q + dg)):
                            row = _tensor_index(space, space, p + df, r, q + dg, s)
                            want[p + q][row, col] += koszul * bf[p][r, i] * bg[q][s, j]
    _assert_blocks(tensor, want, mode)


def test_reversed_tensor_lists_pairs_by_decreasing_degree_and_signs_them():
    # V = W = {0: 1, 1: 1}; f sends v1 to 3 v0.  On (V ox W)^1 the tensor
    # layout lists v0 ox w1 before v1 ox w0, the reversed order after it, and
    # the sign -1 on p = 1 flips the entry from v1 ox w1.
    space = _space({0: 1, 1: 1})
    f = _op(space, -1, {1: [[3.0]]})
    one = GradedOperator.identity(space, FLOAT)
    assert np.array_equal(tensor_operator(f, one).block(2), [[3.0], [0.0]])
    signed = reversed_tensor(space, space, lambda p, q: 1 - 2 * (p % 2))
    assert np.array_equal(signed((f, one)).block(2), [[0.0], [-3.0]])
    assert np.array_equal(signed((f, one), (f, one)).block(1), [[-6.0, 0.0]])


def test_exact_blocks_are_fractions_and_only_nonzero_blocks_are_stored():
    g = sl2()
    rep = chain_rep(g, adjoint_rep(g, mode=EXACT))
    for op in rep.L + rep.B + [rep.differential]:
        assert op.blocks.keys() == {k for k in op.source.degrees if op.block(k).any()}
        for k in op.source.degrees:
            block = op.block(k)
            assert block.dtype == object and all(isinstance(v, Fraction) for v in block.flat)
        with pytest.raises(TypeError):
            op.blocks[99] = None


def _one_entry(value):
    space = _space({0: 1})
    return GradedOperator.from_block_entries(space, space, 0, np.array([value], dtype=object),
                                             EXACT)


def test_exact_numerators_past_int64_are_python_ints():
    """Past int64 an exact operator stores Python ints, exactly; once its
    reduced numerators fit again they are int64."""
    big = _one_entry(Fraction(2 ** 40))
    square, near = compose(big, big), _one_entry(Fraction(2 ** 62))
    for op, want in ((big, 2 ** 40), (square, 2 ** 80), (near + near, 2 ** 63),
                     (_one_entry(Fraction(2 ** 63)), 2 ** 63),
                     (stack_entries(1, big.source, big.target, 0,
                                    ([0], [0], [0], [0], [2 ** 63]), EXACT), 2 ** 63),
                     (Fraction(1, 2 ** 40) * square, 2 ** 40), (square - square, 0),
                     (Fraction(3, 2 ** 80) * square, 3), (Fraction(1, 2 ** 40) * big, 1)):
        assert op.block(0)[0, 0] == want
        _assert_int64_iff_fits(op)
    assert (Fraction(1, 2 ** 40) * big).norm() == 1.0 and square.norm() == 2.0 ** 80


def test_integer_array_input_is_read_exactly():
    """Unsigned input past int64 and an int64 -2^63 (whose absolute value
    does not fit) are held as Python ints, so products of them are exact."""
    space = _space({0: 1})
    for value, dtype in ((7, np.uint8), (2 ** 63 - 1, np.uint64), (2 ** 63, np.uint64),
                         (2 ** 64 - 1, np.uint64), (-(2 ** 63), np.int64),
                         (1 - 2 ** 63, np.int64)):
        op = GradedOperator.from_block_entries(space, space, 0, np.array([value], dtype=dtype),
                                               EXACT)
        square = compose(op, op)
        assert op.block(0)[0, 0] == value and square.block(0)[0, 0] == value * value
        assert op.norm() == float(abs(value))
        _assert_int64_iff_fits(op)


def test_exact_compose_sums_wide_products_exactly():
    # each numerator product (5 * 2^80) leaves int64, but the entries of the
    # composite cancel down to numbers that fit, over a reduced denominator;
    # g g keeps numerators past int64 (2^80 / 9 at denominator 225)
    space = _space({0: 2})
    big = Fraction(2 ** 40, 3)
    f = operator_from_blocks(space, space, 0, {0: np.array([[big, big], [1, 0]], dtype=object)})
    g = operator_from_blocks(space, space, 0, {0: np.array(
        [[big, Fraction(1, 5)], [-big, Fraction(-1, 5)]], dtype=object)})
    out = compose(f, g)
    assert out._data.dtype == np.int64
    assert np.array_equal(out.block(0), np.array([[0, 0], [big, Fraction(1, 5)]], dtype=object))
    wide = compose(g, g)
    assert wide._data.dtype == object and wide._den == 225
    assert np.array_equal(wide.block(0), g.block(0).dot(g.block(0)))


@pytest.mark.parametrize("entry, residual", [("4000000000", "8e+09"), ("4" + "0" * 400, "inf")],
                         ids=["4e9", "4e400"])
def test_cli_exit_two_on_a_big_non_representation(tmp_path, capsys, entry, residual):
    """An entry of 4e9 makes the bracket residual 8e9, past int64 squared
    on the way; the check reads it exactly and the CLI exits 2 with one
    line.  A residual past the float range reads inf."""
    payload = {
        "schema": "cartankit/1",
        "lie_algebra": {"dim": 3, "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1"}}, {"i": 0, "j": 2, "coeffs": {"0": "-2"}},
            {"i": 1, "j": 2, "coeffs": {"1": "2"}}]},
        "lie_representations": {"big": {
            "degrees": {"0": 1}, "R": [{"0": [[entry]]}, {"0": [[0]]}, {"0": [[0]]}]}},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["ce", str(path), "--rep", "big", "--mode", "exact"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert lines == ["error: malformed Lie representation 'big': not a representation: "
                     f"bracket residual {residual}"]


def _wide_entry(rng, top):
    """+-2^k + small over a small denominator, k in 28..top; zero a quarter
    of the time."""
    if rng.random() < 0.25:
        return Fraction(0)
    k = int(rng.integers(28, top + 1))
    return Fraction(int(rng.choice([-1, 1])) * 2 ** k + int(rng.integers(-3, 4)),
                    int(rng.choice([1, 2, 3, 5, 7])))


def _wide_op(space, rng, top):
    """A degree-0 endomorphism of ``space`` with ``_wide_entry`` entries."""
    blocks = {k: np.array([[_wide_entry(rng, top) for _ in range(d)] for _ in range(d)],
                          dtype=object) for k, d in space.dims.items()}
    return operator_from_blocks(space, space, 0, blocks, mode=EXACT)


def _stacked_blocks(labels, space):
    """Dense blocks of the stack over len(labels) labels of degree-0 maps
    given by their dense blocks: label i, row r of degree p at row
    ``_tensor_index(K, space, 0, i, p, r)``."""
    k = label_space(len(labels))
    out = {p: linalg.zeros((len(labels) * d, d), EXACT) for p, d in space.dims.items()}
    for i, blocks in enumerate(labels):
        for p, d in space.dims.items():
            for r in range(d):
                out[p][_tensor_index(k, space, 0, i, p, r)] = blocks[p][r]
    return out


def _hom_rows(space, a, b):
    """The nonzero rows of phi A - A' phi for degree-0 A, A' of ``space``
    from their dense blocks, unknowns and equations the block entries of a
    degree-0 phi (blocks by degree, each row-major), times the common
    denominator of A and A'."""
    den = math.lcm(*(v.denominator for blocks in (a, b) for m in blocks.values()
                     for v in m.flat))
    rows, start = [], 0
    for p, d in sorted(space.dims.items()):
        for w in range(d):
            for v in range(d):
                row = {start + w * d + u: a[p][u, v] * den for u in range(d)}
                for u in range(d):
                    row[start + u * d + v] = row.get(start + u * d + v, 0) - b[p][w, u] * den
                rows.append({c: int(x) for c, x in row.items() if x})
        start += d * d
    return [row for row in rows if row]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(28, 70), st.integers(1, 2), st.integers(1, 2))
def test_exact_operations_across_the_int64_ceiling(seed, top, low, high):
    """Entries +-2^k + small over mixed denominators: every exact operation
    equals dense ``Fraction`` arithmetic, and stores int64 exactly when its
    reduced numerators fit."""
    rng = np.random.default_rng(seed)
    space = _space({-1: low, 0: high})
    f, g, h, e = (_wide_op(space, rng, top) for _ in range(4))
    bf, bg, bh = _dense(f), _dense(g), _dense(h)
    small = operator_from_entries(space, space, 0, [(0, 0, 0, Fraction(1, 3))], EXACT)
    c = (_wide_entry(rng, top) or 1, _wide_entry(rng, top))
    results = [
        (compose(f, g), {k: bf[k].dot(bg[k]) for k in bf}),
        (combination(c, (f, h)), {k: c[0] * bf[k] + c[1] * bh[k] for k in bf}),
        ((f + small) - f, _dense(small)),
        (stack([f, g, h]), _stacked_blocks([bf, bg, bh], space)),
    ]
    ts = tensor_space(space, space)
    want = {n: linalg.zeros((ts.dim(n), ts.dim(n)), EXACT) for n in ts.degrees}
    for p, q in itertools.product(space.degrees, repeat=2):
        for i, j, r, t in itertools.product(*map(range, (space.dim(p), space.dim(q)) * 2)):
            want[p + q][_tensor_index(space, space, p, r, q, t),
                        _tensor_index(space, space, p, i, q, j)] += bf[p][r, i] * bg[q][t, j]
    results.append((tensor_operator(f, g), want))
    # label a of fs is f_a, label b of gs is g_b; three is m x q x p, two m x p
    fs, gs, df, dg = stack([f, h]), stack([g, e]), (bf, bh), (bg, _dense(e))
    three = np.array([[[_wide_entry(rng, top) for _ in range(2)] for _ in range(2)]
                      for _ in range(2)], dtype=object)
    two = np.array([[_wide_entry(rng, top) for _ in range(2)] for _ in range(2)], dtype=object)
    with_g = [{k: sum(three[i, b, a] * df[a][k].dot(dg[b][k]) for a in range(2) for b in range(2))
               for k in bf} for i in range(2)]
    alone = [{k: sum(two[i, a] * df[a][k] for a in range(2)) for k in bf} for i in range(2)]
    both = [{k: x[k] + y[k] for k in bf} for x, y in zip(with_g, alone)]
    results += [(product_sum([(three, fs, gs)]), _stacked_blocks(with_g, space)),
                (product_sum([(two, fs)]), _stacked_blocks(alone, space)),
                (product_sum([(three, fs, gs), (two, fs)]), _stacked_blocks(both, space))]
    for op, blocks in results:
        _assert_blocks(op, blocks, EXACT)
        _assert_int64_iff_fits(op)
    rest, live, n_cols = hom_system(space, space, [(f, g)], 1)
    want, want_live, want_cols = peeled_system(_hom_rows(space, bf, bg), low * low + high * high)
    assert rest == want and np.array_equal(live, want_live) and n_cols == want_cols


LAYOUT_NAMES = re.compile(r"\b(_starts|_index_degrees|_rows|_cols|_data|_den|_tensor_position"
                          r"|GradedOperator(?=\())\b")


def test_only_graded_reads_the_layout():
    """The direct-sum layout and the stored entry arrays are private to
    graded.py: no other module of the package names them."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "cartankit"
    readers = {path.name: sorted(set(LAYOUT_NAMES.findall(path.read_text())))
               for path in sorted(package.glob("*.py")) if path.name != "graded.py"}
    assert "ce.py" in readers and "reps.py" in readers
    assert {name: found for name, found in readers.items() if found} == {}


def test_repr_lists_stored_degrees_without_dense_blocks(monkeypatch):
    """repr reads the stored entries: printing an operator builds no dense block."""
    def refuse(self, k):
        raise AssertionError(f"dense block {k} built")

    monkeypatch.setattr(GradedOperator, "_stored", refuse)
    space = _space({-2: 1, -1: 2, 0: 3})
    lower = operator_from_entries(space, space, -1, [(0, 1, 2, 5), (-1, 0, 1, -1)], EXACT)
    assert repr(lower) == "GradedOperator(degree=-1, blocks=[-1, 0])"
    top = operator_from_entries(space, space, 0, [(0, 2, 0, 1.5)], FLOAT)
    assert repr(top) == "GradedOperator(degree=0, blocks=[0])"
    assert repr(GradedOperator.zero(space, space, 1, EXACT)) == "GradedOperator(degree=1, blocks=[])"


# ---------------------------------------------------------------------------
# the two input formats, the label space and the dual's signs
# ---------------------------------------------------------------------------

def _random_blocks(source, target, degree, rng, mode):
    """A dense block for every source degree, about a third of them zero."""
    blocks = {}
    for k in source.degrees:
        block = linalg.zeros((target.dim(k + degree), source.dim(k)), mode)
        if rng.random() > 1 / 3:
            for idx in np.ndindex(block.shape):
                if rng.random() < 0.5:
                    block[idx] = _random_entry(rng, mode)
        blocks[k] = block
    return blocks


_DIMS = st.lists(st.integers(0, 3), min_size=len(_DEGREES), max_size=len(_DEGREES))


@settings(max_examples=60, deadline=None)
@given(_DIMS, _DIMS, st.sampled_from(_DEGREES), st.sampled_from([EXACT, FLOAT]),
       st.integers(0, 2 ** 31 - 1))
def test_block_entries_store_what_the_dense_blocks_store(source_dims, target_dims, degree,
                                                         mode, seed):
    """``from_block_entries`` of the concatenated blocks (by source degree,
    each row-major) stores the entries, dtypes and denominator of the
    dense-block reference, zero blocks included."""
    source, target = _space(dict(zip(_DEGREES, source_dims))), _space(dict(zip(_DEGREES,
                                                                                target_dims)))
    blocks = _random_blocks(source, target, degree, np.random.default_rng(seed), mode)
    vec = np.concatenate([linalg.zeros(0, mode)] + [b.ravel() for b in blocks.values()])
    _assert_same(GradedOperator.from_block_entries(source, target, degree, vec, mode),
                 operator_from_blocks(source, target, degree, blocks, mode=mode))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_dual_operator_calls_sign_once_per_degree(mode):
    g = sl2()
    rep = chain_rep(g, adjoint_rep(g, mode=mode))
    dual = dual_space(rep.complex.space)
    calls = []

    def sign(q):
        calls.append(q)
        return -1 if q % 2 else 1

    for op, labels in ((rep.differential, None), (rep.B_stack, g.n)):
        calls.clear()
        dual_operator(op, dual, sign, labels)
        assert calls == dual.degrees


def test_warm_relabel_builds_no_graded_vector_space(monkeypatch):
    g = sl2()
    rep = cochain_rep(g, adjoint_rep(g, mode=EXACT))
    n, L = g.n, rep.L_stack
    ll = compose(on_labels(n, L), L)
    swap = np.eye(n * n, dtype=int)[np.arange(n * n).reshape(n, n).T.ravel()]
    warm = relabel(swap, ll), label_combination([1, 2, 3], L)
    built = []

    def counted(dims):
        built.append(dims)
        return GradedVectorSpace(dims)

    monkeypatch.setattr(graded, "GradedVectorSpace", counted)
    again = relabel(swap, ll), label_combination([1, 2, 3], L)
    assert built == []
    assert label_space(n) is label_space(n)
    for got, want in zip(again, warm):
        _assert_same(got, want)


def _summed_reference(total, mode, rows, cols, data, den):
    """The constructor's entries as every unsorted input was read before:
    a stable sort, np.add.at over every key, zeros dropped, then the gcd."""
    keys = rows * total + cols
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys, data = keys[order], data[order]
        first = np.concatenate([[True], keys[1:] != keys[:-1]])
        summed = np.zeros(np.count_nonzero(first), dtype=data.dtype)
        np.add.at(summed, np.cumsum(first) - 1, data)
        keys, data = keys[first], summed
        rows, cols = keys // total, keys % total
    rows, cols, data = rows[data != 0], cols[data != 0], data[data != 0]
    if mode == EXACT and len(data):
        g = math.gcd(den, int(np.gcd.reduce(data)))
        data, den = data // g, den // g
    return rows, cols, data, den if len(data) else 1


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_constructor_fast_paths_keep_every_entry_bit_for_bit(mode):
    """Unsorted input with and without repeated keys, and gcd 1 or not: the
    entries equal the sort-and-add.at reading bit for bit (float sums in
    input order)."""
    rng = np.random.default_rng(7)
    space = GradedVectorSpace({-1: 3, 0: 4, 1: 2})
    for case in range(400):
        size = int(rng.integers(0, 30))
        rows, cols = rng.integers(0, space.total_dim, (2, size))
        if case % 2:
            keys = np.unique(rows * space.total_dim + cols)
            rows, cols = keys // space.total_dim, keys % space.total_dim
            perm = rng.permutation(len(rows))
            rows, cols = rows[perm], cols[perm]
        if mode == FLOAT:
            data, den = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-8, 8), 1
        else:
            data = rng.integers(-4, 5, len(rows)) * int(rng.choice([1, 2, 6]))
            den = int(rng.choice([1, 3, 4, 12]))
        op = GradedOperator(space, space, 0, mode, rows, cols, data, den)
        want = _summed_reference(space.total_dim, mode, rows, cols, data, den)
        for got, ref in zip((op._rows, op._cols, op._data), want[:3]):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert op._den == want[3]


def test_spaces_are_interned_by_their_dimensions(tmp_path):
    """Equal dimensions give one object from every route that builds a
    space, so equality is identity: the constructor (zero dimensions
    dropped, any key order), ``tensor_space``, ``dual_space``,
    ``label_space``, the W of a stacked target and a loaded problem file.
    A negative dimension still raises, and a space rebuilt after every
    reference to it was dropped is still the one live object."""
    space = GradedVectorSpace({-1: 2, 0: 3})
    assert GradedVectorSpace({0: 3, -1: 2, 4: 0}) is space and space.dims == {-1: 2, 0: 3}
    assert GradedVectorSpace({0: 3}) is not space
    assert tensor_space(GradedVectorSpace({-1: 2, 0: 1}), GradedVectorSpace({0: 1})) is \
        GradedVectorSpace({-1: 2, 0: 1})
    assert tensor_space(GradedVectorSpace({0: 1}), space) is space
    assert dual_space(GradedVectorSpace({1: 2, 0: 3})) is space
    assert label_space(3) is GradedVectorSpace({0: 3}) and label_space(0) is GradedVectorSpace({})
    stacked = tensor_space(label_space(2), space)
    assert stacked is GradedVectorSpace({-1: 4, 0: 6})
    assert graded._unlabel(2, stacked)[0] is space
    root = pathlib.Path(__file__).resolve().parents[1]
    payload = json.loads((root / "problems" / "sl2.json").read_text())
    payload["representations"]["explicit"] = {"degrees": {"0": 3, "-1": 2},
                                              "L": [{}] * 3, "B": [{}] * 3}
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(payload))
    assert load_problem(str(path)).representation("explicit").complex.space is space
    with pytest.raises(ValueError, match="nonnegative"):
        GradedVectorSpace({0: 2, 1: -1})
    probe = weakref.ref(GradedVectorSpace({-7: 5, 3: 1}))
    gc.collect()
    assert probe() is None
    again = GradedVectorSpace({-7: 5, 3: 1})
    assert GradedVectorSpace({3: 1, -7: 5}) is again and again.dims == {-7: 5, 3: 1}
