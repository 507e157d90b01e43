"""The stacked relation families of ``reps`` against the per-pair reference.

``cartan_residuals``, ``LieRep.residuals`` and ``intertwiner_residual``
check each relation family as one operator on the stacked generators
(``graded.stack``); ``dense_reference`` keeps the per-pair loop.  Exact
results must be equal, float ones within 1e-13.  Under a unimodular change
of basis of the structure constants, Betti numbers, hom-space dimensions
and exact Cartan residuals stay the same (a Hypothesis property).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartankit import graded, reps
from cartankit.ce import ce_chain, ce_cochain, cohomology_dims
from cartankit.graded import (CochainComplex, GradedOperator, GradedVectorSpace, combination,
                              compose, stack, unstack)
from cartankit.lie import LieAlgebra, abelian, heisenberg3, sl2
from cartankit.linalg import EXACT, FLOAT, ModeError
from cartankit.reps import (CartanRep, LieRep, adjoint_rep, adjunction_check, cartan_dgla,
                            cartan_residuals, chain_rep, cochain_rep, dual_lie_rep, hom_space,
                            intertwiner_residual, restrict, trivial_lie_rep)
from dense_reference import (operator_from_blocks, operator_from_entries,
                             pairwise_cartan_residuals, pairwise_lie_residuals)

FAMILIES = ("LL", "LB", "BB", "dB")


def _rebase(g, p, pinv, name):
    """``g`` in the basis given by the columns of the integer matrix p, whose
    inverse is pinv: new vector a is sum_i p[i, a] e_i."""
    p, pinv = np.asarray(p, dtype=object), np.asarray(pinv, dtype=object)
    c = np.einsum("ia,jb,ijk,mk->abm", p, p, g.c, pinv)
    n = g.n
    out = LieAlgebra(n, {(a, b): {m: c[a, b, m] for m in range(n) if c[a, b, m]}
                         for a in range(n) for b in range(a + 1, n)}, name=name)
    assert out.check_jacobi() == 0
    return out


def _rebased_sl2():
    """sl2 in the basis given by the columns of a unimodular P: dense constants."""
    return _rebase(sl2(), [[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, -1, 1], [0, 1, -1], [0, 0, 1]],
                   "sl2_rebased")


def _fixture_reps():
    """The 24 chain and cochain reps of abelian3, heisenberg3 and sl2 with trivial
    and adjoint coefficients in both modes, TTg of each, and the rebased sl2."""
    out = {}
    for g in (abelian(3), heisenberg3(), sl2(), _rebased_sl2()):
        for mode in (EXACT, FLOAT):
            for coeff in ("trivial", "adjoint"):
                rep = (trivial_lie_rep if coeff == "trivial" else adjoint_rep)(g, mode=mode)
                for build in (chain_rep, cochain_rep):
                    out[f"{g.name}-{build.__name__}-{coeff}-{mode}"] = build(g, rep)
        out[f"{g.name}-cartan_dgla"] = cartan_dgla(g)
    return out


REPS = _fixture_reps()


def _bump(op, k=None):
    """op plus one unit entry in the first nonempty block it can hold."""
    space = op.source
    k = next(q for q in space.degrees if space.dim(q + op.degree)) if k is None else k
    one = operator_from_entries(space, op.target, op.degree, [(k, 0, 0, 1)], op.mode)
    return op + one


def _broken(rep, family):
    """``rep`` broken in one family: the first L, the first B or the differential (2d)."""
    L, B, complex_ = list(rep.L), list(rep.B), rep.complex
    if family == "L":
        L[0] = _bump(L[0])
    elif family == "B":
        B[0] = _bump(B[0])
    else:
        complex_ = CochainComplex(complex_.space, combination((2,), (complex_.differential,)))
    return CartanRep(rep.algebra, complex_, L, B)


def _assert_reports_match(got, want, mode):
    for name in FAMILIES:
        a, b = getattr(got, name), getattr(want, name)
        if mode == EXACT:
            assert a == b, (name, a, b)
        else:
            assert abs(a - b) <= 1e-13, (name, a, b)


@pytest.mark.parametrize("name", sorted(REPS))
def test_stacked_cartan_residuals_match_pairwise_reference(name):
    rep = REPS[name]
    got = cartan_residuals(rep)
    _assert_reports_match(got, pairwise_cartan_residuals(rep), rep.mode)
    if rep.mode == EXACT:
        assert got.worst == 0.0
    else:
        assert got.worst < 1e-12


@pytest.mark.parametrize("family", ["L", "B", "d"])
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_stacked_cartan_residuals_match_pairwise_on_broken_reps(family, mode):
    g = sl2()
    rep = _broken(chain_rep(g, adjoint_rep(g, mode=mode)), family)
    got = cartan_residuals(rep)
    _assert_reports_match(got, pairwise_cartan_residuals(rep), mode)
    broken = {"L": {"LL", "LB", "dB"}, "B": {"LB", "BB", "dB"}, "d": {"dB"}}[family]
    assert {name for name in FAMILIES if getattr(got, name) > 0} == broken


def _lie_reps():
    out = {}
    for g in (heisenberg3(), sl2(), _rebased_sl2()):
        for mode in (EXACT, FLOAT):
            adj = adjoint_rep(g, mode=mode)
            chains = restrict(chain_rep(g, adj))
            # broken: one action bumped, breaking the bracket and the chain map
            bumped = list(chains.operators)
            bumped[0] = _bump(bumped[0], -1)
            reps_ = {"trivial": trivial_lie_rep(g, mode=mode), "adjoint": adj,
                     "dual_adjoint": dual_lie_rep(adj), "chains": chains,
                     "dual_chains": dual_lie_rep(chains),
                     "broken_chains": LieRep(g, chains.complex, bumped)}
            out.update({f"{g.name}-{name}-{mode}": rep for name, rep in reps_.items()})
    return out


LIE_REPS = _lie_reps()


@pytest.mark.parametrize("name", sorted(LIE_REPS))
def test_stacked_lie_residuals_match_pairwise_reference(name):
    rep = LIE_REPS[name]
    got, want = rep.residuals(), pairwise_lie_residuals(rep)
    assert got.keys() == want.keys()
    for key in got:
        if rep.mode == EXACT:
            assert got[key] == want[key]
        else:
            assert abs(got[key] - want[key]) <= 1e-13
    assert (max(got.values()) > 0) == name.startswith(f"{rep.algebra.name}-broken")


def test_stacked_intertwiner_residual_matches_per_generator_loop():
    g = heisenberg3()
    v = adjoint_rep(g)
    uv, w = chain_rep(g, v), chain_rep(g, trivial_lie_rep(g))
    for phi0 in reps.hom_space(v, restrict(w)):
        phi = reps.induced_map(v, w, phi0)
        for target in (w, _broken(w, "L"), _broken(w, "B")):
            want = (compose(phi, uv.differential) - compose(target.differential, phi)).norm()
            for fa, fb in ((uv.L, target.L), (uv.B, target.B)):
                for a, b in zip(fa, fb):
                    want = max(want, (compose(phi, a) - compose(b, phi)).norm())
            assert intertwiner_residual(phi, uv, target) == want


def test_stack_blocks_are_the_operators():
    g = sl2()
    rep = chain_rep(g, adjoint_rep(g))
    space, n = rep.complex.space, g.n
    stacked = stack(rep.L)
    for i in range(n):
        # e^i ox 1 picks label i: (unit_i^T ox 1) stack = L_i
        pick = operator_from_entries(GradedVectorSpace({0: n}), GradedVectorSpace({0: 1}),
                                     0, [(0, 0, i, 1)], EXACT)
        one = GradedOperator.identity(space, EXACT)
        assert (compose(graded.tensor_operator(pick, one), stacked) - rep.L[i]).norm() == 0
    with pytest.raises(ValueError, match="not parallel"):
        stack([rep.L[0], rep.B[0]])
    with pytest.raises(ModeError):
        stack([rep.L[0], chain_rep(g, adjoint_rep(g, mode=FLOAT)).L[0]])


def test_stack_is_int64_while_its_largest_block_fits():
    """Blocks of a stack never overlap: two blocks of 2^62 fit in int64; at
    the common denominator 2 a block of 2^62 is 2^63, held exactly as a
    Python int, and each block unstacks back to int64."""
    space = GradedVectorSpace({0: 1})
    big = operator_from_entries(space, space, 0, [(0, 0, 0, 2 ** 62)], EXACT)
    half = operator_from_entries(space, space, 0, [(0, 0, 0, Fraction(1, 2))], EXACT)
    fits, wide = stack([big, big]), stack([big, half])
    assert fits.block(0).tolist() == [[2 ** 62], [2 ** 62]] and fits._data.dtype == np.int64
    assert wide.block(0).tolist() == [[2 ** 62], [Fraction(1, 2)]]
    assert wide._data.dtype == object and wide._den == 2
    assert all(b._data.dtype == np.int64 for b in unstack(wide, 2))


def _count_products(monkeypatch):
    """Calls of ``compose`` and of ``product_sum``, and operators built."""
    calls = {"compose": [], "product_sum": [], "built": []}

    def counting(name, original):
        def counted(*args):
            calls[name].append(1)
            return original(*args)
        return counted

    for name in ("compose", "product_sum"):
        wrapped = counting(name, getattr(graded, name))
        for module in (graded, reps):
            monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(GradedOperator, "__init__",
                        counting("built", GradedOperator.__init__))
    return calls


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_compose_count_does_not_grow_with_the_algebra(monkeypatch, mode):
    """One ``product_sum`` per relation family and one operator built by
    each, however many generators; no other ``compose``."""
    counts = []
    for n in (3, 5):
        g = abelian(n)
        rep = chain_rep(g, trivial_lie_rep(g, mode=mode))
        cartan_residuals(rep)                   # the label maps of (g, mode)
        calls = _count_products(monkeypatch)
        assert cartan_residuals(rep).worst == 0.0
        counts.append(tuple(len(calls[k]) for k in ("compose", "product_sum", "built")))
        monkeypatch.undo()
    assert counts == [(0, 4, 4), (0, 4, 4)]


@pytest.mark.parametrize("entry", [2 ** 62, 3 * 10 ** 9], ids=["compose", "sum"])
def test_exact_residuals_near_the_int64_ceiling_are_exact(entry):
    """Products past int64 (2^62 squared) or sums past it (two products of
    9e18) cancel exactly.  With d the identity from degree -1 to 0, L = x
    on both degrees and B = y from 0 to -1, [L, B] = 0 and [d, B] - L is
    y - x on both degrees: a Cartan representation for y = x, a residual of
    exactly 1 for y = x + 1, as the per-pair reference finds; the residual
    operator fits and is int64."""
    g = abelian(1)
    space = GradedVectorSpace({-1: 1, 0: 1})
    one = np.array([[Fraction(1)]], dtype=object)
    d = operator_from_blocks(space, space, 1, {-1: one}, mode=EXACT)
    L = operator_from_blocks(space, space, 0, {-1: entry * one, 0: entry * one}, mode=EXACT)
    for bump in (0, 1):
        B = operator_from_blocks(space, space, -1, {0: (entry + bump) * one}, mode=EXACT)
        rep = CartanRep(g, CochainComplex(space, d), [L], [B])
        for check in (cartan_residuals, pairwise_cartan_residuals):
            report = check(rep)
            assert [getattr(report, name) for name in FAMILIES] == [0.0, 0.0, 0.0, bump]
        h = reps._label_maps(g, EXACT)
        residual = graded.product_sum([(h["after"], d, rep.B_stack),
                                       (h["before"], rep.B_stack, d),
                                       (h["minus_eye"], rep.L_stack)])
        assert [residual.block(k).tolist() for k in (-1, 0)] == [[[bump]], [[bump]]]
        assert residual._data.dtype == np.int64


@st.composite
def _unimodular(draw, n=3):
    """An integer matrix P of determinant +-1 and its inverse: a product of
    up to five column operations col_j += s col_i, then an optional swap."""
    p, pinv = np.eye(n, dtype=int), np.eye(n, dtype=int)
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([-1, 1]))
    for i, j, s in draw(st.lists(ops.filter(lambda op: op[0] != op[1]), max_size=5)):
        p[:, j] += s * p[:, i]             # P <- P (1 + s e_i e_j^T)
        pinv[i] -= s * pinv[j]             # P^-1 <- (1 - s e_i e_j^T) P^-1
    i, j = draw(st.sampled_from([(0, 0), (0, 1), (0, 2), (1, 2)]))
    p[:, [i, j]], pinv[[i, j]] = p[:, [j, i]], pinv[[j, i]]
    return p, pinv


def _invariants(g):
    """Betti numbers (trivial cochains, adjoint chains) and hom-space
    dimensions (TTg to itself, adjoint to itself, both sides of the
    adjunction of the adjoint into the trivial chains)."""
    adjunction = adjunction_check(adjoint_rep(g), chain_rep(g, trivial_lie_rep(g)))
    return (cohomology_dims(ce_cochain(g, trivial_lie_rep(g)).complex),
            cohomology_dims(ce_chain(g, adjoint_rep(g)).complex),
            len(hom_space(cartan_dgla(g), cartan_dgla(g))),
            len(hom_space(adjoint_rep(g), adjoint_rep(g))),
            adjunction.dim_cartan_side, adjunction.dim_lie_side)


BASIS_CHANGE_ALGEBRAS = {g.name: (g, _invariants(g)) for g in (heisenberg3(), sl2())}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(BASIS_CHANGE_ALGEBRAS)), _unimodular())
def test_change_of_basis_keeps_betti_hom_dims_and_exact_residuals(name, basis):
    g, invariants = BASIS_CHANGE_ALGEBRAS[name]
    p, pinv = basis
    assert np.array_equal(p.dot(pinv), np.eye(3, dtype=int))
    h = _rebase(g, p, pinv, f"{name}_rebased")
    assert _invariants(h) == invariants
    for build in (chain_rep, cochain_rep):
        for coefficients in (trivial_lie_rep, adjoint_rep):
            assert cartan_residuals(build(h, coefficients(h))).worst == 0
