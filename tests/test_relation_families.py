"""The stacked relation families of ``reps`` against the per-pair reference.

``cartan_residuals``, ``LieRep.residuals`` and ``intertwiner_residual``
check each relation family as one operator on the stacked generators
(``graded.stack``); ``dense_reference`` keeps the per-pair loop.  Exact
results must be equal, float ones within 1e-13.
"""

from fractions import Fraction

import numpy as np
import pytest

from cartankit import graded, reps
from cartankit.graded import (CochainComplex, GradedOperator, GradedVectorSpace, combination,
                              compose, stack)
from cartankit.lie import LieAlgebra, abelian, heisenberg3, sl2
from cartankit.linalg import EXACT, FLOAT, ModeError
from cartankit.reps import (CartanRep, LieRep, adjoint_rep, cartan_dgla, cartan_residuals,
                            chain_rep, cochain_rep, dual_lie_rep, intertwiner_residual,
                            restrict, trivial_lie_rep)
from dense_reference import (operator_from_blocks, operator_from_entries,
                             pairwise_cartan_residuals, pairwise_lie_residuals)

FAMILIES = ("LL", "LB", "BB", "dB")


def _rebased_sl2():
    """sl2 in the basis given by the columns of a unimodular P: dense constants."""
    g = sl2()
    p = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=object)
    pinv = np.array([[1, -1, 1], [0, 1, -1], [0, 0, 1]], dtype=object)
    c = np.einsum("ia,jb,ijk,mk->abm", p, p, g.c, pinv)
    out = LieAlgebra(3, {(a, b): {m: c[a, b, m] for m in range(3) if c[a, b, m]}
                         for a, b in ((0, 1), (0, 2), (1, 2))}, name="sl2_rebased")
    assert out.check_jacobi() == 0
    return out


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


def test_stack_bound_is_the_largest_block():
    """Blocks of a stack never overlap: two blocks of 2^62 fit, one past int64 does not."""
    space = GradedVectorSpace({0: 1})
    big = operator_from_entries(space, space, 0, [(0, 0, 0, 2 ** 62)], EXACT)
    half = operator_from_entries(space, space, 0, [(0, 0, 0, Fraction(1, 2))], EXACT)
    assert stack([big, big]).norm() == 2.0 ** 62
    with pytest.raises(ModeError, match="int64"):
        stack([big, half])


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
def test_exact_residuals_near_the_int64_ceiling_raise_mode_error(entry):
    """Products past int64 (2^62 squared) or sums past it (two products of
    9e18) raise a one-line ModeError; nothing wraps or turns float."""
    g = abelian(1)
    space = GradedVectorSpace({-1: 1, 0: 1})
    big = np.array([[Fraction(entry)]], dtype=object)
    one = np.array([[Fraction(1)]], dtype=object)
    d = operator_from_blocks(space, space, 1, {-1: one}, mode=EXACT)
    L = operator_from_blocks(space, space, 0, {-1: big, 0: big}, mode=EXACT)
    B = operator_from_blocks(space, space, -1, {0: big}, mode=EXACT)
    rep = CartanRep(g, CochainComplex(space, d), [L], [B])
    for check in (cartan_residuals, pairwise_cartan_residuals):
        with pytest.raises(ModeError) as err:
            check(rep)
        assert "\n" not in str(err.value) and "int64" in str(err.value)
