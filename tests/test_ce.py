"""Chevalley-Eilenberg complexes: differentials, ranks, duality, Leibniz."""

import json
import pathlib
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cartankit import graded
from cartankit.ce import (ce_chain, ce_cochain, cohomology_dims, insert_element,
                          leibniz_check, merge_sign, remove_element)
from cartankit.graded import CochainComplex, GradedOperator, GradedVectorSpace, compose
from cartankit.lie import abelian, heisenberg3, sl2, su2
from cartankit.linalg import EXACT, FLOAT, format_scalar
from cartankit.reps import (adjoint_rep, chain_rep, cochain_rep, dual_lie_rep, restrict,
                            trivial_lie_rep)


def test_insertion_and_removal_signs():
    assert insert_element((1, 3), 2) == (-1, (1, 2, 3))
    assert insert_element((1, 3), 0) == (1, (0, 1, 3))
    assert insert_element((1, 3), 3) is None
    assert remove_element((0, 2, 5), 2) == (-1, (0, 5))
    assert remove_element((0, 2, 5), 4) is None
    assert merge_sign((0, 3), (1, 2)) == ((-1) ** 2, (0, 1, 2, 3))
    assert merge_sign((0, 1), (1, 2)) is None


def test_abelian_trivial_differential_vanishes():
    g = abelian(3)
    for build in (ce_cochain, ce_chain):
        cx = build(g, trivial_lie_rep(g)).complex
        assert cx.differential.norm() == 0.0


@pytest.mark.parametrize("g,expected", [
    (sl2(), {0: 1, 1: 0, 2: 0, 3: 1}),
    (abelian(3), {k: comb(3, k) for k in range(4)}),
    (abelian(2), {k: comb(2, k) for k in range(3)}),
    (heisenberg3(), {0: 1, 1: 2, 2: 2, 3: 1}),
])
def test_cochain_betti_numbers_exact(g, expected):
    cx = ce_cochain(g, trivial_lie_rep(g)).complex
    assert cohomology_dims(cx) == expected


def test_su2_betti_float_rank():
    g = su2()
    cx = ce_cochain(g, trivial_lie_rep(g, mode=FLOAT)).complex
    assert cohomology_dims(cx) == {0: 1, 1: 0, 2: 0, 3: 1}


def test_poincare_duality_on_unimodular_fixtures():
    for g in (sl2(), su2(), abelian(3)):
        mode = EXACT if g.name != "su2" else FLOAT
        betti = cohomology_dims(ce_cochain(g, trivial_lie_rep(g, mode=mode)).complex)
        for k in range(g.n + 1):
            assert betti[k] == betti[g.n - k]


def test_differential_squares_exactly_everywhere():
    for g in (abelian(3), heisenberg3(), sl2()):
        for coeff in (trivial_lie_rep(g), adjoint_rep(g)):
            for build in (ce_cochain, ce_chain):
                d = build(g, coeff).complex.differential
                assert compose(d, d).norm() == 0.0


def test_cohomology_utility_cases():
    space = GradedVectorSpace({0: 2, 1: 3})
    zero = GradedOperator.zero(space, space, 1, FLOAT)
    assert cohomology_dims(CochainComplex(space, zero)) == {0: 2, 1: 3}
    two = GradedVectorSpace({0: 1, 1: 1})
    iso = GradedOperator(two, two, 1, {0: np.array([[1.0]])})
    assert cohomology_dims(CochainComplex(two, iso)) == {0: 0, 1: 0}


def test_chain_transpose_is_negated_cochain_on_dual_coefficients():
    # pairing of chains with cochains valued in the dual: D_m = -E^T
    for g in (heisenberg3(), sl2()):
        coeff = adjoint_rep(g)
        chain = ce_chain(g, coeff)
        cochain = ce_cochain(g, dual_lie_rep(coeff))
        for m in range(1, g.n + 1):
            d_chain = chain.complex.differential.block(-m)       # C_m -> C_{m-1}
            e_cochain = cochain.complex.differential.block(m - 1)
            if d_chain.size and e_cochain.size:
                assert np.array_equal(d_chain, -e_cochain.T)


def test_leibniz_rule():
    g = abelian(3)
    assert leibniz_check(g, trivial_lie_rep(g), 3) == 0
    g = sl2()
    assert leibniz_check(g, adjoint_rep(g), 3) == 0


def test_chain_complex_matches_chain_rep_construction():
    g = heisenberg3()
    coeff = trivial_lie_rep(g)
    cec = ce_chain(g, coeff)
    rep = chain_rep(g, coeff)
    for k in cec.complex.space.degrees:
        assert np.array_equal(cec.complex.differential.block(k),
                              rep.complex.differential.block(k))


# tests/data/cochain_exact.json holds the cochain differential and the
# cochain_rep d, L and B as they were assembled directly on forms, before
# the cochain side was built by duality, as sparse [row, col, "p/q"]
# entries per source degree.  Its coefficients sit in nonzero degrees, so
# the (-1)^(mq + q) part of the sign rule is pinned.
PINNED_COCHAINS = pathlib.Path(__file__).parent / "data" / "cochain_exact.json"


def _sparse(op):
    for b in op.blocks.values():
        assert all(type(v) is Fraction for v in b.reshape(-1))
    return {str(k): [[int(r), int(c), format_scalar(b[r, c])] for r, c in zip(*b.nonzero())]
            for k, b in sorted(op.blocks.items())}


@pytest.mark.parametrize("g", [sl2(), heisenberg3()], ids=lambda g: g.name)
@pytest.mark.parametrize("coeff", ["U_trivial", "trivial2_deg1"])
def test_cochain_side_matches_pinned_entries(g, coeff):
    pinned = json.loads(PINNED_COCHAINS.read_text())[f"{g.name}/{coeff}"]
    v = (restrict(chain_rep(g, trivial_lie_rep(g))) if coeff == "U_trivial"
         else trivial_lie_rep(g, dim=2, degree=1))
    rep = cochain_rep(g, v)
    assert {str(k): d for k, d in sorted(rep.complex.space.dims.items())} == pinned["dims"]
    assert _sparse(ce_cochain(g, v).differential) == pinned["ce_cochain"]
    assert _sparse(rep.differential) == pinned["d"]
    assert [_sparse(op) for op in rep.L] == pinned["L"]
    assert [_sparse(op) for op in rep.B] == pinned["B"]


@pytest.mark.parametrize("build", [ce_cochain, cochain_rep])
def test_cochain_side_checks_d_squared_once(monkeypatch, build):
    """The cochain side transposes chain operators; it never builds (and
    so never checks) the chain complex with dual coefficients."""
    from cartankit import ce
    g = heisenberg3()
    coeff = adjoint_rep(g)
    spaces, chain_calls = [], []
    init = graded.CochainComplex.__init__

    def counting_init(self, space, differential):
        spaces.append(space)
        init(self, space, differential)

    monkeypatch.setattr(graded.CochainComplex, "__init__", counting_init)
    monkeypatch.setattr(ce, "ce_chain", lambda *args: chain_calls.append(args))
    built = build(g, coeff)
    assert chain_calls == []
    assert spaces.count(built.complex.space) == 1
    assert sum(space.total_dim > coeff.complex.space.total_dim for space in spaces) == 1
