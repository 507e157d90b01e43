"""Chevalley-Eilenberg complexes: differentials, ranks, duality, Leibniz."""

import json
import pathlib
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from cartankit import ce, graded
from cartankit.ce import ce_chain, ce_cochain, cohomology_dims, exterior, first_contractions
from cartankit.graded import (CochainComplex, GradedOperator, GradedVectorSpace, combination,
                             compose, dual_space, graded_commutator)
from cartankit.lie import LieAlgebra, abelian, heisenberg3, sl2, su2
from cartankit.linalg import EXACT, FLOAT, format_scalar
from cartankit.reps import (LieRep, adjoint_rep, chain_rep, cochain_rep, dual_lie_rep,
                            restrict, trivial_lie_rep)
from dense_reference import operator_from_blocks


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exterior_wedge_and_contraction_relations(n, mode):
    ext = exterior(n, mode)
    eps, iota, one = ext.eps, ext.iota, GradedOperator.identity(ext.space, mode)
    assert ext.space.dims == {-m: comb(n, m) for m in range(n + 1)}
    for i in range(n):
        for j in range(n):
            assert (compose(eps[i], eps[j]) + compose(eps[j], eps[i])).norm() == 0
            assert (compose(iota[i], iota[j]) + compose(iota[j], iota[i])).norm() == 0
            anti = compose(eps[i], iota[j]) + compose(iota[j], eps[i])
            assert (anti - one).norm() == 0 if i == j else anti.norm() == 0
    # R_i removes i = min s from e_s, so sum_i eps_i R_i is 1 off Lambda^0
    lowers = first_contractions(n, mode, GradedVectorSpace({0: 1}))
    rest = one - combination([1] * n, [compose(e, r) for e, r in zip(eps, lowers)])
    assert rest.blocks.keys() == {0} and rest.norm() == 1


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_first_contractions_equal_their_compose_form(n, mode):
    """R_i, read off the subset bitmasks of ``exterior``, equals the composed
    iota_i prod_{j<i} iota_j eps_j bit for bit, on Lambda and placed on
    Lambda ox V."""
    from test_stacked import _assert_same      # test_stacked imports this module
    ext, space = exterior(n, mode), GradedVectorSpace({-1: 1, 0: 2})
    place, one = ce.basis(n, space, "chain").place, GradedOperator.identity(space, mode)
    without = GradedOperator.identity(ext.space, mode)
    for eps, iota, r, placed in zip(ext.eps, ext.iota, ext.first,
                                    first_contractions(n, mode, space)):
        want = compose(iota, without)
        _assert_same(r, want)
        _assert_same(placed, place(None, (want, one)))
        without = compose(compose(iota, eps), without)


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
    iso = operator_from_blocks(two, two, 1, {0: np.array([[1.0]])})
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
    """The cochains are a DG module over the forms: d(e^i ^ w) =
    de^i ^ w - e^i ^ dw with de^i = -sum_{s<t} c[s,t,i] e^s ^ e^t, i.e.
    [d, E_i] = -sum_{s<t} c[s,t,i] E_s E_t on every cochain at once.  E_i is
    the wedge by e^i: the contraction B_j of ``cochain_rep`` meets it in
    Cartan's [B_j, E_i] = delta_ij."""
    for g in (abelian(3), heisenberg3(), sl2(), su2()):
        pairs = list(combinations(range(g.n), 2))
        for mode in (EXACT, FLOAT):
            c = g.constants(mode)
            for coeff in (trivial_lie_rep(g, mode=mode), adjoint_rep(g, mode),
                          trivial_lie_rep(g, dim=2, degree=1, mode=mode)):
                cec = ce_cochain(g, coeff)
                one_v = GradedOperator.identity(dual_space(coeff.complex.space), mode)
                wedge = [cec.basis.place(lambda q: 1 if q % 2 else -1, (iota, one_v))
                         for iota in exterior(g.n, mode).iota]
                products = [compose(wedge[s], wedge[t]) for s, t in pairs]
                for i in range(g.n):
                    de = combination([-c[s, t, i] for s, t in pairs], products)
                    assert (graded_commutator(cec.differential, wedge[i]) - de).norm() == 0
                one = GradedOperator.identity(cec.complex.space, mode)
                for j, b in enumerate(cochain_rep(g, coeff).B):
                    for i, e in enumerate(wedge):
                        anti = graded_commutator(b, e)
                        assert (anti - one if i == j else anti).norm() == 0


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
# the (-1)^(mq + q) part of the sign rule is pinned.  chain_exact.json
# holds the ce_chain differential and the chain_rep d, L and B in the same
# format, as they were assembled element by element before the chain side
# was built from wedge and contraction operators.
DATA = pathlib.Path(__file__).parent / "data"


def _sparse(op):
    for b in op.blocks.values():
        assert all(type(v) is Fraction for v in b.reshape(-1))
    return {str(k): [[int(r), int(c), format_scalar(b[r, c])] for r, c in zip(*b.nonzero())]
            for k, b in sorted(op.blocks.items())}


def _coefficients(g, name):
    if name == "U_trivial":
        return restrict(chain_rep(g, trivial_lie_rep(g)))
    if name == "trivial2_deg1":
        return trivial_lie_rep(g, dim=2, degree=1)
    return adjoint_rep(g) if name == "adjoint" else trivial_lie_rep(g)


def _assert_pinned(pinned, rep, differential, key):
    assert {str(k): d for k, d in sorted(rep.complex.space.dims.items())} == pinned["dims"]
    assert _sparse(differential) == pinned[key]
    assert _sparse(rep.differential) == pinned["d"]
    assert [_sparse(op) for op in rep.L] == pinned["L"]
    assert [_sparse(op) for op in rep.B] == pinned["B"]


@pytest.mark.parametrize("g", [sl2(), heisenberg3()], ids=lambda g: g.name)
@pytest.mark.parametrize("coeff", ["U_trivial", "trivial2_deg1"])
def test_cochain_side_matches_pinned_entries(g, coeff):
    pinned = json.loads((DATA / "cochain_exact.json").read_text())[f"{g.name}/{coeff}"]
    v = _coefficients(g, coeff)
    _assert_pinned(pinned, cochain_rep(g, v), ce_cochain(g, v).differential, "ce_cochain")


@pytest.mark.parametrize("g", [sl2(), heisenberg3()], ids=lambda g: g.name)
@pytest.mark.parametrize("coeff", ["trivial", "adjoint", "trivial2_deg1", "U_trivial"])
def test_chain_side_matches_pinned_entries(g, coeff):
    pinned = json.loads((DATA / "chain_exact.json").read_text())[f"{g.name}/{coeff}"]
    v = _coefficients(g, coeff)
    _assert_pinned(pinned, chain_rep(g, v), ce_chain(g, v).differential, "ce_chain")


def _nilpotent(k):
    """Strictly upper triangular k x k matrices on the matrix units E_ab,
    a < b, with [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
    basis = [(a, b) for a in range(k) for b in range(a + 1, k)]
    index = {e: i for i, e in enumerate(basis)}
    brackets = {}
    for i, (a, b) in enumerate(basis):
        for j, (c, d) in enumerate(basis[i + 1:], start=i + 1):
            coeffs = {index[(a, d)]: 1} if b == c else {}
            if d == a:
                coeffs[index[(c, b)]] = -1
            if coeffs:
                brackets[(i, j)] = coeffs
    return LieAlgebra(len(basis), brackets, name=f"n{k}")


@pytest.mark.parametrize("k,coeff,expected", [
    (4, "trivial", (1, 3, 5, 6, 5, 3, 1)),
    (5, "trivial", (1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1)),
    (4, "adjoint", (1, 6, 16, 21, 18, 11, 3)),
    (5, "adjoint", (1, 8, 28, 59, 92, 108, 101, 76, 44, 19, 4)),
])
def test_nilpotent_betti_numbers_match_kostant(k, coeff, expected):
    """Kostant (1961): dim H^m(n_k) is the number of permutations of k
    letters with m inversions.  The adjoint rows start with the centre
    (spanned by E_1k) and have Euler characteristic 0, as every row of a
    nilpotent algebra does.  n_5 with adjoint coefficients is a
    10,240-dimensional complex."""
    g = _nilpotent(k)
    dims = cohomology_dims(ce_cochain(g, _coefficients(g, coeff)).complex)
    assert tuple(dims[m] for m in range(g.n + 1)) == expected
    assert sum((-1) ** m * d for m, d in enumerate(expected)) == 0


def _sl3():
    """sl_3 on the matrix units E_ab, a != b, then H_1 = E_11 - E_22 and
    H_2 = E_22 - E_33; a traceless diagonal diag(x, y - x, -y) is
    x H_1 + y H_2."""
    units = [(a, b) for a in range(3) for b in range(3) if a != b]
    unit = np.eye(3, dtype=int)
    mats = [np.outer(unit[a], unit[b]) for a, b in units]
    mats += [np.diag([1, -1, 0]), np.diag([0, 1, -1])]
    brackets = {}
    for i, j in combinations(range(8), 2):
        m = mats[i] @ mats[j] - mats[j] @ mats[i]
        coeffs = {k: int(m[a, b]) for k, (a, b) in enumerate(units) if m[a, b]}
        coeffs.update({k: int(v) for k, v in ((6, m[0, 0]), (7, -m[2, 2])) if v})
        if coeffs:
            brackets[(i, j)] = coeffs
    return LieAlgebra(8, brackets, name="sl3")


@pytest.mark.parametrize("coeff,expected", [
    ("trivial", (1, 0, 0, 1, 0, 1, 0, 0, 1)),
    ("adjoint", (0,) * 9),
])
def test_sl3_betti_numbers_match_theory(coeff, expected):
    """H*(sl_3) is an exterior algebra on generators of degrees 3 and 5;
    with adjoint coefficients (a nontrivial irreducible, 2,048-dimensional
    complex) every degree vanishes (Whitehead)."""
    g = _sl3()
    assert g.check_jacobi() == 0
    dims = cohomology_dims(ce_cochain(g, _coefficients(g, coeff)).complex)
    assert tuple(dims[m] for m in range(g.n + 1)) == expected


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


# ---------------------------------------------------------------------------
# the algebra's own parts, placed once per (algebra, layout, mode)
# ---------------------------------------------------------------------------

def _graded_coefficients(g, mode):
    """rho = 0 on a complex with d_V != 0: k^1 in degree 0 -> k^1 in degree 1."""
    space = GradedVectorSpace({0: 1, 1: 1})
    d = graded.stack_entries(1, space, space, 1, ([0], [0], [0], [0], [1]), mode)
    return LieRep(g, CochainComplex(space, d), [GradedOperator.zero(space, space, 0, mode)] * g.n)


OWN = {
    "trivial": lambda g, mode: trivial_lie_rep(g, mode=mode),
    "trivial2_deg1": lambda g, mode: trivial_lie_rep(g, dim=2, degree=1, mode=mode),
    "trivial1_deg-2": lambda g, mode: trivial_lie_rep(g, degree=-2, mode=mode),
}
PLACED = {**OWN, "adjoint": lambda g, mode: adjoint_rep(g, mode=mode),
          "graded": _graded_coefficients}
FLAVORS = {"chain": (chain_rep, ce_chain), "cochain": (cochain_rep, ce_cochain)}


def _one_sum(g, coeff, flavor, mode):
    """d, L and B of Lambda(g) ox V, each placed in one tensor sum over all
    its pairs, coefficient pairs included, by ``graded`` alone: the sum in
    the order of decreasing exterior degree, and on cochains its transpose
    onto the dual layout, conjugated by S(m, q) = (-1)^(m(m+1)/2 + mq + q)."""
    n, ext = g.n, exterior(g.n, mode)
    chain = dual_lie_rep(coeff) if flavor == "cochain" else coeff
    v = chain.complex.space
    one, one_ext = (GradedOperator.identity(space, mode) for space in (v, ext.space))
    if flavor == "cochain":
        tensor = graded.reversed_tensor(
            ext.space, v, lambda p, q: 1 - 2 * ((p * (p - 1) // 2 + (1 - p) * q) % 2))
        space = dual_space(graded.tensor_space(ext.space, v))

        def place(sign, *pairs):
            return graded.dual_operator(tensor(*pairs, labels=n), space, sign, n)
    else:
        tensor = graded.reversed_tensor(ext.space, v)

        def place(sign, *pairs):
            return tensor(*pairs, labels=n)

    def odd(q):
        return -1 if q % 2 else 1

    d = place(odd, (ce.boundary(g, mode), one), (one_ext, chain.complex.differential),
              (ext.contraction, chain.stacked))
    L = place(lambda q: -1, (ce._commutator(g, mode), one), (one_ext, chain.stacked))
    return d, L, place(odd, (ext.wedge, one))


def _refuse_own_parts(monkeypatch):
    def refuse(*args):
        raise AssertionError("the own-parts cache was read")
    monkeypatch.setattr(ce, "_own_parts", refuse)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("flavor", ["chain", "cochain"])
@pytest.mark.parametrize("coeff", sorted(PLACED))
@pytest.mark.parametrize("g", [abelian(3), heisenberg3(), sl2(), su2()], ids=lambda g: g.name)
def test_operators_equal_one_tensor_sum_over_all_pairs(monkeypatch, g, coeff, flavor, mode):
    """d, L and B, from the own-parts cache when the coefficients act by
    zero (trivial ones of any dimension and degree, the abelian adjoint)
    and from one tensor sum otherwise, are the sum over all pairs bit for
    bit; coefficients with a stored action (the adjoint of a nonabelian
    algebra) or differential ("graded") never read the cache."""
    from test_stacked import _assert_same    # test_stacked imports this module
    v = PLACED[coeff](g, mode)
    cached = coeff in OWN or (coeff == "adjoint" and g.name == "abelian3")
    if not cached:
        _refuse_own_parts(monkeypatch)
    build, complex_of = FLAVORS[flavor]
    rep, cec = build(g, v), complex_of(g, v)
    want = _one_sum(g, v, flavor, mode)
    for got, ref in zip((rep.differential, rep.L_stack, rep.B_stack), want):
        _assert_same(got, ref)
    _assert_same(cec.differential, want[0])
    if cached:
        own = ce._own_parts(g, cec.basis, mode)
        assert rep.complex is cec.complex is own.complex
        assert rep.L_stack is own.commutator


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("flavor", ["chain", "cochain"])
def test_own_parts_are_read_only_and_one_object_per_key(flavor, mode):
    g = heisenberg3()
    build, complex_of = FLAVORS[flavor]
    first, second = (build(g, trivial_lie_rep(g, mode=mode)) for _ in range(2))
    for a, b in ((first.complex, second.complex), (first.L_stack, second.L_stack),
                 (first.B_stack, second.B_stack)):
        assert a is b
    for op in (first.differential, first.L_stack, first.B_stack):
        for entries in (op._rows, op._cols, op._data):
            with pytest.raises(ValueError, match="read-only"):
                entries[0] = entries[0]
    layout = complex_of(g, trivial_lie_rep(g, mode=mode)).basis
    assert ce._own_parts(g, layout, mode) is ce._own_parts(g, layout, mode)
    assert ce._own_parts.cache_info().maxsize == 16


def test_warm_trivial_chain_rep_builds_no_tensor_sum_and_no_complex(monkeypatch):
    g = sl2()
    v = trivial_lie_rep(g)
    chain_rep(g, v)
    calls = []
    tensor_sum, init = graded._tensor_sum, CochainComplex.__init__
    monkeypatch.setattr(graded, "_tensor_sum", lambda *a, **k: calls.append("sum") or
                        tensor_sum(*a, **k))
    monkeypatch.setattr(CochainComplex, "__init__", lambda self, *a: calls.append("complex") or
                        init(self, *a))
    chain_rep(g, v)
    assert calls == []


def test_constants_failing_jacobi_raise_on_every_build():
    """del^2 != 0 raises when the own parts are built, and no entry is
    kept: the second build raises too."""
    g = LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {1: 1}}, name="not_jacobi")
    assert g.check_jacobi() > 0
    hits = ce._own_parts.cache_info().hits
    for _ in range(2):
        for build in (chain_rep, ce_cochain):
            with pytest.raises(ValueError, match="does not square to zero"):
                build(g, trivial_lie_rep(g))
    assert ce._own_parts.cache_info().hits == hits
