"""Cartan relation residuals, the chain/cochain constructions, tensor,
dual, morphism spaces and the adjunction."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cartankit import linalg
from cartankit.ce import ce_chain, ce_cochain, cohomology_dims
from cartankit.graded import (CochainComplex, GradedOperator, GradedVectorSpace,
                              compose, tensor_basis_index, tensor_space)
from cartankit.lie import abelian, heisenberg3, sl2, su2
from cartankit.linalg import EXACT, FLOAT, ModeError
from cartankit.reps import (CartanRep, LieRep, adjoint_rep, adjunction_check, cartan_dgla,
                            cartan_residuals, chain_rep, cochain_rep, dual_lie_rep, dual_rep,
                            evaluation_pairing_residual, hom_space, induced_map,
                            intertwiner_residual, restrict, tensor_rep, trivial_cartan_rep,
                            trivial_lie_rep)
from dense_reference import apply, operator_from_blocks, operator_from_entries
from test_ce import _nilpotent


def test_trivial_rep_residuals_zero():
    rep = trivial_cartan_rep(sl2())
    assert cartan_residuals(rep).worst == 0.0


def test_chain_rep_abelian_trivial_exact():
    g = abelian(3)
    rep = chain_rep(g, trivial_lie_rep(g))
    res = cartan_residuals(rep)
    assert (res.LL, res.LB, res.BB, res.dB) == (0.0, 0.0, 0.0, 0.0)


def test_perturbed_contraction_breaks_relations():
    g = heisenberg3()
    rep = chain_rep(g, trivial_lie_rep(g))
    bumped = []
    for i, op in enumerate(rep.B):
        if i == 0:
            block = {k: b.copy() for k, b in op.blocks.items()}
            block[0][0, 0] += Fraction(1)
            op = operator_from_blocks(op.source, op.target, -1, block, mode=EXACT)
        bumped.append(op)
    broken = CartanRep(g, rep.complex, rep.L, bumped)
    assert cartan_residuals(broken).worst == 1.0


def test_perturbed_contraction_breaks_differential_relation():
    # two-term rep where the differential sees the perturbed entry directly
    g = abelian(1)
    space = GradedVectorSpace({-1: 1, 0: 1})
    one = np.array([[Fraction(1)]], dtype=object)
    delta = operator_from_blocks(space, space, 1, {-1: one}, mode=EXACT)
    ell = operator_from_blocks(space, space, 0, {-1: one, 0: one}, mode=EXACT)
    bee = operator_from_blocks(space, space, -1, {0: one}, mode=EXACT)
    rep = CartanRep(g, CochainComplex(space, delta), [ell], [bee])
    assert cartan_residuals(rep).worst == 0.0
    bumped = operator_from_blocks(space, space, -1, {0: one + one}, mode=EXACT)
    broken = CartanRep(g, rep.complex, rep.L, [bumped])
    assert cartan_residuals(broken).dB == 1.0


def test_chain_rep_dimension_count():
    g = sl2()
    coeff = adjoint_rep(g)
    rep = chain_rep(g, coeff)
    assert rep.complex.space.total_dim == 2 ** g.n * g.n
    assert rep.complex.space.dims == {-3: 3, -2: 9, -1: 9, 0: 3}


def test_wedge_twice_is_zero():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g))
    for b in rep.B:
        assert compose(b, b).norm() == 0.0


def test_contraction_twice_is_zero():
    g = sl2()
    rep = cochain_rep(g, adjoint_rep(g))
    for b in rep.B:
        assert compose(b, b).norm() == 0.0


@pytest.mark.parametrize("build", [chain_rep, cochain_rep])
def test_functors_satisfy_cartan_exactly(build):
    for g in (abelian(3), heisenberg3(), sl2()):
        for coeff in (trivial_lie_rep(g), adjoint_rep(g)):
            assert cartan_residuals(build(g, coeff)).worst == 0.0


def test_functors_with_graded_coefficients():
    # coefficients forming a two-term complex with zero action
    g = heisenberg3()
    space = GradedVectorSpace({0: 1, 1: 1})
    diff = operator_from_blocks(space, space, 1, {0: np.array([[Fraction(1)]], dtype=object)},
                                mode=EXACT)
    zero = GradedOperator.zero(space, space, 0, EXACT)
    coeff = LieRep(g, CochainComplex(space, diff), [zero] * g.n)
    assert cartan_residuals(chain_rep(g, coeff)).worst == 0.0
    assert cartan_residuals(cochain_rep(g, coeff)).worst == 0.0


def test_cochain_rep_trivial_matches_scalar_complex():
    g = sl2()
    rep = cochain_rep(g, trivial_lie_rep(g))
    plain = ce_cochain(g, trivial_lie_rep(g))
    for k, block in plain.complex.differential.blocks.items():
        assert np.array_equal(rep.complex.differential.block(k), block)


def test_chain_rep_complex_is_the_ce_chain_complex():
    g = sl2()
    coeff = adjoint_rep(g)
    rep = chain_rep(g, coeff)
    cec = ce_chain(g, coeff)
    assert rep.complex.space.dims == cec.complex.space.dims
    for k in rep.complex.space.degrees:
        assert np.array_equal(rep.complex.differential.block(k),
                              cec.complex.differential.block(k))


def test_tensor_with_trivial_is_isomorphic():
    g = heisenberg3()
    rep = chain_rep(g, trivial_lie_rep(g))
    prod = tensor_rep(rep, trivial_cartan_rep(g))
    assert prod.complex.space.dims == rep.complex.space.dims
    for i in range(g.n):
        assert (prod.L[i] - rep.L[i]).norm() == 0.0
        assert (prod.B[i] - rep.B[i]).norm() == 0.0


def test_tensor_rep_cartan_exact():
    g = abelian(3)
    rep = chain_rep(g, trivial_lie_rep(g))
    assert cartan_residuals(tensor_rep(rep, rep)).worst == 0.0
    g2 = sl2()
    a = chain_rep(g2, trivial_lie_rep(g2))
    b = cochain_rep(g2, trivial_lie_rep(g2))
    assert cartan_residuals(tensor_rep(a, b)).worst == 0.0


def _triple_permutation(va, vb, vc):
    """Column permutation aligning ((a(x)b)(x)c with a(x)(b(x)c)."""
    left_outer = tensor_space(tensor_space(va, vb), vc)
    perm = {}
    for p in va.degrees:
        for q in vb.degrees:
            for r in vc.degrees:
                for i in range(va.dim(p)):
                    for j in range(vb.dim(q)):
                        for l in range(vc.dim(r)):
                            dab, iab = tensor_basis_index(va, vb, p, i, q, j)
                            dl, il = tensor_basis_index(tensor_space(va, vb), vc, dab, iab, r, l)
                            dbc, ibc = tensor_basis_index(vb, vc, q, j, r, l)
                            dr, ir = tensor_basis_index(va, tensor_space(vb, vc), p, i, dbc, ibc)
                            assert dl == dr
                            perm.setdefault(dl, {})[il] = ir
    return perm


def test_tensor_rep_associative_up_to_regrading():
    g = heisenberg3()
    a = chain_rep(g, trivial_lie_rep(g))
    b = trivial_cartan_rep(g, dim=2, degree=-1)
    c = cochain_rep(g, trivial_lie_rep(g))
    left = tensor_rep(tensor_rep(a, b), c)
    right = tensor_rep(a, tensor_rep(b, c))
    perm = _triple_permutation(a.complex.space, b.complex.space, c.complex.space)
    mats = {}
    for deg, table in perm.items():
        m = np.zeros((len(table), len(table)), dtype=object)
        m[...] = Fraction(0)
        for il, ir in table.items():
            m[ir, il] = Fraction(1)
        mats[deg] = m
    reindex = operator_from_blocks(left.complex.space, right.complex.space, 0, mats, mode=EXACT)
    for ops_l, ops_r in ((left.L, right.L), (left.B, right.B)):
        for ol, orr in zip(ops_l, ops_r):
            assert (compose(reindex, ol) - compose(orr, reindex)).norm() == 0.0
    assert (compose(reindex, left.complex.differential)
            - compose(right.complex.differential, reindex)).norm() == 0.0


def test_dual_of_trivial_is_trivial():
    rep = trivial_cartan_rep(sl2())
    d = dual_rep(rep)
    assert d.complex.space.dims == {0: 1}
    assert cartan_residuals(d).worst == 0.0


def test_dual_pairing_is_a_morphism():
    g = heisenberg3()
    rep = chain_rep(g, trivial_lie_rep(g))
    assert evaluation_pairing_residual(rep) == 0.0
    g2 = sl2()
    rep2 = cochain_rep(g2, adjoint_rep(g2))
    assert evaluation_pairing_residual(rep2) == 0.0


def test_dual_rep_satisfies_cartan():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g))
    assert cartan_residuals(dual_rep(rep)).worst == 0.0


def test_double_dual_equals_original_up_to_degree_sign():
    g = sl2()
    rep = cochain_rep(g, trivial_lie_rep(g))
    dd = dual_rep(dual_rep(rep))
    assert cartan_residuals(dd).worst == 0.0
    assert dd.complex.space.dims == rep.complex.space.dims
    # conjugation by (-1)^degree identifies the two
    space = rep.complex.space
    sign = {k: ((-1) ** k) * np.array(np.eye(space.dim(k)), dtype=object)
            for k in space.degrees}
    for k in space.degrees:
        for a, b in ((rep.complex.differential, dd.complex.differential),):
            lhs = sign[k + 1].dot(b.block(k)) if b.block(k).size else b.block(k)
            rhs = a.block(k).dot(sign[k]) if a.block(k).size else a.block(k)
            assert np.array_equal(lhs, rhs)
    for i in range(g.n):
        assert (rep.L[i] - dd.L[i]).norm() == 0.0
        for k in space.degrees:
            b_orig = rep.B[i].block(k)
            b_dd = dd.B[i].block(k)
            if b_orig.size:
                assert np.array_equal(b_dd, -b_orig)


@pytest.mark.parametrize("graded", [False, True], ids=["adjoint", "chain_coefficients"])
def test_dual_lie_rep_is_an_involution_up_to_degree_sign(graded):
    g = sl2()
    rep = restrict(chain_rep(g, trivial_lie_rep(g))) if graded else adjoint_rep(g)
    dual = dual_lie_rep(rep)
    assert dual.residuals() == {"bracket": 0, "chain_map": 0}
    dd = dual_lie_rep(dual)
    assert dd.complex.space == rep.complex.space
    # the double dual differential is -d, which (-1)^degree conjugates to d;
    # the degree-0 actions come back exactly
    assert (dd.complex.differential + rep.complex.differential).norm() == 0
    assert (rep.complex.differential.norm() > 0) == graded
    for a, b in zip(dd.operators, rep.operators):
        assert a.blocks.keys() == b.blocks.keys()
        for k, block in a.blocks.items():
            assert block.dtype == object and np.array_equal(block, b.blocks[k])


def test_cochain_rep_on_graded_coefficients_satisfies_cartan():
    g = heisenberg3()
    coeff = restrict(chain_rep(g, trivial_lie_rep(g)))
    assert cartan_residuals(cochain_rep(g, coeff)).worst == 0


def test_restrict_drops_contractions():
    g = sl2()
    rep = chain_rep(g, adjoint_rep(g))
    lie = restrict(rep)
    assert lie.complex is rep.complex
    assert lie.residuals() == {"bracket": 0.0, "chain_map": 0.0}
    triv = restrict(trivial_cartan_rep(g))
    assert triv.complex.space.dims == {0: 1}


def test_restrict_commutes_with_tensor():
    g = heisenberg3()
    a = chain_rep(g, trivial_lie_rep(g))
    b = cochain_rep(g, trivial_lie_rep(g))
    lhs = restrict(tensor_rep(a, b))
    for i in range(g.n):
        direct = tensor_rep(a, b).L[i]
        assert (lhs.operators[i] - direct).norm() == 0.0


def test_hom_space_contains_identity():
    g = heisenberg3()
    rep = chain_rep(g, trivial_lie_rep(g))
    basis = hom_space(rep, rep)
    assert len(basis) >= 1
    ident = GradedOperator.identity(rep.complex.space, EXACT)
    # identity must lie in the span: residual of least-squares via exact check
    found = any((b - ident).norm() == 0.0 or _proportional(b, ident) for b in basis)
    assert found or _in_span(basis, ident)


def _proportional(a, b):
    keys = set(a.blocks) | set(b.blocks)
    ratio = None
    for k in keys:
        ba, bb = a.block(k), b.block(k)
        for x, y in zip(np.ravel(ba), np.ravel(bb)):
            if y == 0:
                if x != 0:
                    return False
            else:
                r = Fraction(x) / Fraction(y)
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return False
    return True


def _in_span(basis, target):
    from cartankit import linalg
    cols = []
    for op in basis + [target]:
        entries = []
        for k in sorted(target.source.degrees):
            entries.extend(np.ravel(op.block(k)))
        cols.append(entries)
    mat = np.array(cols, dtype=object).T
    return linalg.rank(mat) == len(basis)


def test_hom_space_trivial_to_trivial():
    g = sl2()
    assert len(hom_space(trivial_cartan_rep(g), trivial_cartan_rep(g))) == 1


def test_hom_space_float_path_matches_exact():
    from cartankit.linalg import FLOAT
    g = heisenberg3()
    exact_dim = len(hom_space(chain_rep(g, trivial_lie_rep(g)),
                              chain_rep(g, trivial_lie_rep(g))))
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    float_dim = len(hom_space(rep, rep))
    assert float_dim == exact_dim == 1


def test_adjunction_dimensions_and_reconstruction():
    g = heisenberg3()
    rep = cochain_rep(g, trivial_lie_rep(g))
    res = adjunction_check(trivial_lie_rep(g), rep)
    assert res.ok
    assert res.dim_cartan_side == res.dim_lie_side


def test_adjunction_detects_broken_input():
    g = heisenberg3()
    rep = chain_rep(g, trivial_lie_rep(g))
    bumped = []
    for i, op in enumerate(rep.B):
        if i == 1:
            blocks = {k: b.copy() for k, b in op.blocks.items()}
            blocks[0][0, 0] += Fraction(3, 7)
            op = operator_from_blocks(op.source, op.target, -1, blocks, mode=EXACT)
        bumped.append(op)
    broken = CartanRep(g, rep.complex, rep.L, bumped)
    res = adjunction_check(trivial_lie_rep(g), broken)
    assert not res.ok
    assert res.precondition_residual > 0


def test_chain_rep_faithful_on_degree_zero_maps():
    # distinct coefficient maps V -> W induce distinct maps of the chain complexes
    g = abelian(2)
    coeff = trivial_lie_rep(g, dim=2)
    from cartankit.reps import induced_map
    rep = chain_rep(g, coeff)
    maps = hom_space(coeff, restrict(rep))
    assert len(maps) == 4
    images = [induced_map(coeff, rep, phi) for phi in maps]
    for a in range(len(images)):
        # degree-0 block of the induced map restricts to the original
        assert np.array_equal(images[a].block(0)[:, :2], maps[a].block(0))
    assert all((images[a] - images[b]).norm() > 0 for a in range(4) for b in range(a))


def test_induced_map_rejects_a_mistyped_degree_zero_map():
    g = abelian(2)
    coeff = trivial_lie_rep(g, dim=2)
    from cartankit.reps import induced_map
    phi = hom_space(coeff, coeff)[0]
    with pytest.raises(ValueError, match="phi0 must map"):
        induced_map(coeff, chain_rep(g, coeff), phi)


def test_induced_map_rejects_a_map_of_nonzero_degree():
    g = heisenberg3()
    coeff, rep = trivial_lie_rep(g), cochain_rep(g, trivial_lie_rep(g))
    phi = operator_from_entries(coeff.complex.space, rep.complex.space, 1,
                                [(0, 0, 0, 1)], EXACT)
    with pytest.raises(ValueError, match="degree 0, got 1"):
        induced_map(coeff, rep, phi)


def test_induced_map_rejects_a_map_in_another_mode():
    g = heisenberg3()
    coeff = trivial_lie_rep(g, mode=FLOAT)
    phi = hom_space(coeff, restrict(chain_rep(g, coeff)))[0]
    with pytest.raises(ModeError, match="phi0 is float, W is exact"):
        induced_map(coeff, chain_rep(g, trivial_lie_rep(g)), phi)


def _chain_labels(n, space):
    """(subset, q, i) labels of the chain layout of Lambda(g) ox V by total
    degree: exterior degree m increasing, subsets lexicographic, then the
    coefficient basis by degree."""
    labels = {}
    for m in range(n + 1):
        for subset in combinations(range(n), m):
            for q in sorted(space.dims):
                for i in range(space.dim(q)):
                    labels.setdefault(q - m, []).append((subset, q, i))
    return labels


def _reference_induced_map(v_rep, w_rep, phi0):
    """phi(e_s ox v) = B_{s_1} ... B_{s_m} phi0(v), one label at a time."""
    labels = _chain_labels(v_rep.algebra.n, v_rep.complex.space)
    entries = []
    for deg, elements in labels.items():
        for c, (subset, q, i) in enumerate(elements):
            img = apply(phi0, {q: linalg.unit_vector(v_rep.complex.space.dim(q), i,
                                                     w_rep.mode)})
            for idx in reversed(subset):
                img = apply(w_rep.B[idx], img)
            entries += [(deg, r, c, v) for r, v in enumerate(img.get(deg, [])) if v != 0]
    space = GradedVectorSpace({deg: len(elements) for deg, elements in labels.items()})
    return operator_from_entries(space, w_rep.complex.space, 0, entries, w_rep.mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("g", [sl2(), heisenberg3(), abelian(2), abelian(3), su2()],
                         ids=lambda g: f"{g.name}{g.n}" if g.name == "abelian" else g.name)
def test_induced_map_matches_the_per_subset_products(g, mode):
    coefficients = [trivial_lie_rep(g, mode=mode), adjoint_rep(g, mode),
                    trivial_lie_rep(g, dim=2, mode=mode)]
    targets = [build(g, v) for build in (chain_rep, cochain_rep) for v in coefficients]
    compared = 0
    for v in coefficients:
        for w in targets + ([cartan_dgla(g)] if mode == EXACT else []):
            for phi0 in hom_space(v, restrict(w)):
                phi, ref = induced_map(v, w, phi0), _reference_induced_map(v, w, phi0)
                assert (phi.source, phi.target, phi.degree) == (ref.source, ref.target, 0)
                for k in ref.source.degrees:
                    assert np.array_equal(phi.block(k), ref.block(k))
                compared += 1
    assert compared > 0


@pytest.mark.parametrize("k", [4, 5])
def test_induced_map_on_nilpotent_chains_is_a_cartan_map(k):
    """V the adjoint of n_k, W its chain representation with trivial
    coefficients (dim 2^(k(k-1)/2)): maps V -> W^0 kill [g, g], so there
    are k - 1 of them."""
    g = _nilpotent(k)
    v, w = adjoint_rep(g), chain_rep(g, trivial_lie_rep(g))
    maps = hom_space(v, restrict(w))
    assert len(maps) == k - 1
    uv = chain_rep(g, v)
    for phi0 in maps:
        phi = induced_map(v, w, phi0)
        assert intertwiner_residual(phi, uv, w) == 0
        assert np.array_equal(phi.block(0)[:, :g.n], phi0.block(0))


def test_adjunction_on_nilpotent_chains():
    """The 384-dimensional chain representation of the adjoint of n_4: its
    maps to W = chain_rep(n_4, trivial) restrict to the k - 1 = 3 maps of
    representations V -> W, and each extends back exactly."""
    g = _nilpotent(4)
    res = adjunction_check(adjoint_rep(g), chain_rep(g, trivial_lie_rep(g)))
    assert (res.dim_cartan_side, res.dim_lie_side) == (3, 3)
    assert res.reconstruction_residual == 0 and res.ok


def test_exact_checks_build_no_dense_block(monkeypatch):
    """Exact ranks, hom spaces and the adjunction read the sparse entries of
    the operators: none of them asks for a dense block."""
    def refuse(self, k):
        raise AssertionError(f"dense block {k} built")

    monkeypatch.setattr(GradedOperator, "_stored", refuse)
    g = _nilpotent(4)
    dims = cohomology_dims(ce_cochain(g, adjoint_rep(g)).complex)
    assert tuple(dims[m] for m in range(g.n + 1)) == (1, 6, 16, 21, 18, 11, 3)
    h = heisenberg3()
    v, w = adjoint_rep(h), chain_rep(h, trivial_lie_rep(h))
    assert len(hom_space(v, restrict(w))) == len(hom_space(chain_rep(h, v), w)) == 2
    res = adjunction_check(v, w)
    assert res.ok and res.dim_cartan_side == res.dim_lie_side == 2


def test_adjunction_builds_the_chain_complex_once(monkeypatch):
    from cartankit import ce
    g = heisenberg3()
    v_rep, w_rep = adjoint_rep(g), chain_rep(g, trivial_lie_rep(g))
    calls = []

    def counting_ce_chain(*args):
        calls.append(args)
        return ce_chain(*args)

    monkeypatch.setattr(ce, "ce_chain", counting_ce_chain)
    res = adjunction_check(v_rep, w_rep)
    assert res.ok and res.dim_lie_side == 2
    assert len(calls) == 1
