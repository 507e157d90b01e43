"""Float evaluation on degree blocks against dense total matrices.

The references in ``dense_reference`` multiply total matrices over all
degrees, rho(t) B(xi_1) ... B(xi_k), with rho(t) from scipy's expm of the
flattened actions; the block paths must agree within 1e-13 of the largest
entry on the 8- and 24-dimensional sl2 chain representations."""

from itertools import permutations

import numpy as np
import pytest

from cartankit import integrate
from cartankit.evaluators import (FlatRep, MaxCollapseReparam, PermReparam, PointEvaluator,
                                  WordEvaluator, boundary, ez_product)
from cartankit.integrate import (cube_nodes, density_at, integrate_quadrature,
                                 integrate_series, simplex_nodes)
from cartankit.lie import sl2
from cartankit.linalg import FLOAT
from cartankit.reps import adjoint_rep, chain_rep, trivial_lie_rep
from dense_reference import dense_density, dense_series, flatten_operator, total_of

LETTERS = [np.array([0.3, 0.7, -0.5]), np.array([0.8, -0.2, 0.4]),
           np.array([-0.6, 0.5, 0.45])]
PREFIX = [np.array([0.2, -0.4, 0.35])]


@pytest.fixture(scope="module", params=[8, 24], ids=["d8", "d24"])
def flat(request):
    g = sl2()
    coeff = trivial_lie_rep(g, mode=FLOAT) if request.param == 8 else adjoint_rep(g, mode=FLOAT)
    rep = chain_rep(g, coeff)
    assert rep.complex.space.total_dim == request.param
    return FlatRep(rep)


def _assert_matches_dense(flat, ev, points):
    dens = density_at(flat, ev, points)
    want = dense_density(flat, ev, points)
    got = np.stack([total_of(flat, dens[p], -ev.k) for p in range(len(points))])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("prefix", [[], PREFIX], ids=["bare", "prefixed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_word_density_matches_dense(flat, k, prefix):
    ev = WordEvaluator(flat, LETTERS[:k], prefix=prefix)
    _assert_matches_dense(flat, ev, simplex_nodes(k, 3)[0] if k else np.zeros((1, 0)))


def test_point_value_matches_dense(flat):
    ev = PointEvaluator(flat, prefix=PREFIX + LETTERS[:1])
    _assert_matches_dense(flat, ev, np.zeros((1, 0)))


def test_faces_match_dense(flat):
    for k in (1, 2, 3):
        for _, face in boundary(WordEvaluator(flat, LETTERS[:k])).terms:
            _assert_matches_dense(flat, face, simplex_nodes(k - 1, 3)[0] if k > 1
                                  else np.zeros((1, 0)))


def test_permuted_and_collapsed_cubes_match_dense(flat):
    for k in (2, 3):
        theta = WordEvaluator(flat, LETTERS[:k], domain="cube")
        collapsed = MaxCollapseReparam(WordEvaluator(flat, LETTERS[:k]))
        points = cube_nodes(k, 3)[0]
        _assert_matches_dense(flat, collapsed, points)
        for perm in permutations(range(k)):
            _assert_matches_dense(flat, PermReparam(theta, perm), points)
            _assert_matches_dense(flat, PermReparam(collapsed, perm), simplex_nodes(k, 3)[0])


def test_shuffle_products_match_dense(flat):
    for r, s in ((1, 1), (1, 2), (2, 1)):
        chain = ez_product(WordEvaluator(flat, LETTERS[:r]),
                           WordEvaluator(flat, LETTERS[::-1][:s], prefix=PREFIX))
        for _, ev in chain.terms:
            _assert_matches_dense(flat, ev, simplex_nodes(r + s, 3)[0])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_float_series_matches_dense(flat, k):
    got = flatten_operator(integrate_series(flat.rep, LETTERS[:k]))
    want = dense_series(flat.rep, LETTERS[:k])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_k3_quadrature_evaluates_rho_only_at_degree_minus_3(monkeypatch):
    """On the 24-dim rep {0: 3, -1: 9, -2: 9, -3: 3} a degree -3 density
    reaches one block, from source degree 0, and rho is evaluated there only."""
    g = sl2()
    flat = FlatRep(chain_rep(g, adjoint_rep(g, mode=FLOAT)))
    seen = []
    density_batch = integrate.density_batch

    def spy(flat_, data):
        seen.append(sorted(data.rho.blocks))
        out = density_batch(flat_, data)
        seen.append(sorted(out.blocks))
        return out

    monkeypatch.setattr(integrate, "density_batch", spy)
    op = integrate_quadrature(flat, WordEvaluator(flat, LETTERS), 4)
    assert seen == [[-3], [0]]
    assert flat.targets(3) == [-3]
    assert {d for _, d in flat._exp_cache} == {-3}
    assert repr(op) == "GradedOperator(degree=-3, blocks=[0])"
