"""Evaluator geometry: tangent frames against finite differences, faces,
shuffles, permutation and collapse reparameterizations."""

from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
import scipy.linalg

from cartankit import evaluators, integrate, linalg
from cartankit.evaluators import (AffineReparam, ChainCombination, FlatRep,
                                  MaxCollapseReparam, PermReparam, PointData, PointEvaluator,
                                  ProductEvaluator, WordEvaluator, alternation, boundary,
                                  ez_product, face_map, interior_points, shuffles,
                                  thinness_check)
from cartankit.integrate import cube_nodes, density_at, gauss_01, simplex_nodes
from cartankit.graded import GradedOperator
from cartankit.lie import abelian
from cartankit.linalg import FLOAT
from cartankit.reps import adjoint_rep, chain_rep, trivial_lie_rep
from aw_coproduct import aw_coproduct_word
from dense_reference import (collapse_push, cumprod_at, flatten_operator, identity_started_eval,
                             loop_face_map, operator_of, perm_lift, perm_push, sorted_tree_eval,
                             total_of)


@pytest.fixture(scope="module")
def flat(sl2_chain_float):
    return FlatRep(sl2_chain_float)


def _fd_tangent_residual(flat, ev, point, h=1e-6):
    """The defining property of the frame: the value-relative derivative of
    the operator part along axis j is the degree-0 action of tangent j."""
    data = ev.eval(np.asarray([point]))
    worst = 0.0
    for j in range(ev.k):
        plus = np.asarray(point, dtype=float).copy()
        minus = plus.copy()
        plus[j] += h
        minus[j] -= h
        rp = total_of(flat, ev.eval(np.asarray([plus])).rho[0], 0)
        rm = total_of(flat, ev.eval(np.asarray([minus])).rho[0], 0)
        derivative = (rp - rm) / (2 * h)
        expected = total_of(flat, data.rho[0], 0).dot(operator_of(flat, data.xi[0, j]))
        worst = max(worst, np.max(np.abs(derivative - expected)))
    return worst


def test_word_point_values(flat, sl2_basis_float):
    e = sl2_basis_float
    ev = WordEvaluator(flat, [e[0]])
    got = total_of(flat, ev.eval(np.array([[0.63]])).rho[0], 0)
    want = scipy.linalg.expm(0.63 * operator_of(flat, e[0]))
    assert np.max(np.abs(got - want)) < 1e-12


def test_word_tangent_frame_against_finite_differences(flat, sl2_basis_float):
    e = sl2_basis_float
    for letters, point in (
        ([e[0]], [0.4]),
        ([e[0], e[2]], [0.7, 0.3]),
        ([e[2], e[0], e[1]], [0.8, 0.5, 0.2]),
    ):
        ev = WordEvaluator(flat, letters)
        assert _fd_tangent_residual(flat, ev, point) < 1e-7


def test_prefixed_word_frame_and_value(flat, sl2_basis_float):
    e = sl2_basis_float
    plain = WordEvaluator(flat, [e[0], e[1]])
    moved = WordEvaluator(flat, [e[0], e[1]], prefix=[e[2]])
    pts = np.array([[0.6, 0.2]])
    g = scipy.linalg.expm(operator_of(flat, e[2]))
    assert np.allclose(total_of(flat, moved.eval(pts).rho[0], 0),
                       g.dot(total_of(flat, plain.eval(pts).rho[0], 0)))
    assert np.allclose(moved.eval(pts).xi, plain.eval(pts).xi)
    assert _fd_tangent_residual(flat, moved, [0.6, 0.2]) < 1e-7


GENERIC_LETTERS = [np.array([0.3, 0.7, -0.5]), np.array([0.8, -0.2, 0.4]),
                   np.array([-0.6, 0.5, 0.45])]


def _repeated_rows():
    """Nodes with duplicated rows, in a shuffled order."""
    nodes = np.concatenate([simplex_nodes(2, 3)[0]] * 2)
    return nodes[np.random.default_rng(7).permutation(len(nodes))]


@pytest.mark.parametrize("prefix", [(), (2, 0)], ids=["bare", "prefixed"])
@pytest.mark.parametrize("k, points", [
    (3, simplex_nodes(3, 5)[0]),
    (2, cube_nodes(2, 4)[0]),
    (2, _repeated_rows()),
    (0, np.zeros((3, 0))),
], ids=["simplex", "cube", "repeated", "empty_word"])
def test_word_eval_batch_equals_rowwise(flat, prefix, k, points):
    """The prefix tree of a batch changes no bit of any output row."""
    ev = WordEvaluator(flat, GENERIC_LETTERS[:k], prefix=[GENERIC_LETTERS[i] for i in prefix])
    data = ev.eval(points)
    for q, row in enumerate(points):
        one = ev.eval(row[None])
        assert np.array_equal(data.rho[q], one.rho[0])
        assert np.array_equal(data.ad_inv[q], one.ad_inv[0])
        assert np.array_equal(data.xi[q], one.xi[0])


def test_word_eval_exponentiates_each_distinct_coordinate_once(flat, monkeypatch):
    """On simplex_nodes(3, 16) slot j holds the distinct values of
    t_j = u_1 ... u_j: 16, then 136 (u_1 u_2 = u_2 u_1), then 1,189,
    where a per-point evaluation takes 4,096 at every slot.  That holds at
    every degree asked for, and for the inverse adjoint."""
    ev = WordEvaluator(flat, GENERIC_LETTERS)
    sizes = {}
    taylor_at = linalg.TaylorExp.at

    def counted(self, t):
        sizes.setdefault(id(self), []).append(len(t))
        return taylor_at(self, t)

    monkeypatch.setattr(linalg.TaylorExp, "at", counted)
    ev.eval(simplex_nodes(3, 16)[0], [-3, -1])
    blocks = {q: [id(flat.exp_factors(x, q)) for x in GENERIC_LETTERS] for q in (-3, -1)}
    for q, ids in blocks.items():
        assert [sizes[i] for i in ids] == [[16], [136], [1189]]
    assert [sizes[id(a)] for a in ev._ad] == [[16], [136], [1189]]
    assert len(sizes) == 9


def _bitwise(a, b):
    """Equal arrays, down to the sign of every zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _same(a, b):
    """Bit-equal outputs; an inverse adjoint that is not formed (None) only
    equals one that is not formed."""
    return (a.rho.blocks.keys() == b.rho.blocks.keys()
            and all(_bitwise(a.rho.blocks[d], b.rho.blocks[d]) for d in a.rho.blocks)
            and (a.ad_inv is None and b.ad_inv is None
                 or a.ad_inv is not None and b.ad_inv is not None
                 and _bitwise(a.ad_inv, b.ad_inv))
            and _bitwise(a.xi, b.xi))


@pytest.mark.parametrize("degrees", [None, [-2, -1]], ids=["all", "targets"])
def test_eval_many_equals_each_request_alone(flat, degrees):
    """Requests of every evaluator kind, nested and sharing word evaluators,
    evaluated together are bit-equal to each one evaluated alone.  Only the
    product requests carry an inverse adjoint, although their words are
    shared with requests that carry none; a direct word evaluation forms
    it, and its other outputs are the same bits."""
    word = WordEvaluator(flat, GENERIC_LETTERS[:2])
    other = WordEvaluator(flat, GENERIC_LETTERS[1:], prefix=[GENERIC_LETTERS[0]])
    faces = [ev for _, ev in boundary(word).terms]
    mat, off = face_map(2, 1)
    requests = [
        (word, simplex_nodes(2, 5)[0]),
        (word, cube_nodes(2, 3)[0]),
        (PermReparam(MaxCollapseReparam(word), (1, 0)), cube_nodes(2, 4)[0]),
        (ProductEvaluator(faces[0], faces[2], (1,)), simplex_nodes(2, 4)[0]),
        (ProductEvaluator(faces[1], other, (1,)), simplex_nodes(3, 3)[0]),
        (AffineReparam(other, mat, off), simplex_nodes(1, 6)[0]),
        (PointEvaluator(flat, prefix=[GENERIC_LETTERS[2]]), np.zeros((2, 0))),
        (AffineReparam(faces[0], *face_map(1, 1)), np.zeros((1, 0))),
    ]
    together = list(evaluators.eval_many(requests, degrees))
    assert len(together) == len(requests)
    for (ev, points), data in zip(requests, together):
        assert data.xi.shape[:2] == (len(points), ev.k)
        assert (data.ad_inv is None) != isinstance(ev, ProductEvaluator)
        alone = ev.eval(points, degrees)
        if isinstance(ev, WordEvaluator):
            assert alone.ad_inv is not None
            alone = PointData(alone.rho, None, alone.xi)
        assert _same(data, alone)


def test_eval_many_evaluates_each_word_once(flat, monkeypatch):
    word = WordEvaluator(flat, GENERIC_LETTERS[:2])
    calls = []
    word_eval = WordEvaluator.eval

    def counted(self, points, degrees=None, adjoint=True):
        calls.append(len(points))
        return word_eval(self, points, degrees, adjoint)

    monkeypatch.setattr(WordEvaluator, "eval", counted)
    faces = boundary(word)
    shuffle = ez_product(WordEvaluator(flat, GENERIC_LETTERS[2:]), faces.terms[0][1])
    requests = ([(ev, simplex_nodes(1, 4)[0]) for _, ev in faces.terms]
                + [(ev, simplex_nodes(2, 4)[0]) for _, ev in shuffle.terms])
    list(evaluators.eval_many(requests))
    # the two shuffle terms read 16 points of each factor; the faces 4 each
    assert sorted(calls) == [2 * 16, 3 * 4 + 2 * 16]


def _sum_of_terms(flat, chain, order):
    out = None
    for coef, ev in chain.terms:
        piece = float(coef) * integrate.integrals(flat, [ev], order)[0]
        out = piece if out is None else out + piece
    return flatten_operator(GradedOperator.from_block_entries(flat.space, flat.space, -chain.k,
                                                              out, FLOAT))


@pytest.mark.parametrize("make", [
    lambda flat: boundary(WordEvaluator(flat, GENERIC_LETTERS)),
    lambda flat: boundary(WordEvaluator(flat, GENERIC_LETTERS[:1])),
    lambda flat: ez_product(WordEvaluator(flat, GENERIC_LETTERS[:1]),
                            WordEvaluator(flat, GENERIC_LETTERS[1:])),
    lambda flat: ez_product(boundary(WordEvaluator(flat, GENERIC_LETTERS[:2])),
                            PermReparam(WordEvaluator(flat, GENERIC_LETTERS[1:], domain="cube"),
                                        (1, 0))),
], ids=["stokes_k3", "stokes_k1", "shuffle", "faces_x_cube"])
def test_integrate_chain_equals_the_per_term_sum(flat, make):
    chain = make(flat)
    got = flatten_operator(integrate.integrate_chain(flat, chain, 6))
    assert np.array_equal(got, _sum_of_terms(flat, chain, 6))


def test_batches_stay_within_the_point_budget(flat, monkeypatch):
    """Three 216-node terms under a budget of 500 points: two batches, and
    no word evaluation over the budget; a single request over the budget
    is a batch of its own.  The integral changes no bit."""
    chain = ez_product(WordEvaluator(flat, GENERIC_LETTERS[:1]),
                       WordEvaluator(flat, GENERIC_LETTERS[1:]))
    whole = flatten_operator(integrate.integrate_chain(flat, chain, 6))
    sizes = []
    word_eval = WordEvaluator.eval

    def counted(self, points, degrees=None, adjoint=True):
        sizes.append(len(points))
        return word_eval(self, points, degrees, adjoint)

    monkeypatch.setattr(WordEvaluator, "eval", counted)
    for budget, want in ((500, [216, 216, 432, 432]), (100, [216] * 6)):
        monkeypatch.setattr(integrate, "MAX_QUADRATURE_NODES", budget)
        sizes.clear()
        assert np.array_equal(flatten_operator(integrate.integrate_chain(flat, chain, 6)), whole)
        assert sorted(sizes) == want


@pytest.fixture(scope="module")
def sl2_flats(sl2_chain_float):
    """The 8- and 24-dim sl2 chain representations (trivial and adjoint
    coefficients)."""
    g = sl2_chain_float.algebra
    return [FlatRep(sl2_chain_float), FlatRep(chain_rep(g, adjoint_rep(g, mode=FLOAT)))]


def test_taylor_exponential_agrees_with_expm(sl2_flats, sl2_basis_float):
    """Every degree block and ad(x), at the Gauss-Legendre values of a slot
    and at their negatives, against scipy's Pade expm to 1e-13 relative to
    max(1, |entry|): on the 24-dim rep exp(t L(h)) reaches e^4, where the
    squarings leave up to 3e-13 absolute (8e-13 when their count came from
    max|a| d)."""
    values, _ = gauss_01(16)
    values = np.concatenate([values, -values])
    for flat in sl2_flats:
        for x in sl2_basis_float + GENERIC_LETTERS:
            tables = [(flat.exp_factors(x, d), flat.action(x, d)) for d in flat.space.degrees]
            for table, a in tables + [(flat.exp_ad_factors(x), flat.ad(x))]:
                got = table.at(values)
                for t, row in zip(values, got):
                    want = scipy.linalg.expm(t * a)
                    assert np.all(np.abs(row - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_taylor_squarings_follow_the_infinity_norm():
    """A diagonal block of 24 entries 0.9 has infinity-norm 0.9 and needs no
    squaring, where max|a| d = 21.6 would ask for six."""
    a = 0.9 * np.eye(24)
    table = linalg.TaylorExp(a)
    assert table.squarings == 0
    values, _ = gauss_01(16)
    for t, row in zip(values, table.at(values)):
        assert np.max(np.abs(row - scipy.linalg.expm(t * a))) <= 1e-13 * np.exp(0.9)


def test_adjoint_tables_cached_per_letter_and_none_for_points(sl2_chain_float, sl2_basis_float):
    """Faces, shuffle factors and prefixes share one adjoint Taylor table per
    letter; a point value (a prefix, a ``PointEvaluator``) caches no table:
    its one-point exponentials are dropped once multiplied out."""
    flat = FlatRep(sl2_chain_float)
    e = sl2_basis_float
    words = [[e[0], e[2]], [e[2], e[0]], [e[0]], [e[2], e[0], e[2]]]
    evs = [WordEvaluator(flat, w) for w in words]
    assert len(flat._ad_cache) == 2 and not flat._exp_cache
    assert all(a is b for a, b in zip(evs[0]._ad, evs[1]._ad[::-1]))
    tables = dict(flat._ad_cache)
    with_prefix = WordEvaluator(flat, [e[1]], prefix=[e[2], GENERIC_LETTERS[0]])
    point = PointEvaluator(flat, prefix=[e[1], GENERIC_LETTERS[1]])
    point.value()
    point.eval(np.zeros((2, 0)), flat.targets(0))
    assert flat._ad_cache == {**tables, tuple(e[1]): with_prefix._ad[0]}
    assert not flat._exp_cache


def _nodes_and_random(k):
    """The order-4 simplex nodes and six seeded random points of the simplex."""
    if k == 0:
        return np.zeros((3, 0))
    random = -np.sort(-np.random.default_rng(k).uniform(0.0, 1.0, (6, k)), axis=1)
    return np.concatenate([simplex_nodes(k, 4)[0], random])


@pytest.mark.parametrize("n_prefix", [0, 1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_word_eval_equals_the_identity_started_reference(sl2_flats, sl2_basis_float, k,
                                                         n_prefix):
    """The tail starts at the last slot's factor (xi_k = x_k), a bare word
    multiplies by no prefix adjoint, and the prefix value starts at its
    first letter's exponential: rho, ad_inv and xi equal the products
    started at the identity bit for bit, signs of zeros included, for
    generic letters and for basis letters (zero coordinates)."""
    e = sl2_basis_float
    prefix = [GENERIC_LETTERS[2], e[1]][:n_prefix]
    points = _nodes_and_random(k)
    for flat in sl2_flats:
        for letters in (GENERIC_LETTERS[:k], [e[2], e[0], e[1]][:k]):
            ev = WordEvaluator(flat, letters, prefix=prefix)
            for degrees in (None, flat.targets(k)):
                assert _same(ev.eval(points, degrees),
                                  identity_started_eval(ev, points, degrees))


@pytest.mark.parametrize("r, s", [(1, 1), (1, 2), (2, 1)])
def test_shuffle_terms_equal_the_identity_started_reference(sl2_flats, sl2_basis_float, r, s):
    """``ProductEvaluator.push`` conjugates the left tangents by the right
    factor's ``ad_inv``: every shuffle term of a bare word times a prefixed
    word equals the reference pushed through the same product, bit for bit."""
    points = _nodes_and_random(r + s)
    for flat in sl2_flats:
        chain = ez_product(WordEvaluator(flat, GENERIC_LETTERS[:r]),
                           WordEvaluator(flat, GENERIC_LETTERS[3 - s:], prefix=[sl2_basis_float[2]]))
        requests = [(ev, points) for _, ev in chain.terms]
        degrees = flat.targets(r + s)
        for (ev, _), data in zip(requests, evaluators.eval_many(requests, degrees)):
            assert _same(data, identity_started_eval(ev, points, degrees))


def test_point_values_build_no_adjoint(flat, sl2_basis_float, monkeypatch):
    """A point value makes one exponential per (prefix letter, degree) and
    never reads ad; a prefixed word forms its prefix's inverse adjoint once,
    on its first evaluation, whatever the number of evaluations."""
    e = sl2_basis_float
    prefix = [e[0], GENERIC_LETTERS[1]]
    counts = {"expm": 0, "ad": 0}
    expm, ad = linalg.expm, FlatRep.ad

    def counted_expm(a, t=1):
        counts["expm"] += 1
        return expm(a, t)

    def counted_ad(self, x):
        counts["ad"] += 1
        return ad(self, x)

    monkeypatch.setattr(linalg, "expm", counted_expm)
    monkeypatch.setattr(FlatRep, "ad", counted_ad)
    PointEvaluator(flat, prefix).value()
    assert counts == {"expm": len(prefix) * len(flat.space.degrees), "ad": 0}
    word = WordEvaluator(flat, [e[2]], prefix=prefix)
    counts.update(expm=0, ad=0)
    for points in (simplex_nodes(1, 4)[0], np.array([[0.3]])):
        word.eval(points)
    assert counts == {"expm": len(prefix), "ad": len(prefix)}


FOUR_LETTERS = GENERIC_LETTERS + [np.array([0.25, -0.35, 0.9])]


def _reparam_bases(flat, e, k):
    """A bare word, a prefixed word and every shuffle term of a product of a
    bare word and a prefixed one, each of dimension k."""
    split = ez_product(WordEvaluator(flat, FOUR_LETTERS[:k // 2]),
                       WordEvaluator(flat, FOUR_LETTERS[k // 2:k], prefix=[e[1]]))
    return [WordEvaluator(flat, FOUR_LETTERS[:k]),
            WordEvaluator(flat, FOUR_LETTERS[:k], prefix=[e[2], e[0]])] + \
        [ev for _, ev in split.terms]


def _cube_points(k):
    """The order-3 Gauss grid of the cube, whose rows tie coordinates, then
    six seeded random points of the cube and six of the simplex."""
    if k == 0:
        return np.zeros((3, 0))
    random = np.random.default_rng(20 + k).uniform(0.0, 1.0, (12, k))
    random[6:] = -np.sort(-random[6:], axis=1)
    return np.concatenate([cube_nodes(k, 3)[0], random])


def _equal(a, b):
    return (a.rho is b.rho and a.ad_inv is b.ad_inv and _bitwise(a.xi, b.xi))


@pytest.mark.parametrize("k", range(5))
def test_perm_reparam_equals_the_index_reference(flat, sl2_basis_float, k):
    """A permutation as the affine map of its 0/1 matrix lifts and pushes
    exactly as picking and scattering the coordinates by index."""
    points = _cube_points(k)
    for base in _reparam_bases(flat, sl2_basis_float, k):
        for perm in permutations(range(k)):
            ev = PermReparam(base, perm)
            (lifted_base, lifted), = ev.lift(points)
            assert lifted_base is base and np.array_equal(lifted, perm_lift(perm, points))
            data = base.eval(lifted)
            assert _equal(ev.push(points, [data]), perm_push(perm, data))


@pytest.mark.parametrize("k", range(5))
def test_max_collapse_equals_the_running_max_reference(flat, sl2_basis_float, k):
    """The collapse's tangents go to the first maximum of each suffix, as
    the running maximum breaks ties, on grids with tied coordinates."""
    points = _cube_points(k)
    assert k < 2 or any(len(set(row)) < k for row in points.tolist())
    for base in _reparam_bases(flat, sl2_basis_float, k):
        ev = MaxCollapseReparam(base)
        (_, lifted), = ev.lift(points)
        data = base.eval(lifted)
        assert _equal(ev.push(points, [data]), collapse_push(points, data))


@pytest.mark.parametrize("k", range(1, 5))
def test_face_map_equals_the_loop_reference(k):
    for i in range(k + 1):
        mat, off = face_map(k, i)
        ref_mat, ref_off = loop_face_map(k, i)
        assert np.array_equal(mat, ref_mat) and np.array_equal(off, ref_off)


@pytest.mark.parametrize("k", range(5))
def test_alternation_lists_the_signed_permutations_in_order(flat, k):
    base = WordEvaluator(flat, FOUR_LETTERS[:k], domain="cube")
    chain = alternation(base, "simplex")
    perms = list(permutations(range(k)))
    assert len(chain.terms) == factorial(k) and chain.k == k
    assert [ev.perm for _, ev in chain.terms] == perms
    assert [sign for sign, _ in chain.terms] == \
        [round(np.linalg.det(np.eye(k)[list(p)])) for p in perms]
    assert all(ev.base is base and ev.domain == "simplex" for _, ev in chain.terms)
    assert all(ev.domain == "cube" for _, ev in alternation(base).terms)


def test_ad_and_inverse_are_inverse(flat, sl2_basis_float):
    e = sl2_basis_float
    ev = WordEvaluator(flat, [e[0], e[2], e[1]])
    pts = np.array([[0.9, 0.5, 0.1], [0.4, 0.3, 0.2]])
    data = ev.eval(pts)
    g = flat.algebra
    for t, ad_inv in zip(pts, data.ad_inv):
        ad = np.eye(3)
        for tj, x in zip(t, ev.letters):
            ad = ad.dot(scipy.linalg.expm(tj * g.ad(x)))
        assert np.max(np.abs(ad.dot(ad_inv) - np.eye(3))) < 1e-12


def test_affine_reparam_chain_rule(flat, sl2_basis_float):
    e = sl2_basis_float
    base = WordEvaluator(flat, [e[0], e[2]])
    mat = np.array([[0.5, 0.2], [0.1, 0.6]])
    off = np.array([0.2, 0.05])
    ev = AffineReparam(base, mat, off)
    assert _fd_tangent_residual(flat, ev, [0.3, 0.4]) < 1e-7


def test_perm_reparam_involution_and_identity(flat, sl2_basis_float):
    e = sl2_basis_float
    base = WordEvaluator(flat, [e[0], e[2]], domain="cube")
    ident = PermReparam(base, (0, 1))
    pts = np.array([[0.3, 0.8]])
    assert np.array_equal(ident.eval(pts).rho.entries, base.eval(pts).rho.entries)
    assert np.array_equal(ident.eval(pts).xi, base.eval(pts).xi)
    twice = PermReparam(PermReparam(base, (1, 0)), (1, 0))
    assert np.array_equal(twice.eval(pts).rho.entries, base.eval(pts).rho.entries)
    assert np.array_equal(twice.eval(pts).xi, base.eval(pts).xi)
    assert _fd_tangent_residual(flat, PermReparam(base, (1, 0)), [0.3, 0.8]) < 1e-7


def test_product_evaluator_value_and_frame(flat, sl2_basis_float):
    e = sl2_basis_float
    left = WordEvaluator(flat, [e[0]])
    right = WordEvaluator(flat, [e[2], e[1]])
    ev = ProductEvaluator(left, right, (1,))       # left factor reads slot 1
    pts = np.array([[0.7, 0.5, 0.3]])
    lp = total_of(flat, left.eval(np.array([[0.5]])).rho[0], 0)
    rp = total_of(flat, right.eval(np.array([[0.7, 0.3]])).rho[0], 0)
    assert np.allclose(total_of(flat, ev.eval(pts).rho[0], 0), lp.dot(rp))
    assert _fd_tangent_residual(flat, ev, [0.7, 0.5, 0.3]) < 1e-7


def test_max_collapse_identity_on_ordered_points(flat, sl2_basis_float):
    e = sl2_basis_float
    base = WordEvaluator(flat, [e[0], e[2]])
    collapsed = MaxCollapseReparam(base)
    pts = np.array([[0.8, 0.3]])                   # already decreasing
    assert np.array_equal(collapsed.eval(pts).rho.entries, base.eval(pts).rho.entries)
    assert np.array_equal(collapsed.eval(pts).xi, base.eval(pts).xi)
    off = np.array([[0.2, 0.7]])                   # unordered: lands on the diagonal
    y = collapsed.eval(off)
    assert np.allclose(y.rho.entries, base.eval(np.array([[0.7, 0.7]])).rho.entries)


def test_collapse_composites_are_thin(flat, sl2_basis_float):
    e = sl2_basis_float
    base = WordEvaluator(flat, [e[0], e[1]])
    collapsed = MaxCollapseReparam(base)
    assert not thinness_check(base)
    # thin as a simplex: the collapse of permuted coordinates lands on the
    # diagonal whenever the input is already ordered
    swapped = PermReparam(collapsed, (1, 0))
    assert thinness_check(swapped, samples=interior_points(2, "simplex"))


def test_thinness_examples(flat, sl2_basis_float):
    e = sl2_basis_float
    ab = abelian(3)
    ab_rep = chain_rep(ab, trivial_lie_rep(ab, mode=FLOAT))
    ab_flat = FlatRep(ab_rep)
    x = ab.basis_vector(0, FLOAT)
    assert thinness_check(WordEvaluator(ab_flat, [x, x]))
    assert not thinness_check(WordEvaluator(flat, [e[0], e[1]]))
    assert not thinness_check(WordEvaluator(flat, [e[0]]))
    assert thinness_check(WordEvaluator(flat, [0.0 * e[0]]))


def test_face_maps_recover_word_faces(flat, sl2_basis_float):
    e = sl2_basis_float
    word = WordEvaluator(flat, [e[0], e[2]])
    s = np.array([[0.45]])
    mat0, off0 = face_map(2, 0)
    top = AffineReparam(word, mat0, off0)
    translated = WordEvaluator(flat, [e[2]], prefix=[e[0]])
    assert np.allclose(top.eval(s).rho.entries, translated.eval(s).rho.entries)
    mat2, off2 = face_map(2, 2)
    bottom = AffineReparam(word, mat2, off2)
    sub = WordEvaluator(flat, [e[0]])
    assert np.allclose(bottom.eval(s).rho.entries, sub.eval(s).rho.entries)
    mat1, off1 = face_map(2, 1)
    merged = AffineReparam(word, mat1, off1)
    both = total_of(flat, WordEvaluator(flat, [e[0]]).eval(s).rho[0], 0).dot(
        total_of(flat, WordEvaluator(flat, [e[2]]).eval(s).rho[0], 0))
    assert np.allclose(total_of(flat, merged.eval(s).rho[0], 0), both)


def test_boundary_of_boundary_cancels_pointwise(flat, sl2_basis_float):
    e = sl2_basis_float
    word = WordEvaluator(flat, [e[0], e[2], e[1]])
    first = boundary(word)
    pts = interior_points(1)
    total = None
    for c1, face in first.terms:
        for c2, edge in boundary(face).terms:
            dens = density_at(flat, edge, pts).entries
            piece = c1 * c2 * dens
            total = piece if total is None else total + piece
    assert np.max(np.abs(total)) < 1e-12


def test_shuffle_count_and_signs():
    for r, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
        pairs = shuffles(r, s)
        assert len(pairs) == comb(r + s, r)
        assert sum(sign for _, sign in shuffles(1, 1)) == 0


def test_ez_product_term_count(flat, sl2_basis_float):
    e = sl2_basis_float
    a = WordEvaluator(flat, [e[0]])
    b = WordEvaluator(flat, [e[2], e[1]])
    chain = ez_product(a, b)
    assert len(chain.terms) == comb(3, 1)
    assert chain.k == 3


def test_aw_coproduct_word_terms(sl2_basis_float):
    e = sl2_basis_float
    terms = aw_coproduct_word([e[0]])
    assert len(terms) == 2
    front, back, prefix = terms[0]
    assert front == [] and len(back) == 1 and prefix == []
    front, back, prefix = terms[1]
    assert len(front) == 1 and back == [] and len(prefix) == 1


def test_chain_combination_dimension_guard(flat, sl2_basis_float):
    e = sl2_basis_float
    with pytest.raises(ValueError):
        ChainCombination([(1.0, WordEvaluator(flat, [e[0]])),
                          (1.0, WordEvaluator(flat, [e[0], e[1]]))])


def test_point_evaluator_value(flat, sl2_basis_float):
    e = sl2_basis_float
    point = PointEvaluator(flat, prefix=[e[0], e[2]])
    val = flatten_operator(point.value())
    want = scipy.linalg.expm(operator_of(flat, e[0])).dot(
        scipy.linalg.expm(operator_of(flat, e[2])))
    assert np.max(np.abs(val - want)) < 1e-12
    # read off the prefix blocks, the value is the batch evaluation's row
    assert np.array_equal(val, total_of(flat, point.eval(np.zeros((1, 0))).rho[0], 0))


def _kernel_points(k, domain):
    """The order-4 nodes of the simplex or the cube, each row twice, in a
    seeded order."""
    if k == 0:
        return np.zeros((3, 0))
    nodes = (simplex_nodes if domain == "simplex" else cube_nodes)(k, 4)[0]
    return np.concatenate([nodes] * 2)[np.random.default_rng(k).permutation(2 * len(nodes))]


@pytest.mark.parametrize("domain", ["simplex", "cube"])
@pytest.mark.parametrize("n_prefix", [0, 1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_word_eval_equals_the_sorted_tree_reference(sl2_flats, sl2_basis_float, k, n_prefix,
                                                    domain):
    """The first slot's prefixes taken as its values (a bare word's factors
    as they are), the last slot's products per point, the powers built a
    column at a time: rho, ad_inv and xi equal the kernel that sorted every
    slot, started at the identity and took its powers by ``cumprod``, bit
    for bit, on repeated rows, for generic and basis letters.  Without
    ``adjoint`` only the inverse adjoint is left out."""
    e = sl2_basis_float
    prefix = [GENERIC_LETTERS[2], e[1]][:n_prefix]
    points = _kernel_points(k, domain)
    for flat in sl2_flats:
        for letters in (GENERIC_LETTERS[:k], [e[2], e[0], e[1]][:k]):
            ev = WordEvaluator(flat, letters, prefix=prefix)
            for degrees in (None, flat.targets(k)):
                want = sorted_tree_eval(ev, points, degrees)
                assert _same(ev.eval(points, degrees), want)
                assert _same(ev.eval(points, degrees, adjoint=False),
                             PointData(want.rho, None, want.xi))


@pytest.mark.parametrize("r, s", [(0, 2), (1, 1), (1, 2), (2, 1)])
def test_shuffle_terms_equal_the_sorted_tree_reference(sl2_flats, sl2_basis_float, r, s):
    """Every shuffle term of a bare word times a prefixed word, evaluated
    together with its factors alone, equals the sorted-tree kernel pushed
    through the same product bit for bit; the factors alone carry no
    inverse adjoint."""
    for flat in sl2_flats:
        left = WordEvaluator(flat, GENERIC_LETTERS[:r])
        right = WordEvaluator(flat, GENERIC_LETTERS[3 - s:], prefix=[sl2_basis_float[2]])
        for domain in ("simplex", "cube"):
            points = _kernel_points(r + s, domain)
            terms = [(ev, points) for _, ev in ez_product(left, right).terms]
            alone = [(left, _kernel_points(r, domain)), (right, _kernel_points(s, domain))]
            degrees = flat.targets(r + s)
            datas = list(evaluators.eval_many(terms + alone, degrees))
            for (ev, pts), data in zip(terms + alone, datas):
                want = sorted_tree_eval(ev, pts, degrees)
                if isinstance(ev, WordEvaluator):
                    want = PointData(want.rho, None, want.xi)
                assert _same(data, want)


def test_taylor_powers_equal_cumprod(sl2_flats, sl2_basis_float):
    """Powers of t built one column at a time equal ``cumprod`` along each
    row, bit for bit, for every table, at Gauss values, their negatives,
    signed zeros, repeated values and one point."""
    values, _ = gauss_01(16)
    t = np.concatenate([values, -values, [0.0, -0.0, 1.0, 1.0, -1.0]])
    for flat in sl2_flats:
        for x in sl2_basis_float + GENERIC_LETTERS:
            for table in [flat.exp_factors(x, d) for d in flat.space.degrees] + \
                    [flat.exp_ad_factors(x)]:
                for points in (t, t[:1]):
                    assert _bitwise(table.at(points), cumprod_at(table, points))


def test_slot_one_adjoint_only_where_a_product_reads_it(flat, monkeypatch):
    """Slot 1's adjoint table is read (``TaylorExp.at``) by no request
    without a product (the word, a permutation, a collapse, its faces, its
    quadrature), once by the one evaluation that serves product requests,
    and once by a direct evaluation; the inverse adjoints formed equal the
    sorted-tree reference bit for bit."""
    reads = []
    taylor_at = linalg.TaylorExp.at

    def counted(self, t):
        reads.append(self)
        return taylor_at(self, t)

    monkeypatch.setattr(linalg.TaylorExp, "at", counted)
    word = WordEvaluator(flat, GENERIC_LETTERS)
    nodes, cube = simplex_nodes(3, 4)[0], cube_nodes(3, 3)[0]
    requests = [(word, nodes), (PermReparam(word, (2, 0, 1)), cube),
                (MaxCollapseReparam(word), cube)]
    for data in evaluators.eval_many(requests, flat.targets(3)):
        assert data.ad_inv is None
    list(evaluators.eval_many([(ev, simplex_nodes(2, 4)[0]) for _, ev in boundary(word).terms]))
    integrate.integrate_quadrature(flat, word, 4)
    assert word._ad[0] not in reads and reads.count(word._ad[1]) == 3
    left, right = WordEvaluator(flat, GENERIC_LETTERS[:2]), WordEvaluator(flat, GENERIC_LETTERS[2:])
    terms = [(ev, nodes) for _, ev in ez_product(left, right).terms]
    reads.clear()
    datas = list(evaluators.eval_many(terms + [(left, simplex_nodes(2, 4)[0])]))
    assert reads.count(left._ad[0]) == 1
    for (ev, points), data in zip(terms, datas):
        assert _bitwise(data.ad_inv, sorted_tree_eval(ev, points).ad_inv)
    assert datas[-1].ad_inv is None
    reads.clear()
    assert _bitwise(word.eval(nodes).ad_inv, sorted_tree_eval(word, nodes).ad_inv)
    assert reads.count(word._ad[0]) == 1
