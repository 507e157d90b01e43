"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 12 compares the front/back coproduct action on a tensor
product with the integrated tensor form.  The coproduct route is a
genuine chain module but is not subdivision invariant, so on the word
simplex itself the two differ at order one, and the test asserts that
gap; under edgewise subdivision the coproduct action converges to the
integrated tensor form at first order, and the test asserts that too
(see the repository root README).  Its differentiated counterpart is
asserted in ``test_criterion_12_companion_differentiated_monoidality``.
"""

import itertools
from math import comb

import numpy as np

from cartankit.ce import ce_chain, ce_cochain, cohomology_dims
from cartankit.cubical import (AlternationCochain, IntegrationCochain,
                               alternating_residual, cube_vs_simplex_residual,
                               subdivision_invariance_residual)
from cartankit.evaluators import (AffineReparam, FlatRep, MaxCollapseReparam,
                                  PermReparam, WordEvaluator, ez_product)
from cartankit.graded import compose, tensor_operator
from cartankit.integrate import (dg_module_exact, dg_module_residual, integrate_chain,
                                 integrate_quadrature, integrate_series,
                                 mu_p_residual, multiplicativity_residual,
                                 point_value, roundtrip_errors,
                                 word_integral_polynomial_exact)
from cartankit.graded import GradedOperator, graded_commutator
from cartankit.lie import abelian, heisenberg3, sl2, su2
from cartankit.linalg import EXACT, FLOAT
from cartankit.reps import (adjoint_rep, adjunction_check, cartan_residuals,
                            chain_rep, cochain_rep, trivial_lie_rep)
from cartankit.suites import cubical_entry
from aw_coproduct import AWTensorModule, aw_monoidality_residual, aw_tensor_residual
from dense_reference import flatten_operator, phi1


def _report(number, description, residual, tolerance):
    ok = residual <= tolerance
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:>2}] {verdict}  residual={residual:.3e}  "
          f"tolerance={tolerance:.1e}  {description}")
    assert ok, f"criterion {number}: {description}: {residual} > {tolerance}"


def _basis(g, mode=EXACT):
    return [g.basis_vector(i, mode) for i in range(g.n)]


def _words_over(letters, max_len):
    for k in range(1, max_len + 1):
        for idx in itertools.product(range(len(letters)), repeat=k):
            yield [letters[i] for i in idx]


def test_criterion_01_cartan_relations_exact_and_float():
    worst_exact = 0.0
    for g in (abelian(3), heisenberg3(), sl2()):
        for coeff in (trivial_lie_rep(g), adjoint_rep(g)):
            for build in (chain_rep, cochain_rep):
                worst_exact = max(worst_exact, cartan_residuals(build(g, coeff)).worst)
    _report(1, "Cartan relations exact on abelian/heisenberg/sl2", worst_exact, 0.0)
    g = su2()
    worst_float = 0.0
    for coeff in (trivial_lie_rep(g, mode=FLOAT), adjoint_rep(g, mode=FLOAT)):
        for build in (chain_rep, cochain_rep):
            worst_float = max(worst_float, cartan_residuals(build(g, coeff)).worst)
    _report(1, "Cartan relations float on su2", worst_float, 1e-12)


def test_criterion_02_one_letter_series_vs_closed_form():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        coords = rng.normal(size=3)
        coords /= np.linalg.norm(coords)
        x = g.vector(list(coords), FLOAT)
        a = flatten_operator(rep.letter(x).L)
        b = flatten_operator(rep.letter(x).B)
        series = flatten_operator(integrate_series(rep, [x]))
        worst = max(worst, float(np.max(np.abs(series - b.dot(phi1(a))))))
    _report(2, "one-letter series equals contraction times phi1 (10 seeds)", worst, 1e-12)


def test_criterion_03_series_vs_quadrature_and_exact_oracle():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    flat = FlatRep(rep)
    worst = 0.0
    for letters in _words_over(_basis(g, FLOAT), 3):
        s = integrate_series(rep, letters)
        q = integrate_quadrature(flat, WordEvaluator(flat, letters), 24)
        worst = max(worst, (s - q).norm())
    _report(3, "series vs order-24 quadrature, all words k <= 3", worst, 1e-9)
    h = heisenberg3()
    hrep = chain_rep(h, trivial_lie_rep(h))
    exact_gap = 0.0
    for letters in _words_over(_basis(h), 3):
        diff = integrate_series(hrep, letters) - word_integral_polynomial_exact(hrep, letters)
        exact_gap = max(exact_gap, diff.norm())
    _report(3, "exact rational equality of the two routes on heisenberg", exact_gap, 0.0)


def test_criterion_04_stokes_dg_module_law():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    flat = FlatRep(rep)
    worst = 0.0
    for letters in _words_over(_basis(g, FLOAT), 3):
        worst = max(worst, dg_module_residual(flat, letters, 16))
    _report(4, "boundary action equals differential commutator, k <= 3", worst, 1e-9)
    h = heisenberg3()
    hrep = chain_rep(h, trivial_lie_rep(h))
    exact_gap = 0.0
    for x in _basis(h) + [h.vector([1, 1, 2])]:
        exact_gap = max(exact_gap, dg_module_exact(hrep, [x]))
        action = integrate_series(hrep, [x])
        lhs = graded_commutator(hrep.complex.differential, action)
        rhs = point_value(hrep, [x]) - GradedOperator.identity(hrep.complex.space, EXACT)
        exact_gap = max(exact_gap, (lhs - rhs).norm())
    for x, y in (( _basis(h)[0], _basis(h)[1]), (_basis(h)[1], _basis(h)[2])):
        exact_gap = max(exact_gap, dg_module_exact(hrep, [x, y]))
    _report(4, "one-letter commutator reproduces group value minus one, exact", exact_gap, 0.0)


def test_criterion_05_shuffle_multiplicativity():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    flat = FlatRep(rep)
    e = _basis(g, FLOAT)
    worst = 0.0
    for r, s in ((1, 1), (1, 2), (2, 1)):
        for li in itertools.product(range(3), repeat=r):
            for ri in itertools.product(range(3), repeat=s):
                worst = max(worst, multiplicativity_residual(
                    flat, [e[i] for i in li], [e[i] for i in ri], 16))
    _report(5, "shuffle product acts as composition, r + s <= 3", worst, 1e-8)
    square_worst = 0.0
    for x in e:
        chain = ez_product(WordEvaluator(flat, [x]), WordEvaluator(flat, [x]))
        square_worst = max(square_worst, integrate_chain(flat, chain, 16).norm())
    _report(5, "square of a one-letter word integrates to zero", square_worst, 1e-10)


def test_criterion_06_roundtrip_differentiation():
    for g in (sl2(), su2()):
        rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
        err, err_half, ratio = roundtrip_errors(rep, 1e-4)
        _report(6, f"differentiation recovers the representation on {g.name}", err, 1e-6)
        _report(6, f"halving the step contracts the error on {g.name}",
                3.5 - min(ratio, 3.5), 0.0)


def test_criterion_07_thin_simplices_act_by_zero():
    ab = abelian(3)
    rep = chain_rep(ab, adjoint_rep(ab, mode=FLOAT))
    flat = FlatRep(rep)
    x = ab.basis_vector(0, FLOAT)
    worst = integrate_quadrature(flat, WordEvaluator(flat, [x, x]), 16).norm()
    _report(7, "repeated-letter abelian word acts by zero", worst, 1e-9)
    g = sl2()
    srep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    sflat = FlatRep(srep)
    e = _basis(g, FLOAT)
    collapse_worst = 0.0
    for letters in ([e[0], e[2]], [e[0], e[1], e[2]]):
        word = WordEvaluator(sflat, letters)
        collapsed = MaxCollapseReparam(word)
        k = len(letters)
        for perm in itertools.permutations(range(k)):
            if perm == tuple(range(k)):
                continue
            composite = PermReparam(collapsed, perm, "simplex")
            val = integrate_quadrature(sflat, composite, 12)
            collapse_worst = max(collapse_worst, val.norm())
    _report(7, "cube-collapse composites of nontrivial permutations act by zero",
            collapse_worst, 1e-9)


def test_criterion_08_multiplication_pullback_products():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    flat = FlatRep(rep)
    e = _basis(g, FLOAT)
    tangents = np.array([
        [[0.7, -0.3, 0.2], [0.1, 0.9, -0.5], [0.4, 0.2, 0.8]],
        [[-0.2, 0.5, 0.6], [0.8, -0.1, 0.3], [0.2, 0.7, -0.4]],
    ])
    worst = max(
        mu_p_residual(flat, [[e[0]], [e[1]]], tangents[:1, :2]),
        mu_p_residual(flat, [[e[0]], [e[2]]], tangents[:2, :2]),
        mu_p_residual(flat, [[e[0]], [e[1]], [e[2]]], tangents[:2, :3]),
    )
    _report(8, "p-fold multiplication pullback identity, (p,k) in {(2,1),(2,2),(3,2)}",
            worst, 1e-9)


def test_criterion_09_ce_cohomology_ranks():
    gaps = []
    got = cohomology_dims(ce_cochain(sl2(), trivial_lie_rep(sl2())).complex)
    gaps.append(0.0 if got == {0: 1, 1: 0, 2: 0, 3: 1} else 1.0)
    for n in (2, 3, 4):
        g = abelian(n)
        got = cohomology_dims(ce_cochain(g, trivial_lie_rep(g)).complex)
        want = {k: comb(n, k) for k in range(n + 1)}
        gaps.append(0.0 if got == want else 1.0)
    _report(9, "betti numbers: sl2 (1,0,0,1), abelian binomials, exact rank",
            max(gaps), 0.0)
    square_worst = 0.0
    for g in (abelian(3), heisenberg3(), sl2()):
        for coeff in (trivial_lie_rep(g), adjoint_rep(g)):
            for build in (ce_cochain, ce_chain):
                d = build(g, coeff).complex.differential
                square_worst = max(square_worst, compose(d, d).norm())
    _report(9, "differentials square to zero exactly everywhere", square_worst, 0.0)


def test_criterion_10_adjunction_dimension_match():
    pairs = [
        (abelian(3), "trivial", "U", "trivial"),
        (heisenberg3(), "trivial", "E", "trivial"),
        (sl2(), "trivial", "U", "trivial"),
        (sl2(), "adjoint", "U", "adjoint"),
        (heisenberg3(), "adjoint", "U", "trivial"),
        (sl2(), "adjoint", "E", "trivial"),
    ]
    worst = 0.0
    for g, v_name, functor, w_name in pairs:
        v_rep = trivial_lie_rep(g) if v_name == "trivial" else adjoint_rep(g)
        w_coeff = trivial_lie_rep(g) if w_name == "trivial" else adjoint_rep(g)
        w_rep = (chain_rep if functor == "U" else cochain_rep)(g, w_coeff)
        res = adjunction_check(v_rep, w_rep)
        worst = max(worst, abs(res.dim_cartan_side - res.dim_lie_side),
                    res.reconstruction_residual)
    _report(10, "restriction bijection dimensions on six fixture pairs", worst, 0.0)


def test_criterion_11_cubical_hypothesis_bundle():
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    flat = FlatRep(rep)
    e = _basis(g, FLOAT)
    alt_worst = 0.0
    sub_worst = 0.0
    for letters in ([e[0]], [e[0], e[2]]):
        k = len(letters)
        theta = WordEvaluator(flat, letters, domain="cube")
        cochain = IntegrationCochain(flat, k, "simplicial", cubical_entry(flat, theta), 16)
        alt = AlternationCochain(cochain)
        alt_worst = max(alt_worst, alternating_residual(alt, theta))
        for axis in range(k):
            for s in (0.15, 0.3, 0.5, 0.7, 0.85):
                sub_worst = max(sub_worst,
                                subdivision_invariance_residual(alt, theta, axis, s))
    _report(11, "antisymmetrized cochains are alternating (exact signs)", alt_worst, 0.0)
    _report(11, "subdivision invariance over a five-point grid, k <= 2", sub_worst, 1e-9)
    tri_worst = 0.0
    for letters in ([e[0]], [e[0], e[2]], [e[2], e[0], e[1]]):
        theta = WordEvaluator(flat, letters, domain="cube")
        order = 16 if len(letters) < 3 else 10
        tri_worst = max(tri_worst, cube_vs_simplex_residual(flat, theta, order))
    _report(11, "cube integral equals signed simplex sum, k <= 3", tri_worst, 1e-9)


def _freudenthal_simplices(k, n):
    """Affine data (matrix, offset, orientation sign) of the n^k simplices
    of the n-fold edgewise subdivision of 1 >= t_1 >= ... >= t_k >= 0.

    Each lies in the unit cube at ``corner / n`` and is the Freudenthal
    simplex of a permutation, kept when it sits inside the big simplex."""
    for corner in itertools.product(range(n), repeat=k):
        for perm in itertools.permutations(range(k)):
            rank = {axis: m for m, axis in enumerate(perm)}
            if all(corner[j] > corner[j + 1]
                   or (corner[j] == corner[j + 1] and rank[j] < rank[j + 1])
                   for j in range(k - 1)):
                mat = np.zeros((k, k))
                for m, axis in enumerate(perm):
                    mat[axis, m] = 1.0
                sign = round(np.linalg.det(mat))
                yield mat / n, np.asarray(corner, dtype=float) / n, sign


def _aw_subdivided(flat_a, flat_b, letters, n, order=6):
    """Front/back coproduct action of the n-fold edgewise subdivision of
    the word simplex: on each small simplex, the integral over its front
    i-face acts on the first factor and the integral over its back face
    on the second, summed over i with the orientation sign."""
    k = len(letters)
    word_a = WordEvaluator(flat_a, letters)
    word_b = WordEvaluator(flat_b, letters)
    eye = np.eye(k)
    out = None
    for mat, offset, sign in _freudenthal_simplices(k, n):
        for i in range(k + 1):
            back_offset = offset + mat.dot(np.r_[np.ones(i), np.zeros(k - i)])
            op_a = integrate_quadrature(
                flat_a, AffineReparam(word_a, mat.dot(eye[:, :i]), offset), order)
            op_b = integrate_quadrature(
                flat_b, AffineReparam(word_b, mat.dot(eye[:, i:]), back_offset), order)
            piece = sign * tensor_operator(op_a, op_b)
            out = piece if out is None else out + piece
    return out


def test_criterion_12_tensor_coproduct_strict_identity():
    """The front/back coproduct action on a tensor product against the
    integrated tensor form.  On the word simplex itself the two differ at
    order one: the coproduct route is a chain module that is not
    subdivision invariant, so integration is multiplicative only up to
    homotopy.  Under N-fold edgewise subdivision the coproduct action
    converges to the integrated tensor form with an error linear in 1/N,
    so the Richardson combination 2 S(N) - S(N/2) leaves a residual that
    falls fourfold per doubling.  See the README for the analysis; the
    differentiated form of the same statement is asserted in the
    companion test below."""
    g = sl2()
    a = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    b = cochain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    flat_a, flat_b = FlatRep(a), FlatRep(b)
    module = AWTensorModule(a, b)
    e = _basis(g, FLOAT)
    gaps = []
    same_route = 0.0
    richardson_8 = 0.0
    worst_ratio = np.inf
    for letters in ([e[0]], [e[1]], [e[0], e[2]], [e[1], e[0]]):
        gaps.append(aw_tensor_residual(a, b, letters))
        direct = integrate_series(module.tensor, letters)
        s = {n: _aw_subdivided(flat_a, flat_b, letters, n) for n in (1, 2, 4, 8)}
        same_route = max(same_route, (s[1] - module.act_word(letters)).norm())
        r = {n: (2.0 * s[n] - s[n // 2] - direct).norm() for n in (4, 8)}
        richardson_8 = max(richardson_8, r[8])
        worst_ratio = min(worst_ratio, r[4] / r[8])
    ok = min(gaps) > 0.1
    print(f"[criterion 12] {'PASS' if ok else 'FAIL'}  residual={max(gaps):.10f}  "
          f"smallest={min(gaps):.3e}  lower bound=1.0e-01  "
          f"strict gap on the unsubdivided simplex, k <= 2")
    assert ok, f"criterion 12: strict gaps {gaps} are not all order one"
    _report(12, "subdivision assembly at N = 1 is the front/back coproduct action",
            same_route, 1e-10)
    _report(12, "Richardson residual of the subdivided coproduct action at N = 8",
            richardson_8, 0.05)
    _report(12, f"Richardson residual falls {worst_ratio:.2f}-fold (>= 3) from N = 4 to 8",
            3.0 - min(worst_ratio, 3.0), 0.0)


def test_criterion_12_companion_differentiated_monoidality():
    g = sl2()
    a = chain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    b = cochain_rep(g, trivial_lie_rep(g, mode=FLOAT))
    residual = aw_monoidality_residual(a, b)
    _report(12, "companion: differentiating the coproduct action recovers the tensor"
               " representation", residual, 1e-8)
