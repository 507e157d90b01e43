"""Dense total-matrix references for the float block paths, and per-pair
references for the stacked relation families of ``reps``.

A graded space is laid out as the direct sum of its degrees in increasing
order; these helpers build total matrices over that layout from the public
``GradedOperator.block`` and recompute operator values with
``scipy.linalg.expm``, independently of the evaluators' Taylor blocks.
``pairwise_cartan_residuals`` and ``pairwise_lie_residuals`` check the
relations one pair of generators at a time with ``graded_commutator``.
The ``per_generator_*`` helpers build the stacked constructions of ``ce``
and ``reps`` one generator at a time, and ``loop_exterior`` builds the
wedge and contraction of ``ce.exterior`` one subset at a time.
``loop_series`` sums the exact coefficient series one term at a time.
``MatPoly`` multiplies exact polynomials in t one pair of coefficients at
a time, the reference for the stacked polynomials of ``integrate``
(``pairwise_word_integral``, ``pairwise_merged_pair``).  ``ad_operator``
is ad_x as a graded operator on the algebra, and ``apply`` applies an
operator to coefficient vectors block by block.
``on_labels`` is 1_K ox f as a tensor product with the identity of the
labels, and ``composed_product_sum`` computes ``graded.product_sum`` from
it one operator at a time (``compose``, then ``unstack``, ``combination``
and ``stack`` for each relabelling, and one ``combination`` of the terms);
``tensor_intertwiner_system`` builds the hom-space equations of
``graded.hom_system`` through dual and tensor operators.
``tensordot_jacobi`` contracts the ``Fraction`` structure constants as
object arrays.  ``exp_operator`` exponentiates any degree-0 operator, in
either mode.  ``operator_from_blocks`` (a dict of dense blocks) and
``operator_from_entries`` ((k, row, col, value) tuples) build operators
from the two input formats the package dropped, on the two it keeps.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import scipy.linalg

from cartankit import linalg
from cartankit.ce import boundary, exterior
from cartankit.evaluators import (AffineReparam, MaxCollapseReparam, PermReparam,
                                  ProductEvaluator, WordEvaluator)
from cartankit.graded import (GradedOperator, GradedVectorSpace, combination, compose,
                              dual_operator, dual_space, exp_terms, graded_commutator,
                              label_space, stack, stack_entries, tensor_operator, unstack)
from cartankit.integrate import compositions, series_coefficient
from cartankit.linalg import EXACT, FLOAT, ModeError
from cartankit.reps import CartanReport


def operator_from_entries(source, target, degree, entries, mode):
    """Operator from (k, row, col, value) entries of the blocks k, row and
    col counted within the block: the one-label ``stack_entries``."""
    columns = [list(c) for c in zip(*entries)] or [[]] * 4
    return stack_entries(1, source, target, degree, ([0] * len(entries), *columns), mode)


def operator_from_blocks(source, target, degree, blocks, mode=None):
    """Operator from dense blocks {k: V^k -> W^(k+degree)}, one entry tuple
    per nonzero (``operator_from_entries``).  ``ValueError`` on a block of
    the wrong shape; the mode comes from every block given (so zero exact
    blocks stay exact, and mixed modes raise ``ModeError``), float if none."""
    entries = []
    for k, b in blocks.items():
        b = np.asarray(b)
        if b.shape != (target.dim(k + degree), source.dim(k)):
            raise ValueError(f"block {k}: shape {b.shape}, expected "
                             f"{(target.dim(k + degree), source.dim(k))}")
        if mode is None:
            mode = linalg.mode_of(b)
        elif mode != linalg.mode_of(b):
            raise ModeError("mixed-mode blocks in one operator")
        entries += [(k, r, c, b[r, c]) for r, c in zip(*np.nonzero(b))]
    return operator_from_entries(source, target, degree, entries, mode or FLOAT)


def _starts(space):
    out, pos = {}, 0
    for q in space.degrees:
        out[q] = pos
        pos += space.dim(q)
    return out


def flatten_operator(op):
    """Dense total matrix of a graded operator (``Fraction`` entries in exact mode)."""
    out = linalg.zeros((op.target.total_dim, op.source.total_dim), op.mode)
    rows, cols = _starts(op.target), _starts(op.source)
    for q, b in op.blocks.items():
        r, c = rows[q + op.degree], cols[q]
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
    return out


def apply(op, vec):
    """op on a dict degree -> coefficient vector, block by block; a degree
    that only zero blocks reach is absent from the result."""
    out = {}
    for k, v in vec.items():
        b = op.blocks.get(k)
        if b is not None:
            w = b.dot(np.asarray(v))
            kk = k + op.degree
            out[kk] = w if kk not in out else out[kk] + w
    return out


def phi1(a):
    """Sum a^m/(m+1)!  (the entire function (e^a - 1)/a) of a float matrix."""
    n = a.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    norm = linalg.max_abs(a)
    m = 1
    while True:
        term = term.dot(a) / (m + 1)
        acc = acc + term
        if linalg.max_abs(term) < 1e-18 * (1.0 + linalg.max_abs(acc)) and m > norm:
            return acc
        m += 1
        if m > 200:
            return acc


def exp_operator(op, t=1):
    """Exponential of a degree-0 operator: the sum of ``graded.exp_terms`` in
    exact mode, blockwise ``linalg.expm`` in float mode."""
    if op.mode == EXACT:
        terms = exp_terms(Fraction(t) * op)
        return sum(terms[1:], terms[0])
    blocks = {k: linalg.expm(op.block(k), t) for k in op.source.degrees}
    return operator_from_blocks(op.source, op.source, 0, blocks, mode=op.mode)


def operator_of(flat, x):
    """Total matrix of the degree-0 action of x."""
    return flatten_operator(flat.rep.L_of(np.asarray(x, dtype=float)))


def contraction_of(flat, x):
    """Total matrix of the degree-(-1) action of x."""
    return flatten_operator(flat.rep.B_of(np.asarray(x, dtype=float)))


def total_of(flat, row, degree):
    """Total matrix of one row of ``evaluators.Blocks`` (block entries)."""
    return flatten_operator(GradedOperator.from_block_entries(flat.space, flat.space, degree,
                                                              row, FLOAT))


def dense_rho(flat, ev, t):
    """Total matrix of the operator value of ``ev`` at one point t."""
    t = np.asarray(t, dtype=float)
    if isinstance(ev, WordEvaluator):
        out = np.eye(flat.total_dim)
        for x in ev.prefix:
            out = out.dot(scipy.linalg.expm(operator_of(flat, x)))
        for x, tj in zip(ev.letters, t):
            out = out.dot(scipy.linalg.expm(tj * operator_of(flat, x)))
        return out
    if isinstance(ev, AffineReparam):
        return dense_rho(flat, ev.base, ev.matrix.dot(t) + ev.offset)
    if isinstance(ev, PermReparam):
        return dense_rho(flat, ev.base, t[list(ev.perm)])
    if isinstance(ev, MaxCollapseReparam):
        return dense_rho(flat, ev.base, np.maximum.accumulate(t[::-1])[::-1])
    if isinstance(ev, ProductEvaluator):
        return dense_rho(flat, ev.left, t[list(ev.left_slots)]).dot(
            dense_rho(flat, ev.right, t[list(ev.right_slots)]))
    raise TypeError(f"no dense reference for {type(ev).__name__}")


def dense_density(flat, ev, points):
    """rho(t) B(xi_1) ... B(xi_k) as (P, N, N) total matrices; the tangents
    come from ``ev.eval``."""
    xi = ev.eval(points).xi
    out = []
    for t, frame in zip(points, xi):
        d = dense_rho(flat, ev, t)
        for x in frame:
            d = d.dot(contraction_of(flat, x))
        out.append(d)
    return np.stack(out)


def dense_series(rep, letters, max_degree=60, tol=1e-14):
    """The float coefficient series summed on total matrices, layer by layer."""
    k = len(letters)
    a = [flatten_operator(rep.L_of(x)) for x in letters]
    b = [flatten_operator(rep.B_of(x)) for x in letters]
    powers = []
    for i in range(k):
        ps = [b[i]]
        for _ in range(max_degree):
            ps.append(ps[-1].dot(a[i]))
        powers.append(ps)
    acc = np.zeros_like(b[0])
    for layer in range(max_degree + 1):
        layer_sum = np.zeros_like(acc)
        for js in compositions(layer, k):
            term = powers[0][js[0]]
            for i in range(1, k):
                term = term.dot(powers[i][js[i]])
            layer_sum = layer_sum + series_coefficient(js, False) * term
        acc = acc + layer_sum
        if layer >= 1 and linalg.max_abs(layer_sum) < tol * (1.0 + linalg.max_abs(acc)):
            return acc
    raise RuntimeError("dense series did not converge")


def loop_series(rep, letters):
    """The exact coefficient series one term at a time: each B_i A_i^j up to
    its last nonzero power, then one ``compose`` and one scalar multiple per
    (j_1, ..., j_k), summed layer by layer."""
    k, space = len(letters), rep.complex.space
    powers = []
    for x in letters:
        a, ps = rep.L_of(x), [rep.B_of(x)]
        while (nxt := compose(ps[-1], a)).norm():
            ps.append(nxt)
        powers.append(ps)
    caps = [len(ps) - 1 for ps in powers]
    acc = zero = GradedOperator.zero(space, space, -k, EXACT)
    for layer in range(0, sum(caps) + 1):
        layer_sum = zero
        for js in compositions(layer, k):
            if all(j <= cap for j, cap in zip(js, caps)):
                term = powers[0][js[0]]
                for i in range(1, k):
                    term = compose(term, powers[i][js[i]])
                layer_sum = layer_sum + series_coefficient(js, True) * term
        acc = acc + layer_sum
    return acc


class MatPoly:
    """Polynomial in one variable whose coefficients are exact operators,
    one ``compose`` per pair of coefficients in a product."""

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    def dot(self, other):
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                ab = compose(a, b)
                out[i + j] = ab if out[i + j] is None else out[i + j] + ab
        return MatPoly(out)

    def antiderivative(self):
        """s -> integral from 0 to s, as a polynomial."""
        return MatPoly([0 * self.coeffs[0]] + [Fraction(1, m + 1) * c
                                               for m, c in enumerate(self.coeffs)])

    def value_at_1(self):
        return sum(self.coeffs[1:], self.coeffs[0])


def exp_poly(rep, x):
    """exp(t L(x)) as a ``MatPoly``: the terms of ``graded.exp_terms``."""
    return MatPoly(exp_terms(rep.L_of(x)))


def pairwise_word_integral(rep, letters):
    """``integrate.word_integral_polynomial_exact`` on ``MatPoly``: from the
    last letter, the antiderivative of exp(t A) B times the inner polynomial."""
    inner = None
    for x in reversed(letters):
        factor = exp_poly(rep, x).dot(MatPoly([rep.B_of(x)]))
        inner = (factor if inner is None else factor.dot(inner)).antiderivative()
    return inner.value_at_1()


def pairwise_merged_pair(rep, x, y):
    """``integrate.merged_pair_integral_exact`` on ``MatPoly``, xi(s) from the
    exponential of the operator -ad y applied to x."""
    algebra = rep.algebra
    rho = exp_poly(rep, x).dot(exp_poly(rep, y))
    ad_neg_y = exp_terms(Fraction(-1) * ad_operator(algebra, algebra.vector(list(y))))
    xi = [apply(c, {0: np.asarray(x)})[0] for c in ad_neg_y]
    xi[0] = xi[0] + np.asarray(y)
    return rho.dot(MatPoly([rep.B_of(v) for v in xi])).antiderivative().value_at_1()


def on_labels(n, op):
    """1_K ox op, K = label_space(n) the labels of ``stack``."""
    return tensor_operator(GradedOperator.identity(label_space(n), op.mode), op)


def stacked_relabel(h, op):
    """(h ox 1_W) op for op stacked over n labels and an m x n scalar matrix
    h (a 3-d one read as m x (q p)), one label at a time: ``unstack`` op,
    one ``combination`` of its blocks per row of h, and ``stack`` them."""
    h = np.asarray(h)
    rows = h.reshape(len(h), -1).tolist()
    blocks = unstack(op, len(rows[0]))
    return stack([combination(row, blocks) for row in rows])


def composed_product_sum(terms):
    """``graded.product_sum`` one operator at a time: each product
    (1_K ox f) g a ``compose`` with ``on_labels``, each term a
    ``stacked_relabel``, and one ``combination`` of the terms."""
    ops = []
    for h, f, *g in terms:
        h = np.asarray(h)
        op = compose(on_labels(h.shape[1], f), g[0]) if g else f
        ops.append(stacked_relabel(h, op))
    return combination((1,) * len(ops), ops)


def tensor_intertwiner_system(source, target, pairs, mode, n):
    """Matrix of phi A = A' phi, one pair (A, A') after another, in the entries
    of phi: sparse rows and their count of unknowns (exact), or a dense array
    and None (float).  A degree-0 phi: V -> W is a degree-0 element of W ox V*,
    where phi A - A' phi is (1 ox A* - A' ox 1) phi, A* the transpose of A with
    its Koszul sign undone; each pair gives the degree-0 block of that operator,
    empty rows included.  A family stacked over the n labels (``stack``) is
    one equation, its rows label by label."""
    dual = dual_space(source)
    id_s, id_t = GradedOperator.identity(dual, mode), GradedOperator.identity(target, mode)
    eqs = []
    for op_s, op_t in pairs:
        odd = op_s.degree % 2
        transpose = dual_operator(op_s, dual, lambda q: -1 if odd and q % 2 else 1, n)
        eqs.append(tensor_operator(id_t, transpose, n) - tensor_operator(op_t, id_s, n))
    if mode == EXACT:
        return [row for eq in eqs for row in eq.rows(0)], eqs[0].source.dim(0)
    return np.concatenate([eq.block(0) for eq in eqs]), None


def _bracket_defect(x, y, coeffs, ops):
    """Max norm of [x, y] - sum_k coeffs[k] ops[k]."""
    return (graded_commutator(x, y) - combination(coeffs, ops)).norm()


def pairwise_cartan_residuals(rep):
    """``cartan_residuals`` one pair of generators at a time."""
    c = rep.algebra.constants(rep.mode)
    n = rep.algebra.n
    r_ll = r_lb = r_bb = r_db = 0.0
    for i in range(n):
        for j in range(n):
            r_ll = max(r_ll, _bracket_defect(rep.L[i], rep.L[j], c[i, j], rep.L))
            r_lb = max(r_lb, _bracket_defect(rep.L[i], rep.B[j], c[i, j], rep.B))
            r_bb = max(r_bb, graded_commutator(rep.B[i], rep.B[j]).norm())
        db = graded_commutator(rep.differential, rep.B[i]) - rep.L[i]
        r_db = max(r_db, db.norm())
    return CartanReport(r_ll, r_lb, r_bb, r_db)


def pairwise_lie_residuals(rep):
    """``LieRep.residuals`` one pair of generators at a time."""
    c = rep.algebra.constants(rep.mode)
    ops = rep.operators
    worst_hom = max(_bracket_defect(ops[i], ops[j], c[i, j], ops)
                    for i in range(len(ops)) for j in range(len(ops)))
    worst_chain = max(graded_commutator(rep.complex.differential, op).norm() for op in ops)
    return {"bracket": worst_hom, "chain_map": worst_chain}


def loop_exterior(n, mode):
    """eps_i and iota_i of ``ce.exterior`` from a loop over the subsets."""
    index = {s: j for m in range(n + 1) for j, s in enumerate(combinations(range(n), m))}
    space = GradedVectorSpace({-m: comb(n, m) for m in range(n + 1)})
    wedges = [[(-len(s), index[tuple(sorted(s + (i,)))], j, (-1) ** sum(t < i for t in s))
               for s, j in index.items() if i not in s] for i in range(n)]
    eps = [operator_from_entries(space, space, -1, w, mode) for w in wedges]
    iota = [operator_from_entries(space, space, 1, [(k - 1, c, r, v) for k, r, c, v in w], mode)
            for w in wedges]
    return eps, iota


def _odd(q):
    return -1 if q % 2 else 1


def per_generator_cartan_operators(cec):
    """L and B of a ``ce.CEComplex`` as lists, one placement per generator."""
    rep = cec.chain_coefficients
    ext = exterior(rep.algebra.n, rep.mode)
    one, one_ext = (GradedOperator.identity(space, rep.mode)
                    for space in (rep.complex.space, ext.space))
    bd = boundary(rep.algebra, rep.mode)
    L = [cec.basis.place(lambda q: -1, (graded_commutator(bd, eps), one),
                         (one_ext, rho)) for eps, rho in zip(ext.eps, rep.operators)]
    B = [cec.basis.place(_odd, (eps, one)) for eps in ext.eps]
    return L, B


def ad_operator(algebra, x):
    """ad_x as a degree-0 operator on the algebra, placed in degree 0."""
    space = GradedVectorSpace({0: algebra.n})
    return operator_from_blocks(space, space, 0, {0: algebra.ad(x)}, mode=linalg.mode_of(x))


def per_generator_adjoint(algebra, mode):
    """ad(e_i) for each generator, one ``ad_operator`` each."""
    return [ad_operator(algebra, algebra.basis_vector(i, mode)) for i in range(algebra.n)]


def per_generator_tensor(a, b):
    """L and B of ``reps.tensor_rep`` as lists, four tensor products per generator."""
    ida = GradedOperator.identity(a.complex.space, a.mode)
    idb = GradedOperator.identity(b.complex.space, b.mode)
    return ([tensor_operator(x, idb) + tensor_operator(ida, y) for x, y in zip(a.L, b.L)],
            [tensor_operator(x, idb) + tensor_operator(ida, y) for x, y in zip(a.B, b.B)])


def per_generator_dual(rep, space):
    """L and B of ``reps.dual_rep`` on the dual ``space``, one transpose per generator."""
    return ([dual_operator(op, space, lambda q: -1) for op in rep.L],
            [dual_operator(op, space, _odd) for op in rep.B])


def tensordot_jacobi(c):
    """Max violation of antisymmetry and the Jacobi identity of the
    ``Fraction`` constants ``c[i, j, k]``, contracted as object arrays."""
    cc = np.tensordot(c, c, axes=([2], [0]))     # sum_m c[i, j, m] c[m, k, l]
    jacobi = cc + cc.transpose(1, 2, 0, 3) + cc.transpose(2, 0, 1, 3)
    antisym = c + c.transpose(1, 0, 2)
    return max(map(abs, np.concatenate([antisym.ravel(), jacobi.ravel()])),
               default=Fraction(0))
