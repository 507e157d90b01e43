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
it one operator at a time (``compose``, then ``unstack``,
``concatenated_combination`` and ``stack`` for each relabelling, and one
``concatenated_combination`` of the terms);
``tensor_intertwiner_system`` builds the hom-space equations of
``graded.hom_system`` through dual and tensor operators.
``tensordot_jacobi`` contracts the ``Fraction`` structure constants as
object arrays.  ``exp_operator`` exponentiates any degree-0 operator, in
either mode, with scipy's Pade routine in float mode.
``operator_from_blocks`` (a dict of dense blocks) and
``operator_from_entries`` ((k, row, col, value) tuples) build operators
from the two input formats the package dropped, on the two it keeps.
``matched_compose``, ``layout_stack`` and ``concatenated_combination`` are
composition, stacking and linear combination by their own entry match,
bound, label layout and concatenation, the references that
``graded.compose``, ``graded.stack`` and ``graded.combination``, all
``product_sum`` terms, must equal bit for bit; ``stepwise_induced_map``
and ``unfused_stokes`` build ``reps.induced_map`` and the residual of
``integrate.dg_module_exact`` from those products and sums one operator at
a time, the references for their one-``product_sum`` forms.  The other
references compose, stack and combine through them too.
``identity_started_eval`` is ``Evaluator.eval`` with every product of a
word evaluator started at the identity and no prefix tree, the reference
that the evaluator's outputs must equal bit for bit.  ``sorted_tree_eval``
is the word evaluation that sorted every slot's prefixes, multiplied a
bare word's first slot by the identity and formed every inverse adjoint;
``cumprod_at`` is ``linalg.TaylorExp.at`` with its powers from ``cumprod``;
``concatenating_series`` is the float series that concatenated each
layer's blocks; ``all_blocks_cochain_values`` is an integration cochain
read off the density of every block: the references for the kernels that
skip that work.  ``loop_face_map``,
``perm_lift``/``perm_push`` and ``collapse_push`` (through the running
maximum of ``running_max_argmax``) are the face matrices, the coordinate
permutation and the cube-to-simplex collapse built index by index, the
references for their affine and vectorized forms in ``evaluators``.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, fsum, lcm

import numpy as np
import scipy.linalg

from cartankit import ce, linalg
from cartankit.ce import boundary, exterior
from cartankit.evaluators import (AffineReparam, Blocks, MaxCollapseReparam, PermReparam,
                                  PointData, ProductEvaluator, WordEvaluator, as_points)
from cartankit.graded import (GradedOperator, GradedVectorSpace, _fit, _stacked_rows,
                              dual_operator, dual_space, exp_terms,
                              graded_commutator, label_space, stack_entries, tensor_operator,
                              tensor_space, unstack)
from cartankit.integrate import (DEFAULT_SERIES_TOL, ConvergenceError, _layer_terms,
                                 _slot_integral, compositions, cube_nodes, densities,
                                 integrate_series, point_value, series_coefficient,
                                 simplex_nodes)
from cartankit.linalg import EXACT, FLOAT, ModeError
from cartankit.reps import _UNIT_ENTRY, CartanReport


def matched_compose(f, g):
    """f after g by its own entry match: each entry of f meets the row of g
    its column selects, each output entry sums its terms by increasing inner
    index, exact numerators in Python ints when max|f| * max|g| * terms per
    entry could leave int64.  The reference that ``graded.compose``, the
    one-product ``product_sum``, must equal bit for bit."""
    if g.target != f.source:
        raise ValueError("compose: target of g differs from source of f")
    if f.mode != g.mode:
        raise ModeError("compose: mixed modes")
    starts = np.searchsorted(g._rows, np.arange(g.target.total_dim + 1))
    counts = starts[f._cols + 1] - starts[f._cols]
    mine = np.repeat(np.arange(len(f._cols)), counts)
    theirs = np.arange(len(mine)) + np.repeat(starts[f._cols] - np.cumsum(counts) + counts, counts)
    rows = int(np.bincount(f._rows).max()) if len(f._rows) else 0     # terms per entry
    bound = f._max * g._max * rows if f.mode == EXACT else 0
    a, b = _fit(bound, f._data[mine], g._data[theirs])
    return GradedOperator(g.source, f.target, f.degree + g.degree, f.mode, f._rows[mine],
                          g._cols[theirs], a * b, f._den * g._den)


def layout_stack(ops):
    """The parallel ops as one operator V -> K ox W laid out label by label,
    exact numerators at their common denominator in Python ints when the
    largest could leave int64.  The reference that ``graded.stack``, the
    ``product_sum`` of its relabel terms, must equal bit for bit."""
    f0 = ops[0]
    for op in ops[1:]:
        if op.source != f0.source or op.target != f0.target or op.degree != f0.degree:
            raise ValueError("stack: operators not parallel")
        if op.mode != f0.mode:
            raise ModeError("stack: mixed modes")
    den = lcm(*(op._den for op in ops))
    bound = max(max(op._max, 1) * (den // op._den) for op in ops) if f0.mode == EXACT else 0
    n = len(ops)
    label = np.repeat(np.arange(n), [len(op._rows) for op in ops])
    rows = _stacked_rows(n, f0.target, label, np.concatenate([op._rows for op in ops]))
    data = [d * (den // op._den) for d, op in zip(_fit(bound, *(op._data for op in ops)), ops)]
    return GradedOperator(f0.source, tensor_space(label_space(n), f0.target), f0.degree,
                          f0.mode, rows, np.concatenate([op._cols for op in ops]),
                          np.concatenate(data), den)


def concatenated_combination(coeffs, ops):
    """sum_k coeffs[k] ops[k] over parallel operators by its own common
    denominator, bound and concatenation: zero terms and empty operators
    dropped, one term with coefficient 1 returned as it is, exact
    numerators in Python ints when sum |c_k| max|op_k| at the common
    denominator could leave int64.  The reference that
    ``graded.combination``, the ``product_sum`` of its relabel terms, must
    equal bit for bit."""
    first = ops[0]
    for op in ops[1:]:
        if op.source != first.source or op.target != first.target or op.degree != first.degree:
            raise ValueError("operators not parallel")
        if op.mode != first.mode:
            raise ModeError("mixed-mode operator arithmetic")
    if first.mode == EXACT and not all(isinstance(c, (int, Fraction)) for c in coeffs):
        raise ModeError("float coefficient on exact operator")
    terms = [(c, op) for c, op in zip(coeffs, ops) if c != 0 and len(op._data)]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    if first.mode == FLOAT:
        den, factors, bound = 1, [float(c) for c, _ in terms], 0
    else:
        den = lcm(*(op._den * c.denominator for c, op in terms))
        factors = [c.numerator * (den // (op._den * c.denominator)) for c, op in terms]
        bound = sum(op._max * abs(k) for k, (_, op) in zip(factors, terms))
    data = _fit(bound, *(op._data for _, op in terms))
    parts = [(op._rows, op._cols, d * k) for k, d, (_, op) in zip(factors, data, terms)]
    if len(parts) != 1:
        empty = np.zeros(0, dtype=int)
        parts = [[np.concatenate(a) for a in zip((empty, empty, first._data[:0]), *parts)]]
    return GradedOperator(first.source, first.target, first.degree, first.mode, *parts[0],
                          den)


def stepwise_induced_map(v_rep, w_rep, phi0):
    """``reps.induced_map`` with each step phi + B_i (phi (R_i ox 1)) made of
    two ``matched_compose`` and one sum."""
    n, mode, space = v_rep.algebra.n, w_rep.mode, v_rep.complex.space
    augmentation = stack_entries(1, ce.exterior(n, mode).space, label_space(1), 0, _UNIT_ENTRY,
                                 mode)
    phi = ce.basis(n, space, "chain").place(None, (augmentation, phi0))
    for b, lower in reversed(list(zip(w_rep.B, ce.first_contractions(n, mode, space)))):
        phi = phi + matched_compose(b, matched_compose(phi, lower))
    return phi


def unfused_stokes(rep, letters):
    """The operator whose norm ``integrate.dg_module_exact`` reports, face by
    face: the faces, their alternating ``concatenated_combination``, and the
    ``graded_commutator`` [d, integral] subtracted."""
    slots = [(x,) for x in letters]
    faces = [matched_compose(point_value(rep, letters[:1]), integrate_series(rep, letters[1:]))]
    faces += [_slot_integral(rep, slots[:i] + [letters[i:i + 2]] + slots[i + 2:])
              for i in range(len(letters) - 1)]
    faces.append(integrate_series(rep, letters[:-1]))
    rhs = graded_commutator(rep.complex.differential, integrate_series(rep, letters))
    return concatenated_combination([(-1) ** i for i in range(len(faces))], faces) - rhs


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
    exact mode, blockwise ``scipy.linalg.expm`` in float mode."""
    if op.mode == EXACT:
        terms = exp_terms(Fraction(t) * op)
        return sum(terms[1:], terms[0])
    blocks = {k: scipy.linalg.expm(float(t) * op.block(k)) for k in op.source.degrees}
    return operator_from_blocks(op.source, op.source, 0, blocks, mode=op.mode)


def operator_of(flat, x):
    """Total matrix of the degree-0 action of x."""
    return flatten_operator(flat.rep.letter(np.asarray(x, dtype=float)).L)


def contraction_of(flat, x):
    """Total matrix of the degree-(-1) action of x."""
    return flatten_operator(flat.rep.letter(np.asarray(x, dtype=float)).B)


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
    if isinstance(ev, PermReparam):
        return dense_rho(flat, ev.base, t[list(ev.perm)])
    if isinstance(ev, AffineReparam):
        return dense_rho(flat, ev.base, ev.matrix.dot(t) + ev.offset)
    if isinstance(ev, MaxCollapseReparam):
        return dense_rho(flat, ev.base, np.maximum.accumulate(t[::-1])[::-1])
    if isinstance(ev, ProductEvaluator):
        return dense_rho(flat, ev.left, t[list(ev.left_slots)]).dot(
            dense_rho(flat, ev.right, t[list(ev.right_slots)]))
    raise TypeError(f"no dense reference for {type(ev).__name__}")


def identity_started_eval(ev, points, degrees=None):
    """``ev.eval(points, degrees)`` with every product of a word evaluator
    started at the identity: the prefix value I exp(x_1) ..., the
    inverse-adjoint tail I exp(-t_k ad x_k) ... exp(-t_1 ad x_1) followed
    by the prefix's I exp(-ad x_1) ..., and each tangent xi_j as I times the
    tail after slot j applied to x_j.  Each slot's factors come from the
    letter's table at every point (no prefix tree).  Other evaluators push
    their bases' reference values."""
    points = as_points(points, ev.k)
    if not isinstance(ev, WordEvaluator):
        return ev.push(points, [identity_started_eval(base, up, degrees)
                                for base, up in ev.lift(points)])
    flat, p, n = ev.flat, len(points), ev.flat.algebra.n
    rho = {}
    for d in flat.space.degrees if degrees is None else degrees:
        r = np.eye(flat.space.dim(d))
        for x in ev.prefix:
            r = r.dot(linalg.expm(flat.action(x, d)))
        r = np.broadcast_to(r, (p,) + r.shape).copy()
        for x, t in zip(ev.letters, points.T):
            r = np.matmul(r, flat.exp_factors(x, d).at(t))
        rho[d] = r
    ad0i = np.eye(n)
    for x in ev.prefix:
        ad0i = linalg.expm(flat.ad(x), -1).dot(ad0i)
    xi = np.zeros((p, ev.k, n))
    tail = np.broadcast_to(np.eye(n), (p, n, n)).copy()
    for j in range(ev.k - 1, -1, -1):
        xi[:, j, :] = np.einsum("pab,b->pa", tail, ev.letters[j])
        tail = np.matmul(tail, flat.exp_ad_factors(ev.letters[j]).at(-points[:, j]))
    ad_inv = np.matmul(tail, np.broadcast_to(ad0i, (p, n, n)))
    return PointData(Blocks(rho, p), ad_inv, xi)


def sorted_tree_eval(ev, points, degrees=None):
    """``ev.eval(points, degrees)`` by the word kernel that sorted the
    prefixes of every slot, the first and the last included, started each
    product at the prefix value (the identity for a bare word), and formed
    the inverse adjoint of every word; other evaluators push their bases'
    values."""
    points = as_points(points, ev.k)
    if not isinstance(ev, WordEvaluator):
        return ev.push(points, [sorted_tree_eval(base, up, degrees)
                                for base, up in ev.lift(points)])
    p, n = points.shape[0], ev.flat.algebra.n
    degrees = ev.flat.space.degrees if degrees is None else degrees
    node = np.zeros(p, dtype=int)
    rho = {d: ev._rho0[d][None] for d in degrees}
    neg_ads = []
    for j, x in enumerate(ev.letters):
        values, which = np.unique(points[:, j], return_inverse=True)
        m = len(values)
        ids, node = np.unique(node * m + which, return_inverse=True)
        for d in degrees:
            factors = cumprod_at(ev.flat.exp_factors(x, d), values)
            rho[d] = np.matmul(rho[d][ids // m], factors[ids % m])
        neg_ads.append(cumprod_at(ev._ad[j], -values)[which])
    rho = Blocks({d: r[node] for d, r in rho.items()}, p)
    xi = np.empty((p, ev.k, n))
    if ev.k:
        xi[:, -1] = ev.letters[-1]
        tail = neg_ads[-1]
    else:
        tail = np.broadcast_to(np.eye(n), (p, n, n)).copy()
    for j in range(ev.k - 2, -1, -1):
        xi[:, j] = np.einsum("pab,b->pa", tail, ev.letters[j])
        tail = np.matmul(tail, neg_ads[j])
    ad_inv = np.matmul(tail, np.broadcast_to(ev._ad0i, (p, n, n))) if ev.prefix else tail
    return PointData(rho, ad_inv, xi)


def cumprod_at(table, t):
    """``table.at(t)`` (a ``linalg.TaylorExp``) with the powers of t from
    one ``cumprod`` along each row."""
    t = np.asarray(t, dtype=float)
    m, d = table.coeffs.shape[:2]
    powers = np.ones((len(t), m))
    powers[:, 1:] = t[:, None]
    np.cumprod(powers, axis=1, out=powers)
    out = np.matmul(powers[:, None, :], table.coeffs.reshape(m, d * d)).reshape(-1, d, d)
    for _ in range(table.squarings):
        out = np.matmul(out, out)
    return out


def concatenating_series(rep, letters, max_degree=60):
    """The float series of ``integrate.integrate_series`` with each layer's
    blocks concatenated into a new array and added to a new running sum."""
    space, k = rep.complex.space, len(letters)
    A, B = [rep.letter(x).L for x in letters], [rep.letter(x).B for x in letters]
    chains = {q: [(A[i].block(s), B[i].block(s)) for i, s in enumerate(range(q - k + 1, q + 1))]
              for q in space.degrees if space.dim(q - k)}
    powers = {q: [np.zeros((max_degree + 1,) + b.shape) for _, b in chain]
              for q, chain in chains.items()}
    acc = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in range(0, max_degree + 1):
            js, coefs = _layer_terms(layer, k)
            parts = [np.zeros(0)]
            for q, chain in chains.items():
                for (a, b), ps in zip(chain, powers[q]):
                    ps[layer] = ps[layer - 1].dot(a) if layer else b
                term = powers[q][0][js[:, 0]]
                for i in range(1, k):
                    term = np.matmul(term, powers[q][i][js[:, i]])
                parts.append(np.einsum("c,cab->ab", coefs, term).ravel())
            layer_sum = np.concatenate(parts)
            acc = acc + layer_sum
            if not np.isfinite(total := linalg.max_abs(acc)):
                raise ConvergenceError("float series is not finite")
            if layer >= 1 and linalg.max_abs(layer_sum) < DEFAULT_SERIES_TOL * (1.0 + total):
                return GradedOperator.from_block_entries(space, space, -k, acc, FLOAT)
    raise ConvergenceError(f"series did not converge within total degree {max_degree}")


def all_blocks_cochain_values(cochain, evs):
    """``cochain.values(evs)`` (an ``IntegrationCochain``) read off the
    density of every block, the entry picked from the block entries."""
    nodes, weights = (simplex_nodes if cochain.kind == "simplicial" else cube_nodes)(
        cochain.k, cochain.order)
    return [fsum(weights * dens.entries[:, cochain.entry])
            for dens in densities(cochain.flat, [(ev, nodes) for ev in evs])]


def loop_face_map(k, i):
    """(matrix, offset) of the i-th face inclusion, built entry by entry."""
    mat = np.zeros((k, k - 1))
    off = np.zeros(k)
    if i == 0:
        off[0] = 1.0
        for j in range(k - 1):
            mat[j + 1, j] = 1.0
    elif i == k:
        for j in range(k - 1):
            mat[j, j] = 1.0
    else:
        for j in range(k - 1):
            mat[j if j < i else j + 1, j] = 1.0
        mat[i, i - 1] = 1.0
    return mat, off


def perm_lift(perm, points):
    """The base points of ``PermReparam(base, perm)``: columns picked by index."""
    return points[:, list(perm)]


def perm_push(perm, data):
    """``PermReparam.push`` by index: tangent j of the base goes to slot perm[j]."""
    xi = np.zeros_like(data.xi)
    for j, pj in enumerate(perm):
        xi[:, pj, :] += data.xi[:, j, :]
    return PointData(data.rho, data.ad_inv, xi)


def running_max_argmax(points):
    """(P, k): the argmax of t_i, ..., t_k for each i by a running maximum
    from the right, ties going to the smallest index."""
    p, k = points.shape
    rev = points[:, ::-1]
    argmax_rev = np.zeros((p, k), dtype=int)
    best = np.full(p, -np.inf)
    best_idx = np.zeros(p, dtype=int)
    for pos in range(k):
        better = rev[:, pos] >= best
        best = np.where(better, rev[:, pos], best)
        best_idx = np.where(better, pos, best_idx)
        argmax_rev[:, pos] = best_idx
    return (k - 1) - argmax_rev[:, ::-1]


def collapse_push(points, data):
    """``MaxCollapseReparam.push`` through ``running_max_argmax``."""
    xi = np.zeros_like(data.xi)
    np.add.at(xi, (np.arange(points.shape[0])[:, None], running_max_argmax(points)), data.xi)
    return PointData(data.rho, data.ad_inv, xi)


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
    a = [flatten_operator(rep.letter(x).L) for x in letters]
    b = [flatten_operator(rep.letter(x).B) for x in letters]
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
        a, ps = rep.letter(x).L, [rep.letter(x).B]
        while (nxt := matched_compose(ps[-1], a)).norm():
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
                    term = matched_compose(term, powers[i][js[i]])
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
                ab = matched_compose(a, b)
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
    return MatPoly(exp_terms(rep.letter(x).L))


def pairwise_word_integral(rep, letters):
    """``integrate.word_integral_polynomial_exact`` on ``MatPoly``: from the
    last letter, the antiderivative of exp(t A) B times the inner polynomial."""
    inner = None
    for x in reversed(letters):
        factor = exp_poly(rep, x).dot(MatPoly([rep.letter(x).B]))
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
    return rho.dot(MatPoly([rep.letter(v).B for v in xi])).antiderivative().value_at_1()


def on_labels(n, op):
    """1_K ox op, K = label_space(n) the labels of ``stack``."""
    return tensor_operator(GradedOperator.identity(label_space(n), op.mode), op)


def stacked_relabel(h, op):
    """(h ox 1_W) op for op stacked over n labels and an m x n scalar matrix
    h (a 3-d one read as m x (q p)), one label at a time: ``unstack`` op,
    one ``concatenated_combination`` of its blocks per row of h, and
    ``layout_stack`` them."""
    h = np.asarray(h)
    rows = h.reshape(len(h), -1).tolist()
    blocks = unstack(op, len(rows[0]))
    return layout_stack([concatenated_combination(row, blocks) for row in rows])


def composed_product_sum(terms):
    """``graded.product_sum`` one operator at a time: each product
    (1_K ox f) g a ``compose`` with ``on_labels``, each term a
    ``stacked_relabel``, and one ``concatenated_combination`` of the terms."""
    ops = []
    for h, f, *g in terms:
        h = np.asarray(h)
        op = matched_compose(on_labels(h.shape[1], f), g[0]) if g else f
        ops.append(stacked_relabel(h, op))
    return concatenated_combination((1,) * len(ops), ops)


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
    return (graded_commutator(x, y) - concatenated_combination(coeffs, ops)).norm()


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
