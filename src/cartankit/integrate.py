"""Integration of representation forms over simplices and cubes.

The degree-k component of the representation form attached to a
representation evaluates, at a word point, to the operator value of the
group element composed with one degree-(-1) action per left-translated
tangent.  Integrating that density over the parameter domain gives the
chain-level module structure; this module provides three independent
routes to those integrals (nested Gauss-Legendre quadrature, the
explicit coefficient series for words, and terminating polynomial
integration in exact mode, a polynomial in t being one operator stacked
over its coefficients) together with the law checks built on them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import factorial, isfinite

import numpy as np

from . import linalg
from .evaluators import (Blocks, ChainCombination, Evaluator, FlatRep,
                         PointEvaluator, WordEvaluator, as_points, boundary, eval_many,
                         ez_product, interior_points, perm_sign)
from .graded import (MINUS_UNIT, UNIT, GradedOperator, combination, compose,
                     graded_commutator, label_combination, product_sum, relabel)
from .linalg import EXACT, FLOAT
from .reps import CartanRep

DEFAULT_ORDER = 16
DEFAULT_SERIES_TOL = 1e-14
DEFAULT_SERIES_CAP = 60
# the most points one batched evaluation takes, and the most Gauss-Legendre
# nodes one quadrature may take (order ** letters); the committed problems
# and tests need at most 20 ** 3
MAX_QUADRATURE_NODES = 100_000


class ConvergenceError(RuntimeError):
    """A float series unconverged at its degree cap, or a non-finite float
    series, integral or density."""


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def gauss_01(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=32)
def _rule(k: int, order: int, simplex: bool):
    """Tensor Gauss-Legendre rule on the cube, or nested on the simplex;
    cached, so its arrays are read-only."""
    x, w = gauss_01(order)
    idx = np.stack(np.meshgrid(*([np.arange(order)] * k), indexing="ij"),
                   axis=-1).reshape(-1, k)
    t, weights = x[idx], np.prod(w[idx], axis=1)
    if simplex:
        t = np.cumprod(t, axis=1)
        if k > 1:
            weights = weights * np.prod(t[:, :-1], axis=1)
    t.flags.writeable = weights.flags.writeable = False
    return t, weights


def simplex_nodes(k: int, order: int):
    """Nested rule on 1 >= t_1 >= ... >= t_k >= 0: t_j = u_j t_{j-1}."""
    return _rule(k, order, True)


def cube_nodes(k: int, order: int):
    return _rule(k, order, False)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def density_batch(flat: FlatRep, data) -> Blocks:
    """rho(t) o B(xi_1) o ... o B(xi_k) at every point of a batch, one block
    per source degree q whose target q - k holds rho in ``data``: rho at
    q - k, then the B blocks (q-j <- q-j+1) from j = k down to 1."""
    k = data.xi.shape[1]
    out = {}
    for t, block in data.rho.blocks.items():
        if flat.space.dim(t + k):
            for j in range(k):
                bs = flat.B[t + j + 1]
                b = (data.xi[:, j, :] @ bs.reshape(len(bs), -1)).reshape(len(data.xi), *bs.shape[1:])
                block = np.matmul(block, b)
            out[t + k] = block
    return Blocks(out, data.xi.shape[0])


def densities(flat: FlatRep, requests, targets=None):
    """Yield the pullback densities of (evaluator, points) requests of one
    dimension k, through ``eval_many`` in batches of at most
    ``MAX_QUADRATURE_NODES`` points; a larger request is a batch of its own.
    Only the blocks whose target degree is in ``targets`` are formed, every
    block (``FlatRep.targets``) by default."""
    ks = {ev.k for ev, _ in requests}
    if len(ks) > 1:
        raise ValueError("all requests must share one dimension")
    batches, size = [[]], 0
    for ev, points in requests:
        points = as_points(points, ev.k)
        if batches[-1] and size + len(points) > MAX_QUADRATURE_NODES:
            batches.append([])
            size = 0
        batches[-1].append((ev, points))
        size += len(points)
    if targets is None:
        targets = flat.targets(ks.pop()) if ks else ()
    for batch in batches:
        for data in eval_many(batch, targets):
            yield density_batch(flat, data)


def density_at(flat: FlatRep, ev: Evaluator, points) -> Blocks:
    """Pullback density of an evaluator at a batch of points."""
    return next(densities(flat, [(ev, points)]))


def finite(values, what: str = "quadrature integral") -> list:
    """The arrays of the iterable ``values``, drawn with float overflow
    silenced; ``ConvergenceError`` when one of them is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = list(values)
    if not all(np.isfinite(v).all() for v in out):
        raise ConvergenceError(f"{what} is not finite")
    return out


# ---------------------------------------------------------------------------
# the integrals
# ---------------------------------------------------------------------------

def integrals(flat: FlatRep, evs, order: int = DEFAULT_ORDER) -> list:
    """Block entries of the iterated Gauss-Legendre integral of each
    evaluator's pullback density over the evaluator's own domain, as
    ``GradedOperator.from_block_entries`` reads them.  The evaluators share
    one dimension and are evaluated together (``densities``)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    rules = [(np.zeros((1, 0)), None) if ev.k == 0 else
             (simplex_nodes if ev.domain == "simplex" else cube_nodes)(ev.k, order)
             for ev in evs]
    dens = densities(flat, [(ev, nodes) for ev, (nodes, _) in zip(evs, rules)])
    return finite(d[0] if weights is None else weights @ d.entries
                  for d, (_, weights) in zip(dens, rules))


def integrate_quadrature(flat: FlatRep, ev: Evaluator, order: int = DEFAULT_ORDER) -> GradedOperator:
    """Iterated Gauss-Legendre integral of the pullback density."""
    return GradedOperator.from_block_entries(flat.space, flat.space, -ev.k,
                                             integrals(flat, [ev], order)[0], FLOAT)


def integrate_chain(flat: FlatRep, chain: ChainCombination, order: int = DEFAULT_ORDER) -> GradedOperator:
    """The signed sum of the terms' integrals, all terms in one batched
    evaluation."""
    if not chain.terms:
        raise ValueError("cannot integrate an empty chain")
    pieces = integrals(flat, [ev for _, ev in chain.terms], order)
    out = None
    for (coef, _), entries in zip(chain.terms, pieces):
        piece = float(coef) * entries
        out = piece if out is None else out + piece
    return GradedOperator.from_block_entries(flat.space, flat.space, -chain.k, out, FLOAT)


def compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=256)
def _layer_terms(layer: int, k: int):
    """The (j_1, ..., j_k) with sum ``layer`` as the rows of an int array,
    and their float series coefficients; cached, so read-only."""
    js = np.array(list(compositions(layer, k)), dtype=int).reshape(-1, k)
    coefs = np.array([series_coefficient(j, False) for j in js.tolist()])
    js.flags.writeable = coefs.flags.writeable = False
    return js, coefs


def series_coefficient(js, exact: bool):
    """1 / (j_1! ... j_k! (j_k+1)(j_k+j_{k-1}+2) ... (j_k+...+j_1+k))."""
    denom = 1
    for j in js:
        denom *= factorial(j)
    suffix = 0
    for l, j in enumerate(reversed(js), start=1):
        suffix += j
        denom *= suffix + l
    return Fraction(1, denom) if exact else 1.0 / denom


@lru_cache(maxsize=256)
def _exact_coefficients(sizes):
    """The exact series coefficients of every (j_1, ..., j_k) with
    j_i < sizes[i], as the 1 x q x sizes[0] ``product_sum`` array of the
    last product, label (j_k, ..., j_2) of the q = sizes[1] ... sizes[k-1]
    in lexicographic order and then j_1; cached and read-only."""
    out = np.array([series_coefficient(js[::-1], True)
                    for js in iter_product(*map(range, reversed(sizes)))],
                   dtype=object).reshape(1, -1, sizes[0])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _keep(q, p):
    """The ``product_sum`` array that keeps each of the q p product labels."""
    out = np.eye(q * p, dtype=int).reshape(q * p, q, p)
    out.flags.writeable = False
    return out


def integrate_series(rep, letters, max_degree: int = DEFAULT_SERIES_CAP) -> GradedOperator:
    """Sum of B_1 A_1^{j_1} ... B_k A_k^{j_k} with the simplex moment
    coefficients.  Float mode reads the letters' blocks off ``rep.flat``
    (``FlatRep.action``, ``contraction``) and sums layer by layer to a
    tolerance.  Exact mode reads each letter's power stack of B_i A_i^j up
    to its last nonzero power (``reps.Letter.powers``), so it terminates
    exactly on nilpotent inputs.  It composes the stacks from the right,
    each product one ``product_sum`` holding every product under the label
    (j_k, ..., j_i), k - 1 of them whatever the powers, the last one
    applying the coefficients (``label_combination`` for k = 1)."""
    k = len(letters)
    if k == 0:
        return GradedOperator.identity(rep.complex.space, rep.mode)
    if rep.mode == FLOAT:
        return _float_series(rep.flat, letters, max_degree)
    stacks = [rep.letter(x).powers for x in letters]
    coefficients = _exact_coefficients(tuple(size for _, size in stacks))
    out, labels = stacks[-1]
    if k == 1:
        return label_combination(coefficients.ravel(), out)
    for op, size in reversed(stacks[1:-1]):
        out = product_sum([(_keep(labels, size), op, out)])
        labels *= size
    return product_sum([(coefficients, stacks[0][0], out)])


def _float_series(flat, letters, max_degree):
    """The float series on the degree blocks of ``flat``.  The block from
    source degree q walks the chain q -> q - 1 -> ... -> q - k, letter i
    acting from degree q - k + 1 + i, and each layer sums all its terms in
    one batched product; a letter or a sum past the float range stops it
    with its own ``ConvergenceError``, apart from an unconverged one."""
    space, k = flat.space, len(letters)
    with np.errstate(over="ignore", invalid="ignore"):
        chains = {q: [(flat.action(x, s), flat.contraction(x, s))
                      for x, s in zip(letters, range(q - k + 1, q + 1))]
                  for q in space.degrees if space.dim(q - k)}
        # powers[q][i][j] = B_i A_i^j on the chain of q, filled one power per layer
        powers = {q: [np.zeros((max_degree + 1,) + b.shape) for _, b in chain]
                  for q, chain in chains.items()}
        # block entries, blocks by source degree: the running sum, and a layer's
        # sum, which each block's product writes in place through its view
        shapes = [(space.dim(q - k), space.dim(q)) for q in chains]
        stops = np.cumsum([0] + [r * c for r, c in shapes])
        acc, layer_sum = np.zeros((2, stops[-1]))
        views = [layer_sum[a:b].reshape(shape) for a, b, shape in zip(stops, stops[1:], shapes)]
        for layer in range(0, max_degree + 1):
            js, coefs = _layer_terms(layer, k)
            for (q, chain), view in zip(chains.items(), views):
                for (a, b), ps in zip(chain, powers[q]):
                    ps[layer] = ps[layer - 1].dot(a) if layer else b
                term = powers[q][0][js[:, 0]]
                for i in range(1, k):
                    term = np.matmul(term, powers[q][i][js[:, i]])
                np.einsum("c,cab->ab", coefs, term, out=view)
            acc += layer_sum
            if not isfinite(total := linalg.max_abs(acc)):
                raise ConvergenceError("float series is not finite")
            if layer >= 1 and linalg.max_abs(layer_sum) < DEFAULT_SERIES_TOL * (1.0 + total):
                return GradedOperator.from_block_entries(space, space, -k, acc, FLOAT)
    raise ConvergenceError(f"series did not converge within total degree {max_degree}")


# ---------------------------------------------------------------------------
# exact polynomial route (nilpotent case)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _cauchy(p: int, q: int, antiderivative: bool):
    """The ``product_sum`` array of a product of polynomials with p and q
    coefficients: product label (j, i) (t^i of the left factor times t^j of
    the right) goes to r = i + j, or with the antiderivative to r = i + j + 1
    with weight 1 / r; cached and read-only."""
    shift = int(antiderivative)
    h = np.zeros((p + q - 1 + shift, q, p), dtype=object)
    for j, i in iter_product(range(q), range(p)):
        h[i + j + shift, j, i] = Fraction(1, i + j + 1) if antiderivative else 1
    h.flags.writeable = False
    return h


def _poly_product(f, g=None, antiderivative=False):
    """The product f(t) g(t) of two exact polynomials in t, each an operator
    stacked over its coefficients (label m holds the coefficient of t^m)
    with their count, g None for the constant 1; with ``antiderivative``,
    s -> its integral from 0 to s.  One ``product_sum`` by the Cauchy
    array, a ``relabel`` for g = 1."""
    (a, p), (b, q) = f, g or (None, 1)
    h = _cauchy(p, q, antiderivative)
    return (relabel(h, a) if b is None else product_sum([(h, a, b)])), len(h)


def _slot_density(rep, slot):
    """A slot of a face as an exact polynomial in t: exp(t A) B(x) for a letter x;
    for a merged pair (x, y), the inner face t_i = t_(i+1), the pullback along
    t -> exp(tx) exp(ty), exp(t L(x)) exp(t L(y)) B(xi(t)) with xi(t) = Ad_{exp(-ty)} x + y,
    whose terms are (-t ad y)^m x / m! (``algebra.ad``) and B(xi) one ``relabel``."""
    x, *rest = slot
    exp = rep.letter(x).exp_stack
    if not rest:
        return compose(exp[0], rep.letter(x).B), exp[1]
    (y,) = rest
    ad, xi = rep.algebra.ad(rep.algebra.vector(list(y))), [rep.algebra.vector(list(x))]
    while (nxt := Fraction(-1, len(xi)) * ad.dot(xi[-1])).any():
        if len(xi) > rep.algebra.n:
            raise linalg.ModeError("exponential series does not terminate in exact mode")
        xi.append(nxt)
    xi[0] = xi[0] + np.asarray(y)
    rho = _poly_product(exp, rep.letter(y).exp_stack)
    return _poly_product(rho, (relabel(xi, rep.B_stack), len(xi)))


def _slot_integral(rep, slots) -> GradedOperator:
    """Exact integral over 1 >= t_1 >= ... >= t_m >= 0 of the product of the
    slots' densities: from the last slot, the antiderivative of its density
    times the inner polynomial, then the value at 1."""
    if rep.mode != EXACT:
        raise linalg.ModeError("polynomial route requires exact mode")
    inner = None
    for slot in reversed(slots):
        inner = _poly_product(_slot_density(rep, slot), inner, antiderivative=True)
    op, count = inner or (GradedOperator.identity(rep.complex.space, EXACT), 1)
    return label_combination((1,) * count, op)


def point_value(rep, prefix) -> GradedOperator:
    """Exact operator value of exp(x_1) ... exp(x_m), a product of the
    letters' cached exponentials; float ones are ``PointEvaluator.value``."""
    if rep.mode != EXACT:
        raise linalg.ModeError("exact point values require exact mode")
    if not prefix:
        return GradedOperator.identity(rep.complex.space, EXACT)
    out = rep.letter(prefix[0]).exp
    for x in prefix[1:]:
        out = compose(out, rep.letter(x).exp)
    return out


def word_integral_polynomial_exact(rep, letters) -> GradedOperator:
    """Exact word integral by iterated polynomial antiderivatives, each
    polynomial in t one stacked operator (``_poly_product``): the slot route,
    one letter per slot.  Independent of the coefficient series."""
    return _slot_integral(rep, [(x,) for x in letters])


def dg_module_exact(rep, letters):
    """Exact Stokes residual || sum_i (-1)^i (face i) - [d, integral] || for
    k >= 1 letters, one ``product_sum``: face 0 (t_1 = 1) is exp(x_1) after
    the integral of the rest, face k (t_k = 0) the integral of the first
    k - 1, inner face i (t_i = t_(i+1)) the slot route with x_i, x_(i+1) merged."""
    if len(letters) == 0:
        raise ValueError("the Stokes law needs a word of length at least 1")
    k, slots, d = len(letters), [(x,) for x in letters], rep.complex.differential
    sign, whole = (UNIT, MINUS_UNIT), integrate_series(rep, letters)
    terms = [(UNIT, point_value(rep, letters[:1]), integrate_series(rep, letters[1:]))]
    terms += [(sign[i % 2], _slot_integral(rep, slots[:i - 1] + [letters[i - 1:i + 1]] +
                                           slots[i + 1:])) for i in range(1, k)]
    terms += [(sign[k % 2], integrate_series(rep, letters[:-1])), (MINUS_UNIT, d, whole),
              (sign[k % 2], whole, d)]
    return product_sum(terms).norm()


# ---------------------------------------------------------------------------
# law checks
# ---------------------------------------------------------------------------

def dg_module_residual(flat: FlatRep, letters, order: int = DEFAULT_ORDER) -> float:
    """|| integral over the boundary - [d, integral] || for a word."""
    ev = WordEvaluator(flat, letters)
    action = integrate_quadrature(flat, ev, order)
    bd = integrate_chain(flat, boundary(ev), order)
    rhs = graded_commutator(flat.rep.complex.differential, action)
    return (bd - rhs).norm()


def multiplicativity_residual(flat: FlatRep, left_letters, right_letters,
                              order: int = DEFAULT_ORDER) -> float:
    """Shuffle product of two words must act as the composition."""
    lev = WordEvaluator(flat, left_letters)
    rev = WordEvaluator(flat, right_letters)
    chain = ez_product(lev, rev)
    lhs = integrate_chain(flat, chain, order)
    rhs = compose(integrate_quadrature(flat, lev, order),
                         integrate_quadrature(flat, rev, order))
    return (lhs - rhs).norm()


def equivariance_residual(flat: FlatRep, letters, prefix) -> float:
    """Density after left translation minus the translated density."""
    k = len(letters)
    pts = interior_points(k)
    d0 = density_at(flat, WordEvaluator(flat, letters), pts).blocks
    d1 = density_at(flat, WordEvaluator(flat, letters, prefix=prefix), pts).blocks
    rho_g = PointEvaluator(flat, prefix=prefix).eval(np.zeros((1, 0)), flat.targets(k)).rho.blocks
    return max((float(np.max(np.abs(d1[q] - np.matmul(rho_g[q - k], d0[q])))) for q in d0),
               default=0.0)


def mu_p_residual(flat: FlatRep, factors, tangents) -> float:
    """Pullback along p-fold multiplication versus the signed sum of
    blockwise products, evaluated on generic tangents of the product.

    ``factors``: list of letter lists (one word per factor).
    ``tangents``: array (k, p, n) of left tangent coordinates.
    """
    tangents = np.asarray(tangents, dtype=float)
    k, p, n = tangents.shape
    base_points = [np.full(len(w), 0.4 + 0.11 * l) for l, w in enumerate(factors)]
    evs = [WordEvaluator(flat, w) for w in factors]
    datas = [ev.eval(np.asarray(pt, dtype=float).reshape(1, -1)) for ev, pt in zip(evs, base_points)]
    rhos = [GradedOperator.from_block_entries(flat.space, flat.space, 0, d.rho[0], FLOAT)
            for d in datas]
    ad_invs = [d.ad_inv[0] for d in datas]
    B = flat.rep.B_stack            # B(x) = label_combination(x, B), the degree -1 action
    beta = [[label_combination(t, B) for t in row] for row in tangents]     # B(tangents[m, l])
    # suffix conjugators: Ad of the inverse of the product of later factors
    conj = [None] * p
    suffix = np.eye(n)
    for l in range(p - 1, -1, -1):
        conj[l] = suffix
        suffix = suffix.dot(ad_invs[l])
    # left side: everything pushed to the product point
    eta = np.einsum("lab,klb->ka", np.stack(conj), tangents)
    lhs = rhos[0]
    for l in range(1, p):
        lhs = compose(lhs, rhos[l])
    for m in range(k):
        lhs = compose(lhs, label_combination(eta[m], B))
    # right side: sum over assignments of tangent slots to factors
    coeffs, terms = [1], [lhs]
    for labels in iter_product(range(p), repeat=k):
        blocks = [[m for m in range(k) if labels[m] == l] for l in range(p)]
        seq = [m for block in blocks for m in block]
        term = None
        for l in range(p):
            piece = rhos[l]
            for m in blocks[l]:
                piece = compose(piece, beta[m][l])
            term = piece if term is None else compose(term, piece)
        coeffs.append(-perm_sign(seq))
        terms.append(term)
    return combination(coeffs, terms).norm()


# ---------------------------------------------------------------------------
# the induced chain module and its differentiation
# ---------------------------------------------------------------------------

class ChainModule:
    """Module over group chains induced by integrating a representation.

    Words act by the coefficient series (``integrate_series``) in either
    mode; a point acts by its group value, ``PointEvaluator.value`` on
    ``rep.flat`` in float mode and ``point_value`` in exact mode."""

    def __init__(self, rep):
        self.rep = rep

    @property
    def complex(self):
        return self.rep.complex

    @property
    def algebra(self):
        return self.rep.algebra

    def act_word(self, letters) -> GradedOperator:
        return integrate_series(self.rep, letters)

    def act_point(self, prefix) -> GradedOperator:
        if self.rep.mode != FLOAT:
            return point_value(self.rep, prefix)
        return PointEvaluator(self.rep.flat, prefix=prefix).value()


def differentiate_module(module, h: float):
    """Recover the infinitesimal operators from a chain module by central
    differences on one-parameter words and points."""
    algebra = module.algebra

    def central(act, i):
        e = algebra.basis_vector(i, FLOAT)
        return (1.0 / (2.0 * h)) * (act([h * e]) - act([-h * e]))

    return CartanRep(algebra, module.complex, *([central(act, i) for i in range(algebra.n)]
                                                for act in (module.act_point, module.act_word)))


def roundtrip_errors(rep, h: float):
    """Max entrywise recovery error of differentiation after integration,
    at steps h and h/2."""
    module = ChainModule(rep)

    def err(step):
        rec = differentiate_module(module, step)
        return max((rec.L_stack - rep.L_stack).norm(), (rec.B_stack - rep.B_stack).norm())

    e1 = err(h)
    e2 = err(h / 2.0)
    return e1, e2, (e1 / e2 if e2 > 0 else float("inf"))
