"""Simplex and cube evaluators for group words and their derived chains.

An evaluator represents a smooth map from the standard simplex
{1 >= t_1 >= ... >= t_k >= 0} (or the unit cube) into the group, seen
through a representation: at each parameter point it produces the
operator value of the group element, the inverse adjoint matrix of that
element, and the left-translated partial derivatives.  Word evaluators
realize t -> exp(t_1 x_1) ... exp(t_k x_k); everything else (faces, shuffles,
coordinate permutations, axis splits, the cube-to-simplex collapse) is
built compositionally from them.

The operator value is degree 0, so it is held as its diagonal blocks, one
stack per degree, and ``eval(T, degrees)`` evaluates it only at the
degrees asked for: a degree -k density rho(t) B(xi_1) ... B(xi_k) needs
rho(t) only at the targets q - k of the source degrees q
(``FlatRep.targets``).  Evaluation is batched: ``eval`` takes an array of
points of shape (P, k) and returns stacked arrays.  A word evaluator walks
the prefix tree of its batch: one exponential per distinct coordinate of
each slot and one product per distinct prefix (t_1, ..., t_j), so nested
quadrature nodes, faces, shuffles and cube grids pay for their shared
coordinates once.  The inverse-adjoint tail is per point and starts at the
last letter's factor, not at the identity.  The inverse adjoint is formed
only where it is read: by a direct ``WordEvaluator.eval``, and in
``eval_many`` for the requests that hold a ``ProductEvaluator``, its one
reader.  Every exponential is
the one float exponential ``linalg.TaylorExp``: a table cached per letter
for the slots, its one-point case ``linalg.expm`` for a prefix.  Every
other evaluator is a reparametrization: ``lift`` maps its points to points
of its bases and ``push`` turns the bases' values into its own.  Faces,
coordinate permutations and axis splits are one affine reparametrization
(``AffineReparam``, a permutation by its 0/1 matrix), and a signed sum over
the coordinate permutations is a chain (``alternation``).
``eval_many`` evaluates a whole chain that way, with one
``WordEvaluator.eval`` per word evaluator on all the points that reach it.
Float mode only; exact-mode integration goes through the series and
polynomial routes instead.
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, permutations

import numpy as np

from . import linalg
from .graded import GradedOperator
from .linalg import FLOAT


def as_points(points, k: int) -> np.ndarray:
    """Normalize to shape (P, k); handles the k = 0 corner."""
    arr = np.asarray(points, dtype=float)
    if k == 0:
        p = arr.shape[0] if arr.ndim == 2 else 1
        return np.zeros((p, 0))
    return arr.reshape(-1, k)


class Blocks:
    """A batch of P graded operators of one degree, by blocks: ``blocks[q]``
    is the (P, rows, cols) stack of the blocks with source degree q, in
    increasing q.  Row p, ``self[p]``, lists the block entries of operator p
    (blocks by source degree, each row-major), the vector that
    ``GradedOperator.from_block_entries`` reads; ``entries`` stacks them."""

    def __init__(self, blocks, n_points: int):
        self.blocks = blocks
        self.n_points = n_points

    @property
    def entries(self) -> np.ndarray:
        p = self.n_points
        return np.concatenate([np.zeros((p, 0))] + [b.reshape(p, -1) for b in self.blocks.values()],
                              axis=1)

    def __getitem__(self, p) -> np.ndarray:
        return self.entries[p]


@dataclass
class PointData:
    """Batched evaluator output.  Only the inverse adjoint is carried: it
    conjugates tangents in pointwise products and p-fold multiplication.  A
    direct ``WordEvaluator.eval`` and the ``eval_many`` requests that hold a
    ``ProductEvaluator`` form it; every other request carries None, and a
    point value (``PointEvaluator.value``) builds none."""

    rho: Blocks           # operator values at the evaluated degrees, (P, d, d) each
    ad_inv: np.ndarray    # (P, n, n) inverse adjoint matrices, or None
    xi: np.ndarray        # (P, k, n) left-translated tangents

    def rows(self, start: int, stop: int) -> "PointData":
        return PointData(Blocks({d: b[start:stop] for d, b in self.rho.blocks.items()},
                                stop - start),
                         None if self.ad_inv is None else self.ad_inv[start:stop],
                         self.xi[start:stop])


class FlatRep:
    """The float view ``rep.flat`` of a representation of the Cartan DG Lie
    algebra, read by the float series, the evaluators and the densities:
    the L operators stacked per degree and the B operators per source degree
    as dense blocks, and per letter x one Taylor exponential of each degree
    block of L(x) and one of ad(x), built on first use."""

    def __init__(self, rep):
        if rep.mode != FLOAT:
            raise linalg.ModeError("flat representations are float-mode only")
        self.rep = rep
        self.algebra = rep.algebra
        self.space = rep.complex.space
        self.total_dim = self.space.total_dim
        degrees, n, dim = self.space.degrees, rep.algebra.n, self.space.dim
        # L[d]: (n, dim d, dim d); B[s]: (n, dim(s - 1), dim s), leaving degree s:
        # the degree blocks of the stacks, label by label, empty ones included
        span = range(degrees[0], degrees[-1] + 1)
        self.L = {d: rep.L_stack.block(d).reshape(n, dim(d), dim(d)) for d in span}
        self.B = {s: rep.B_stack.block(s).reshape(n, dim(s - 1), dim(s)) for s in span[1:]}
        self._exp_cache = {}
        self._ad_cache = {}

    def targets(self, k: int):
        """Target degrees q - k of the source degrees q of a degree -k map."""
        return [q - k for q in self.space.degrees if self.space.dim(q - k)]

    def action(self, x, d: int) -> np.ndarray:
        """The degree-d block of L(x)."""
        return np.einsum("i,iab->ab", np.asarray(x, dtype=float), self.L[d])

    def contraction(self, x, s: int) -> np.ndarray:
        """The block of B(x) leaving degree s."""
        return np.einsum("i,iab->ab", np.asarray(x, dtype=float), self.B[s])

    def ad(self, x) -> np.ndarray:
        """ad(x) as a float matrix."""
        return linalg.as_float(self.algebra.ad(self.algebra.vector(list(x), FLOAT)))

    def exp_factors(self, x, d: int):
        """Taylor data for t -> exp(t * action(x)) on degree d, cached per
        letter and degree."""
        key = (tuple(np.asarray(x, dtype=float)), d)
        if key not in self._exp_cache:
            self._exp_cache[key] = linalg.TaylorExp(self.action(x, d))
        return self._exp_cache[key]

    def exp_ad_factors(self, x):
        """Taylor data for t -> exp(t * ad(x)), cached per letter."""
        key = tuple(np.asarray(x, dtype=float))
        if key not in self._ad_cache:
            self._ad_cache[key] = linalg.TaylorExp(self.ad(x))
        return self._ad_cache[key]


class Evaluator:
    """Base class.  ``eval(points, degrees)`` evaluates the operator value at
    the listed degrees, all of them when ``degrees`` is None.  A
    reparametrization fills in ``lift(points)``, the list of (base, base
    points) it reads, and ``push(points, datas)``, its own ``PointData`` from
    the bases' ones; its ``eval`` is the one-request case of ``eval_many``,
    listed in each class so that a tracer can wrap it class by class."""

    k = 0
    domain = "simplex"

    def lift(self, points: np.ndarray):
        raise NotImplementedError

    def push(self, points: np.ndarray, datas) -> PointData:
        raise NotImplementedError

    def eval(self, points: np.ndarray, degrees=None) -> PointData:
        return next(eval_many([(self, points)], degrees))


def eval_many(requests, degrees=None):
    """Yield the ``PointData`` of each (evaluator, points) request.  Every
    request is lifted down to word evaluators; each word evaluator makes one
    ``eval`` on the concatenation of all the points that reach it, and its
    rows are split and pushed back up, one request at a time, as they are
    asked for.  A word forms its inverse adjoint only when a request whose
    tree holds a ``ProductEvaluator`` reaches it, and only such requests
    carry one.  Word rows are bit-identical to evaluating each point alone,
    so each result is bit-identical to evaluating its request alone."""
    chunks = {}                   # word evaluator -> its point arrays, in order
    adjoint = set()               # the word evaluators a product reads
    trees = []
    for ev, points in requests:
        nodes = []
        tree = _lift(ev, points, chunks, nodes)
        reads = any(isinstance(node, ProductEvaluator) for node in nodes)
        adjoint.update(node for node in nodes if reads and isinstance(node, WordEvaluator))
        trees.append((tree, reads))
    rows = {}
    for word, arrays in chunks.items():
        data = word.eval(np.concatenate(arrays), degrees, adjoint=word in adjoint)
        stops = np.cumsum([len(a) for a in arrays]).tolist()
        rows[word] = [data.rows(start, stop) for start, stop in zip([0] + stops, stops)]
    for tree, reads in trees:
        yield _push(tree, rows, reads)


def _lift(ev, points, chunks, nodes):
    """The request's tree down to its word evaluators: a leaf (word, index
    of its point array in ``chunks[word]``), else (ev, points, subtrees);
    ``nodes`` collects its evaluators."""
    points = as_points(points, ev.k)
    nodes.append(ev)
    if isinstance(ev, WordEvaluator):
        chunks.setdefault(ev, []).append(points)
        return ev, len(chunks[ev]) - 1
    return ev, points, [_lift(base, up, chunks, nodes) for base, up in ev.lift(points)]


def _push(tree, rows, reads):
    if len(tree) == 2:
        word, i = tree
        data = rows[word][i]
        return data if reads else PointData(data.rho, None, data.xi)
    ev, points, subtrees = tree
    return ev.push(points, [_push(sub, rows, reads) for sub in subtrees])


class WordEvaluator(Evaluator):
    """t -> prefix * exp(t_1 x_1) ... exp(t_k x_k).

    ``eval`` exponentiates each distinct value of a slot once and forms the
    running product once per distinct prefix (t_1, ..., t_j), at each
    degree asked for (a bare word's first slot takes its factors as they
    are, and no sort: its prefixes are the slot's values, and the last
    slot's products are per point).  The inverse-adjoint tail and the
    tangents stay per point; the tail starts at the last letter's factor
    exp(-t_k ad x_k), so xi_k = x_k.  Slot 1's factor, the tail's last
    product and the prefix's inverse adjoint (formed on first read) serve
    only the inverse adjoint, and are taken only with ``adjoint``.  Every
    output row is bit-identical to evaluating its point alone, and to the
    same products started at the identity.
    """

    def __init__(self, flat: FlatRep, letters, prefix=(), domain="simplex"):
        self.flat = flat
        self.letters = [np.asarray(x, dtype=float) for x in letters]
        self.prefix = [np.asarray(x, dtype=float) for x in prefix]
        self.k = len(self.letters)
        self.domain = domain
        self._ad = [flat.exp_ad_factors(x) for x in self.letters]
        # the prefix is one point, t = 1: one-point exponentials, no cached
        # tables, the product started at the first letter's
        self._rho0 = {}
        for d in flat.space.degrees:
            factors = [linalg.expm(flat.action(x, d)) for x in self.prefix]
            self._rho0[d] = reduce(np.dot, factors) if factors else np.eye(flat.space.dim(d))

    @cached_property
    def _ad0i(self) -> np.ndarray:
        """The prefix's inverse adjoint, formed on first read: a point value
        never reads it."""
        ad0i = np.eye(self.flat.algebra.n)
        for x in self.prefix:
            ad0i = linalg.expm(self.flat.ad(x), -1).dot(ad0i)
        return ad0i

    def eval(self, points: np.ndarray, degrees=None, adjoint=True) -> PointData:
        points = as_points(points, self.k)
        p = points.shape[0]
        n = self.flat.algebra.n
        degrees = self.flat.space.degrees if degrees is None else degrees
        # prefix tree of the batch: node[r] is the id of the prefix
        # (t_1, ..., t_j) of point r (None: r), and rho[d][i] the product at
        # node i, the product at parent[i] times the slot's factor child[i]
        node = np.zeros(p, dtype=int)
        rho = {d: self._rho0[d][None] for d in degrees}
        neg_ads = [None] * self.k
        for j, x in enumerate(self.letters):
            values, which = np.unique(points[:, j], return_inverse=True)
            m = len(values)
            if j == 0:
                parent, child, node = np.zeros(m, dtype=int), slice(None), which
            elif j == self.k - 1:
                parent, child, node = node, which, None
            else:
                ids, node = np.unique(node * m + which, return_inverse=True)
                parent, child = ids // m, ids % m
            for d in degrees:
                factors = self.flat.exp_factors(x, d).at(values)
                rho[d] = (factors if j == 0 and not self.prefix else
                          np.matmul(rho[d][parent], factors[child]))
            if j or adjoint:
                neg_ads[j] = self._ad[j].at(-values)[which]
        rho = Blocks({d: r if node is None else r[node] for d, r in rho.items()}, p)
        # tail: product of the negative factors after slot j, in reverse order,
        # started at the last slot's (so xi_k = x_k); the full product followed
        # by the prefix's is the inverse adjoint
        xi = np.empty((p, self.k, n))
        if self.k:
            xi[:, -1] = self.letters[-1]
            tail = neg_ads[-1]
        else:
            tail = np.broadcast_to(np.eye(n), (p, n, n)).copy()
        for j in range(self.k - 2, -1, -1):
            xi[:, j] = np.einsum("pab,b->pa", tail, self.letters[j])
            if j or adjoint:
                tail = np.matmul(tail, neg_ads[j])
        if not adjoint:
            return PointData(rho, None, xi)
        ad_inv = np.matmul(tail, np.broadcast_to(self._ad0i, (p, n, n))) if self.prefix else tail
        return PointData(rho, ad_inv, xi)


class PointEvaluator(WordEvaluator):
    """A zero-dimensional chain: the group element of a fixed word, the
    word evaluator with no letters."""

    def __init__(self, flat: FlatRep, prefix=()):
        super().__init__(flat, [], prefix=prefix)

    def value(self) -> GradedOperator:
        """The operator value, read straight off the prefix blocks."""
        space, rho = self.flat.space, self._rho0
        return GradedOperator.from_block_entries(
            space, space, 0, np.concatenate([rho[d].ravel() for d in space.degrees]), FLOAT)


class AffineReparam(Evaluator):
    """base o phi with phi(t) = matrix @ t + offset (componentwise affine)."""

    def __init__(self, base: Evaluator, matrix, offset, domain=None):
        self.base = base
        self.matrix = np.asarray(matrix, dtype=float)   # (base.k, k_new)
        self.offset = np.asarray(offset, dtype=float)   # (base.k,)
        self.k = self.matrix.shape[1]
        self.domain = domain or base.domain

    eval = Evaluator.eval

    def lift(self, points):
        return [(self.base, points.dot(self.matrix.T) + self.offset)]

    def push(self, points, datas):
        data, = datas
        return PointData(data.rho, data.ad_inv, np.matmul(self.matrix.T, data.xi))


class PermReparam(AffineReparam):
    """base o chi_* with chi_*(t)_j = t_{chi(j)}: the affine map of the
    permutation matrix, rows e_{chi(j)}."""

    def __init__(self, base: Evaluator, perm, domain=None):
        super().__init__(base, np.eye(base.k)[list(perm)], np.zeros(base.k), domain)
        self.perm = tuple(perm)

    eval = Evaluator.eval


class MaxCollapseReparam(Evaluator):
    """base o P with P(t)_i = max(t_i, ..., t_k): cube onto the simplex."""

    def __init__(self, base: Evaluator):
        self.base = base
        self.k = base.k
        self.domain = "cube"

    eval = Evaluator.eval

    def lift(self, points):
        return [(self.base, _from_right(np.maximum, points))]

    def push(self, points, datas):
        data, = datas
        # d y_i / d t_m = 1 exactly when m is the first argmax of t_i..t_k,
        # which is the first m >= i with t_m = y_m
        hits = np.where(points == _from_right(np.maximum, points), np.arange(self.k), self.k)
        xi = np.zeros_like(data.xi)
        np.add.at(xi, (np.arange(len(points))[:, None], _from_right(np.minimum, hits)), data.xi)
        return PointData(data.rho, data.ad_inv, xi)


def _from_right(ufunc, a):
    """Row i of each point accumulated from the right: ufunc of a_i, ..., a_k."""
    return ufunc.accumulate(a[:, ::-1], axis=1)[:, ::-1]


class ProductEvaluator(Evaluator):
    """Pointwise group product of two evaluators along a shuffle split.

    Coordinates listed in ``left_slots`` feed the left factor (in order),
    the rest feed the right factor; tangents of the left factor are
    conjugated by the inverse adjoint of the right factor's value.
    """

    def __init__(self, left: Evaluator, right: Evaluator, left_slots):
        self.left = left
        self.right = right
        self.left_slots = tuple(left_slots)
        self.k = left.k + right.k
        self.right_slots = tuple(m for m in range(self.k) if m not in self.left_slots)
        if len(self.left_slots) != left.k:
            raise ValueError("slot count mismatch")
        self.domain = left.domain

    eval = Evaluator.eval

    def lift(self, points):
        return [(self.left, points[:, list(self.left_slots)]),
                (self.right, points[:, list(self.right_slots)])]

    def push(self, points, datas):
        lp, rp = datas
        rho = Blocks({d: np.matmul(b, rp.rho.blocks[d]) for d, b in lp.rho.blocks.items()},
                     points.shape[0])
        ad_inv = np.matmul(rp.ad_inv, lp.ad_inv)
        xi = np.zeros((points.shape[0], self.k, ad_inv.shape[1]))
        xi[:, list(self.left_slots)] = np.einsum("pab,pjb->pja", rp.ad_inv, lp.xi)
        xi[:, list(self.right_slots)] = rp.xi
        return PointData(rho, ad_inv, xi)


@dataclass
class ChainCombination:
    """Formal combination of same-dimension evaluators."""

    terms: list = field(default_factory=list)

    def __post_init__(self):
        dims = {ev.k for _, ev in self.terms}
        if len(dims) > 1:
            raise ValueError("all terms must share one dimension")

    @property
    def k(self):
        return self.terms[0][1].k if self.terms else 0

    def __add__(self, other):
        return ChainCombination(self.terms + other.terms)


# ---------------------------------------------------------------------------
# chain-level operations
# ---------------------------------------------------------------------------

def face_map(k: int, i: int):
    """Affine data (matrix, offset) of the i-th face inclusion into the
    simplex with coordinates 1 >= t_1 >= ... >= t_k >= 0."""
    # t_r reads s_r before the face and s_(r-1) from it on; the identity's
    # zero last row is t_k = 0 on face k, and t_1 = 1 on face 0 by the offset
    mat = np.eye(k, k - 1)[[r if r < i else r - 1 for r in range(k)]]
    return mat, np.eye(k)[0] if i == 0 else np.zeros(k)


def boundary(ev: Evaluator) -> ChainCombination:
    """Alternating sum of the k+1 face evaluators."""
    if ev.k == 0:
        return ChainCombination([])
    terms = []
    for i in range(ev.k + 1):
        mat, off = face_map(ev.k, i)
        terms.append(((-1.0) ** i, AffineReparam(ev, mat, off)))
    return ChainCombination(terms)


def perm_sign(perm) -> int:
    """The sign of a permutation of 0..k-1, by its inversion count."""
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
              if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def shuffles(r: int, s: int):
    """(permutation, sign) pairs for all (r, s)-shuffle splits."""
    perms = [left + tuple(m for m in range(r + s) if m not in left)
             for left in combinations(range(r + s), r)]
    return [(perm, perm_sign(perm)) for perm in perms]


def alternation(ev: Evaluator, domain=None) -> ChainCombination:
    """The signed sum of sgn(chi) ev o chi_* over the permutations chi of the
    coordinates, in ``itertools.permutations`` order (the identity first)."""
    return ChainCombination([(perm_sign(perm), PermReparam(ev, perm, domain))
                             for perm in permutations(range(ev.k))])


def ez_product(a, b) -> ChainCombination:
    """Shuffle product of chains: signed sum of pointwise products over
    all shuffle splits of the coordinates."""
    a = a if isinstance(a, ChainCombination) else ChainCombination([(1.0, a)])
    b = b if isinstance(b, ChainCombination) else ChainCombination([(1.0, b)])
    terms = []
    for ca, eva in a.terms:
        for cb, evb in b.terms:
            for perm, sign in shuffles(eva.k, evb.k):
                left_slots = perm[:eva.k]
                terms.append((ca * cb * sign, ProductEvaluator(eva, evb, left_slots)))
    return ChainCombination(terms)


def thinness_check(ev: Evaluator, samples=None) -> bool:
    """True when the tangent frame is rank deficient at every sample."""
    if ev.k == 0:
        return False
    pts = samples if samples is not None else interior_points(ev.k, ev.domain)
    data = ev.eval(np.asarray(pts, dtype=float), ())
    for xi in data.xi:
        s = np.linalg.svd(xi, compute_uv=False)
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > 1e-8 * max(smax, 1.0)))
        if rank >= ev.k:
            return False
    return True


def interior_points(k: int, domain: str = "simplex"):
    """Small deterministic set of interior sample points."""
    seeds = [0.21, 0.47, 0.63, 0.82, 0.35]
    pts = []
    for shift in range(5):
        raw = [seeds[(shift + j) % len(seeds)] for j in range(k)]
        if domain == "simplex":
            raw = sorted(raw, reverse=True)
            raw = [v * (1 - 0.01 * j) for j, v in enumerate(raw)]
        pts.append(raw)
    return np.asarray(pts, dtype=float).reshape(-1, k)
