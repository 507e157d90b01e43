"""Chevalley-Eilenberg chain and cochain complexes with coefficients.

The chains with coefficients in V are Lambda(g) ox V, exterior degree m in
degree -m so that every differential raises degree by one (Koszul,
"Homologie et cohomologie des algebres de Lie", 1950).  The chain side is
made from the wedge eps_i and contraction iota_i of ``exterior``, whose
signs are its only subset-sign code, with ``compose``, sums and tensor
products:

    d   = del ox 1 + 1 ox d_V + sum_s iota_s ox rho_s,
    L_i = [del, eps_i] ox 1 + 1 ox rho_i   (Cartan's formula),
    B_i = eps_i ox 1,
    del = sum_{s<t, r} c[s,t,r] eps_r iota_t iota_s   (``boundary``).

The generators are stored stacked (``graded.stack``): the wedges and the
coefficient actions as one operator each over the labels K, so the sum
over s in d is one tensor product summed over the common label, and L
and B come out as the stacks V -> K ox V of ``reps.CartanRep``.

The cochain side is their signed transpose with dual coefficients.  Within
each total degree the layout (``CEBasis``) lists the pieces Lambda^m ox V^q
by increasing m, subsets in lexicographic order inside Lambda^m.

What depends only on the structure constants, del and [del, E], is built
once per (algebra, mode), and the layout with its signs once per (n, V,
flavor); bounded caches share them read-only, as ``exterior`` is shared.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .graded import (CochainComplex, GradedOperator, GradedVectorSpace, combination, compose,
                     dual_operator, dual_space, product_sum, read_only, reversed_tensor,
                     stack_entries, tensor_space, unstack)


Exterior = namedtuple("Exterior", "space wedge contraction eps iota")


@lru_cache(maxsize=None)
def exterior(n, mode) -> Exterior:
    """Lambda on {-m: C(n, m)}, subsets in lexicographic order, with the
    wedge eps_i = e_i ^ (degree -1) and its transpose iota_i, the
    contraction by e^i (degree +1), signed (-1)^(number of elements below i);
    ``wedge`` and ``contraction`` are the families stacked over the n
    generators (``graded.stack``), ``eps`` and ``iota`` their blocks.  Built
    from subset bitmasks: a subset's rank is its place among those of its
    size in lexicographic order, which is decreasing order of the mask read
    with element 0 as the highest bit."""
    masks = np.arange(2 ** n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    size = bits.sum(axis=1)
    order = np.lexsort((-bits.dot(1 << np.arange(n)[::-1]), size))
    rank = np.empty_like(order)
    rank[order] = np.arange(2 ** n) - np.repeat(np.cumsum([0] + [comb(n, m) for m in range(n)]),
                                                 [comb(n, m) for m in range(n + 1)])
    subset, i = np.nonzero(bits == 0)
    sign = 1 - 2 * ((np.cumsum(bits, axis=1) - bits)[subset, i] % 2)
    space = GradedVectorSpace({-m: comb(n, m) for m in range(n + 1)})
    low, high = rank[subset], rank[subset | (1 << i)]
    wedge = stack_entries(n, space, space, -1, (i, -size[subset], high, low, sign), mode)
    contraction = stack_entries(n, space, space, 1, (i, -size[subset] - 1, low, high, sign),
                                mode)
    return Exterior(space, wedge, contraction, tuple(unstack(wedge, n)),
                    tuple(unstack(contraction, n)))


@lru_cache(maxsize=16)
def boundary(algebra, mode) -> GradedOperator:
    """del = sum_{s<t, r} c[s,t,r] eps_r iota_t iota_s on Lambda(g), the chain
    differential with trivial coefficients: one ``combination`` of cached
    monomials, built once per (algebra, mode) and shared read-only.  Each
    entry keeps its algebra alive, hence the small bound."""
    c, space = algebra.constants(mode), exterior(algebra.n, mode).space
    terms = [(c[s, t, r], _monomial(algebra.n, mode, r, s, t))
             for s, t in combinations(range(algebra.n), 2) for r in np.flatnonzero(c[s, t])]
    return read_only(combination(*zip(*terms)) if terms
                     else GradedOperator.zero(space, space, 1, mode))


@lru_cache(maxsize=16)
def _commutator(algebra, mode) -> GradedOperator:
    """[del, E] = (1_K ox del) E + E del for the stacked wedge E, one
    ``product_sum``, built once per (algebra, mode) and shared read-only."""
    eye, ext = np.eye(algebra.n, dtype=int), exterior(algebra.n, mode)
    bd = boundary(algebra, mode)
    return read_only(product_sum(((eye[:, :, None], bd, ext.wedge),
                                  (eye[:, None, :], ext.wedge, bd))))


@lru_cache(maxsize=256)
def _monomial(n, mode, r, s, t):
    ext = exterior(n, mode)
    return read_only(compose(ext.eps[r], compose(ext.iota[t], ext.iota[s])))


def _sign_of_transpose(p, q):
    """S = (-1)^(m(m+1)/2 + mq + q) on Lambda^m ox V^q, m = -p."""
    return 1 - 2 * ((p * (p - 1) // 2 + (1 - p) * q) % 2)


def _odd(q):
    return -1 if q % 2 else 1


class CEBasis:
    """The layout of Lambda(g) ox V (chains) or of its dual with V* in place
    of V (cochains), and the placing of tensor products on it; built by
    ``basis``."""

    def __init__(self, n, coeff_space, flavor):
        if flavor not in ("cochain", "chain"):
            raise ValueError("flavor must be 'cochain' or 'chain'")
        self.cochain = flavor == "cochain"
        ext = GradedVectorSpace({-m: comb(n, m) for m in range(n + 1)})
        if self.cochain:
            dual = dual_space(coeff_space)
            self.space = dual_space(tensor_space(ext, dual))
            self._tensor = reversed_tensor(ext, dual, _sign_of_transpose)
        else:
            self.space = tensor_space(ext, coeff_space)
            self._tensor = reversed_tensor(ext, coeff_space)

    def place(self, sign, *pairs, labels=None):
        """The sum of f ox g over ``pairs`` (f on Lambda(g), g on V for chains,
        on V* for cochains) on this basis.  On chains f and g may be maps to
        other spaces and ``sign`` is unused.  Cochains take its transpose,
        the chain basis in degree -k being dual to the one here in degree k:
        ``dual_operator`` with ``sign`` by source degree here, conjugated by
        ``_sign_of_transpose``.  With ``labels`` = n, f or g may be stacked
        over the n generators, as in ``graded.tensor_operator``."""
        op = self._tensor(*pairs, labels=labels)
        return dual_operator(op, self.space, sign, labels) if self.cochain else op


@lru_cache(maxsize=64)
def basis(n, coeff_space, flavor) -> CEBasis:
    """The ``CEBasis`` of Lambda(g) ox V for dim g = n and V = ``coeff_space``,
    built once per (n, coefficient space, flavor) and shared."""
    return CEBasis(n, coeff_space, flavor)


@lru_cache(maxsize=16)
def first_contractions(n, mode, coeff_space):
    """R_i ox 1 on the chain layout of Lambda(g) ox V, where
    R_i = iota_i prod_{j<i} iota_j eps_j sends e_s to e_(s - i) when i = min s
    and to 0 otherwise (each iota_j eps_j keeps the subsets without j), so
    that sum_i eps_i R_i is 1 on Lambda^m for m > 0."""
    ext = exterior(n, mode)
    place = basis(n, coeff_space, "chain").place
    one = GradedOperator.identity(coeff_space, mode)
    out, without = [], GradedOperator.identity(ext.space, mode)
    for eps, iota in zip(ext.eps, ext.iota):
        out.append(place(None, (compose(iota, without), one)))
        without = compose(compose(iota, eps), without)
    return tuple(out)


@dataclass
class CEComplex:
    """Assembled complex plus its layout and the Lie representation its
    chain side was made from (the coefficients, or their dual for
    cochains)."""

    complex: CochainComplex
    basis: CEBasis
    chain_coefficients: object

    @property
    def differential(self):
        return self.complex.differential

    def cartan_operators(self):
        """L and B of the chain or cochain representation, each stacked over
        the generators (``graded.stack``): with E the stacked wedge,
        L = [del, E] ox 1 + 1 ox rho (``_commutator``) and B = E ox 1; the
        cochain transposes take the signs of ``dual_rep``: -1 for L, (-1)^q
        for B."""
        rep = self.chain_coefficients
        n = rep.algebra.n
        one, one_ext = (GradedOperator.identity(space, rep.mode)
                        for space in (rep.complex.space, exterior(n, rep.mode).space))
        L = self.basis.place(lambda q: -1, (_commutator(rep.algebra, rep.mode), one),
                             (one_ext, rep.stacked), labels=n)
        return L, _placed_wedge(self.basis, n, rep.mode, rep.complex.space)


@lru_cache(maxsize=64)
def _placed_wedge(layout, n, mode, coeff_space) -> GradedOperator:
    """B = E ox 1 on ``layout`` (n generators, V = ``coeff_space``) for the
    stacked wedge E, built once per (layout, mode) and shared read-only."""
    one = GradedOperator.identity(coeff_space, mode)
    return read_only(layout.place(_odd, (exterior(n, mode).wedge, one), labels=n))


def _build(algebra, layout, rep):
    """The complex on ``layout`` whose chain side is Lambda(g) ox ``rep``."""
    ext = exterior(algebra.n, rep.mode)
    one, one_ext = (GradedOperator.identity(space, rep.mode)
                    for space in (rep.complex.space, ext.space))
    d = layout.place(_odd, (boundary(algebra, rep.mode), one),
                     (one_ext, rep.complex.differential), (ext.contraction, rep.stacked),
                     labels=algebra.n)
    return CEComplex(CochainComplex(layout.space, d), layout, rep)


def ce_chain(algebra, rep) -> CEComplex:
    """Homological complex on the exterior algebra tensor the coefficients."""
    return _build(algebra, basis(algebra.n, rep.complex.space, "chain"), rep)


def ce_cochain(algebra, rep) -> CEComplex:
    """Cochain complex of alternating forms with values in the coefficients.

    Built as the dual of the chains with dual coefficients,
    C(g; V) = (C(g; V*))* (Weibel, An Introduction to Homological Algebra,
    7.7): the chain differential of ``dual_lie_rep(rep)``, transposed by
    ``CEBasis.place`` with -1 at odd source degree, as ``dual_complex``.
    """
    from .reps import dual_lie_rep
    return _build(algebra, basis(algebra.n, rep.complex.space, "cochain"), dual_lie_rep(rep))


def cohomology_dims(complex_: CochainComplex, tol=linalg.DEFAULT_TOL):
    """dim ker - dim im per degree, by exact (sparse rows) or SVD rank."""
    diff, space = complex_.differential, complex_.space
    ranks = {k: linalg.rank(diff.rows(k), tol, space.dim(k)) if diff.mode == linalg.EXACT
             else linalg.rank(diff.block(k), tol) for k in space.degrees}
    return {k: space.dim(k) - ranks[k] - ranks.get(k - 1, 0) for k in space.degrees}

