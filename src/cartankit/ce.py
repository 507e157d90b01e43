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

The cochain side is their signed transpose with dual coefficients.  Basis
elements are (index subset, coefficient basis vector), subsets in
lexicographic order (``CEBasis``).
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .graded import (CochainComplex, GradedOperator, GradedVectorSpace, combination, compose,
                     dual_operator, dual_space, graded_commutator, reversed_tensor)
from .linalg import EXACT


def merge_sign(left, right):
    """Sign of sorting the concatenation of two disjoint sorted subsets."""
    if set(left) & set(right):
        return None
    inv = sum(1 for s in left for t in right if s > t)
    return (-1) ** inv, tuple(sorted(left + right))


Exterior = namedtuple("Exterior", "space eps iota")


@lru_cache(maxsize=None)
def exterior(n, mode) -> Exterior:
    """Lambda on {-m: C(n, m)}, subsets in lexicographic order, with the
    wedge eps_i = e_i ^ (degree -1) and its transpose iota_i, the
    contraction by e^i (degree +1), signed (-1)^(number of elements below i)."""
    index = {s: j for m in range(n + 1) for j, s in enumerate(combinations(range(n), m))}
    space = GradedVectorSpace({-m: comb(n, m) for m in range(n + 1)})
    wedges = [[(-len(s), index[tuple(sorted(s + (i,)))], j, (-1) ** sum(t < i for t in s))
               for s, j in index.items() if i not in s] for i in range(n)]
    eps = tuple(GradedOperator.from_entries(space, space, -1, w, mode) for w in wedges)
    iota = tuple(GradedOperator.from_entries(space, space, 1, [(k - 1, c, r, v)
                                                               for k, r, c, v in w], mode)
                 for w in wedges)
    return Exterior(space, eps, iota)


def boundary(algebra, mode) -> GradedOperator:
    """del = sum_{s<t, r} c[s,t,r] eps_r iota_t iota_s on Lambda(g), the chain
    differential with trivial coefficients: one ``combination`` of cached
    monomials."""
    c, space = algebra.constants(mode), exterior(algebra.n, mode).space
    terms = [(c[s, t, r], _monomial(algebra.n, mode, r, s, t))
             for s, t in combinations(range(algebra.n), 2) for r in np.flatnonzero(c[s, t])]
    return combination(*zip(*terms)) if terms else GradedOperator.zero(space, space, 1, mode)


@lru_cache(maxsize=256)
def _monomial(n, mode, r, s, t):
    ext = exterior(n, mode)
    return compose(ext.eps[r], compose(ext.iota[t], ext.iota[s]))


def _sign_of_transpose(p, q):
    """S = (-1)^(m(m+1)/2 + mq + q) on Lambda^m ox V^q, m = -p."""
    return 1 - 2 * ((p * (p - 1) // 2 + (1 - p) * q) % 2)


def _odd(q):
    return -1 if q % 2 else 1


class CEBasis:
    """Enumerates (subset, coeff degree, coeff index) by total degree."""

    def __init__(self, n, coeff_space, flavor):
        if flavor not in ("cochain", "chain"):
            raise ValueError("flavor must be 'cochain' or 'chain'")
        self.sign = 1 if flavor == "cochain" else -1
        self.elements = {}      # built in (size, subset, q, i) order
        for m in range(n + 1):
            for subset in combinations(range(n), m):
                for q in sorted(coeff_space.dims):
                    for i in range(coeff_space.dim(q)):
                        self.elements.setdefault(self.sign * m + q, []).append((subset, q, i))
        self.space = GradedVectorSpace({deg: len(items) for deg, items in self.elements.items()})
        ext = GradedVectorSpace({-m: comb(n, m) for m in range(n + 1)})
        self._tensor = (reversed_tensor(ext, coeff_space, lambda p, q: 1) if flavor == "chain"
                        else reversed_tensor(ext, dual_space(coeff_space), _sign_of_transpose))

    def place(self, sign, *pairs):
        """The sum of f ox g over ``pairs`` (f on Lambda(g), g on V for chains,
        on V* for cochains) on this basis.  Cochains take its transpose, the
        chain element j of degree -k being (subset, -q, i) for the element j
        of degree k here: ``dual_operator`` with ``sign`` by source degree
        here, conjugated by ``_sign_of_transpose``."""
        op = self._tensor(*pairs)
        return op if self.sign == -1 else dual_operator(op, self.space, sign)


@dataclass
class CEComplex:
    """Assembled complex plus its basis labeling, the Lie representation
    its chain side was made from (the coefficients, or their dual for
    cochains) and the boundary of Lambda(g)."""

    complex: CochainComplex
    basis: CEBasis
    chain_coefficients: object
    boundary: GradedOperator

    @property
    def differential(self):
        return self.complex.differential

    def cartan_operators(self):
        """L and B of the chain or cochain representation; the cochain
        transposes take the signs of ``dual_rep``: -1 for L, (-1)^q for B."""
        rep = self.chain_coefficients
        ext = exterior(rep.algebra.n, rep.mode)
        one, one_ext = (GradedOperator.identity(space, rep.mode)
                        for space in (rep.complex.space, ext.space))
        L = [self.basis.place(lambda q: -1, (graded_commutator(self.boundary, eps), one),
                              (one_ext, rho)) for eps, rho in zip(ext.eps, rep.operators)]
        B = [self.basis.place(_odd, (eps, one)) for eps in ext.eps]
        return L, B


def _build(algebra, basis, rep):
    """The complex on ``basis`` whose chain side is Lambda(g) ox ``rep``."""
    ext = exterior(algebra.n, rep.mode)
    bd = boundary(algebra, rep.mode)
    one, one_ext = (GradedOperator.identity(space, rep.mode)
                    for space in (rep.complex.space, ext.space))
    d = basis.place(_odd, (bd, one), (one_ext, rep.complex.differential),
                    *zip(ext.iota, rep.operators))
    return CEComplex(CochainComplex(basis.space, d), basis, rep, bd)


def ce_chain(algebra, rep) -> CEComplex:
    """Homological complex on the exterior algebra tensor the coefficients."""
    return _build(algebra, CEBasis(algebra.n, rep.complex.space, "chain"), rep)


def ce_cochain(algebra, rep) -> CEComplex:
    """Cochain complex of alternating forms with values in the coefficients.

    Built as the dual of the chains with dual coefficients,
    C(g; V) = (C(g; V*))* (Weibel, An Introduction to Homological Algebra,
    7.7): the chain differential of ``dual_lie_rep(rep)``, transposed by
    ``CEBasis.place`` with -1 at odd source degree, as ``dual_complex``.
    """
    from .reps import dual_lie_rep
    return _build(algebra, CEBasis(algebra.n, rep.complex.space, "cochain"), dual_lie_rep(rep))


def cohomology_dims(complex_: CochainComplex, tol=linalg.DEFAULT_TOL):
    """dim ker - dim im per degree, by exact or SVD rank."""
    diff = complex_.differential
    ranks = {k: linalg.rank(b, tol) for k, b in diff.blocks.items()}
    out = {}
    for k in complex_.space.degrees:
        out[k] = complex_.space.dim(k) - ranks.get(k, 0) - ranks.get(k - 1, 0)
    return out


def wedge(left_vec, right_vec):
    """Wedge of basis-dicts {(subset,q,i): coeff}; left factor is scalar-valued."""
    out = {}
    for (s, _, _), cl in left_vec.items():
        for (t, q, i), cr in right_vec.items():
            merged = merge_sign(s, t)
            if merged is None:
                continue
            sgn, u = merged
            key = (u, q, i)
            out[key] = out.get(key, 0) + sgn * cl * cr
    return {k: v for k, v in out.items() if v != 0}


def _apply_diff(ce, vec):
    """Differential of a basis-dict, via the columns of the assembled matrix."""
    out = {}
    for element, coeff in vec.items():
        deg = ce.basis.sign * len(element[0]) + element[1]
        column = ce.differential.block(deg)[:, ce.basis.elements[deg].index(element)]
        for row in np.flatnonzero(column):
            target = ce.basis.elements[deg + 1][row]
            out[target] = out.get(target, 0) + coeff * column[row]
    return {k: v for k, v in out.items() if v != 0}


def leibniz_check(algebra, rep, max_total_degree=3):
    """Max residual of d(a b) = (da) b + (-1)^|a| a (db) over basis pairs."""
    from .reps import trivial_lie_rep
    scalar = ce_cochain(algebra, trivial_lie_rep(algebra, mode=rep.mode))
    full = ce_cochain(algebra, rep)
    worst = Fraction(0) if rep.mode == EXACT else 0.0
    for p in range(algebra.n + 1):
        for eta in scalar.basis.elements.get(p, []):
            d_eta = _apply_diff(scalar, {eta: 1})
            for q_deg, omegas in full.basis.elements.items():
                if p + q_deg > max_total_degree:
                    continue
                for omega in omegas:
                    d_omega = _apply_diff(full, {omega: 1})
                    lhs = _apply_diff(full, wedge({eta: 1}, {omega: 1}))
                    rhs = wedge(d_eta, {omega: 1})
                    for key, val in wedge({eta: 1}, d_omega).items():
                        rhs[key] = rhs.get(key, 0) + (-1) ** p * val
                    keys = set(lhs) | set(rhs)
                    for key in keys:
                        worst = max(worst, abs(lhs.get(key, 0) - rhs.get(key, 0)))
    return worst
