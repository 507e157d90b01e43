"""Chevalley-Eilenberg cochain and chain complexes with coefficients.

Basis elements are pairs (index subset, coefficient basis vector); the
subsets are ordered lexicographically.  Chain degrees are re-indexed so
that every differential raises degree by one: exterior degree m sits in
cochain degree -m (plus coefficient degree).  Only the chain side is
assembled; the cochain side is its signed transpose with dual
coefficients (``CEBasis.transpose``).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .graded import CochainComplex, GradedOperator, GradedVectorSpace, compose, dual_operator
from .linalg import EXACT


def insert_element(subset, r):
    """Wedge e_r into sorted ``subset``: (sign, new subset) or None."""
    if r in subset:
        return None
    pos = sum(1 for s in subset if s < r)
    return (-1) ** pos, tuple(sorted(subset + (r,)))


def remove_element(subset, r):
    """Contract e_r out of sorted ``subset``: (sign, new subset) or None."""
    if r not in subset:
        return None
    pos = subset.index(r)
    return (-1) ** pos, tuple(s for s in subset if s != r)


def merge_sign(left, right):
    """Sign of sorting the concatenation of two disjoint sorted subsets."""
    if set(left) & set(right):
        return None
    inv = sum(1 for s in left for t in right if s > t)
    return (-1) ** inv, tuple(sorted(left + right))


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
        self.index = {deg: {e: pos for pos, e in enumerate(items)}
                      for deg, items in self.elements.items()}
        self.space = GradedVectorSpace({deg: len(items) for deg, items in self.elements.items()})

    def transpose(self, op, sign):
        """Signed transpose of an operator on the chains with dual coefficients
        onto this cochain basis (the chain basis at degree -k lists the
        elements (subset, -q, i) of degree k here, in the same order):
        ``dual_operator``, with ``sign`` by source degree here, conjugated by
        S(m, q) = (-1)^(m(m+1)/2 + mq + q), m = |subset|."""
        flip = GradedOperator.from_entries(self.space, self.space, 0, [
            (deg, j, j, (-1) ** (len(s) * (len(s) + 1) // 2 + len(s) * q + q))
            for deg, items in self.elements.items() for j, (s, q, _) in enumerate(items)], op.mode)
        return compose(flip, compose(dual_operator(op, self.space, sign), flip))


@dataclass
class CEComplex:
    """Assembled complex plus its basis labeling."""

    complex: CochainComplex
    basis: CEBasis

    @property
    def differential(self):
        return self.complex.differential


def assemble(basis, degree, image_of, mode):
    """Build the operator of the given degree on the span of ``basis`` from
    a map sending each basis element to a dict {target element: coeff}."""
    entries = [(deg, basis.index[deg + degree][target], col, coeff)
               for deg, elements in basis.elements.items() if deg + degree in basis.index
               for col, element in enumerate(elements)
               for target, coeff in image_of(element).items()]
    return GradedOperator.from_entries(basis.space, basis.space, degree, entries, mode)


def chain_differential(algebra, rep, basis) -> GradedOperator:
    """The CE chain differential on ``basis``, pushed forward element by
    element: the bracket of two slots, the action of one slot on the
    coefficients, and the coefficient differential."""
    n = algebra.n
    mode = rep.mode
    c = algebra.constants(mode)

    def image_of(element):
        subset, q, i = element
        m = len(subset)
        out = {}

        def add(key, coeff):
            if coeff != 0:
                out[key] = out.get(key, 0) + coeff

        for a, b in combinations(range(m), 2):     # 1-based positions in the sign rules
            sa, sb = subset[a], subset[b]
            rest = tuple(s for s in subset if s not in (sa, sb))
            for r in range(n):
                ins = insert_element(rest, r) if c[sa, sb, r] != 0 else None
                if ins is not None:
                    add((ins[1], q, i), (-1) ** (a + b + 1) * ins[0] * c[sa, sb, r])
        for a in range(m):
            rest = tuple(s for s in subset if s != subset[a])
            for j, coeff in rep.action(subset[a]).column(q, i):
                add((rest, q, j), (-1) ** a * coeff)
        for j, coeff in rep.complex.differential.column(q, i):
            add((subset, q + 1, j), (-1) ** m * coeff)
        return out

    return assemble(basis, 1, image_of, mode)


def ce_chain(algebra, rep) -> CEComplex:
    """Homological complex on the exterior algebra tensor the coefficients."""
    basis = CEBasis(algebra.n, rep.complex.space, "chain")
    diff = chain_differential(algebra, rep, basis)
    return CEComplex(CochainComplex(basis.space, diff), basis)


def ce_cochain(algebra, rep) -> CEComplex:
    """Cochain complex of alternating forms with values in the coefficients.

    Built as the dual of the chains with dual coefficients,
    C(g; V) = (C(g; V*))* (Weibel, An Introduction to Homological Algebra,
    7.7): the chain differential of ``dual_lie_rep(rep)``, transposed by
    ``CEBasis.transpose`` with -1 at odd source degree, as ``dual_complex``.
    """
    from .reps import dual_lie_rep
    dual = dual_lie_rep(rep)
    basis = CEBasis(algebra.n, rep.complex.space, "cochain")
    chains = CEBasis(algebra.n, dual.complex.space, "chain")
    diff = basis.transpose(chain_differential(algebra, dual, chains),
                           lambda q: -1 if q % 2 else 1)
    return CEComplex(CochainComplex(basis.space, diff), basis)


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
        targets = ce.basis.elements.get(deg + 1)
        for row, v in ce.differential.column(deg, ce.basis.index[deg][element]):
            out[targets[row]] = out.get(targets[row], 0) + coeff * v
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
