"""Cubical cochains from simplicial ones and their invariance checks.

A scalar cochain here is the integral of one matrix entry of the
representation-form pullback, over the simplex or over the cube.  The
antisymmetrization of a simplicial cochain over all coordinate
permutations is a cubical cochain; it is alternating by construction
(an exact sign identity once sums are accumulated with ``fsum``) and
inherits subdivision invariance, which together with vanishing on thin
degeneracies characterizes integrals of forms.
"""

from itertools import permutations
from math import fsum

import numpy as np

from .evaluators import (AffineReparam, Evaluator, FlatRep,
                         MaxCollapseReparam, PermReparam)
from .integrate import DEFAULT_ORDER, cube_nodes, density_at, integral_entries, simplex_nodes


def perm_sign(perm) -> int:
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
              if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def subdivision_maps(k: int, i: int, s: float):
    """The two affine self-maps of the cube splitting axis i at s:
    the lower piece scales t_i by s, the upper piece maps t_i to
    (1 - s) + s t_i."""
    if not 0 <= i < k:
        raise IndexError("axis out of range")
    lower = np.eye(k)
    lower[i, i] = s
    upper_off = np.zeros(k)
    upper_off[i] = 1.0 - s
    return (lower, np.zeros(k)), (lower.copy(), upper_off)


def split_lower(ev: Evaluator, i: int, s: float) -> Evaluator:
    (mat, off), _ = subdivision_maps(ev.k, i, s)
    return AffineReparam(ev, mat, off, domain="cube")


def split_upper(ev: Evaluator, i: int, s: float) -> Evaluator:
    _, (mat, off) = subdivision_maps(ev.k, i, s)
    return AffineReparam(ev, mat, off, domain="cube")


class IntegrationCochain:
    """Scalar cochain: one entry of the integrated pullback density, given by
    its index among the block entries (``evaluators.Blocks``)."""

    def __init__(self, flat: FlatRep, k: int, kind: str = "simplicial",
                 entry: int = 0, order: int = DEFAULT_ORDER):
        if kind not in ("simplicial", "cubical"):
            raise ValueError("kind must be 'simplicial' or 'cubical'")
        self.flat = flat
        self.k = k
        self.kind = kind
        self.entry = entry
        self.order = order

    def __call__(self, ev: Evaluator) -> float:
        if ev.k != self.k:
            raise ValueError("dimension mismatch")
        nodes, weights = (simplex_nodes if self.kind == "simplicial" else cube_nodes)(
            self.k, self.order)
        dens = density_at(self.flat, ev, nodes).entries
        return fsum(weights * dens[:, self.entry])


class AlternationCochain:
    """tau(c): signed sum of a simplicial cochain over coordinate
    permutations of a cube chain; alternating by construction."""

    def __init__(self, base):
        self.base = base
        self.k = base.k
        self.kind = "cubical"

    def __call__(self, ev: Evaluator) -> float:
        terms = []
        for perm in permutations(range(self.k)):
            terms.append(perm_sign(perm) * self.base(PermReparam(ev, perm)))
        return fsum(terms)


def subdivision_invariance_residual(c, ev: Evaluator, i: int, s: float) -> float:
    """|c(theta) - c(lower piece) - c(upper piece)| for an axis split."""
    return abs(c(ev) - c(split_lower(ev, i, s)) - c(split_upper(ev, i, 1.0 - s)))


def alternating_residual(c, ev: Evaluator) -> float:
    """max over permutations of |c(theta o chi) - sgn(chi) c(theta)|."""
    base = c(ev)
    worst = 0.0
    for perm in permutations(range(ev.k)):
        worst = max(worst, abs(c(PermReparam(ev, perm)) - perm_sign(perm) * base))
    return worst


def cube_vs_simplex_residual(flat: FlatRep, ev: Evaluator,
                             order: int = DEFAULT_ORDER) -> float:
    """Cube integral versus the signed sum of simplex integrals of the
    coordinate-permuted restrictions (the shuffle triangulation)."""
    cube_val = integral_entries(flat, ev, order, "cube")
    total = np.zeros_like(cube_val)
    for perm in permutations(range(ev.k)):
        total = total + perm_sign(perm) * integral_entries(flat, PermReparam(ev, perm), order,
                                                           "simplex")
    return float(np.max(np.abs(cube_val - total), initial=0.0))


def collapse_terms(c, ev: Evaluator):
    """Values c(sigma o P_k o chi) for every permutation chi, keyed by chi."""
    collapsed = MaxCollapseReparam(ev)
    return {perm: c(PermReparam(collapsed, perm))
            for perm in permutations(range(ev.k))}


def collapse_reduction_residuals(c, ev: Evaluator):
    """For a cochain vanishing on thin simplices the signed sum over the
    cube-to-simplex collapses reduces to the identity term alone."""
    terms = collapse_terms(c, ev)
    identity = tuple(range(ev.k))
    direct = c(ev)
    signed = fsum(perm_sign(p) * v for p, v in terms.items())
    off_identity = max((abs(v) for p, v in terms.items() if p != identity), default=0.0)
    return abs(direct - signed), off_identity
