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
                         MaxCollapseReparam, PermReparam, perm_sign)
from .integrate import DEFAULT_ORDER, cube_nodes, densities, integrals, simplex_nodes


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

    def values(self, evs) -> list:
        """The cochain at each evaluator, all in one batched evaluation."""
        if any(ev.k != self.k for ev in evs):
            raise ValueError("dimension mismatch")
        nodes, weights = (simplex_nodes if self.kind == "simplicial" else cube_nodes)(
            self.k, self.order)
        return [fsum(weights * dens.entries[:, self.entry])
                for dens in densities(self.flat, [(ev, nodes) for ev in evs])]

    def __call__(self, ev: Evaluator) -> float:
        return self.values([ev])[0]


class AlternationCochain:
    """tau(c): signed sum of a simplicial cochain over coordinate
    permutations of a cube chain; alternating by construction.  The value
    at each evaluator object is computed once and kept."""

    def __init__(self, base):
        self.base = base
        self.k = base.k
        self._known = {}

    def values(self, evs) -> list:
        """tau(c) at each evaluator; the new ones in one call of the base."""
        perms = list(permutations(range(self.k)))
        new = [ev for ev in dict.fromkeys(evs) if ev not in self._known]
        terms = self.base.values([PermReparam(ev, perm) for ev in new for perm in perms])
        for i, ev in enumerate(new):
            row = terms[i * len(perms):(i + 1) * len(perms)]
            self._known[ev] = fsum(perm_sign(perm) * v for perm, v in zip(perms, row))
        return [self._known[ev] for ev in evs]

    def __call__(self, ev: Evaluator) -> float:
        return self.values([ev])[0]


def subdivision_invariance_residual(c, ev: Evaluator, i: int, s: float) -> float:
    """|c(theta) - c(lower piece) - c(upper piece)| for an axis split."""
    whole, lower, upper = c.values([ev, split_lower(ev, i, s), split_upper(ev, i, 1.0 - s)])
    return abs(whole - lower - upper)


def alternating_residual(c, ev: Evaluator) -> float:
    """max over permutations of |c(theta o chi) - sgn(chi) c(theta)|."""
    perms = list(permutations(range(ev.k)))
    base, *permuted = c.values([ev] + [PermReparam(ev, perm) for perm in perms])
    worst = 0.0
    for perm, value in zip(perms, permuted):
        worst = max(worst, abs(value - perm_sign(perm) * base))
    return worst


def cube_vs_simplex_residual(flat: FlatRep, ev: Evaluator,
                             order: int = DEFAULT_ORDER) -> float:
    """Integral of a cube-domain ``ev`` versus the signed sum of simplex
    integrals of its permuted restrictions (the shuffle triangulation)."""
    perms = list(permutations(range(ev.k)))
    cube_val, *pieces = integrals(flat, [ev] + [PermReparam(ev, perm, "simplex")
                                                for perm in perms], order)
    total = np.zeros_like(cube_val)
    for perm, piece in zip(perms, pieces):
        total = total + perm_sign(perm) * piece
    return float(np.max(np.abs(cube_val - total), initial=0.0))


def collapse_reduction_residuals(c, ev: Evaluator):
    """For a cochain vanishing on thin simplices the signed sum of
    c(sigma o P_k o chi) over the cube-to-simplex collapses chi reduces to
    the identity term alone."""
    perms = list(permutations(range(ev.k)))
    collapsed = MaxCollapseReparam(ev)
    direct, *terms = c.values([ev] + [PermReparam(collapsed, perm) for perm in perms])
    identity = tuple(range(ev.k))
    signed = fsum(perm_sign(p) * v for p, v in zip(perms, terms))
    off_identity = max((abs(v) for p, v in zip(perms, terms) if p != identity), default=0.0)
    return abs(direct - signed), off_identity
