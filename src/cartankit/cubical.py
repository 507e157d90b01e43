"""Cubical cochains from simplicial ones and their invariance checks.

A scalar cochain here is the integral of one matrix entry of the
representation-form pullback, over the simplex or over the cube; it
evaluates only the density block that holds its entry.  The
antisymmetrization of a simplicial cochain over all coordinate
permutations is a cubical cochain; it is alternating by construction
(an exact sign identity once sums are accumulated with ``fsum``) and
inherits subdivision invariance, which together with vanishing on thin
degeneracies characterizes integrals of forms.
"""

from math import fsum

import numpy as np

from .evaluators import (AffineReparam, ChainCombination, Evaluator, FlatRep,
                         MaxCollapseReparam, alternation)
from .integrate import (DEFAULT_ORDER, cube_nodes, densities, finite, integrate_chain,
                        simplex_nodes)


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
    its (nonnegative) index among the block entries (``evaluators.Blocks``).
    The entry lies in one block, from source degree q to q - k, so a value
    evaluates rho at q - k and the density of that block only."""

    def __init__(self, flat: FlatRep, k: int, kind: str = "simplicial",
                 entry: int = 0, order: int = DEFAULT_ORDER):
        if kind not in ("simplicial", "cubical"):
            raise ValueError("kind must be 'simplicial' or 'cubical'")
        self.flat = flat
        self.k = k
        self.kind = kind
        self.entry = entry
        self.order = order
        # the entry's block, by its target degree, and its index there
        targets = flat.targets(k)
        stops = np.cumsum([flat.space.dim(t) * flat.space.dim(t + k) for t in targets])
        block = int(np.searchsorted(stops, entry, side="right"))
        self._block = targets[block], entry - (stops[block - 1] if block else 0)

    def values(self, evs) -> list:
        """The cochain at each evaluator, all in one batched evaluation."""
        if any(ev.k != self.k for ev in evs):
            raise ValueError("dimension mismatch")
        nodes, weights = (simplex_nodes if self.kind == "simplicial" else cube_nodes)(
            self.k, self.order)
        t, offset = self._block
        dens = densities(self.flat, [(ev, nodes) for ev in evs], [t])
        return [fsum(column) for column in finite(
            weights * d.blocks[t + self.k].reshape(len(nodes), -1)[:, offset] for d in dens)]

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
        new = [ev for ev in dict.fromkeys(evs) if ev not in self._known]
        chains = [alternation(ev) for ev in new]
        terms = iter(self.base.values([term for chain in chains for _, term in chain.terms]))
        for ev, chain in zip(new, chains):
            self._known[ev] = fsum(sign * v for (sign, _), v in zip(chain.terms, terms))
        return [self._known[ev] for ev in evs]

    def __call__(self, ev: Evaluator) -> float:
        return self.values([ev])[0]


def subdivision_invariance_residual(c, ev: Evaluator, i: int, s: float) -> float:
    """|c(theta) - c(lower piece) - c(upper piece)| for an axis split."""
    whole, lower, upper = c.values([ev, split_lower(ev, i, s), split_upper(ev, i, 1.0 - s)])
    return abs(whole - lower - upper)


def alternating_residual(c, ev: Evaluator) -> float:
    """max over permutations of |c(theta o chi) - sgn(chi) c(theta)|."""
    chain = alternation(ev)
    base, *permuted = c.values([ev] + [term for _, term in chain.terms])
    return max((abs(v - sign * base) for (sign, _), v in zip(chain.terms, permuted)),
               default=0.0)


def cube_vs_simplex_residual(flat: FlatRep, ev: Evaluator,
                             order: int = DEFAULT_ORDER) -> float:
    """Integral of a cube-domain ``ev`` versus the signed sum of simplex
    integrals of its permuted restrictions (the shuffle triangulation): the
    max entry of the integral of that chain minus ``ev``."""
    chain = alternation(ev, "simplex") + ChainCombination([(-1, ev)])
    return integrate_chain(flat, chain, order).norm()


def collapse_reduction_residuals(c, ev: Evaluator):
    """For a cochain vanishing on thin simplices the signed sum of
    c(sigma o P_k o chi) over the cube-to-simplex collapses chi reduces to
    the identity term alone."""
    chain = alternation(MaxCollapseReparam(ev))
    direct, *terms = c.values([ev] + [term for _, term in chain.terms])
    signed = fsum(sign * v for (sign, _), v in zip(chain.terms, terms))
    return abs(direct - signed), max(map(abs, terms[1:]), default=0.0)
