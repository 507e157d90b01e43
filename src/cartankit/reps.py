"""Representations of a Lie algebra and of its Cartan DG Lie algebra.

A ``LieRep`` is a cochain complex with commuting degree-0 operators, one
per basis vector of the algebra.  A ``CartanRep`` adds one degree-(-1)
operator per basis vector; ``cartan_residuals`` measures how far the
family is from satisfying the Cartan relations.  It checks each relation
family as one operator: the n operators of a family are stacked into
V -> K ox V over degree-0 labels K (``graded.stack``), (1_K ox L) stack(B)
holds every L_i B_j, a swap of the two labels the reversed products, and
the structure constants act as c: K -> K ox K; ``LieRep.residuals`` and
``intertwiner_residual`` use the same stacks.  The Cartan DG Lie
algebra itself is a ``CartanRep``: ``cartan_dgla`` is its adjoint
representation, verified by the d^2 check and ``cartan_residuals``.
``chain_rep`` and ``cochain_rep`` realize the two standard constructions
on the Chevalley-Eilenberg chain and cochain complexes.  The first, left
adjoint to ``restrict``, lives on Lambda(g) ox V with B_i = eps_i ox 1 and
L_i = [del, eps_i] ox 1 + 1 ox rho_i (``ce``); the second is its signed
transpose with the dual coefficients of ``dual_lie_rep``.
``dual_rep``/``tensor_rep`` give the monoidal structure.
"""

from dataclasses import dataclass

import numpy as np

from . import ce, linalg
from .graded import (CochainComplex, GradedOperator, GradedVectorSpace, combination,
                     compose, dual_complex, dual_operator, dual_space, stack,
                     tensor_basis_index, tensor_complex, tensor_operator, tensor_space)
from .linalg import EXACT


class LieRep:
    """Representation of a Lie algebra on a cochain complex."""

    def __init__(self, algebra, complex_: CochainComplex, operators):
        self.algebra = algebra
        self.complex = complex_
        self.operators = list(operators)
        if len(self.operators) != algebra.n:
            raise ValueError("need one operator per basis vector")
        for op in self.operators:
            if op.degree != 0:
                raise ValueError("Lie algebra actions must have degree 0")

    @property
    def mode(self):
        return self.complex.mode

    def action(self, i: int) -> GradedOperator:
        return self.operators[i]

    def residuals(self):
        """Homomorphism + chain-map defects: max norms, keyed by family."""
        d, rho = self.complex.differential, stack(self.operators)
        swap, consts = _label_maps(self.algebra, self.complex.space, self.mode)
        products = compose(_on_labels(self.algebra.n, rho), rho)
        bracket = combination((1, -1, -1), (products, compose(swap, products),
                                            compose(consts, rho)))
        chain_map = compose(_on_labels(self.algebra.n, d), rho) - compose(rho, d)
        return {"bracket": bracket.norm(), "chain_map": chain_map.norm()}


class CartanRep:
    """Representation of the Cartan DG Lie algebra: L_i degree 0, B_i degree -1."""

    def __init__(self, algebra, complex_: CochainComplex, L, B):
        self.algebra = algebra
        self.complex = complex_
        self.L = list(L)
        self.B = list(B)
        if len(self.L) != algebra.n or len(self.B) != algebra.n:
            raise ValueError("need one L and one B per basis vector")
        for op in self.L:
            if op.degree != 0:
                raise ValueError("L operators must have degree 0")
        for op in self.B:
            if op.degree != -1:
                raise ValueError("B operators must have degree -1")

    @property
    def mode(self):
        return self.complex.mode

    @property
    def differential(self):
        return self.complex.differential

    def L_of(self, x) -> GradedOperator:
        return combination(x, self.L)

    def B_of(self, x) -> GradedOperator:
        return combination(x, self.B)


@dataclass
class CartanReport:
    """Residuals of the four Cartan relation families."""

    LL: float
    LB: float
    BB: float
    dB: float

    @property
    def worst(self) -> float:
        return max(self.LL, self.LB, self.BB, self.dB)

    def passes(self, tol: float) -> bool:
        return self.worst <= tol


def _on_labels(n, op) -> GradedOperator:
    """1_K ox op, K = GradedVectorSpace({0: n}) the labels of ``stack``."""
    return tensor_operator(GradedOperator.identity(GradedVectorSpace({0: n}), op.mode), op)


def _label_maps(algebra, space, mode):
    """Maps of the labels K = GradedVectorSpace({0: n}) of ``stack``, tensored
    with 1 on V = ``space``: the swap (j, i) -> (i, j) of K ox K ox V, and
    c ox 1: K ox V -> K ox K ox V with c(e_k) = sum_{i,j} c[i, j, k] e_j ox e_i,
    so the block (j, i) of (c ox 1) stack(h) is sum_k c[i, j, k] h_k.  The
    block (j, i) of (1_K ox stack(f)) stack(g) is f_i g_j."""
    n, c = algebra.n, algebra.constants(mode)
    labels = GradedVectorSpace({0: n})
    pairs = tensor_space(labels, labels)
    slot = [[tensor_basis_index(labels, labels, 0, j, 0, i)[1] for i in range(n)]
            for j in range(n)]
    swap = GradedOperator.from_entries(pairs, pairs, 0, [(0, slot[i][j], slot[j][i], 1)
                                                         for i in range(n) for j in range(n)],
                                       mode)
    consts = GradedOperator.from_entries(labels, pairs, 0, [(0, slot[j][i], k, c[i, j, k])
                                                            for i, j, k in zip(*np.nonzero(c))],
                                         mode)
    one = GradedOperator.identity(space, mode)
    return tensor_operator(swap, one), tensor_operator(consts, one)


def cartan_residuals(rep: CartanRep) -> CartanReport:
    """Residuals of [L,L]=L, [L,B]=B, [B,B]=0 and [d,B]=L, as max norms over
    all generators: each family is one operator on the stacked L and B
    (``graded.stack``), the block of label pair (j, i) holding the relation
    for (i, j)."""
    n, L, B, d = rep.algebra.n, stack(rep.L), stack(rep.B), rep.differential
    swap, consts = _label_maps(rep.algebra, rep.complex.space, rep.mode)
    one_l, one_b = _on_labels(n, L), _on_labels(n, B)
    ll, lb, bl, bb = compose(one_l, L), compose(one_l, B), compose(one_b, L), compose(one_b, B)
    r_ll = combination((1, -1, -1), (ll, compose(swap, ll), compose(consts, L)))
    r_lb = combination((1, -1, -1), (lb, compose(swap, bl), compose(consts, B)))
    r_bb = combination((1, 1), (bb, compose(swap, bb)))
    r_db = combination((1, 1, -1), (compose(_on_labels(n, d), B), compose(B, d), L))
    return CartanReport(r_ll.norm(), r_lb.norm(), r_bb.norm(), r_db.norm())


# ---------------------------------------------------------------------------
# basic constructions
# ---------------------------------------------------------------------------

def trivial_lie_rep(algebra, dim=1, degree=0, mode=EXACT) -> LieRep:
    complex_ = CochainComplex.concentrated(dim, degree, mode)
    zero = GradedOperator.zero(complex_.space, complex_.space, 0, mode)
    return LieRep(algebra, complex_, [zero] * algebra.n)


def trivial_cartan_rep(algebra, dim=1, degree=0, mode=EXACT) -> CartanRep:
    complex_ = CochainComplex.concentrated(dim, degree, mode)
    z0 = GradedOperator.zero(complex_.space, complex_.space, 0, mode)
    z1 = GradedOperator.zero(complex_.space, complex_.space, -1, mode)
    return CartanRep(algebra, complex_, [z0] * algebra.n, [z1] * algebra.n)


def adjoint_rep(algebra, mode=EXACT) -> LieRep:
    return LieRep(algebra, CochainComplex.concentrated(algebra.n, 0, mode),
                  [algebra.ad_operator(algebra.basis_vector(i, mode)) for i in range(algebra.n)])


def cartan_dgla(algebra) -> CartanRep:
    """The Cartan DG Lie algebra TTg as its own adjoint representation, in
    exact mode, on I_1 .. I_n (degree -1) then L_1 .. L_n (degree 0).

    d I_i = L_i; L_i is ad(e_i) on both degrees and B_i is ad(e_i) from
    degree 0 to degree -1, so [L_i, L_j] = L_[i,j], [L_i, I_j] = [I_i, L_j]
    = I_[i,j] and [I_i, I_j] = 0.  Graded Jacobi on generators is the
    LL, LB and BB families of ``cartan_residuals``, d a derivation is dB.
    """
    if algebra.check_jacobi() != 0:
        raise ValueError("structure constants fail antisymmetry/Jacobi")
    n = algebra.n
    space = GradedVectorSpace({-1: n, 0: n})
    d = GradedOperator.from_entries(space, space, 1, [(-1, i, i, 1) for i in range(n)], EXACT)
    ads = [algebra.ad(algebra.basis_vector(i)) for i in range(n)]
    L = [GradedOperator(space, space, 0, {-1: ad, 0: ad}, mode=EXACT) for ad in ads]
    B = [GradedOperator(space, space, -1, {0: ad}, mode=EXACT) for ad in ads]
    return CartanRep(algebra, CochainComplex(space, d), L, B)


def restrict(rep: CartanRep) -> LieRep:
    """Forget the degree-(-1) operators."""
    return LieRep(rep.algebra, rep.complex, rep.L)


# ---------------------------------------------------------------------------
# the chain and cochain representations
# ---------------------------------------------------------------------------

def chain_rep(algebra, coefficients: LieRep) -> CartanRep:
    """Action on the CE chain complex Lambda(g) ox V: B_i wedges e_i at the
    front, L_i is the bracket on each slot plus the coefficient action."""
    cec = ce.ce_chain(algebra, coefficients)
    return CartanRep(algebra, cec.complex, *cec.cartan_operators())


def cochain_rep(algebra, coefficients: LieRep) -> CartanRep:
    """Action on the CE cochain complex: B contracts the form part only,
    L is the coadjoint action on forms plus the coefficient action.  The
    dual of ``chain_rep`` with dual coefficients (Weibel, An Introduction
    to Homological Algebra, 7.7), as ``ce_cochain`` is of ``ce_chain``."""
    cec = ce.ce_cochain(algebra, coefficients)
    return CartanRep(algebra, cec.complex, *cec.cartan_operators())


# ---------------------------------------------------------------------------
# tensor and dual
# ---------------------------------------------------------------------------

def tensor_rep(a: CartanRep, b: CartanRep) -> CartanRep:
    """Tensor product action: L by the Leibniz rule, B with the Koszul sign."""
    ida = GradedOperator.identity(a.complex.space, a.mode)
    idb = GradedOperator.identity(b.complex.space, b.mode)
    complex_ = tensor_complex(a.complex, b.complex)
    L = [tensor_operator(a.L[i], idb) + tensor_operator(ida, b.L[i])
         for i in range(a.algebra.n)]
    B = [tensor_operator(a.B[i], idb) + tensor_operator(ida, b.B[i])
         for i in range(a.algebra.n)]
    return CartanRep(a.algebra, complex_, L, B)


def dual_lie_rep(rep: LieRep) -> LieRep:
    """Dual coefficients: the dual complex, each action -R^T."""
    dc = dual_complex(rep.complex)
    return LieRep(rep.algebra, dc, [dual_operator(op, dc.space, lambda q: -1)
                                    for op in rep.operators])


def dual_rep(rep: CartanRep) -> CartanRep:
    """Dual action, signs fixed by requiring the evaluation pairing
    V ox V* -> R (trivial module) to be a map of representations:
    L* = -L^T blockwise (``dual_lie_rep``), B* and the dual differential
    pick up (-1)^q."""
    dual = dual_lie_rep(restrict(rep))
    B = [dual_operator(op, dual.complex.space, lambda q: -1 if q % 2 else 1) for op in rep.B]
    return CartanRep(rep.algebra, dual.complex, dual.operators, B)


def evaluation_pairing_residual(rep: CartanRep) -> float:
    """How far V ox V* -> trivial is from intertwining all generators."""
    dual = dual_rep(rep)
    tensor = tensor_rep(rep, dual)
    pair = _pairing_functional(rep)
    worst = compose(pair, tensor.complex.differential).norm()
    for i in range(rep.algebra.n):
        worst = max(worst, compose(pair, tensor.L[i]).norm())
        worst = max(worst, compose(pair, tensor.B[i]).norm())
    return worst


def _pairing_functional(rep: CartanRep) -> GradedOperator:
    """ev: (V ox V*)^0 -> R, v ox phi -> phi(v)."""
    vs = rep.complex.space
    ds = dual_space(vs)
    entries = [(0, 0, tensor_basis_index(vs, ds, p, i, -p, i)[1], 1)
               for p in vs.degrees for i in range(vs.dim(p))]
    return GradedOperator.from_entries(tensor_space(vs, ds), GradedVectorSpace({0: 1}), 0,
                                       entries, rep.mode)


# ---------------------------------------------------------------------------
# morphism spaces and the adjunction
# ---------------------------------------------------------------------------

def hom_space(a, b, tol=linalg.DEFAULT_TOL):
    """Basis of degree-0 chain maps commuting with every generator.

    Works for two CartanReps (conditions d, L, B) or two LieReps
    (conditions d, action).
    """
    mode = a.mode
    if mode != b.mode:
        raise linalg.ModeError("hom_space: mixed modes")
    pairs = [(a.complex.differential, b.complex.differential)]
    if isinstance(a, CartanRep):
        pairs += list(zip(a.L, b.L)) + list(zip(a.B, b.B))
    else:
        pairs += list(zip(a.operators, b.operators))
    source, target = a.complex.space, b.complex.space
    system, n_cols = _intertwiner_system(source, target, pairs, mode)
    return [GradedOperator.from_block_entries(source, target, 0, v, mode)
            for v in linalg.nullspace(system, tol, n_cols)]


def _intertwiner_system(source, target, pairs, mode):
    """Matrix of phi A = A' phi, one pair (A, A') after another, in the entries
    of phi: sparse rows and their count of unknowns (exact), or a dense array
    and None (float).  A degree-0 phi: V -> W is a degree-0 element of W ox V*,
    where phi A - A' phi is (1 ox A* - A' ox 1) phi, A* the transpose of A with
    its Koszul sign undone; each pair gives the degree-0 block of that operator.
    The unknowns are the blocks of phi by degree, each row-major."""
    dual = dual_space(source)
    id_s, id_t = GradedOperator.identity(dual, mode), GradedOperator.identity(target, mode)
    eqs = []
    for op_s, op_t in pairs:
        odd = op_s.degree % 2
        transpose = dual_operator(op_s, dual, lambda q: -1 if odd and q % 2 else 1)
        eqs.append(tensor_operator(id_t, transpose) - tensor_operator(op_t, id_s))
    if mode == EXACT:
        return [row for eq in eqs for row in eq.rows(0)], eqs[0].source.dim(0)
    return np.concatenate([eq.block(0) for eq in eqs]), None


def induced_map(v_rep: LieRep, w_rep: CartanRep, phi0: GradedOperator) -> GradedOperator:
    """The map of the chain representation Lambda(g) ox V to W that extends
    the degree-0 map phi0: V -> W, phi(e_s ox v) = B_{s_1} ... B_{s_m} phi0(v)
    for s_1 < ... < s_m.  Built one generator at a time from the last: on
    the subsets of {i, ..., n-1} it is phi_i = phi_{i+1} + B_i phi_{i+1} (R_i ox 1),
    R_i of ``ce.first_contractions``, from phi_n = phi0 (augmentation ox 1)."""
    if phi0.source != v_rep.complex.space or phi0.target != w_rep.complex.space:
        raise ValueError("induced_map: phi0 must map the space of V to the space of W")
    if phi0.degree != 0:
        raise ValueError(f"induced_map: phi0 must have degree 0, got {phi0.degree}")
    n, mode, space = v_rep.algebra.n, w_rep.mode, v_rep.complex.space
    if phi0.mode != mode:
        raise linalg.ModeError(f"induced_map: phi0 is {phi0.mode}, W is {mode}")
    augmentation = GradedOperator.from_entries(ce.exterior(n, mode).space,
                                               GradedVectorSpace({0: 1}), 0, [(0, 0, 0, 1)], mode)
    phi = ce.CEBasis(n, space, "chain").place(None, (augmentation, phi0))
    for b, lower in reversed(list(zip(w_rep.B, ce.first_contractions(n, mode, space)))):
        phi = phi + compose(b, compose(phi, lower))
    return phi


def intertwiner_residual(op: GradedOperator, a: CartanRep, b: CartanRep) -> float:
    """Max norm of op x - x' op over the differentials and the L and B
    families, each family stacked (``graded.stack``): (1_K ox op) stack(a)
    - stack(b) op."""
    on_labels = _on_labels(a.algebra.n, op)
    worst = (compose(op, a.complex.differential) - compose(b.complex.differential, op)).norm()
    for fa, fb in ((a.L, b.L), (a.B, b.B)):
        worst = max(worst, (compose(on_labels, stack(fa)) - compose(stack(fb), op)).norm())
    return worst


@dataclass
class AdjunctionReport:
    dim_cartan_side: int
    dim_lie_side: int
    reconstruction_residual: float
    precondition_residual: float
    ok: bool


def adjunction_check(v_rep: LieRep, w_rep: CartanRep, tol=linalg.DEFAULT_TOL) -> AdjunctionReport:
    """Restriction to the degree-0 piece is a bijection between maps out of
    the chain representation of V and equivariant maps V -> W."""
    pre = cartan_residuals(w_rep).worst
    bound = linalg.tolerance(w_rep.mode, tol)
    if pre > bound:
        return AdjunctionReport(-1, -1, float("inf"), float(pre), False)
    uv = chain_rep(v_rep.algebra, v_rep)
    d1 = len(hom_space(uv, w_rep, tol))
    lie_maps = hom_space(v_rep, restrict(w_rep), tol)
    d2 = len(lie_maps)
    # restricting phi to Lambda^0 ox V is composing with iota = unit ox 1, unit: 1 -> Lambda^0
    n, space, mode = v_rep.algebra.n, v_rep.complex.space, w_rep.mode
    unit = GradedOperator.from_entries(GradedVectorSpace({0: 1}), ce.exterior(n, mode).space, 0,
                                       [(0, 0, 0, 1)], mode)
    iota = ce.CEBasis(n, space, "chain").place(None, (unit, GradedOperator.identity(space, mode)))
    worst = 0.0
    for phi0 in lie_maps:
        phi = induced_map(v_rep, w_rep, phi0)
        worst = max(worst, intertwiner_residual(phi, uv, w_rep), (compose(phi, iota) - phi0).norm())
    ok = (d1 == d2) and worst <= bound
    return AdjunctionReport(d1, d2, float(worst), float(pre), ok)
