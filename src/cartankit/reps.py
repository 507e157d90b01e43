"""Representations of a Lie algebra and of its Cartan DG Lie algebra.

A ``LieRep`` is a cochain complex with commuting degree-0 operators, one
per basis vector of the algebra.  A ``CartanRep`` adds one degree-(-1)
operator per basis vector.  Each family is stored as one operator: the n
operators are stacked into V -> K ox V over degree-0 labels K
(``graded.stack``), the only storage; ``rep.L``, ``rep.B`` and
``rep.operators`` are lists of block reads, and L(x) is (x^T ox 1) L.  A
``CartanRep`` builds the operators of each letter x once (``Letter``, a
bounded cache keyed by the coordinates): L(x) and B(x), and on first use
the stacked terms of the exact exponential of L(x) and the power stack of
the exact series, all shared read-only.  The float series, quadrature and
point values read the generators through ``rep.flat`` (``FlatRep``, built
on first use), not the letter cache.  The constructions build the stacks
directly, in a fixed number of operator calls whatever n is.
``cartan_residuals`` measures how far the family is from satisfying the
Cartan relations, each relation family as one ``graded.product_sum``:
(1_K ox L) B holds every L_i B_j, a swap of the two labels the reversed
products, and the structure constants act as c: K -> K ox K, the label
arrays built once per algebra and mode; ``LieRep.residuals`` and
``intertwiner_residual`` read the same stacks, and ``hom_space`` solves
the equations ``graded.hom_system`` reads off them.  The Cartan DG Lie algebra
itself is a ``CartanRep``: ``cartan_dgla`` is its adjoint representation,
verified by the d^2 check and ``cartan_residuals``.
``chain_rep`` and ``cochain_rep`` realize the two standard constructions
on the Chevalley-Eilenberg chain and cochain complexes.  The first, left
adjoint to ``restrict``, lives on Lambda(g) ox V with B_i = eps_i ox 1 and
L_i = [del, eps_i] ox 1 + 1 ox rho_i (``ce``); the second is its signed
transpose with the dual coefficients of ``dual_lie_rep``.
``dual_rep``/``tensor_rep`` give the monoidal structure.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import ce, linalg
from .evaluators import FlatRep
from .graded import (MINUS_UNIT, UNIT, CochainComplex, GradedOperator, GradedVectorSpace,
                     compose, dual_complex, dual_operator, dual_space, exp_terms, hom_system,
                     label_combination, label_space, product_sum, read_only, stack,
                     stack_entries, tensor_basis_index, tensor_complex, tensor_operator,
                     tensor_space, unstack)
from .linalg import EXACT

LETTER_CACHE = 64               # letters a CartanRep keeps (``CartanRep.letter``)
_UNIT_ENTRY = ([0], [0], [0], [0], [1])     # ``stack_entries``: 1 at row 0, col 0 of block 0


def _family(ops, algebra, space, degree, what, count):
    """The generators as one operator V -> K ox V (``stack``): a list of n
    operators is stacked once, a stacked operator checked."""
    listed = not isinstance(ops, GradedOperator)
    ops = list(ops) if listed else ops
    if listed and len(ops) != algebra.n:
        raise ValueError(count)
    if any(op.degree != degree for op in (ops if listed else [ops])):
        raise ValueError(f"{what} must have degree {degree}")
    ops = stack(ops) if listed else ops
    if ops.source != space or ops.target != tensor_space(label_space(algebra.n), space):
        raise ValueError(count)
    return ops


class LieRep:
    """Representation of a Lie algebra on a cochain complex; the actions are
    stored stacked, ``stack`` of rho_1 .. rho_n: V -> K ox V."""

    def __init__(self, algebra, complex_: CochainComplex, operators):
        self.algebra = algebra
        self.complex = complex_
        self.stacked = _family(operators, algebra, complex_.space, 0, "Lie algebra actions",
                               "need one operator per basis vector")

    @property
    def mode(self):
        return self.complex.mode

    @property
    def operators(self):
        return unstack(self.stacked, self.algebra.n)

    def residuals(self):
        """Homomorphism + chain-map defects: max norms, keyed by family."""
        d, rho = self.complex.differential, self.stacked
        h = _label_maps(self.algebra, self.mode)
        bracket = product_sum(((h["one"], rho, rho), (h["minus_swap"], rho, rho),
                               (h["minus_c"], rho)))
        chain_map = product_sum(((h["after"], d, rho), (h["minus_before"], rho, d)))
        return {"bracket": bracket.norm(), "chain_map": chain_map.norm()}


class CartanRep:
    """Representation of the Cartan DG Lie algebra: L_i degree 0, B_i degree
    -1, each family stored stacked (``L_stack``, ``B_stack``: V -> K ox V)."""

    def __init__(self, algebra, complex_: CochainComplex, L, B):
        self.algebra = algebra
        self.complex = complex_
        count = "need one L and one B per basis vector"
        self.L_stack = _family(L, algebra, complex_.space, 0, "L operators", count)
        self.B_stack = _family(B, algebra, complex_.space, -1, "B operators", count)
        self._letters = {}

    @property
    def mode(self):
        return self.complex.mode

    @property
    def differential(self):
        return self.complex.differential

    @property
    def L(self):
        return unstack(self.L_stack, self.algebra.n)

    @property
    def B(self):
        return unstack(self.B_stack, self.algebra.n)

    def letter(self, x) -> "Letter":
        """The operators of the letter x, built once per coordinate tuple and
        shared read-only; past ``LETTER_CACHE`` letters the oldest is dropped.
        Keyed by each coordinate's type and value: (1, 0) == (1.0, 0.0), but a
        float letter of an exact representation raises ``ModeError``."""
        key = tuple((type(v), v) for v in x)
        entry = self._letters.get(key)
        if entry is None:
            if len(self._letters) >= LETTER_CACHE:
                del self._letters[next(iter(self._letters))]
            entry = self._letters[key] = Letter(label_combination(x, self.L_stack),
                                                label_combination(x, self.B_stack))
        return entry

    @cached_property
    def flat(self) -> FlatRep:
        """The float view: the dense degree blocks of the stacks, built once;
        ``ModeError`` in exact mode."""
        return FlatRep(self)


class Letter:
    """L(x) and B(x) of one letter x, and, built on first use in exact mode,
    the exact exponential of A = L(x) as a polynomial in t: the ``stack`` of
    its terms A^m / m! (``exp_stack``, the coefficient of t^m under label m)
    whose label sum is ``exp``; and the power stack of the exact series:
    ``stack`` of B, B A, ..., B A^c, c the last power with a stored entry
    (A is nilpotent)."""

    def __init__(self, L, B):
        self.L, self.B = read_only(L), read_only(B)

    @cached_property
    def exp_stack(self):
        """The stack of the terms A^m / m! and their number."""
        terms = exp_terms(self.L)
        return read_only(stack(terms)), len(terms)

    @cached_property
    def exp(self) -> GradedOperator:
        op, count = self.exp_stack
        return read_only(label_combination((1,) * count, op))

    @cached_property
    def powers(self):
        """The power stack and its number of labels c + 1."""
        ps = [self.B]
        while (nxt := compose(ps[-1], self.L)).norm():
            if len(ps) > self.L.source.total_dim:
                raise linalg.ModeError("exponential series does not terminate in exact mode")
            ps.append(nxt)
        return read_only(stack(ps)), len(ps)


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


@lru_cache(maxsize=64)
def _label_maps(algebra, mode):
    """The ``graded.product_sum`` arrays of the relation families on the
    labels K = label_space(n) of ``stack``, label (j, i) of K ox K at j n + i
    holding f_i g_j in (1_K ox stack(f)) stack(g): ``one`` keeps every
    product, ``swap`` takes label (j, i) from (i, j), the reversed products,
    and ``c``: K -> K ox K, c(e_k) = sum_{i,j} c[i, j, k] e_j ox e_i, puts
    sum_k c[i, j, k] h_k at label (j, i); ``after`` and ``before`` keep the
    n products of a plain operator after and before a stack, ``eye`` keeps
    a stack and ``unit`` the product of two plain operators.  Each also
    negated (``minus``); built once per (algebra, mode) and shared
    read-only."""
    n, c = algebra.n, algebra.constants(mode)
    eye = np.eye(n, dtype=int)
    one = np.eye(n * n, dtype=int).reshape(n * n, n, n)
    maps = {"one": one, "swap": one.transpose(0, 2, 1).reshape(n * n, n, n),
            "c": c.transpose(1, 0, 2).reshape(n * n, n), "after": eye[:, :, None],
            "before": eye[:, None, :], "eye": eye, "unit": UNIT}
    maps.update({f"minus_{k}": -h for k, h in list(maps.items())})
    for h in maps.values():
        h.flags.writeable = False
    return maps


def cartan_residuals(rep: CartanRep) -> CartanReport:
    """Residuals of [L,L]=L, [L,B]=B, [B,B]=0 and [d,B]=L, as max norms over
    all generators: each family is one ``product_sum`` on the stacked L and
    B (``graded.stack``), the block of label pair (j, i) holding the
    relation for (i, j)."""
    L, B, d = rep.L_stack, rep.B_stack, rep.differential
    h = _label_maps(rep.algebra, rep.mode)
    families = (((h["one"], L, L), (h["minus_swap"], L, L), (h["minus_c"], L)),
                ((h["one"], L, B), (h["minus_swap"], B, L), (h["minus_c"], B)),
                ((h["one"], B, B), (h["swap"], B, B)),
                ((h["after"], d, B), (h["before"], B, d), (h["minus_eye"], L)))
    return CartanReport(*(product_sum(terms).norm() for terms in families))


# ---------------------------------------------------------------------------
# basic constructions
# ---------------------------------------------------------------------------

def _zero_family(algebra, complex_, degree, mode):
    space = complex_.space
    return GradedOperator.zero(space, tensor_space(label_space(algebra.n), space), degree, mode)


def trivial_lie_rep(algebra, dim=1, degree=0, mode=EXACT) -> LieRep:
    complex_ = CochainComplex.concentrated(dim, degree, mode)
    return LieRep(algebra, complex_, _zero_family(algebra, complex_, 0, mode))


def trivial_cartan_rep(algebra, dim=1, degree=0, mode=EXACT) -> CartanRep:
    complex_ = CochainComplex.concentrated(dim, degree, mode)
    return CartanRep(algebra, complex_, *(_zero_family(algebra, complex_, k, mode)
                                          for k in (0, -1)))


def adjoint_rep(algebra, mode=EXACT) -> LieRep:
    """ad(e_i) e_j = sum_k c[i, j, k] e_k, stacked straight from the constants."""
    complex_ = CochainComplex.concentrated(algebra.n, 0, mode)
    c = algebra.constants(mode)
    i, j, k = np.nonzero(c)
    space = complex_.space
    return LieRep(algebra, complex_, stack_entries(algebra.n, space, space, 0,
                                                   (i, 0 * i, k, j, c[i, j, k]), mode))


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
    d = stack_entries(1, space, space, 1, ([0] * n, [-1] * n, range(n), range(n), [1] * n), EXACT)
    i, j, k = np.nonzero(algebra.c)
    c = algebra.c[i, j, k]
    both = [np.concatenate([a, a]) for a in (i, k, j, c)]
    degrees = np.repeat([-1, 0], len(c))
    L = stack_entries(n, space, space, 0, (both[0], degrees, *both[1:]), EXACT)
    B = stack_entries(n, space, space, -1, (i, 0 * i, k, j, c), EXACT)
    return CartanRep(algebra, CochainComplex(space, d), L, B)


def restrict(rep: CartanRep) -> LieRep:
    """Forget the degree-(-1) operators."""
    return LieRep(rep.algebra, rep.complex, rep.L_stack)


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
    n = a.algebra.n
    L, B = (tensor_operator(fa, idb, labels=n) + tensor_operator(ida, fb, labels=n)
            for fa, fb in ((a.L_stack, b.L_stack), (a.B_stack, b.B_stack)))
    return CartanRep(a.algebra, complex_, L, B)


def dual_lie_rep(rep: LieRep) -> LieRep:
    """Dual coefficients: the dual complex, each action -R^T."""
    dc = dual_complex(rep.complex)
    return LieRep(rep.algebra, dc, dual_operator(rep.stacked, dc.space, lambda q: -1,
                                                 rep.algebra.n))


def dual_rep(rep: CartanRep) -> CartanRep:
    """Dual action, signs fixed by requiring the evaluation pairing
    V ox V* -> R (trivial module) to be a map of representations:
    L* = -L^T blockwise (``dual_lie_rep``), B* and the dual differential
    pick up (-1)^q."""
    dual = dual_lie_rep(restrict(rep))
    B = dual_operator(rep.B_stack, dual.complex.space, lambda q: -1 if q % 2 else 1,
                      rep.algebra.n)
    return CartanRep(rep.algebra, dual.complex, dual.stacked, B)


def evaluation_pairing_residual(rep: CartanRep) -> float:
    """How far the evaluation pairing V ox V* -> trivial is from a map of
    representations (``intertwiner_residual``)."""
    return intertwiner_residual(_pairing_functional(rep), tensor_rep(rep, dual_rep(rep)),
                                trivial_cartan_rep(rep.algebra, mode=rep.mode))


def _pairing_functional(rep: CartanRep) -> GradedOperator:
    """ev: (V ox V*)^0 -> R, v ox phi -> phi(v)."""
    vs = rep.complex.space
    ds = dual_space(vs)
    cols = [tensor_basis_index(vs, ds, p, i, -p, i)[1] for p in vs.degrees
            for i in range(vs.dim(p))]
    zeros = [0] * len(cols)
    return stack_entries(1, tensor_space(vs, ds), label_space(1), 0,
                         (zeros, zeros, zeros, cols, [1] * len(cols)), rep.mode)


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
        pairs += [(a.L_stack, b.L_stack), (a.B_stack, b.B_stack)]
    else:
        pairs += [(a.stacked, b.stacked)]
    source, target = a.complex.space, b.complex.space
    system, n_cols = hom_system(source, target, pairs, a.algebra.n)
    return [GradedOperator.from_block_entries(source, target, 0, v, mode)
            for v in linalg.nullspace(system, tol, n_cols)]


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
    augmentation = stack_entries(1, ce.exterior(n, mode).space, label_space(1), 0, _UNIT_ENTRY,
                                 mode)
    phi = ce.basis(n, space, "chain").place(None, (augmentation, phi0))
    for b, lower in reversed(list(zip(w_rep.B, ce.first_contractions(n, mode, space)))):
        phi = product_sum([(UNIT, b, compose(phi, lower)), (UNIT, phi)])
    return phi


def intertwiner_residual(op: GradedOperator, a: CartanRep, b: CartanRep) -> float:
    """Max norm of op x - x' op over the differentials and the L and B
    families, each family stacked (``graded.stack``) and one
    ``product_sum``: (1_K ox op) stack(a) - stack(b) op."""
    h = _label_maps(a.algebra, a.mode)
    worst = product_sum(((h["unit"], op, a.complex.differential),
                         (h["minus_unit"], b.complex.differential, op))).norm()
    for fa, fb in ((a.L_stack, b.L_stack), (a.B_stack, b.B_stack)):
        worst = max(worst, product_sum(((h["after"], op, fa), (h["minus_before"], fb, op))).norm())
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
    unit = stack_entries(1, label_space(1), ce.exterior(n, mode).space, 0, _UNIT_ENTRY, mode)
    iota = ce.basis(n, space, "chain").place(None, (unit, GradedOperator.identity(space, mode)))
    worst = 0.0
    for phi0 in lie_maps:
        phi = induced_map(v_rep, w_rep, phi0)
        worst = max(worst, intertwiner_residual(phi, uv, w_rep),
                    product_sum([(UNIT, phi, iota), (MINUS_UNIT, phi0)]).norm())
    ok = (d1 == d2) and worst <= bound
    return AdjunctionReport(d1, d2, float(worst), float(pre), ok)
