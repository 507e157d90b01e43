"""Graded vector spaces, graded operators and cochain complexes.

Degrees are stored sparsely (dict degree -> dimension), operators as one
dense block per source degree, and a block is stored if and only if it
has a nonzero entry: a missing block is the zero map, and no operation
builds or multiplies a zero block.  All differentials raise the degree
by one and every constructed complex verifies that its differential
squares to zero.
"""

from fractions import Fraction

import numpy as np

from . import linalg
from .linalg import EXACT, FLOAT, ModeError


class GradedVectorSpace:
    """Finite dict of degree -> dimension; degrees may be negative."""

    def __init__(self, dims):
        self.dims = {int(k): int(d) for k, d in dims.items() if d}
        if any(d < 0 for d in self.dims.values()):
            raise ValueError("dimensions must be nonnegative")

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    @property
    def degrees(self):
        return sorted(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other):
        return isinstance(other, GradedVectorSpace) and self.dims == other.dims

    def __repr__(self):
        return f"GradedVectorSpace({self.dims})"


class GradedOperator:
    """Graded linear map V -> W of fixed degree, stored blockwise.

    ``blocks[k]`` maps V^k into W^(k+degree) and has shape
    (dim W^(k+degree), dim V^k).  Only blocks with a nonzero entry are
    stored; the constructor drops the others after taking the mode from
    every block it is given, so an operator built from zero exact blocks
    is exact with ``blocks == {}``.  ``block(k)`` is the zero-filled
    dense view.
    """

    def __init__(self, source, target, degree, blocks, mode=None):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.blocks = {}
        self.mode = mode
        for k, b in blocks.items():
            b = np.asarray(b)
            want = (target.dim(k + degree), source.dim(k))
            if b.shape != want:
                raise ValueError(f"block {k}: shape {b.shape}, expected {want}")
            bm = linalg.mode_of(b)
            if self.mode is None:
                self.mode = bm
            elif self.mode != bm:
                raise ModeError("mixed-mode blocks in one operator")
            if b.any():
                self.blocks[int(k)] = b
        if self.mode is None:
            self.mode = FLOAT

    @classmethod
    def zero(cls, source, target, degree, mode):
        return cls(source, target, degree, {}, mode=mode)

    @classmethod
    def identity(cls, space, mode):
        blocks = {k: linalg.eye(d, mode) for k, d in space.dims.items()}
        return cls(space, space, 0, blocks, mode=mode)

    def block(self, k: int):
        if k in self.blocks:
            return self.blocks[k]
        return linalg.zeros((self.target.dim(k + self.degree), self.source.dim(k)), self.mode)

    def __add__(self, other):
        self._check_parallel(other)
        blocks = dict(self.blocks)
        for k, b in other.blocks.items():
            blocks[k] = blocks[k] + b if k in blocks else b
        return GradedOperator(self.source, self.target, self.degree, blocks, mode=self.mode)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        if self.mode == EXACT and not isinstance(c, (int, Fraction)):
            raise ModeError("float coefficient on exact operator")
        c = Fraction(c) if self.mode == EXACT else float(c)
        return GradedOperator(self.source, self.target, self.degree,
                              {k: c * b for k, b in self.blocks.items()}, mode=self.mode)

    def _check_parallel(self, other):
        if (self.source != other.source or self.target != other.target
                or self.degree != other.degree):
            raise ValueError("operators not parallel")
        if self.mode != other.mode:
            raise ModeError("mixed-mode operator arithmetic")

    def apply(self, vec):
        """Apply to a dict degree -> coefficient vector; a degree that only
        zero blocks reach is absent from the result."""
        out = {}
        for k, v in vec.items():
            b = self.blocks.get(k)
            if b is not None:
                w = b.dot(np.asarray(v))
                kk = k + self.degree
                out[kk] = w if kk not in out else out[kk] + w
        return out

    def norm(self) -> float:
        return max((linalg.max_abs(b) for b in self.blocks.values()), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def __repr__(self):
        return f"GradedOperator(degree={self.degree}, blocks={sorted(self.blocks)})"


def compose(f: GradedOperator, g: GradedOperator) -> GradedOperator:
    """f after g; degree adds, blocks multiply."""
    if g.target != f.source:
        raise ValueError("compose: target of g differs from source of f")
    if f.mode != g.mode:
        raise ModeError("compose: mixed modes")
    blocks = {}
    for k, bg in g.blocks.items():
        bf = f.blocks.get(k + g.degree)
        if bf is not None:
            blocks[k] = bf.dot(bg)
    return GradedOperator(g.source, f.target, f.degree + g.degree, blocks, mode=f.mode)


def graded_commutator(f: GradedOperator, g: GradedOperator) -> GradedOperator:
    """f g - (-1)^(|f||g|) g f."""
    sign = -1 if (f.degree % 2) and (g.degree % 2) else 1
    return compose(f, g) - sign * compose(g, f)


class CochainComplex:
    """Graded space with a degree +1 differential squaring to zero."""

    def __init__(self, space: GradedVectorSpace, differential: GradedOperator):
        if differential.degree != 1:
            raise ValueError("differential must have degree +1")
        if differential.source != space or differential.target != space:
            raise ValueError("differential must act on the given space")
        self.space = space
        self.differential = differential
        self.mode = differential.mode
        sq = compose(differential, differential)
        bound = 0.0 if self.mode == EXACT else linalg.DEFAULT_TOL
        if not sq.is_zero(bound):
            raise ValueError(f"differential does not square to zero (norm {sq.norm()})")

    @classmethod
    def concentrated(cls, dim: int, degree: int, mode: str):
        space = GradedVectorSpace({degree: dim})
        return cls(space, GradedOperator.zero(space, space, 1, mode))

    @property
    def dims(self):
        return self.space.dims

    def __repr__(self):
        return f"CochainComplex(dims={self.space.dims}, mode={self.mode})"


def tensor_space(v: GradedVectorSpace, w: GradedVectorSpace) -> GradedVectorSpace:
    dims = {}
    for p, dp in v.dims.items():
        for q, dq in w.dims.items():
            dims[p + q] = dims.get(p + q, 0) + dp * dq
    return GradedVectorSpace(dims)


def _tensor_offsets(v, w):
    """Basis layout of (V ox W)^n: (p,q) pairs by increasing p, kron inside."""
    offsets = {}
    for n in tensor_space(v, w).degrees:
        pos = 0
        table = {}
        for p in v.degrees:
            q = n - p
            if w.dim(q) == 0 or v.dim(p) == 0:
                continue
            table[(p, q)] = pos
            pos += v.dim(p) * w.dim(q)
        offsets[n] = table
    return offsets


def tensor_operator(f: GradedOperator, g: GradedOperator) -> GradedOperator:
    """nat(f ox g): acts on V ox W with the Koszul sign (-1)^(|v||g|)."""
    if f.mode != g.mode:
        raise ModeError("tensor_operator: mixed modes")
    mode = f.mode
    src = tensor_space(f.source, g.source)
    tgt = tensor_space(f.target, g.target)
    src_off = _tensor_offsets(f.source, g.source)
    tgt_off = _tensor_offsets(f.target, g.target)
    deg = f.degree + g.degree
    blocks = {}
    for p, bf in f.blocks.items():
        for q, bg in g.blocks.items():
            n = p + q
            out = blocks.get(n)
            if out is None:
                out = blocks[n] = linalg.zeros((tgt.dim(n + deg), src.dim(n)), mode)
            row = tgt_off[n + deg][(p + f.degree, q + g.degree)]
            col = src_off[n][(p, q)]
            sign = -1 if (p % 2) and (g.degree % 2) else 1
            piece = sign * np.kron(bf, bg)
            out[row:row + piece.shape[0], col:col + piece.shape[1]] = piece
    return GradedOperator(src, tgt, deg, blocks, mode=mode)


def tensor_basis_index(v: GradedVectorSpace, w: GradedVectorSpace, p: int, i: int, q: int, j: int):
    """(degree, offset) of basis vector v_i^p ox w_j^q in the tensor layout."""
    table = _tensor_offsets(v, w)[p + q]
    return p + q, table[(p, q)] + i * w.dim(q) + j


def tensor_complex(vc: CochainComplex, wc: CochainComplex) -> CochainComplex:
    """Tensor product complex with differential d ox 1 + (-1)^p 1 ox d."""
    if vc.mode != wc.mode:
        raise ModeError("tensor_complex: mixed modes")
    idv = GradedOperator.identity(vc.space, vc.mode)
    idw = GradedOperator.identity(wc.space, wc.mode)
    diff = tensor_operator(vc.differential, idw) + tensor_operator(idv, wc.differential)
    return CochainComplex(tensor_space(vc.space, wc.space), diff)


def space_offsets(space: GradedVectorSpace):
    """Contiguous layout of the direct sum of all degrees."""
    offsets = {}
    pos = 0
    for k in space.degrees:
        offsets[k] = pos
        pos += space.dim(k)
    return offsets, pos


def flatten_operator(op: GradedOperator):
    """Total matrix of a graded operator over the direct-sum layout."""
    offsets, total = space_offsets(op.source)
    t_off, t_total = space_offsets(op.target)
    out = linalg.zeros((t_total, total), op.mode)
    for k, b in op.blocks.items():
        r, c = t_off[k + op.degree], offsets[k]
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
    return out


def unflatten_matrix(space: GradedVectorSpace, mat, degree: int, mode) -> GradedOperator:
    offsets, _ = space_offsets(space)
    blocks = {}
    for k in space.degrees:
        kk = k + degree
        if kk not in offsets:
            continue
        r, c = offsets[kk], offsets[k]
        blocks[k] = np.array(mat[r:r + space.dim(kk), c:c + space.dim(k)])
    return GradedOperator(space, space, degree, blocks, mode=mode)


def exp_operator(op: GradedOperator, t=1) -> GradedOperator:
    """Blockwise exponential of a degree-0 operator."""
    if op.degree != 0:
        raise ValueError("exp_operator needs a degree-0 operator")
    blocks = {k: linalg.expm(op.block(k), t) for k in op.source.degrees}
    return GradedOperator(op.source, op.source, 0, blocks, mode=op.mode)


def dual_space(v: GradedVectorSpace) -> GradedVectorSpace:
    return GradedVectorSpace({-k: d for k, d in v.dims.items()})


def dual_operator(op: GradedOperator, space: GradedVectorSpace, sign) -> GradedOperator:
    """Transpose of an endomorphism onto the dual ``space``, (V*)^q = (V^-q)*:
    the block at q is ``sign(q)`` times the transpose of op's block at -q - degree."""
    blocks = {}
    for k, b in op.blocks.items():
        q = -k - op.degree
        blocks[q] = sign(q) * b.T
    return GradedOperator(space, space, op.degree, blocks, mode=op.mode)


def dual_complex(vc: CochainComplex) -> CochainComplex:
    """Dual complex; sign fixed so the evaluation pairing is a chain map."""
    vs = dual_space(vc.space)
    diff = dual_operator(vc.differential, vs, lambda q: -1 if q % 2 else 1)
    return CochainComplex(vs, diff)
