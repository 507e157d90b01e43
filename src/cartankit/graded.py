"""Graded vector spaces, graded operators and cochain complexes.

A graded space (dict degree -> dimension) is laid out as the direct sum of
its degrees in increasing order, and a graded operator is one sparse matrix
over the layouts of its source and target: row-major sorted arrays of its
nonzero entries, float64 in float mode and integer numerators over one
common denominator in exact mode, reduced by their gcd after every
operation.  It is read off a block-entries vector (dense: the blocks by
source degree, each row-major) or off entry arrays (sparse: label, block,
row, column, value).  Exact numerators are one arithmetic in two dtypes:
each operation bounds the numerators it makes (max|A| * max|B| times the
terms per entry and the like) and computes in int64 when the bound fits,
in Python ints (object arrays) past it (``_fit``); an operator whose
reduced numerators fit stores them in int64.  Nothing wraps around or
falls back to float.  Only this module knows the layout.  Every
constructed complex verifies that its differential (of degree +1)
squares to zero.  Spaces are interned by their dimensions, so equal spaces
are one object and equality is identity.  No operation writes into an
operand, so an operator keeps what its entries decide, each computed on
first use: max|entry|, the most entries in one row, and per label count
its labels and rows and the match data of its rows (``_Labelled``).  A
family of n parallel operators is stored as one operator V -> K ox W over
the degree-0 space K = ``label_space(n)`` of n labels (``stack``); tensor
products and duals act on such stacks label by label, and ``relabel``
maps the labels by a scalar matrix.  Every
sum, product, stack and relabel is a ``product_sum``, sum_t h_t (1_K ox
f_t) g_t with one entry match per product and one operator for the whole
sum: ``compose`` is its one-product case, ``combination`` (and ``+``,
``-``, scalar ``*``) the sum of the relabel terms (c_k, f_k), ``stack``
the sum of the relabel terms (e_i, f_i), and each relation check one such
sum of relabelled stacked products.  ``hom_system`` reads the equations
phi A = A' phi of a hom space straight off the entries of A and A'.
"""

import math
import weakref
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from . import linalg
from .linalg import EXACT, FLOAT, ModeError

_NONE = np.zeros(0, dtype=int)
_MAX = 2 ** 63 - 1
_FLOAT_MAX = int(np.finfo(float).max)      # compared with a Fraction in integers
# the ``product_sum`` arrays of one product, or in a relabel term of one plain
# operator, and of its negative; read-only, so parsed once
UNIT, MINUS_UNIT = np.ones((1, 1, 1), dtype=int), -np.ones((1, 1, 1), dtype=int)
UNIT.flags.writeable = MINUS_UNIT.flags.writeable = False
# the most float64 entries of the dense rest of a float ``hom_system`` and the
# U of its SVD, rows x (rows + unknowns), counted after the peel
MAX_FLOAT_SYSTEM = 10 ** 7


def _fit(bound, *arrays):
    """The operand arrays of an exact operation whose numerators stay within
    +-``bound``: unchanged (int64) when the bound fits int64, as Python-int
    object arrays past it; None stays None.  A bound counts an empty
    operand's max as 1, so it also covers the common-denominator scale that
    operand is multiplied by.  Float operations pass bound 0."""
    if bound <= _MAX:
        return arrays
    return tuple(None if a is None else a.astype(object) for a in arrays)


class GradedVectorSpace:
    """Finite dict of degree -> dimension; degrees may be negative.  Interned:
    one live object per dimensions (zero ones dropped, degrees in increasing
    order), held weakly so that no second equal space can appear."""

    _interned = weakref.WeakValueDictionary()

    def __new__(cls, dims):
        key = tuple(sorted({int(k): int(d) for k, d in dims.items() if d}.items()))
        if any(d < 0 for _, d in key):
            raise ValueError("dimensions must be nonnegative")
        space = cls._interned.get(key)
        if space is None:
            space = cls._interned[key] = super().__new__(cls)
            space.dims = dict(key)
        return space

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    @property
    def degrees(self):
        return sorted(self.dims)

    @cached_property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @cached_property
    def _starts(self):
        """Offset of each degree in the layout."""
        return {k: int(np.searchsorted(self._index_degrees, k)) for k in self.degrees}

    @cached_property
    def _index_degrees(self):
        """Degree of each basis vector of the layout, read-only."""
        out = np.repeat(self.degrees, [self.dims[k] for k in self.degrees]).astype(int)
        out.setflags(write=False)
        return out

    def __repr__(self):
        return f"GradedVectorSpace({self.dims})"


@lru_cache(maxsize=64)
def label_space(n) -> GradedVectorSpace:
    """The degree-0 space K of the n labels of ``stack``, built once per n."""
    return GradedVectorSpace({0: n})


@lru_cache(maxsize=64)
def _block_entries(source, target, degree):
    """Flat indices of the block entries of a degree-``degree`` map, in the
    total matrix row-major: blocks by source degree, each row-major.  Cached
    by the dimensions of the spaces."""
    parts = [_NONE]
    for k in source.degrees:
        if target.dim(k + degree):
            r = target._starts[k + degree] + np.arange(target.dim(k + degree))
            c = source._starts[k] + np.arange(source.dim(k))
            parts.append((r[:, None] * source.total_dim + c).ravel())
    out = np.concatenate(parts)
    out.flags.writeable = False
    return out


def _numerators(values, mode):
    """Value array and denominator of the scalars of a new operator: exact
    ones are numerators over their common denominator, int64 when they fit
    within +-(2^63 - 1), Python ints past it."""
    if mode == FLOAT:
        return np.asarray(values, dtype=float), 1
    if isinstance(values, np.ndarray) and values.dtype.kind == "i" and \
            values.min(initial=0) >= -_MAX:
        return values.astype(np.int64), 1
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [int(f.numerator) * (den // f.denominator) for f in fracs]
    return np.array(nums, dtype=np.int64 if max(map(abs, nums), default=0) <= _MAX
                    else object), den


class GradedOperator:
    """Graded linear map V -> W of fixed degree, read off a block-entries
    vector or entry arrays (``from_block_entries``, ``stack_entries``).

    ``block(k)`` is a dense copy of V^k -> W^(k+degree) (``Fraction`` entries
    in exact mode) and ``blocks`` the read-only dict of the nonzero blocks."""

    def __init__(self, source, target, degree, mode, rows, cols, data, den=1):
        """Store entries of the layout row-major, duplicates summed in input
        order, no zeros: ``data`` over ``den``, reduced, and Python ints back
        in int64 when they fit.  Only this module calls it."""
        self.source, self.target, self.degree, self.mode = source, target, int(degree), mode
        keys = rows * source.total_dim + cols
        if np.count_nonzero(keys[1:] <= keys[:-1]):
            order = keys.argsort(kind="stable")
            keys, rows, cols, data = keys[order], rows[order], cols[order], data[order]
            first = np.concatenate([[True], keys[1:] != keys[:-1]])
            if np.count_nonzero(first) < len(first):
                rows, cols = rows[first], cols[first]
                # bincount sums each key's floats in input order, as np.add.at
                data = np.bincount(first.cumsum() - 1, data) if data.dtype.kind == "f" \
                    else np.add.reduceat(data, first.nonzero()[0])
        if np.count_nonzero(data) < len(data):
            keep = data != 0
            rows, cols, data = rows[keep], cols[keep], data[keep]
        if mode == EXACT and den != 1 and len(data):
            g = math.gcd(den, int(np.gcd.reduce(data)))
            if g != 1:
                data, den = data // g, den // g
        if data.dtype == object and np.abs(data).max(initial=0) <= _MAX:
            data = data.astype(np.int64)
        self._rows, self._cols, self._data, self._den = rows, cols, data, (den if len(data) else 1)
        self._by_labels = {}

    @classmethod
    def from_block_entries(cls, source, target, degree, vec, mode):
        """Operator with blocks (by source degree, row-major) read off ``vec``."""
        nz = np.flatnonzero(vec)
        pos = _block_entries(source, target, degree)[nz]
        return cls(source, target, degree, mode, pos // source.total_dim,
                   pos % source.total_dim, *_numerators(np.asarray(vec)[nz], mode))

    @classmethod
    def zero(cls, source, target, degree, mode):
        return cls(source, target, degree, mode, _NONE, _NONE, *_numerators([], mode))

    @classmethod
    @lru_cache(maxsize=256)
    def identity(cls, space, mode):
        """The identity of ``space``, built once per (space, mode) and shared:
        its entry arrays are read-only, and no operation writes into an
        operand."""
        diagonal = np.arange(space.total_dim)
        return read_only(cls(space, space, 0, mode, diagonal, diagonal,
                             *_numerators(np.ones(space.total_dim, dtype=int), mode)))

    def _values(self, data):
        return data if self.mode == FLOAT else [Fraction(int(v), self._den) for v in data]

    def _dense(self, rows, cols, data, shape):
        out = linalg.zeros(shape, self.mode)
        out[rows, cols] = self._values(data)
        return out

    def _entries_of(self, k):
        """Rows, columns (both within the block) and values of block k."""
        c0, r0 = self.source._starts.get(k, 0), self.target._starts.get(k + self.degree, 0)
        m = (self._cols >= c0) & (self._cols < c0 + self.source.dim(k))
        return self._rows[m] - r0, self._cols[m] - c0, self._data[m]

    def _stored(self, k):
        """Dense block k, or None when it has no nonzero entry."""
        rows, cols, data = self._entries_of(k)
        shape = (self.target.dim(k + self.degree), self.source.dim(k))
        return self._dense(rows, cols, data, shape) if len(data) else None

    def rows(self, k: int):
        """Exact block k as integer rows {column: numerator}, denominator dropped."""
        out = [{} for _ in range(self.target.dim(k + self.degree))]
        for r, c, v in zip(*(a.tolist() for a in self._entries_of(k))):
            out[r][c] = v
        return out

    def block(self, k: int):
        b = self._stored(k)
        return linalg.zeros((self.target.dim(k + self.degree), self.source.dim(k)),
                            self.mode) if b is None else b

    @property
    def blocks(self):
        stored = {k: self._stored(k) for k in self.source.degrees}
        return MappingProxyType({k: b for k, b in stored.items() if b is not None})

    @cached_property
    def _max(self) -> int:
        """max|entry|."""
        return int(np.abs(self._data).max(initial=0))

    @cached_property
    def _row_terms(self) -> int:
        """The most entries in one row: the terms per entry of a product with
        this operator on the left."""
        return int(np.bincount(self._rows, minlength=1).max())

    def _labelled(self, n) -> "_Labelled":
        """This operator read as V -> K ox W stacked over n labels
        (``stack``), once per n."""
        out = self._by_labels.get(n)
        if out is None:
            out = self._by_labels[n] = _Labelled(self, n)
        return out

    def __add__(self, other):
        return combination((1, 1), (self, other))

    def __sub__(self, other):
        return combination((1, -1), (self, other))

    def __rmul__(self, c):
        return combination((c,), (self,))

    def norm(self) -> float:
        """Entrywise max-norm, as a float in either mode: inf past the float
        range."""
        top = self._values([np.abs(self._data).max(initial=0)])[0]
        return math.inf if top > _FLOAT_MAX else float(top)

    def __repr__(self):
        degrees = np.unique(self.source._index_degrees[self._cols]).tolist()
        return f"GradedOperator(degree={self.degree}, blocks={degrees})"


def read_only(op) -> GradedOperator:
    """Mark the entry arrays of ``op`` read-only, so that it can be cached and
    shared: no operation writes into an operand."""
    for a in (op._rows, op._cols, op._data):
        a.flags.writeable = False
    return op


class _Labelled:
    """An operator V -> K ox W stacked over n labels (``stack``) read entry by
    entry: W, and the label and the row in W of each entry (n = 1, a plain
    operator: every label 0, rows already sorted); and, on first use, the
    ``_matched`` data of its rows (``by_row``).  Every array it makes is
    read-only."""

    def __init__(self, op, n):
        self.n = n
        if n == 1:
            self.w, self.label, self.row = op.target, _zeros(len(op._rows)), op._rows
        else:
            self.w, label, row = _unlabel(n, op.target)
            self.label, self.row = label[op._rows], row[op._rows]
            self.label.setflags(write=False)
            self.row.setflags(write=False)

    @cached_property
    def by_row(self):
        return _matched(self.row, self.w.total_dim, self.n != 1)


def compose(f: GradedOperator, g: GradedOperator) -> GradedOperator:
    """f after g; degree adds: the one-product ``product_sum``."""
    if g.target is not f.source:
        raise ValueError("compose: target of g differs from source of f")
    return product_sum([(UNIT, f, g)])


def combination(coeffs, ops) -> GradedOperator:
    """sum_k coeffs[k] ops[k] over parallel operators (at least one): the
    ``product_sum`` of the relabel terms ([[c_k]], op_k); ``+``, ``-`` and
    scalar ``*`` are its cases.  An exact coefficient must be an int or a
    ``Fraction``."""
    return product_sum([(_scalar(c), op) for c, op in zip(coeffs, ops)])


@lru_cache(maxsize=256, typed=True)
def _scalar(c):
    """The read-only label array [[c]] of a coefficient, built once per type
    and value, so that ``_label_map`` reads it once per mode.  The type is
    part of the key: Fraction(1) == 1.0 and both hash alike, but a float
    coefficient on an exact operator raises ``ModeError``."""
    out = np.array([[c]], dtype=object)
    out.flags.writeable = False
    return out


def graded_commutator(f: GradedOperator, g: GradedOperator) -> GradedOperator:
    """f g - (-1)^(|f||g|) g f."""
    sign = -1 if (f.degree % 2) and (g.degree % 2) else 1
    return combination((1, -sign), (compose(f, g), compose(g, f)))


class CochainComplex:
    """Graded space with a degree +1 differential squaring to zero, checked
    by one ``compose`` unless the differential has no stored entry."""

    def __init__(self, space: GradedVectorSpace, differential: GradedOperator):
        if differential.degree != 1:
            raise ValueError("differential must have degree +1")
        if differential.source is not space or differential.target is not space:
            raise ValueError("differential must act on the given space")
        self.space = space
        self.differential = differential
        self.mode = differential.mode
        if len(differential._data):
            sq = compose(differential, differential)
            if sq.norm() > linalg.tolerance(self.mode):
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


@lru_cache(maxsize=256)
def tensor_space(v: GradedVectorSpace, w: GradedVectorSpace) -> GradedVectorSpace:
    """V ox W, cached by the dimensions of V and W."""
    dims = {}
    for p, dp in v.dims.items():
        for q, dq in w.dims.items():
            dims[p + q] = dims.get(p + q, 0) + dp * dq
    return GradedVectorSpace(dims)


@lru_cache(maxsize=64)
def _tensor_position(v, w, descending=False):
    """Layout position in V ox W of each Kronecker index a * dim W + b: the
    layout of (V ox W)^n lists the (p, q) pairs by increasing p (decreasing
    p when ``descending``), in Kronecker order v_i ox w_j inside each pair
    (a stable sort).  Cached by the dimensions of V and W."""
    p = np.repeat(v._index_degrees, w.total_dim)
    order = np.lexsort((-p if descending else p, p + np.tile(w._index_degrees, v.total_dim)))
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    pos.flags.writeable = False
    return pos


def tensor_operator(f: GradedOperator, g: GradedOperator, labels=None) -> GradedOperator:
    """nat(f ox g): acts on V ox W with the Koszul sign (-1)^(|v||g|).  One
    Kronecker product, signed by the source degree of f when g is odd and
    moved into the tensor layout by ``_tensor_position``; ``labels`` as in
    ``_tensor_sum``."""
    return _tensor_sum([(f, g)], labels=labels)


def _tensor_sum(pairs, descending=False, signs=None, labels=None):
    """sum of nat(f ox g) over pairs with equal spaces and total degree, in
    one pass; each entry times signs[row] * signs[col] when given.

    With ``labels`` = n, a factor may be a family V -> K ox V stacked over n
    labels (``stack``) and the other factor is then an endomorphism: a
    factor whose target is not its source is the stacked one.  One stacked
    factor per pair puts its label in front, on K ox (V ox W) (K sits in
    degree 0, so moving it carries no sign); two are summed over their
    common label, sum_i f_i ox g_i.  ``signs`` are read on V ox W."""
    f0, g0 = pairs[0]
    if any(mode != f0.mode for f, g in pairs for mode in (f.mode, g.mode)):
        raise ModeError("tensor_operator: mixed modes")
    den = math.lcm(*(f._den * g._den for f, g in pairs))
    split = [[_split_labels(op, labels) for op in pair] for pair in pairs]
    bound = 0 if f0.mode == FLOAT else sum(
        max(f._max * g._max * (labels if fl is not None and gl is not None else 1), 1)
        * (den // (f._den * g._den)) for (f, g), ((_, fl, _), (_, gl, _)) in zip(pairs, split))
    (_, _, v), (_, _, w) = split[0]
    rpos = _tensor_position(v, w, descending)
    cpos = _tensor_position(f0.source, g0.source, descending)
    rows, cols, data, tags = [], [], [], []
    for (f, g), ((fr, fl, _), (gr, gl, _)) in zip(pairs, split):
        fd, gd = _fit(bound, f._data, g._data)
        fd = fd * (den // (f._den * g._den))
        if g.degree % 2:
            fd = fd * (1 - 2 * (f.source._index_degrees[f._cols] % 2))
        if fl is not None and gl is not None:
            mine, theirs = _label_join(fl.label, _matched(gl.label, labels))
            tags.append(None)
            rows.append(rpos[fr[mine] * w.total_dim + gr[theirs]])
            cols.append(cpos[f._cols[mine] * g.source.total_dim + g._cols[theirs]])
            data.append(fd[mine] * gd[theirs])
            continue
        tags.append(np.repeat(fl.label, len(gr)) if fl is not None else
                    None if gl is None else np.tile(gl.label, len(fr)))
        rows.append(rpos[(fr[:, None] * w.total_dim + gr).ravel()])
        cols.append(cpos[(f._cols[:, None] * g.source.total_dim + g._cols).ravel()])
        data.append((fd[:, None] * gd).ravel())
    rows, cols, data = map(np.concatenate, (rows, cols, data))
    if signs is not None:
        data = data * (signs[rows] * signs[cols])
    target = tensor_space(v, w)
    if any(t is not None for t in tags):
        rows = _stacked_rows(labels, target, np.concatenate(tags), rows)
        target = tensor_space(label_space(labels), target)
    return GradedOperator(tensor_space(f0.source, g0.source), target, f0.degree + g0.degree,
                          f0.mode, rows, cols, data, den)


def _split_labels(op, labels):
    """Rows, ``_Labelled`` and target of the factor ``op`` of ``_tensor_sum``:
    its own for a plain factor (``_Labelled`` None), read off K ox V for a
    stacked endomorphism family of V."""
    if labels is None or op.target is op.source:
        return op._rows, None, op.target
    lab = op._labelled(labels)
    if lab.w is not op.source:
        raise ValueError("tensor_operator: a stacked factor must be a family of endomorphisms")
    return lab.row, lab, lab.w


def _matched(keys, n, unsorted=True):
    """The match data of ``keys`` in range(n) for ``_label_join``: their
    stable argsort (None for keys already sorted) and the start of each key
    in sorted order, read-only."""
    order = keys.argsort(kind="stable") if unsorted else None
    starts = (keys if order is None else keys[order]).searchsorted(np.arange(n + 1))
    for a in (order, starts):
        if a is not None:
            a.setflags(write=False)
    return order, starts


def _label_join(fl, matched):
    """Index pairs (a, b) with fl[a] == gl[b], by a then b, for gl given by
    its ``_matched`` data."""
    order, starts = matched
    counts = starts[fl + 1] - starts[fl]
    mine = np.arange(len(fl)).repeat(counts)
    theirs = np.arange(len(mine)) + (starts[fl] - counts.cumsum() + counts).repeat(counts)
    return mine, theirs if order is None else order[theirs]


def _stacked_rows(n, w, label, rows):
    """Layout position in K ox W (K the n labels of ``stack``) of each label
    and row of W."""
    return rows if n == 1 else _tensor_position(label_space(n), w)[label * w.total_dim + rows]


@lru_cache(maxsize=256)
def _zeros(n):
    """The labels of n entries of a plain operator, all 0: built once per
    n, read-only."""
    out = np.zeros(n, dtype=int)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _unlabel(n, target):
    """W with target = K ox W, K = label_space(n) the labels of ``stack``,
    and the label and position in W of each basis vector of target."""
    w = GradedVectorSpace({k: d // n for k, d in target.dims.items()})
    if target is not tensor_space(label_space(n), w):
        raise ValueError(f"target is not stacked over {n} labels")
    pos = _tensor_position(label_space(n), w)
    index = np.empty_like(pos)
    index[pos] = np.arange(len(pos))
    label, row = index // max(w.total_dim, 1), index % max(w.total_dim, 1)
    for a in (label, row):
        a.flags.writeable = False
    return w, label, row


_LabelMap = namedtuple("_LabelMap", "shape to of den row_sum values dest coef")
_LABEL_MAPS = {}        # (id, mode) of a read-only label array -> (array, its _LabelMap)


def _label_map(h, mode) -> _LabelMap:
    """Shape, nonzero (row, column) indices, denominator, largest row sum of
    |values| and values of a scalar matrix h of labels (nested lists or an
    array; a 3-d one is read as m x (q p)): exact values are int numerators
    over their common denominator (``ModeError`` unless each is an int or a
    ``Fraction``), an object array past int64, float ones floats over 1.
    When no column has two nonzeros, also the row and value of each column
    (-1 and 0 for an empty one).  A read-only array is read once per mode."""
    key = (id(h), mode)
    if (hit := _LABEL_MAPS.get(key)) is not None and hit[0] is h:
        return hit[1]
    a = h if isinstance(h, np.ndarray) else np.array(h, dtype=object)
    flat = a.reshape(len(a), -1)
    to, of = np.nonzero(flat)
    nums, den = flat[to, of].tolist(), 1
    if mode == FLOAT:
        nums = [float(c) for c in nums]
    elif not all(isinstance(c, (int, Fraction)) for c in nums):
        raise ModeError("float coefficient on exact operator")
    else:
        den = math.lcm(*(c.denominator for c in nums))
        nums = [c.numerator * (den // c.denominator) for c in nums]
    sums = [0] * len(a)
    for i, v in zip(to.tolist(), nums):
        sums[i] += abs(v)
    row_sum = max(sums, default=0)
    values = np.array(nums, dtype=float if mode == FLOAT else
                      np.int64 if row_sum <= _MAX else object)
    dest = coef = None
    if len(a) == 1 or len(np.unique(of)) == len(of):
        dest, coef = np.full(flat.shape[1], -1), np.zeros(flat.shape[1], dtype=values.dtype)
        dest[of], coef[of] = to, values
    out = _LabelMap(a.shape, to, of, den, row_sum, values, dest, coef)
    if isinstance(h, np.ndarray) and not h.flags.writeable:
        for x in (to, of, values, dest, coef):
            if x is not None:
                x.setflags(write=False)
        if len(_LABEL_MAPS) >= 256:
            del _LABEL_MAPS[next(iter(_LABEL_MAPS))]
        _LABEL_MAPS[key] = h, out
    return out


def relabel(h, op) -> GradedOperator:
    """(h ox 1_W) op for op: V -> K_n ox W stacked over n labels (``stack``)
    and a scalar map h: K_n -> K_m of the labels, given as its m x n matrix
    (nested lists or an array; a 3-d one is read as m x (q p)): label i of
    the result is sum_j h[i][j] f_j, the one-term ``product_sum``."""
    return product_sum([(h, op)])


def label_combination(x, op) -> GradedOperator:
    """sum_i x_i f_i for f_1 .. f_n stacked over n = len(x) labels
    (``stack``): the one-row ``relabel``, whose target K_1 ox W is W."""
    return relabel([list(x)], op)


def product_sum(terms) -> GradedOperator:
    """sum_t h_t (1_K ox f_t) g_t over terms (h, f, g): f: U -> K_p ox W and
    g: V -> K_q ox U stacked over p and q labels (``stack``; one label for a
    plain operator), K = K_q, and h an m x q x p scalar array: label i of the
    sum is sum_{j,k} h[i, j, k] f_k g_j, label (j, k) of the product being
    f_k g_j.  A term (h, f) adds (h ox 1_W) f for an m x p array h, or an
    m x q x p one read as m x (q p) (``relabel``).  The terms share source,
    W, degree and m.  One entry match per distinct (f, g) and one operator
    for the whole sum, its exact numerators in Python ints when their bound
    could leave int64: the sum over terms of max|f| max|g| (terms per entry)
    times the largest row sum of |h|, at the common denominator."""
    mode, parsed, products = terms[0][1].mode, [], {}
    for h, f, *g in terms:
        g = g[0] if g else None
        lab = _label_map(h, mode)
        if len(lab.shape) not in ((2, 3) if g is None else (3,)):
            raise ValueError("product_sum: h must be m x p or m x q x p, m x q x p with g")
        if g is None:
            if f.mode != mode:
                raise ModeError("product_sum: mixed modes")
            fl = f._labelled(math.prod(lab.shape[1:]))
            found = (fl.w, fl.label, fl.row, f._cols, f._data, None)
        elif (found := products.get((id(f), id(g)))) is None:
            found = products[id(f), id(g)] = _product_terms(f, g, *lab.shape[1:], mode)
        parsed.append((f, g, lab, found))
    shared = {((g or f).source, found[0], f.degree + (g.degree if g else 0), lab.shape[0])
              for f, g, lab, found in parsed}
    if len(shared) != 1:
        raise ValueError("product_sum: terms not parallel")
    (source, w, degree, m), den, bound = shared.pop(), 1, 0
    if mode == EXACT:
        dens = [lab.den * f._den * (g._den if g else 1) for f, g, lab, _ in parsed]
        den = math.lcm(*dens)
        bound = sum(den // d * max(lab.row_sum, 1) * max(f._max, 1) *
                    max(g._max * f._row_terms if g else 1, 1)
                    for d, (f, g, lab, _) in zip(dens, parsed))
    rows, cols, data = [], [], []
    for f, g, lab, (_, label, r, c, a, b) in parsed:
        scale = den // (lab.den * f._den * (g._den if g else 1)) if mode == EXACT else 1
        a, b = _fit(bound, a, b)
        values = a if b is None else a * b
        if lab.dest is not None:
            to, coef = lab.dest[label], lab.coef[label]
            if len(lab.of) < len(lab.dest) and np.count_nonzero(to < 0):    # an empty column
                keep = to >= 0
                to, r, c, values, coef = (x[keep] for x in (to, r, c, values, coef))
        else:
            mine, theirs = _label_join(label, _matched(lab.of, math.prod(lab.shape[1:])))
            to, r, c, values, coef = lab.to[theirs], r[mine], c[mine], values[mine], \
                lab.values[theirs]
        rows.append(_stacked_rows(m, w, to, r))
        cols.append(c)
        data.append(values * coef * scale if scale != 1 else values * coef)
    parts = [x[0] if len(x) == 1 else np.concatenate(x) for x in (rows, cols, data)]
    return GradedOperator(source, tensor_space(label_space(m), w), degree, mode, *parts, den)


def _product_terms(f, g, q, p, mode):
    """W and the terms of (1_K ox f) g for f: U -> K_p ox W and g: V -> K_q ox U
    stacked over p and q labels: the product label j p + k, the row in W and
    the column of each term, and its two factors; by f entry, then g entry,
    so that an entry sums its terms by increasing inner index."""
    if f.mode != mode or g.mode != mode:
        raise ModeError("product_sum: mixed modes")
    fl, gl = f._labelled(p), g._labelled(q)
    if gl.w is not f.source:
        raise ValueError("product_sum: target of g is not K ox the source of f")
    mine, theirs = _label_join(f._cols, gl.by_row)
    label = _zeros(len(mine)) if p == q == 1 else gl.label[theirs] * p + fl.label[mine]
    return fl.w, label, fl.row[mine], g._cols[theirs], f._data[mine], g._data[theirs]


@lru_cache(maxsize=64)
def _entry_places(source, target, degree):
    """Place of the entry (r, c) of a degree-``degree`` map source -> target
    among its block entries (``_block_entries``: blocks by source degree,
    each row-major): start[c] + width[c] * local[r], r and c basis vectors of
    target and source; and the number of block entries."""
    start, width = (np.zeros(source.total_dim, dtype=int) for _ in range(2))
    count = 0
    for k in source.degrees:
        c = source._starts[k] + np.arange(source.dim(k))
        start[c], width[c] = count + np.arange(len(c)), len(c)
        count += target.dim(k + degree) * len(c)
    local = np.arange(target.total_dim) - np.searchsorted(target._index_degrees,
                                                          target._index_degrees)
    for a in (start, width, local):
        a.flags.writeable = False
    return start, width, local, count


@lru_cache(maxsize=64)
def _same_degree(v, w):
    """Start and dimension in W of the degree of each basis vector of V."""
    start = np.searchsorted(w._index_degrees, v._index_degrees)
    out = start, np.searchsorted(w._index_degrees, v._index_degrees, "right") - start
    for a in out:
        a.flags.writeable = False
    return out


def _spread(index, v, w):
    """Each of the basis vectors ``index`` of V against every basis vector of
    W of its degree: the position in ``index`` and the basis vector of W of
    each pair."""
    start, dim = (a[index] for a in _same_degree(v, w))
    at = np.repeat(np.arange(len(index)), dim)
    return at, start[at] + np.arange(len(at)) - np.repeat(dim.cumsum() - dim, dim)


def hom_system(source, target, pairs, n, tol=linalg.DEFAULT_TOL):
    """The equations phi A = A' phi over pairs (A, A') of endomorphism
    families of source and target (a family whose target is not its source
    is stacked over n labels, ``stack``) in the entries of the generic
    degree-0 map phi: source -> target, unknown e its e-th block entry
    (blocks by degree, each row-major): one row (label l, entry (w, v) of a
    map of degree |A|) per nonzero sum_v' phi[w, v'] A_l[v', v] -
    sum_w' A'_l[w, w'] phi[w', v], read straight off the entries of A and
    A' and summed pair by pair, pairs and labels in order, rows in
    block-entry order; exact sums in Python ints when max|A| + max|A'| at
    their common denominator could leave int64.  A float entry counts only
    above ``tol`` times the largest entry of every A and A' (the relative
    tolerance of the float rank), so a roundoff row forces no zero.  The
    forced zeros are peeled off these entry arrays (``linalg.peel``), each
    pair's as it is read and then all together, before any row is built.
    Returns the rest, the unknowns it is in (the live ones, in increasing
    order; every other unknown is 0) and the number of unknowns.  Exact:
    the rest as sparse integer rows {column: numerator}, column i for live
    unknown i, each row once up to a factor (``linalg.primitive_rows``: an
    equation that several labels or pairs give is eliminated once).  Float:
    one dense array, or ``linalg.BudgetError`` before it is built when it
    and the U of its SVD would take more than ``MAX_FLOAT_SYSTEM`` entries."""
    mode = pairs[0][0].mode
    start0, width0, local, n_cols = _entry_places(source, target, 0)
    floor = 0 if mode == EXACT else tol * max(op.norm() for pair in pairs for op in pair)
    dead = np.zeros(n_cols, dtype=bool)
    parts = []
    offset = 0
    for a, b in pairs:
        start, width, _, count = _entry_places(source, target, a.degree)
        la, lb = (op._labelled(1 if op.target is op.source else n) for op in (a, b))
        ra, rb = la.row, lb.row
        den = math.lcm(a._den, b._den)
        ad, bd = _fit(max(a._max, 1) * (den // a._den) + max(b._max, 1) * (den // b._den)
                      if mode == EXACT else 0, a._data, b._data)
        at, w = _spread(ra, source, target)             # phi[w, v'] A_l[v', v]
        v = a._cols[at]
        keys = [(offset + la.label[at] * count + start[v] + width[v] * local[w]) * n_cols
                + start0[ra[at]] + width0[ra[at]] * local[w]]
        data = [ad[at] * (den // a._den)]
        at, v = _spread(b._cols, target, source)        # A'_l[w, w'] phi[w', v]
        w = rb[at]
        keys.append((offset + lb.label[at] * count + start[v] + width[v] * local[w]) * n_cols +
                    start0[v] + width0[v] * local[b._cols[at]])
        data.append(bd[at] * -(den // b._den))
        keys, data = _summed(np.concatenate(keys), np.concatenate(data), floor)
        parts.append(linalg.peel(*np.divmod(keys, n_cols or 1), data, dead))
        offset += count * (n if a.target is not a.source else 1)
    row, col, data = linalg.peel(*(np.concatenate(part) for part in zip(*parts)), dead)
    live = np.flatnonzero(~dead)
    col = (np.cumsum(~dead) - 1)[col]
    if mode == EXACT:
        return linalg.primitive_rows(row, col, data), live, n_cols
    first = linalg.run_bounds(row)[:-1]
    rows = np.count_nonzero(first)
    if rows * (rows + len(live)) > MAX_FLOAT_SYSTEM:
        raise linalg.BudgetError(f"the peeled float hom-space system is {rows} x {len(live)}, "
                                 f"with its SVD over the budget of {MAX_FLOAT_SYSTEM} entries; "
                                 f"use --mode exact")
    out = np.zeros((rows, len(live)))
    out[np.cumsum(first) - 1, col] = data
    return out, live, n_cols


def _summed(keys, data, floor):
    """The sums of ``data`` over equal ``keys`` that are above ``floor`` in
    absolute value (nonzero for floor 0), by increasing key."""
    order = np.argsort(keys, kind="stable")
    keys, data = keys[order], data[order]
    first = np.flatnonzero(linalg.run_bounds(keys)[:-1])
    data = np.add.reduceat(data, first) if len(keys) else data
    keep = np.abs(data) > floor if floor else data != 0
    return keys[first][keep], data[keep]


def stack(ops) -> GradedOperator:
    """The parallel operators f_1 .. f_n: V -> W as one operator V -> K ox W,
    K = label_space(n) a degree-0 space of labels, whose block i
    is f_i: the ``product_sum`` of the relabel terms (e_i, f_i), e_i the
    unit column of label i.  K sits in degree 0, so no Koszul sign enters:
    (1_K ox g) stack(fs) stacks the g f_i, and (h ox 1_W) stack(fs) for
    h: K -> K' takes combinations of the labels."""
    return product_sum(list(zip(_unit_columns(len(ops)), ops)))


@lru_cache(maxsize=64)
def _unit_columns(n):
    """The n x 1 unit columns e_i of ``stack``, built once per n, read-only."""
    eye = np.eye(n, dtype=int)
    eye.flags.writeable = False
    return tuple(eye[:, i:i + 1] for i in range(n))


def unstack(op, n):
    """The n blocks f_1 .. f_n of an operator V -> K ox W stacked over n
    labels (``stack``), as operators V -> W: one read per label."""
    lab = op._labelled(n)
    order, bounds = _matched(lab.label, n, n != 1)
    rows, cols, data = (a if order is None else a[order] for a in (lab.row, op._cols, op._data))
    return [GradedOperator(op.source, lab.w, op.degree, op.mode, rows[a:b], cols[a:b],
                           data[a:b], op._den) for a, b in zip(bounds[:-1], bounds[1:])]


def stack_entries(n, source, target, degree, entries, mode) -> GradedOperator:
    """The operator source -> K ox target stacked over n labels (``stack``)
    from arrays (label, k, row, col, value): ``value`` at (row, col) of the
    block k of the label's operator, row and col counted within the block.
    A plain operator source -> target is the case n = 1 (K_1 ox W is W)."""
    label, k, row, col = (np.asarray(a, dtype=int) for a in entries[:4])
    rows = _stacked_rows(n, target, label,
                         np.searchsorted(target._index_degrees, k + degree) + row)
    cols = np.searchsorted(source._index_degrees, k) + col
    return GradedOperator(source, tensor_space(label_space(n), target), degree, mode, rows,
                          cols, *_numerators(entries[4], mode))


def reversed_tensor(v, w, sign=None):
    """Sums of tensor products f ox g, Koszul signs as in ``tensor_operator``,
    in the order of V ox W that lists the (p, q) pairs of each total degree
    by decreasing p (Kronecker order inside each pair): returns the map
    (f, g), (f', g'), ... -> the sum.  Without ``sign`` the f and g may be
    maps between any spaces; with it they are endomorphisms of V and W and
    the sum is conjugated by the diagonal sign(p, q) (+-1, vectorised)."""
    if sign is None:
        return lambda *pairs, labels=None: _tensor_sum(pairs, True, labels=labels)
    pos = _tensor_position(v, w, True)
    signs = np.empty_like(pos)
    signs[pos] = sign(np.repeat(v._index_degrees, w.total_dim),
                      np.tile(w._index_degrees, v.total_dim))
    signs.flags.writeable = False
    return lambda *pairs, labels=None: _tensor_sum(pairs, True, signs, labels)


def tensor_basis_index(v: GradedVectorSpace, w: GradedVectorSpace, p: int, i: int, q: int, j: int):
    """(degree, offset) of basis vector v_i^p ox w_j^q in the tensor layout."""
    pos = _tensor_position(v, w)[(v._starts[p] + i) * w.total_dim + w._starts[q] + j]
    return p + q, int(pos) - tensor_space(v, w)._starts[p + q]


def tensor_complex(vc: CochainComplex, wc: CochainComplex) -> CochainComplex:
    """Tensor product complex with differential d ox 1 + (-1)^p 1 ox d."""
    if vc.mode != wc.mode:
        raise ModeError("tensor_complex: mixed modes")
    idv = GradedOperator.identity(vc.space, vc.mode)
    idw = GradedOperator.identity(wc.space, wc.mode)
    diff = tensor_operator(vc.differential, idw) + tensor_operator(idv, wc.differential)
    return CochainComplex(tensor_space(vc.space, wc.space), diff)


def exp_terms(op: GradedOperator):
    """Terms op^m / m! of the exact exponential series of a degree-0
    operator, up to the last one with a stored entry; ``ModeError`` unless
    the series terminates (nilpotent op)."""
    terms = [GradedOperator.identity(op.source, EXACT)]
    for m in range(1, op.source.total_dim + 2):
        term = Fraction(1, m) * compose(terms[-1], op)
        if not len(term._data):
            return terms
        terms.append(term)
    raise ModeError("exponential series does not terminate in exact mode")


def dual_space(v: GradedVectorSpace) -> GradedVectorSpace:
    return GradedVectorSpace({-k: d for k, d in v.dims.items()})


def dual_operator(op: GradedOperator, space: GradedVectorSpace, sign,
                  labels=None) -> GradedOperator:
    """Transpose of an endomorphism onto the dual ``space``, (V*)^q = (V^-q)*:
    the block at q is ``sign(q)`` times the transpose of op's block at
    -q - degree.  One signed transpose: the block-reversing permutation of
    ``dual_space`` and one ``sign`` call per degree of ``space``.  With
    ``labels`` = n, an op whose target is not its source is a family
    V -> K ox V stacked over n labels (``stack``), as in ``_tensor_sum``,
    transposed label by label into space -> K ox space."""
    rev = np.concatenate([_NONE] + [space._starts[-k] + np.arange(d)
                                    for k, d in sorted(op.source.dims.items())])
    signs = np.repeat(np.array([sign(q) for q in space.degrees], dtype=int),
                      [space.dims[q] for q in space.degrees])
    target, rows, cols = space, rev[op._cols], op._rows
    if labels is not None and op.target is not op.source:
        lab = op._labelled(labels)
        label, cols = lab.label, lab.row
        target = tensor_space(label_space(labels), space)
        rows = _stacked_rows(labels, space, label, rows)
    cols = rev[cols]
    return GradedOperator(space, target, op.degree, op.mode, rows, cols, op._data * signs[cols],
                          op._den)


def dual_complex(vc: CochainComplex) -> CochainComplex:
    """Dual complex; sign fixed so the evaluation pairing is a chain map."""
    vs = dual_space(vc.space)
    diff = dual_operator(vc.differential, vs, lambda q: -1 if q % 2 else 1)
    return CochainComplex(vs, diff)
