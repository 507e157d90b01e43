"""Matrix helpers: scalar parsing, exact rank and nullspace, the peel of
forced zeros, and the one float matrix exponential, ``TaylorExp``.

Dense matrices are numpy arrays: float64 in float mode, object arrays of
``fractions.Fraction`` in exact mode; exact rank and nullspace eliminate on
sparse integer rows, read off a dense array or straight off an operator
(``GradedOperator.rows``).  ``peel`` takes the unknowns that a one-entry
row forces to 0 off the entry arrays of a sparse system.  ``common_mode``
raises when modes mix.
"""

import math
from fractions import Fraction

import numpy as np

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL = 1e-9


def tolerance(mode: str, tol: float = DEFAULT_TOL) -> float:
    """Tolerance of a residual check: exact checks allow none at all."""
    return 0.0 if mode == EXACT else tol


class ModeError(TypeError):
    """Raised when exact and float values meet in one operation."""


class BudgetError(ValueError):
    """Raised before a computation whose memory would be over its stated budget."""


def mode_of(a) -> str:
    if isinstance(a, np.ndarray):
        return EXACT if a.dtype == object else FLOAT
    if isinstance(a, Fraction) or isinstance(a, int):
        return EXACT
    return FLOAT


def common_mode(*items) -> str:
    modes = {mode_of(a) for a in items}
    if len(modes) != 1:
        raise ModeError("mixed exact/float operands; convert explicitly")
    return modes.pop()


def zeros(shape, mode: str):
    if mode == EXACT:
        out = np.empty(shape, dtype=object)
        out[...] = Fraction(0)
        return out
    return np.zeros(shape)


def as_float(a):
    arr = np.asarray(a)
    if arr.dtype != object:
        return arr.astype(float)
    out = np.array([float(v) for v in arr.reshape(-1)], dtype=float)
    return out.reshape(arr.shape)


def parse_scalar(s, mode: str):
    """Parse a JSON scalar: number, or "p/q" string.  ``ValueError`` for a
    boolean, a zero denominator, a non-finite number, or an exact-mode float
    that its nearest fraction with denominator at most 10^12 does not
    reproduce."""
    if isinstance(s, bool):
        raise ValueError(f"boolean {str(s).lower()} is not a number")
    if isinstance(s, str):
        num, _, den = s.partition("/")
        if not int(den or 1):
            raise ValueError(f"zero denominator in {s!r}")
        frac = Fraction(int(num), int(den or 1))
    elif isinstance(s, int):
        frac = Fraction(s)
    elif not math.isfinite(s):
        raise ValueError(f"non-finite number {s!r}")
    elif mode != EXACT:
        return float(s)
    else:
        frac = Fraction(s).limit_denominator(10**12)
        if float(frac) != s:
            raise ValueError(f"{s!r} is not exactly {frac}; write it as a \"p/q\" string")
    return frac if mode == EXACT else float(frac)


def format_scalar(v):
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return float(v)


def max_abs(a) -> float:
    """Entrywise max-norm, as a float in either mode."""
    arr = np.asarray(a)
    if arr.size == 0:
        return 0.0
    if arr.dtype == object:
        return float(max(abs(v) for v in arr.reshape(-1)))
    return float(np.abs(arr).max())


# ---------------------------------------------------------------------------
# ranks and nullspaces
# ---------------------------------------------------------------------------

def _exact_rows(a, n_cols):
    """(rows, n_cols) of an exact matrix, None for a float one; a dense
    ``Fraction`` array gives each row times the lcm of its denominators."""
    if n_cols is not None:
        return a, n_cols
    a = np.asarray(a)
    if mode_of(a) != EXACT:
        return None
    lcms = [math.lcm(*(v.denominator for v in row)) for row in a]
    return [{j: int(v * m) for j, v in enumerate(row) if v} for row, m in zip(a, lcms)], a.shape[1]


def run_bounds(a):
    """Mask over the positions 0 .. len(a) of a sorted array: True where a
    run of equal values starts, and at len(a), where the last one ends."""
    out = np.ones(len(a) + 1, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=out[1:-1])
    return out


def peel(row, col, data, dead):
    """Singleton removal (LaMacchia and Odlyzko, 1990) on the nonzero entries
    (row, col, data) of a sparse system, rows in increasing order, given the
    mask ``dead`` of the unknowns already known to be 0: an unknown that is
    the only entry of some row is 0 in every solution, so it is marked in
    ``dead`` and dropped from every row, and this repeats until no row has
    one entry.  Returns the entries left, rows and columns as given; each
    row left has two or more.  The nullspace is unchanged on the other
    unknowns: an unknown forced to 0 is a pivot column of the reduced row
    echelon form whose row is a unit row."""
    while True:
        keep = ~dead[col]
        row, col, data = row[keep], col[keep], data[keep]
        bounds = run_bounds(row)
        single = bounds[:-1] & bounds[1:]                   # a row of one entry
        if not single.any():
            return row, col, data
        dead[col[single]] = True


def primitive_rows(row, col, data):
    """The rows of a sparse integer system from its nonzero entries (row,
    col, data), rows in increasing order, as {column: int}: each over the
    gcd of its entries with its first entry positive, and each such row
    once, in order of first appearance.  They span the same row space."""
    bounds = np.flatnonzero(run_bounds(row)).tolist()
    col, data = col.tolist(), data.tolist()
    rows = {}
    for i, j in zip(bounds[:-1], bounds[1:]):
        g = math.gcd(*data[i:j]) if data[i] > 0 else -math.gcd(*data[i:j])
        rows[tuple(col[i:j]), tuple([v // g for v in data[i:j]])] = None
    return [dict(zip(c, v)) for c, v in rows]


def _echelon(rows, n_cols):
    """Fraction-free forward elimination (Bareiss, 1968) of sparse integer
    rows, one column at a time in increasing order.  Rows wait under their
    first column, so the rows filed under c are those with a nonzero at c:
    the sparsest is the pivot, and every other one becomes
    row * pivot[c] - row[c] * pivot over the gcd of its entries and is filed
    under its new first column.  Returns the echelon rows by pivot column,
    the pivot columns of the reduced row echelon form."""
    waiting, echelon = {}, {}
    for row in filter(None, rows):
        waiting.setdefault(min(row), []).append(row)
    for c in range(n_cols):
        if c in waiting:
            top, *rest = sorted(waiting.pop(c), key=len)
            for row in rest:
                new = {j: v * top[c] for j, v in row.items()}
                for j, v in top.items():
                    new[j] = new.get(j, 0) - row[c] * v
                g = math.gcd(*new.values())
                new = {j: v // g for j, v in new.items() if v}
                if new:
                    waiting.setdefault(min(new), []).append(new)
            echelon[c] = top
    return echelon


def rank(a, tol: float = DEFAULT_TOL, n_cols=None) -> int:
    """Rank of a dense matrix, or of sparse integer rows {column: int} with
    ``n_cols``: the pivot count of ``_echelon`` in exact mode, singular
    values above ``tol`` times the largest in float mode."""
    exact = _exact_rows(a, n_cols)
    if exact:
        return len(_echelon(*exact))
    a = np.asarray(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def nullspace(a, tol: float = DEFAULT_TOL, n_cols=None):
    """Basis (list of vectors) of the right nullspace; ``a`` as in ``rank``.

    Exact mode back-substitutes from the rows of ``_echelon``: one vector
    per free (non-pivot) column, with 1 there, 0 at the other free
    columns and ``Fraction`` entries throughout (the basis of the reduced
    row echelon form, as in sympy's ``Matrix.nullspace``).  So the rows
    that ``peel`` leaves, on their live unknowns, give the whole system's
    basis with the forced unknowns left out (``reps.hom_space`` writes the
    0s back).  Float mode takes the right singular vectors past the
    numerical rank, from an SVD whose U keeps min(rows, columns) columns
    (V^T is complete either way).
    """
    exact = _exact_rows(a, n_cols)
    if exact:
        echelon, n_cols = _echelon(*exact), exact[1]
        basis = []
        for free in sorted(set(range(n_cols)) - echelon.keys()):
            vec = unit_vector(n_cols, free, EXACT)
            for pc, row in reversed(echelon.items()):
                vec[pc] = Fraction(-sum(v * vec[j] for j, v in row.items() if vec[j]), row[pc])
            basis.append(vec)
        return basis
    a = np.asarray(a)
    n_cols = a.shape[1]
    if a.shape[0] == 0 or n_cols == 0:
        return [unit_vector(n_cols, i, FLOAT) for i in range(n_cols)]
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < n_cols)
    return [vt[i] for i in range(int(np.sum(s > tol * s[0])), n_cols)]


def unit_vector(n: int, i: int, mode: str):
    v = zeros(n, mode)
    v[i] = Fraction(1) if mode == EXACT else 1.0
    return v


# ---------------------------------------------------------------------------
# the float matrix exponential (exact ones are ``graded.exp_terms``)
# ---------------------------------------------------------------------------

class TaylorExp:
    """exp(t A) over batches of t, by scaled Taylor polynomial + squaring
    (Moler and Van Loan, 2003): the squarings scale A to infinity-norm (max
    row sum) at most 1/2.  The kit's one float exponential: word batches
    reuse a table per letter, ``expm`` is its one-point case.  Past the
    float range it gives inf or NaN (a NaN table when the norm of A is past
    it) without a warning, for the callers' finite checks to report."""

    def __init__(self, a: np.ndarray):
        with np.errstate(over="ignore"):
            norm = float(np.abs(a).sum(axis=1).max(initial=0.0))
        if not math.isfinite(norm):
            self.squarings, self.coeffs = 0, np.full((1,) + a.shape, np.nan)
            return
        self.squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 1 else 0
        scaled = a / (2.0 ** self.squarings)
        terms = [np.eye(a.shape[0])]
        m = 1
        while True:
            terms.append(terms[-1].dot(scaled) / m)
            if np.abs(terms[-1]).max(initial=0.0) < 1e-20 or m > 60:
                break
            m += 1
        self.coeffs = np.array(terms)          # (M, d, d)

    def at(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        m, d = self.coeffs.shape[:2]
        # t^i as t^(i - 1) t, one column at a time (cumprod along rows loops per row)
        powers = np.empty((len(t), m))
        powers[:, 0] = 1.0
        for i in range(1, m):
            np.multiply(powers[:, i - 1], t, out=powers[:, i])
        # one (1, M) @ (M, d*d) product per point, not one GEMM, whose BLAS
        # path for a one-point batch differs: rows must not depend on the batch
        out = np.matmul(powers[:, None, :], self.coeffs.reshape(m, d * d)).reshape(-1, d, d)
        with np.errstate(over="ignore", invalid="ignore"):      # past the float range: inf, NaN
            for _ in range(self.squarings):
                out = np.matmul(out, out)
        return out


def expm(a, t=1):
    """exp(t*a) for a float matrix: the one-point ``TaylorExp``."""
    a = np.asarray(a)
    if mode_of(a) == EXACT:
        raise ModeError("expm is float-only; exact exponentials sum graded.exp_terms")
    return TaylorExp(a).at([t])[0]
