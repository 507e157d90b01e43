"""Dense matrix helpers: scalar parsing, exact rank and nullspace, and the
float matrix exponentials.

Matrices are plain numpy arrays: float64 in float mode, object arrays of
``fractions.Fraction`` in exact mode.  The two modes never mix silently;
``common_mode`` raises when operands disagree.  Exact products, sums and
exponentials of operators live in ``graded`` on the sparse int64 kernel.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL = 1e-9


def tolerance(mode: str, tol: float = DEFAULT_TOL) -> float:
    """Tolerance of a residual check: exact checks allow none at all."""
    return 0.0 if mode == EXACT else tol


class ModeError(TypeError):
    """Raised when exact and float values meet in one operation."""


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
    return float(np.max(np.abs(arr)))


# ---------------------------------------------------------------------------
# ranks and nullspaces
# ---------------------------------------------------------------------------

def _clear_denominators(a):
    """Scale each row of a Fraction matrix to integers."""
    rows = []
    for row in a:
        lcm = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (lcm // v.denominator) for v in row])
    return rows


def _echelon(a):
    """Fraction-free forward elimination of an exact matrix.

    Works on the integer rows of ``_clear_denominators``: each pivot
    updates only the rows with a nonzero entry in its column
    (row * p - f * pivot_row), and each updated row is divided by the gcd
    of its entries.  Returns the nonzero echelon rows and their pivot
    columns.
    """
    rows = _clear_denominators(a)
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top, p = rows[r], rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                new = [x * p - f * y for x, y in zip(rows[i], top)]
                g = math.gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots


def rank(a, tol: float = DEFAULT_TOL) -> int:
    """Matrix rank: the pivot count of ``_echelon`` in exact mode, singular
    values above ``tol`` times the largest in float mode."""
    a = np.asarray(a)
    if mode_of(a) == EXACT:
        return len(_echelon(a)[1])
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def nullspace(a, tol: float = DEFAULT_TOL):
    """Basis (list of vectors) of the right nullspace.

    Exact mode back-substitutes from the rows of ``_echelon``: one vector
    per free (non-pivot) column, with 1 there, 0 at the other free
    columns and ``Fraction`` entries throughout (the basis of the reduced
    row echelon form, as in sympy's ``Matrix.nullspace``).  Float mode
    takes the right singular vectors past the numerical rank.
    """
    a = np.asarray(a)
    n_cols = a.shape[1]
    if mode_of(a) == EXACT:
        rows, pivots = _echelon(a)
        basis = []
        for free in sorted(set(range(n_cols)) - set(pivots)):
            vec = unit_vector(n_cols, free, EXACT)
            for row, pc in zip(reversed(rows), reversed(pivots)):
                acc = sum(row[j] * vec[j] for j in range(pc + 1, n_cols) if row[j])
                vec[pc] = Fraction(-acc, row[pc])
            basis.append(vec)
        return basis
    if a.shape[0] == 0 or n_cols == 0:
        return [unit_vector(n_cols, i, FLOAT) for i in range(n_cols)]
    u, s, vt = np.linalg.svd(a)
    return [vt[i] for i in range(int(np.sum(s > tol * s[0])), n_cols)]


def unit_vector(n: int, i: int, mode: str):
    v = zeros(n, mode)
    v[i] = Fraction(1) if mode == EXACT else 1.0
    return v


# ---------------------------------------------------------------------------
# float matrix exponentials (exact ones are ``graded.exp_terms``)
# ---------------------------------------------------------------------------

def _float_only(a, what):
    a = np.asarray(a)
    if mode_of(a) == EXACT:
        raise ModeError(f"{what} is float-only; exact exponentials sum graded.exp_terms")
    return a


def expm(a, t=1):
    """exp(t*a) for a float matrix: scipy's scaling-and-squaring Pade-13
    routine."""
    return scipy.linalg.expm(float(t) * _float_only(a, "expm"))


def phi1(a):
    """Sum a^m/(m+1)!  (the entire function (e^a - 1)/a) of a float matrix."""
    a = _float_only(a, "phi1")
    n = a.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    norm = max_abs(a)
    m = 1
    while True:
        term = term.dot(a) / (m + 1)
        acc = acc + term
        if max_abs(term) < 1e-18 * (1.0 + max_abs(acc)) and m > norm:
            return acc
        m += 1
        if m > 200:
            return acc
