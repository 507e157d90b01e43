"""Dense matrix helpers shared by both scalar modes.

Matrices are plain numpy arrays: float64 in float mode, object arrays of
``fractions.Fraction`` in exact mode.  The two modes never mix silently;
``common_mode`` raises when operands disagree.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL = 1e-9


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


def eye(n: int, mode: str):
    out = zeros((n, n), mode)
    for i in range(n):
        out[i, i] = Fraction(1) if mode == EXACT else 1.0
    return out


def as_float(a):
    arr = np.asarray(a)
    if arr.dtype != object:
        return arr.astype(float)
    out = np.array([float(v) for v in arr.reshape(-1)], dtype=float)
    return out.reshape(arr.shape)


def parse_scalar(s, mode: str):
    """Parse a JSON scalar: number, or "p/q" string."""
    if isinstance(s, str):
        num, _, den = s.partition("/")
        frac = Fraction(int(num), int(den)) if den else Fraction(int(num))
    elif isinstance(s, int):
        frac = Fraction(s)
    else:
        if mode == EXACT:
            frac = Fraction(s).limit_denominator(10**12)
        else:
            return float(s)
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


def is_zero(a, tol: float = 0.0) -> bool:
    return max_abs(a) <= tol


# ---------------------------------------------------------------------------
# ranks and nullspaces
# ---------------------------------------------------------------------------

def _clear_denominators(a):
    """Scale each row of a Fraction matrix to integers."""
    rows = []
    for row in a:
        lcm = 1
        for v in row:
            lcm = lcm * v.denominator // np.gcd(lcm, v.denominator)
        rows.append([int(v * lcm) for v in row])
    return rows


def rank(a, tol: float = DEFAULT_TOL) -> int:
    """Matrix rank: fraction-free Bareiss in exact mode, SVD in float mode."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
    if mode_of(a) == FLOAT:
        s = np.linalg.svd(a, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > tol * s[0]))
    return _bareiss_rank(_clear_denominators(a))


def _bareiss_rank(m) -> int:
    m = [list(row) for row in m]
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == n_rows:
            break
    return r


def nullspace(a, tol: float = DEFAULT_TOL):
    """Basis (list of vectors) of the right nullspace."""
    a = np.asarray(a)
    n_cols = a.shape[1]
    if a.shape[0] == 0 or n_cols == 0:
        return [unit_vector(n_cols, i, mode_of(a) if a.size else FLOAT) for i in range(n_cols)]
    if mode_of(a) == FLOAT:
        u, s, vt = np.linalg.svd(a)
        smax = s[0] if s.size else 0.0
        r = int(np.sum(s > tol * smax)) if smax > 0 else 0
        return [vt[i] for i in range(r, n_cols)]
    return _exact_nullspace(a)


def _exact_nullspace(a):
    m = [[Fraction(v) for v in row] for row in a]
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for c in free:
        vec = zeros(n_cols, EXACT)
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][c]
        basis.append(vec)
    return basis


def unit_vector(n: int, i: int, mode: str):
    v = zeros(n, mode)
    v[i] = Fraction(1) if mode == EXACT else 1.0
    return v


# ---------------------------------------------------------------------------
# matrix exponentials
# ---------------------------------------------------------------------------

def exp_terms(a, t=1):
    """Terms t^m a^m / m! of the exact exponential series, up to the last
    nonzero one; ``ModeError`` unless the series terminates (nilpotent a)."""
    a = np.asarray(a)
    terms = [eye(a.shape[0], EXACT)]
    for m in range(1, 2 * a.shape[0] + 2):
        term = terms[-1].dot(a) * Fraction(Fraction(t), m)
        if is_zero(term):
            return terms
        terms.append(term)
    raise ModeError("exponential series does not terminate in exact mode")


def expm(a, t=1):
    """exp(t*a) for a square matrix.

    Float mode delegates to scipy's scaling-and-squaring Pade-13 routine.
    Exact mode sums ``exp_terms``.
    """
    a = np.asarray(a)
    if mode_of(a) == FLOAT:
        return scipy.linalg.expm(float(t) * a)
    terms = exp_terms(a, t)
    return sum(terms[1:], terms[0])


def phi1(a):
    """Sum a^m/(m+1)!  (the entire function (e^a - 1)/a)."""
    a = np.asarray(a)
    n = a.shape[0]
    if mode_of(a) == EXACT:
        acc = eye(n, EXACT)
        term = eye(n, EXACT)
        for m in range(1, 2 * n + 2):
            term = term.dot(a) * Fraction(1, m + 1)
            if is_zero(term):
                return acc
            acc = acc + term
        raise ModeError("phi1 series does not terminate in exact mode")
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
