"""Finite dimensional Lie algebras from structure constants.

Structure constants are kept as exact rationals; float views are derived
on demand.  ``ad`` is one contraction with the constants in either mode,
a matrix on coordinate vectors: an exact merged Stokes slot
(``integrate._slot_density``) applies its powers to a vector (nilpotent
ad only), and float exponentials go through the one float exponential,
``linalg.TaylorExp`` (``linalg.expm`` at one point).  The Cartan DG Lie
algebra of an algebra is its own adjoint representation, ``reps.cartan_dgla``.
"""

import math
from fractions import Fraction

import numpy as np

from . import linalg
from .linalg import EXACT


class LieAlgebra:
    """Lie algebra over the rationals given by structure constants.

    ``c[i, j, k]`` is the e_k coefficient of [e_i, e_j].  Constructors
    take entries for i < j only; the antisymmetric completion is filled
    in automatically.
    """

    def __init__(self, n, brackets=None, labels=None, name=""):
        self.n = int(n)
        if self.n < 1:
            raise ValueError(f"dim must be at least 1, got {self.n}")
        self.name = name
        self.labels = [f"e{i + 1}" for i in range(self.n)] if labels is None else list(labels)
        if len(self.labels) != self.n:
            raise ValueError(f"{len(self.labels)} labels for a {self.n}-dimensional algebra")
        c = np.empty((n, n, n), dtype=object)
        c[...] = Fraction(0)
        for (i, j), coeffs in (brackets or {}).items():
            if not 0 <= i < j < n:
                raise ValueError("bracket entries must have 0 <= i < j < n")
            for k, val in coeffs.items():
                if not 0 <= k < n:
                    raise ValueError(f"coefficient index {k} outside 0 <= k < n")
                val = val if isinstance(val, Fraction) else Fraction(val)
                c[i, j, k] = val
                c[j, i, k] = -val
        self.c = c
        self._c_float = linalg.as_float(c.reshape(n, -1)).reshape(n, n, n)

    def constants(self, mode):
        return self.c if mode == EXACT else self._c_float

    def vector(self, coords, mode=EXACT):
        coords = list(coords)
        if len(coords) != self.n:
            raise ValueError("coordinate length mismatch")
        if mode == EXACT:
            out = np.empty(self.n, dtype=object)
            out[:] = [x if isinstance(x, Fraction) else Fraction(x) for x in coords]
            return out
        return np.array([float(x) for x in coords])

    def basis_vector(self, i, mode=EXACT):
        return linalg.unit_vector(self.n, i, mode)

    def bracket(self, x, y):
        """[x, y]; ``ModeError`` when x and y differ in mode."""
        linalg.common_mode(x, y)
        return self.ad(x).dot(y)

    def ad(self, x):
        """Matrix of ad_x: ad(x) y = [x, y]."""
        return np.einsum("ijk,i->kj", self.constants(linalg.mode_of(x)), x)

    def check_jacobi(self):
        """Max violation of antisymmetry and the Jacobi identity, as a
        ``Fraction``.  The constants are brought to one common denominator D
        and the integer numerators contracted, in int64 when no sum can
        leave it and as Python ints otherwise; the violations are then the
        integer sums over D (antisymmetry) and D^2 (Jacobi)."""
        den = math.lcm(*(v.denominator for v in self.c.flat))
        nums = [v.numerator * (den // v.denominator) for v in self.c.flat]
        top = max(map(abs, nums))
        c = np.array(nums, dtype=np.int64 if 3 * self.n * top * top < 2 ** 63 else object)
        c = c.reshape(self.c.shape)
        cc = np.tensordot(c, c, axes=([2], [0]))     # sum_m c[i, j, m] c[m, k, l]
        jacobi = cc + cc.transpose(1, 2, 0, 3) + cc.transpose(2, 0, 1, 3)
        antisym = c + c.transpose(1, 0, 2)
        return max(Fraction(int(np.abs(antisym).max()), den),
                   Fraction(int(np.abs(jacobi).max()), den * den))

    def __repr__(self):
        return f"LieAlgebra({self.name or self.n})"


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def abelian(n):
    return LieAlgebra(n, {}, name=f"abelian{n}")


def heisenberg3():
    """[x, y] = z, all else zero; nilpotent."""
    return LieAlgebra(3, {(0, 1): {2: 1}}, labels=["x", "y", "z"], name="heisenberg3")


def sl2():
    """Basis (e, f, h): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
                      labels=["e", "f", "h"], name="sl2")


def su2():
    """Basis with [u1,u2] = u3, [u2,u3] = u1, [u3,u1] = u2; compact."""
    return LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
                      labels=["u1", "u2", "u3"], name="su2")
