"""Finite dimensional Lie algebras from structure constants.

Structure constants are kept as exact rationals; float views are derived
on demand.  ``cartan_dgla`` builds the degree {-1, 0} differential graded
Lie algebra generated by one degree-0 and one degree-(-1) copy of the
algebra, with bracket given by the Cartan relations and differential
sending each degree-(-1) generator to its degree-0 partner.
"""

from fractions import Fraction

import numpy as np

from . import linalg
from .graded import GradedOperator, GradedVectorSpace, exp_operator, flatten_operator
from .linalg import EXACT, FLOAT


class LieAlgebra:
    """Lie algebra over the rationals given by structure constants.

    ``c[i, j, k]`` is the e_k coefficient of [e_i, e_j].  Constructors
    take entries for i < j only; the antisymmetric completion is filled
    in automatically.
    """

    def __init__(self, n, brackets=None, labels=None, name=""):
        self.n = int(n)
        self.name = name
        self.labels = list(labels) if labels else [f"e{i + 1}" for i in range(self.n)]
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
        mode = linalg.common_mode(x, y)
        c = self.constants(mode)
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("dimension mismatch")
        return np.einsum("ijk,i,j->k", c, x, y) if mode == FLOAT else \
            np.array([sum(c[i, j, k] * x[i] * y[j]
                          for i in range(self.n) for j in range(self.n))
                      for k in range(self.n)], dtype=object)

    def ad(self, x):
        """Matrix of ad_x: ad(x) y = [x, y]."""
        mode = linalg.mode_of(x)
        c = self.constants(mode)
        if mode == FLOAT:
            return np.einsum("ijk,i->kj", c, x)
        out = linalg.zeros((self.n, self.n), EXACT)
        for k in range(self.n):
            for j in range(self.n):
                out[k, j] = sum(c[i, j, k] * x[i] for i in range(self.n))
        return out

    def ad_operator(self, x) -> GradedOperator:
        """ad_x as a degree-0 operator on the algebra, placed in degree 0."""
        return GradedOperator.from_matrix(GradedVectorSpace({0: self.n}), 0, self.ad(x),
                                          linalg.mode_of(x))

    def ad_exp(self, x, t=1):
        """exp(t ad_x); exact mode requires nilpotent ad_x."""
        if linalg.mode_of(x) == FLOAT:
            return linalg.expm(self.ad(x), t)
        return flatten_operator(exp_operator(self.ad_operator(x), t))

    def check_jacobi(self):
        """Max violation of antisymmetry and the Jacobi identity."""
        c = self.c
        cc = np.tensordot(c, c, axes=([2], [0]))     # sum_m c[i, j, m] c[m, k, l]
        jacobi = cc + cc.transpose(1, 2, 0, 3) + cc.transpose(2, 0, 1, 3)
        antisym = c + c.transpose(1, 0, 2)
        return max(map(abs, np.concatenate([antisym.ravel(), jacobi.ravel()])),
                   default=Fraction(0))

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


FIXTURES = {
    "abelian3": lambda: abelian(3),
    "heisenberg3": heisenberg3,
    "sl2": sl2,
    "su2": su2,
}


# ---------------------------------------------------------------------------
# the Cartan differential graded Lie algebra on g
# ---------------------------------------------------------------------------

class CartanDgla:
    """DG Lie algebra with generators L_i (degree 0) and I_i (degree -1).

    Basis order: I_1 .. I_n (degree -1) then L_1 .. L_n (degree 0).
    Brackets: [L_i, L_j] = L_[i,j], [L_i, I_j] = I_[i,j], [I_i, I_j] = 0;
    the differential sends I_i to L_i and kills L_i.
    """

    def __init__(self, algebra: LieAlgebra):
        if algebra.check_jacobi() != 0:
            raise ValueError("structure constants fail antisymmetry/Jacobi")
        self.algebra = algebra
        n = algebra.n
        self.dim = 2 * n
        self.degrees = [-1] * n + [0] * n
        self.labels = [f"I[{s}]" for s in algebra.labels] + [f"L[{s}]" for s in algebra.labels]
        self._self_check()

    def degree(self, a):
        return self.degrees[a]

    def bracket_table(self, a, b):
        """Coefficient vector of [basis_a, basis_b] in the 2n basis."""
        n = self.algebra.n
        out = linalg.zeros(self.dim, EXACT)
        ia, ib = a % n, b % n
        if a >= n and b >= n:                     # [L, L] = L
            out[n:] = self.algebra.c[ia, ib]
        elif a >= n and b < n:                    # [L, I] = I
            out[:n] = self.algebra.c[ia, ib]
        elif a < n and b >= n:                    # [I, L] = -[L, I] (both signs even*odd)
            out[:n] = -self.algebra.c[ib, ia]
        return out

    def differential_table(self, a):
        out = linalg.zeros(self.dim, EXACT)
        n = self.algebra.n
        if a < n:
            out[n + a] = Fraction(1)
        return out

    def _self_check(self):
        # d^2 = 0 and d is a degree +1 derivation of the bracket
        for a in range(self.dim):
            if linalg.max_abs(self._apply_d(self.differential_table(a))) != 0.0:
                raise AssertionError("d^2 != 0")
        for a in range(self.dim):
            for b in range(self.dim):
                lhs = self._apply_d(self.bracket_table(a, b))
                rhs = self._d_bracket(a, b)
                if linalg.max_abs(lhs - rhs) != 0.0:
                    raise AssertionError("d is not a derivation of the bracket")
        # graded antisymmetry and graded Jacobi on basis triples
        for a in range(self.dim):
            for b in range(self.dim):
                sign = -1 if (self.degree(a) % 2) and (self.degree(b) % 2) else 1
                if linalg.max_abs(self.bracket_table(a, b) + sign * self.bracket_table(b, a)) != 0.0:
                    raise AssertionError("bracket is not graded antisymmetric")
        for a in range(self.dim):
            for b in range(self.dim):
                for c in range(self.dim):
                    if linalg.max_abs(self._jacobiator(a, b, c)) != 0.0:
                        raise AssertionError("graded Jacobi fails")

    def _apply_d(self, coeffs):
        out = linalg.zeros(self.dim, EXACT)
        for a in range(self.dim):
            if coeffs[a]:
                out = out + coeffs[a] * self.differential_table(a)
        return out

    def _bracket_vec(self, coeffs, b):
        out = linalg.zeros(self.dim, EXACT)
        for a in range(self.dim):
            if coeffs[a]:
                out = out + coeffs[a] * self.bracket_table(a, b)
        return out

    def _d_bracket(self, a, b):
        # [da, b] + (-1)^|a| [a, db]
        da = self.differential_table(a)
        db = self.differential_table(b)
        out = linalg.zeros(self.dim, EXACT)
        for x in range(self.dim):
            if da[x]:
                out = out + da[x] * self.bracket_table(x, b)
            if db[x]:
                sign = -1 if self.degree(a) % 2 else 1
                out = out + sign * db[x] * self.bracket_table(a, x)
        return out

    def _jacobiator(self, a, b, c):
        # [a,[b,c]] - [[a,b],c] - (-1)^(|a||b|) [b,[a,c]]
        bc = self.bracket_table(b, c)
        ab = self.bracket_table(a, b)
        ac = self.bracket_table(a, c)
        t1 = self._left_bracket(a, bc)
        t2 = self._bracket_vec(ab, c)
        sign = -1 if (self.degree(a) % 2) and (self.degree(b) % 2) else 1
        t3 = self._left_bracket(b, ac)
        return t1 - t2 - sign * t3

    def _left_bracket(self, a, coeffs):
        out = linalg.zeros(self.dim, EXACT)
        for x in range(self.dim):
            if coeffs[x]:
                out = out + coeffs[x] * self.bracket_table(a, x)
        return out


def cartan_dgla(algebra: LieAlgebra) -> CartanDgla:
    return CartanDgla(algebra)
