"""Cubical cochains: antisymmetrization, subdivision splits, the
cube-to-simplex collapse and the shuffle triangulation identity."""

import pathlib
from itertools import permutations
from math import fsum

import numpy as np
import pytest

from cartankit.cubical import (AlternationCochain, IntegrationCochain,
                               alternating_residual, collapse_reduction_residuals,
                               cube_vs_simplex_residual, split_lower, split_upper,
                               subdivision_invariance_residual, subdivision_maps)
from cartankit import integrate
from cartankit.evaluators import (FlatRep, PermReparam, WordEvaluator, perm_sign, shuffles,
                                  thinness_check)
from cartankit.integrate import cube_nodes, density_at, simplex_nodes
from cartankit.lie import sl2
from cartankit.linalg import FLOAT
from cartankit.reps import adjoint_rep, chain_rep
from cartankit.schemas import load_problem
from cartankit.suites import cubical_entry, cubical_suite
from dense_reference import all_blocks_cochain_values


def cube_to_simplex(point):
    """y_i = max(t_i, ..., t_k): identity on ordered points, boundary else."""
    t = np.asarray(point, dtype=float)
    return np.maximum.accumulate(t[::-1])[::-1]


class ConstantCochain:
    """c(anything) = value; not subdivision invariant, not alternating."""

    def __init__(self, k, value=1.0):
        self.k = k
        self.value = value

    def values(self, evs):
        return [self.value for _ in evs]


@pytest.fixture(scope="module")
def flat(sl2_chain_float):
    return FlatRep(sl2_chain_float)


@pytest.fixture(scope="module")
def theta(flat, sl2_basis_float):
    e = sl2_basis_float
    return WordEvaluator(flat, [e[0], e[2]], domain="cube")


@pytest.fixture(scope="module")
def base_cochain(flat, theta):
    return IntegrationCochain(flat, 2, "simplicial", cubical_entry(flat, theta), 16)


def _sign_by_cycles(perm):
    """(-1) ** (k - number of cycles of perm)."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return (-1) ** (len(perm) - cycles)


def test_perm_signs():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1
    for k in range(5):
        for perm in permutations(range(k)):
            assert perm_sign(perm) == _sign_by_cycles(perm)
    # an (r, s)-shuffle moves left slot i past perm[i] - i right slots
    for r in range(5):
        for s in range(5 - r):
            for perm, sign in shuffles(r, s):
                moves = sum(m - i for i, m in enumerate(perm[:r]))
                assert sign == perm_sign(perm) == (-1) ** moves


def test_cube_to_simplex_projection():
    assert np.array_equal(cube_to_simplex([0.9, 0.4, 0.1]), [0.9, 0.4, 0.1])
    assert np.array_equal(cube_to_simplex([0.2, 0.7]), [0.7, 0.7])


def test_subdivision_maps_extremes():
    (lo_m, lo_o), (hi_m, hi_o) = subdivision_maps(2, 0, 1.0)
    assert np.array_equal(lo_m, np.eye(2)) and np.array_equal(lo_o, np.zeros(2))
    assert hi_o[0] == 0.0
    with pytest.raises(IndexError):
        subdivision_maps(2, 5, 0.5)


def test_split_extreme_pieces_are_identity_or_thin(flat, theta):
    ident = split_lower(theta, 0, 1.0)           # scaling by one changes nothing
    pts = np.array([[0.3, 0.9]])
    assert np.allclose(ident.eval(pts).rho.entries, theta.eval(pts).rho.entries)
    collapsed = split_lower(theta, 0, 0.0)       # axis crushed to zero: thin
    assert thinness_check(collapsed)
    upper_ident = split_upper(theta, 0, 1.0)     # full-size upper piece
    assert np.allclose(upper_ident.eval(pts).rho.entries, theta.eval(pts).rho.entries)
    upper_thin = split_upper(theta, 0, 0.0)      # axis pinned at one: thin
    assert thinness_check(upper_thin)


def test_tau_is_alternating_exactly(base_cochain, theta):
    alt = AlternationCochain(base_cochain)
    assert alternating_residual(alt, theta) == 0.0


def test_tau_single_term_for_one_dimensional_words(flat, sl2_basis_float):
    e = sl2_basis_float
    line = WordEvaluator(flat, [e[0]], domain="cube")
    c = IntegrationCochain(flat, 1, "simplicial", cubical_entry(flat, line), 16)
    alt = AlternationCochain(c)
    assert alt(line) == c(line)
    assert alternating_residual(alt, line) == 0.0


def test_subdivision_invariance_of_integration_cochain(base_cochain, theta):
    alt = AlternationCochain(base_cochain)
    for axis in (0, 1):
        for s in (0.2, 0.35, 0.5, 0.65, 0.8):
            assert subdivision_invariance_residual(alt, theta, axis, s) < 1e-9


def test_subdivision_trivial_endpoints(base_cochain, theta):
    alt = AlternationCochain(base_cochain)
    assert subdivision_invariance_residual(alt, theta, 0, 1.0) < 1e-9
    assert subdivision_invariance_residual(alt, theta, 0, 0.0) < 1e-9


def test_constant_cochain_fails_subdivision(theta):
    const = ConstantCochain(2, 1.0)
    assert abs(subdivision_invariance_residual(const, theta, 0, 0.5) - 1.0) < 1e-15


def test_symmetric_cochain_fails_alternation(flat, theta):
    class Symmetric:
        k = 2

        def values(self, evs):
            return [1.0 for _ in evs]

    assert alternating_residual(Symmetric(), theta) == 2.0


def test_cochain_sum_equals_generator_sum(flat, theta, base_cochain):
    """Summing the weighted column as one array changes no bit of the
    correctly rounded sum of the same float products."""
    for kind in ("simplicial", "cubical"):
        c = IntegrationCochain(flat, 2, kind, base_cochain.entry, 16)
        for ev in (theta, PermReparam(theta, (1, 0)), split_upper(theta, 1, 0.35)):
            nodes, weights = (simplex_nodes if kind == "simplicial" else cube_nodes)(2, 16)
            column = density_at(flat, ev, nodes).entries[:, c.entry]
            assert c(ev) == fsum(float(w) * float(v) for w, v in zip(weights, column))


def test_top_form_integral_flips_sign_under_transposition(flat, theta):
    c = IntegrationCochain(flat, 2, "cubical", cubical_entry(flat, theta), 16)
    swapped = PermReparam(theta, (1, 0))
    assert abs(c(swapped) + c(theta)) < 1e-12


def test_cube_integral_equals_signed_simplex_sum(flat, sl2_basis_float):
    e = sl2_basis_float
    for letters in ([e[0]], [e[0], e[2]], [e[2], e[0], e[1]]):
        theta = WordEvaluator(flat, letters, domain="cube")
        order = 16 if len(letters) < 3 else 10
        assert cube_vs_simplex_residual(flat, theta, order) < 1e-9


def test_collapse_reduction_to_identity_term(flat, base_cochain, sl2_basis_float):
    e = sl2_basis_float
    word = WordEvaluator(flat, [e[0], e[2]])
    signed_gap, off_identity = collapse_reduction_residuals(base_cochain, word)
    assert signed_gap < 1e-10
    assert off_identity < 1e-10


def test_tau_of_cube_cochain_matches_direct_cube_integral(flat, theta):
    # antisymmetrized simplex integration recovers full cube integration
    entry = cubical_entry(flat, theta)
    simplicial = IntegrationCochain(flat, 2, "simplicial", entry, 16)
    cube = IntegrationCochain(flat, 2, "cubical", entry, 16)
    assert abs(AlternationCochain(simplicial)(theta) - cube(theta)) < 1e-12


def test_cubical_suite_alternates_the_whole_cube_once(monkeypatch):
    """The alternating check and the ten subdivision checks of a k = 2
    word all read tau(theta); it is computed once, from k! = 2 permuted
    copies of the whole cube."""
    root = pathlib.Path(__file__).resolve().parents[1]
    problem = load_problem(root / "problems" / "sl2.json")
    seen = []
    values = IntegrationCochain.values

    def counted(self, evs):
        seen.extend(evs)
        return values(self, evs)

    monkeypatch.setattr(IntegrationCochain, "values", counted)
    report = cubical_suite(problem, "chain_trivial", "weh")
    assert report.passed
    whole = [ev.perm for ev in seen if isinstance(ev, PermReparam)
             and isinstance(ev.base, WordEvaluator) and ev.base.domain == "cube"]
    assert sorted(whole) == [(0, 1), (1, 0)]


GENERIC = [[0.3, 0.7, -0.5], [0.8, -0.2, 0.4], [-0.6, 0.5, 0.45]]


@pytest.mark.parametrize("kind", ["simplicial", "cubical"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cochain_reads_one_block_bit_for_bit(sl2_chain_float, monkeypatch, kind, k):
    """Every entry of every block, on both sl2 chain representations: the
    cochain evaluates rho and the density at the entry's block only, and
    its values equal the ones read off every block, bit for bit, at a word,
    a permutation of it and a split piece; an entry past the blocks is
    refused."""
    g = sl2_chain_float.algebra
    seen = []
    density_batch = integrate.density_batch

    def spy(flat_, data):
        seen.append(list(data.rho.blocks))
        return density_batch(flat_, data)

    for flat in (FlatRep(sl2_chain_float), FlatRep(chain_rep(g, adjoint_rep(g, mode=FLOAT)))):
        theta = WordEvaluator(flat, GENERIC[:k], domain="cube")
        evs = [theta, PermReparam(theta, tuple(range(k))[::-1]), split_upper(theta, k - 1, 0.35)]
        sizes = [flat.space.dim(t) * flat.space.dim(t + k) for t in flat.targets(k)]
        for entry in range(sum(sizes)):
            c = IntegrationCochain(flat, k, kind, entry, 4)
            want = all_blocks_cochain_values(c, evs)
            monkeypatch.setattr(integrate, "density_batch", spy)
            seen.clear()
            assert [v.hex() for v in c.values(evs)] == [v.hex() for v in want]
            monkeypatch.undo()
            block = int(np.searchsorted(np.cumsum(sizes), entry, side="right"))
            assert seen == [[flat.targets(k)[block]]] * len(evs)
        with pytest.raises(IndexError):
            IntegrationCochain(flat, k, kind, sum(sizes), 4)
