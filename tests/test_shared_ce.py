"""The Chevalley-Eilenberg data built once and shared: del and [del, E] per
(algebra, mode), the layout per (n, coefficient space, flavor).  Shared
operators are read-only, and a representation built on cold caches is bit
for bit the one built on warm ones."""

import pytest

from cartankit import ce
from cartankit.lie import heisenberg3, sl2
from cartankit.linalg import EXACT, FLOAT
from cartankit.reps import adjoint_rep, cartan_residuals, chain_rep, cochain_rep, trivial_lie_rep
from test_relation_families import REPS, _rebased_sl2
from test_stacked import _assert_same

CACHES = (ce.exterior, ce._monomial, ce.boundary, ce._commutator, ce.basis,
          ce.first_contractions, ce._placed_wedge, ce._own_parts)
BUILDS = {"chain_rep": chain_rep, "cochain_rep": cochain_rep}


def _coefficients(g, coeff, mode):
    return (trivial_lie_rep if coeff == "trivial" else adjoint_rep)(g, mode=mode)


def _assert_same_rep(a, b):
    for x, y in ((a.L_stack, b.L_stack), (a.B_stack, b.B_stack),
                 (a.differential, b.differential)):
        _assert_same(x, y)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_shared_operators_are_built_once_and_read_only(mode):
    g = sl2()
    assert ce.boundary(g, mode) is ce.boundary(g, mode)
    assert ce._commutator(g, mode) is ce._commutator(g, mode)
    space = trivial_lie_rep(g, mode=mode).complex.space
    assert ce.basis(3, space, "cochain") is ce.basis(3, space, "cochain")
    for op in (ce.boundary(g, mode), ce._commutator(g, mode)):
        for entries in (op._rows, op._cols, op._data):
            with pytest.raises(ValueError, match="read-only"):
                entries[0] = entries[0]
    assert all(cache.cache_info().maxsize for cache in (ce.boundary, ce._commutator, ce.basis))


@pytest.mark.parametrize("name", sorted(k for k in REPS if not k.endswith("cartan_dgla")))
def test_cold_and_warm_builds_are_bit_equal(name):
    rep = REPS[name]
    _, build, coeff, mode = name.split("-")
    g = rep.algebra
    for cache in CACHES:
        cache.cache_clear()
    cold = BUILDS[build](g, _coefficients(g, coeff, mode))
    warm = BUILDS[build](g, _coefficients(g, coeff, mode))
    _assert_same_rep(cold, warm)
    _assert_same_rep(cold, rep)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_second_rep_of_an_algebra_reuses_the_commutator(monkeypatch, mode):
    calls = []
    real = ce.product_sum
    monkeypatch.setattr(ce, "product_sum", lambda terms: calls.append(1) or real(terms))
    g = heisenberg3()
    chain_rep(g, trivial_lie_rep(g, mode=mode))
    assert calls == [1]
    chain_rep(g, adjoint_rep(g, mode=mode))
    cochain_rep(g, adjoint_rep(g, mode=mode))
    assert calls == [1]


def test_cache_key_is_the_algebra_not_its_dimension():
    """Three algebras of dimension 3 in one process: each gets its own del,
    and every rep built after the others still satisfies the relations."""
    algebras = [heisenberg3(), sl2(), _rebased_sl2()]
    for g in algebras:
        for coeff in ("trivial", "adjoint"):
            for build in (chain_rep, cochain_rep):
                assert cartan_residuals(build(g, _coefficients(g, coeff, EXACT))).worst == 0
    entries = [tuple(tuple(a.tolist()) for a in (bd._rows, bd._cols, bd._data)) + (bd._den,)
               for bd in (ce.boundary(g, EXACT) for g in algebras)]
    assert len(set(entries)) == len(algebras)
