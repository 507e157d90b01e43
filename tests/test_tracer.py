"""The benchmark's span tracer and operator counts still read cartankit.

``perfbench/spans.py`` wraps functions and methods by name, and both it and
``perfbench/workloads.py`` count nonzeros through ``GradedOperator.blocks``;
renaming or deleting one of them, or changing what ``blocks`` holds, would
otherwise only surface when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import cartankit.graded
import cartankit.integrate
from cartankit import sl2
from cartankit.linalg import EXACT, FLOAT
from cartankit.reps import chain_rep, trivial_lie_rep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


def test_tracer_installs_and_uninstalls():
    spans = _load_spans()
    compose = cartankit.graded.compose
    add = cartankit.graded.GradedOperator.__add__
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cartankit.graded.compose is not compose
        assert cartankit.integrate.compose is cartankit.graded.compose
        assert cartankit.graded.GradedOperator.__add__ is not add
    finally:
        tracer.uninstall()
    assert cartankit.graded.compose is compose
    assert cartankit.integrate.compose is compose
    assert cartankit.graded.GradedOperator.__add__ is add


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_operator_counts_read_the_nonzero_blocks(mode):
    g = sl2()
    rep = chain_rep(g, trivial_lie_rep(g, mode=mode))
    assert rep.complex.space.total_dim == 8
    ops = rep.L + rep.B + [rep.complex.differential]
    nonzero = stored = 0
    for op in ops:
        for k in op.source.degrees:
            block = op.block(k)
            if block.any():
                nonzero += int(np.count_nonzero(block))
                stored += block.size
    assert 0 < nonzero < stored
    assert _load("workloads").operator_nnz_frac([rep]) == nonzero / stored
    spans = _load_spans()
    tracer = spans.Tracer()
    for op in ops:
        spans._count_nnz(tracer, op)
    assert tracer.nnz == [nonzero, stored]
