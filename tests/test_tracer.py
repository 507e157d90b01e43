"""The benchmark's span tracer still resolves every cartankit name it traces.

``perfbench/spans.py`` wraps functions and methods by name; renaming or
deleting one of them would otherwise only surface when the traced
benchmark runs.
"""

import importlib.util
from pathlib import Path

import cartankit.graded
import cartankit.integrate

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
