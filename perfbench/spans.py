"""Span tracer that wraps cartankit's public functions from outside the package.

``Tracer.install`` replaces each traced function wherever a cartankit module
bound it by name (``compose`` lives in ``graded`` but is also bound in
``reps``, ``integrate``, ...), and each traced method on its class.  Every
call records a span ``[name, parent, start, end, tags]`` in memory; self time
is the span's duration minus the time its child spans cover.  Bookkeeping
done after a call (counting nonzeros of a returned operator) is excluded
from the parent's self time.
"""

import functools
import gzip
import importlib
import json
import sys
import time
from statistics import median

import numpy as np

LAYERS = ("linalg", "graded", "lie", "reps", "ce", "evaluators", "integrate",
          "cubical", "schemas", "suites", "report", "cli")

STAGE_DIMS = (8, 24)
STAGE_LENGTHS = (1, 2, 3)
STAGE_ORDER = 16


class Tracer:
    def __init__(self, letter_names=None):
        self.spans = []
        self.stack = []
        self.excluded = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.nnz = [0, 0]                 # nonzero, stored entries
        self.letter_names = letter_names or {}
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, tag=None, post=None):
        layer = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        excluded, errors = self.excluded, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0, tag(self, args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                stack.pop()
                if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
                    errors[layer] += 1
                raise
            span[3] = clock()
            stack.pop()
            if post is not None:
                start = clock()
                post(self, out)
                if parent >= 0:
                    excluded[parent] = excluded.get(parent, 0.0) + clock() - start
            return out

        return wrapper

    def install(self):
        """Patch every traced function and method; undone by ``uninstall``."""
        for layer in LAYERS:
            importlib.import_module(f"cartankit.{layer}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cartankit" or n.startswith("cartankit.")]
        for module_name, attr, name, tag, post in FUNCTIONS:
            original = getattr(importlib.import_module(f"cartankit.{module_name}"), attr)
            wrapper = self._wrap(name, original, tag, post)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        for module_name, cls_name, method, name, tag, post in METHODS:
            cls = getattr(importlib.import_module(f"cartankit.{module_name}"), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(name, original, tag, post))
            self._undo.append((cls, method, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def mark(self):
        return len(self.spans)

    # -- tags and counts --------------------------------------------------

    def word_label(self, letters):
        """Pool-letter names of a word; "?" marks a letter outside the pool."""
        return "".join(self.letter_names.get(np.asarray(x, dtype=float).tobytes(), "?")
                       for x in letters)

    # -- aggregation ------------------------------------------------------

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                covered[span[1]] += span[3] - span[2]
        return [s[3] - s[2] - covered[i] - self.excluded.get(i, 0.0)
                for i, s in enumerate(self.spans)]

    def metrics(self, setup_end, setup_factor, pass_bounds, pass_factors):
        """Per-layer values for one set-up plus one mean traced pass.

        ``setup_end`` is the span index where set-up ended; ``pass_bounds``
        lists (first, last) span indices of each traced pass.  Times are
        rescaled to reference speed by the factor measured for the set-up
        and for each pass (see ``calibrate``).
        """
        passes = len(pass_bounds)
        own = self.self_times()
        # per key: [calls, seconds, count] for set-up and summed over passes
        setup = {name: [0, 0.0, 0] for name in traced_names()}
        in_passes = {name: [0, 0.0, 0] for name in traced_names()}
        ranges = [((0, setup_end), setup_factor, setup)]
        ranges += [(b, f, in_passes) for b, f in zip(pass_bounds, pass_factors)]
        stages = {}
        for (first, last), factor, totals in ranges:
            for i in range(first, last):
                name, _, start, end, tags = self.spans[i]
                tags = tags or {}
                key = f"{name}.{tags['variant']}" if "variant" in tags else name
                acc = totals[key]
                acc[0] += 1
                acc[1] += own[i] * factor
                acc[2] += tags.get("count", 0)
                if totals is in_passes and "stage" in tags:
                    data = stages.setdefault(tags["stage"], {"durations": [], "words": set()})
                    data["durations"].append((end - start) * factor)
                    data["words"].add(tags["word"])

        def per_run(key, field):
            return setup[key][field] + in_passes[key][field] / passes

        out = {}
        for key in sorted(setup):
            out[f"{key}.calls"] = per_run(key, 0)
            out[f"{key}.self_s"] = per_run(key, 1)
        out["graded.nnz_frac"] = self.nnz[0] / self.nnz[1] if self.nnz[1] else 0.0
        out["linalg.nullspace.entries"] = per_run("linalg.nullspace", 2)
        out["evaluators.word_eval.points"] = per_run("evaluators.word_eval", 2)
        out["evaluators.derived_eval.points"] = per_run("evaluators.derived_eval", 2)
        for layer in LAYERS:
            out[f"{layer}.errors"] = float(self.errors[layer])
        stage_table = {}
        for route in ("series", "quadrature"):
            for k in STAGE_LENGTHS:
                for d in STAGE_DIMS:
                    key = f"integrate.{route}.k{k}.d{d}.s"
                    data = stages.get((route, k, d))
                    out[key] = median(data["durations"]) if data else 0.0
                    if data:
                        stage_table[key] = {"median_s": out[key],
                                            "calls": len(data["durations"]),
                                            "words": sorted(data["words"])}
        return out, stage_table

    def dump(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as handle:
            for i, (name, parent, start, end, tags) in enumerate(self.spans):
                handle.write(json.dumps([i, parent, name, start, end, tags]) + "\n")


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

def _count_nnz(tracer, op):
    for block in op.blocks.values():
        tracer.nnz[0] += int(np.count_nonzero(block))
        tracer.nnz[1] += int(block.size)


def _tag_nullspace(tracer, args, kwargs):
    shape = np.shape(args[0])
    return {"count": shape[0] * shape[1] if len(shape) == 2 else 0}


def _tag_points(tracer, args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    shape = np.shape(points)
    return {"count": shape[0] if len(shape) == 2 else 1}


def _tag_series(tracer, args, kwargs):
    rep, letters = args[0], args[1]
    k, d = len(letters), rep.complex.space.total_dim
    tags = {"variant": rep.mode, "k": k, "d": d}
    word = tracer.word_label(letters)
    if rep.mode == "float" and "?" not in word:
        tags["word"] = word
        tags["stage"] = ("series", k, d)
    return tags


def _tag_quadrature(tracer, args, kwargs):
    from cartankit.evaluators import WordEvaluator
    flat, ev = args[0], args[1]
    order = args[2] if len(args) > 2 else kwargs.get("order", STAGE_ORDER)
    tags = {"k": ev.k, "d": flat.total_dim}
    if type(ev) is WordEvaluator and ev.domain == "simplex" and order == STAGE_ORDER \
            and not ev.prefix:
        word = tracer.word_label(ev.letters)
        if "?" not in word:
            tags["word"] = word
            tags["stage"] = ("quadrature", ev.k, flat.total_dim)
    return tags


def traced_names():
    """Aggregation keys of every traced call, series split by scalar mode."""
    names = {entry[2] for entry in FUNCTIONS} | {entry[3] for entry in METHODS}
    names.discard("integrate.integrate_series")
    return names | {"integrate.integrate_series.exact", "integrate.integrate_series.float"}


# (module, attribute, span name, tag, post)
FUNCTIONS = (
    ("linalg", "rank", "linalg.rank", None, None),
    ("linalg", "nullspace", "linalg.nullspace", _tag_nullspace, None),
    ("linalg", "expm", "linalg.expm", None, None),
    ("graded", "compose", "graded.compose", None, _count_nnz),
    ("graded", "tensor_operator", "graded.tensor_operator", None, _count_nnz),
    ("reps", "chain_rep", "reps.chain_rep", None, None),
    ("reps", "cochain_rep", "reps.cochain_rep", None, None),
    ("reps", "cartan_residuals", "reps.cartan_residuals", None, None),
    ("reps", "tensor_rep", "reps.tensor_rep", None, None),
    ("reps", "dual_rep", "reps.dual_rep", None, None),
    ("reps", "evaluation_pairing_residual", "reps.evaluation_pairing_residual", None, None),
    ("reps", "hom_space", "reps.hom_space", None, None),
    ("reps", "adjunction_check", "reps.adjunction_check", None, None),
    ("ce", "ce_chain", "ce.ce_chain", None, None),
    ("ce", "ce_cochain", "ce.ce_cochain", None, None),
    ("ce", "cohomology_dims", "ce.cohomology_dims", None, None),
    ("integrate", "integrate_quadrature", "integrate.integrate_quadrature", _tag_quadrature, None),
    ("integrate", "density_batch", "integrate.density_batch", None, None),
    ("integrate", "integrate_series", "integrate.integrate_series", _tag_series, None),
    ("integrate", "dg_module_residual", "integrate.dg_module_residual", None, None),
    ("integrate", "multiplicativity_residual", "integrate.multiplicativity_residual",
     None, None),
    ("integrate", "word_integral_polynomial_exact",
     "integrate.word_integral_polynomial_exact", None, None),
    ("cubical", "cube_vs_simplex_residual", "cubical.cube_vs_simplex_residual", None, None),
    ("schemas", "load_problem", "schemas.load_problem", None, None),
    ("suites", "check_lie", "suites", None, None),
    ("suites", "verify_cartan", "suites", None, None),
    ("suites", "ce_suite", "suites", None, None),
    ("suites", "integrate_word", "suites", None, None),
    ("suites", "verify_module", "suites", None, None),
    ("suites", "roundtrip", "suites", None, None),
    ("suites", "adjunction", "suites", None, None),
    ("suites", "cubical_suite", "suites", None, None),
    ("cli", "main", "cli.main", None, None),
)

# (module, class, method, span name, tag, post)
METHODS = (
    ("graded", "GradedOperator", "__add__", "graded.operator_arith", None, None),
    ("graded", "GradedOperator", "__sub__", "graded.operator_arith", None, None),
    ("graded", "GradedOperator", "__rmul__", "graded.operator_arith", None, None),
    ("graded", "CochainComplex", "__init__", "graded.complex_check", None, None),
    ("lie", "LieAlgebra", "check_jacobi", "lie.check_jacobi", None, None),
    ("lie", "LieAlgebra", "ad", "lie.ad", None, None),
    ("evaluators", "FlatRep", "__init__", "evaluators.flatrep", None, None),
    ("evaluators", "WordEvaluator", "eval", "evaluators.word_eval", _tag_points, None),
    ("evaluators", "AffineReparam", "eval", "evaluators.derived_eval", _tag_points, None),
    ("evaluators", "PermReparam", "eval", "evaluators.derived_eval", _tag_points, None),
    ("evaluators", "ProductEvaluator", "eval", "evaluators.derived_eval", _tag_points, None),
    ("evaluators", "MaxCollapseReparam", "eval", "evaluators.derived_eval", _tag_points, None),
    ("cubical", "IntegrationCochain", "__call__", "cubical.integration_cochain", None, None),
    ("report", "Report", "json_lines", "report.render", None, None),
    ("report", "Report", "table", "report.render", None, None),
)
