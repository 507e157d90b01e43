"""Named check suites behind the command-line verbs.

Each suite consumes a loaded problem plus names from it and returns a
Report; residual-vs-tolerance bookkeeping lives in the report records.
"""

from dataclasses import asdict
from math import comb

import numpy as np

from . import ce, cubical, integrate, linalg, reps
from .evaluators import WordEvaluator, ez_product, interior_points, thinness_check
from .graded import GradedVectorSpace, compose, dual_space, tensor_space
from .linalg import FLOAT
from .report import Report
from .integrate import MAX_QUADRATURE_NODES
from .schemas import ProblemError, dump_operator


# the most float64 entries of the dense hom-space system of ``adjunction``
# and the U of its SVD, rows x (rows + unknowns); tests need 120 x (120 + 20)
MAX_FLOAT_SYSTEM = 10 ** 7


def _check_float_system(n, v_space, w_space):
    """``ProblemError`` before any operator is built when the float system of
    ``reps.hom_space`` from the chain representation U of V to W is over
    budget: on W ox U*, rows for d, L and B (degrees 1, 0, -1), unknowns in
    degree 0."""
    chains = tensor_space(GradedVectorSpace({-m: comb(n, m) for m in range(n + 1)}), v_space)
    maps = tensor_space(w_space, dual_space(chains))
    rows, cols = maps.dim(1) + n * (maps.dim(0) + maps.dim(-1)), maps.dim(0)
    if rows * (rows + cols) > MAX_FLOAT_SYSTEM:
        raise ProblemError(f"the float hom-space system is {rows} x {cols}, with its SVD over "
                           f"the budget of {MAX_FLOAT_SYSTEM} entries; use --mode exact")


def _check_nodes(order, k):
    """``ProblemError`` before any node is built when order ** k is over budget."""
    if order ** k > MAX_QUADRATURE_NODES:
        raise ProblemError(f"quadrature of order {order} on {k} letters needs {order ** k} "
                           f"nodes, over the budget of {MAX_QUADRATURE_NODES}")


def _new_report(problem) -> Report:
    return Report(settings=asdict(problem.settings))


def check_lie(problem) -> Report:
    report = _new_report(problem)
    report.timed("jacobi", 0.0, lambda: float(problem.algebra.check_jacobi()),
                 {"algebra": problem.algebra.name or "input"})
    return report


def verify_cartan(problem, rep_name) -> Report:
    report = _new_report(problem)
    rep = problem.representation(rep_name)
    tol = linalg.tolerance(rep.mode, problem.settings.tol)
    res = reps.cartan_residuals(rep)
    for family, value in (("bracket_LL", res.LL), ("bracket_LB", res.LB),
                          ("bracket_BB", res.BB), ("differential_B", res.dB)):
        report.add(f"cartan.{family}", value, tol, {"rep": rep_name})
    return report


def ce_suite(problem, rep_name, flavor) -> Report:
    report = _new_report(problem)
    coeff = problem.lie_representation(rep_name)
    built = (ce.ce_cochain if flavor == "cochain" else ce.ce_chain)(problem.algebra, coeff)
    square = built.complex.differential
    tol = linalg.tolerance(coeff.mode, problem.settings.tol)
    report.timed(f"ce.{flavor}.d_squared", tol,
                 lambda: compose(square, square).norm(), {"rep": rep_name})
    betti = ce.cohomology_dims(built.complex, problem.settings.tol)
    report.add(f"ce.{flavor}.betti", 0.0, 0.0,
               {"rep": rep_name, "betti": {str(k): v for k, v in sorted(betti.items())}})
    return report, betti


def integrate_word(problem, rep_name, word_name, method="both") -> Report:
    report = _new_report(problem)
    rep = problem.representation(rep_name)
    letters = problem.word(word_name)
    s = problem.settings
    if method in ("quadrature", "both"):
        _check_nodes(s.order, len(letters))
        if rep.mode != FLOAT:
            raise linalg.ModeError("quadrature requires float mode")
    results = {}
    if method in ("series", "both"):
        results["series"] = integrate.integrate_series(rep, letters, max_degree=s.series_cap)
    if method in ("quadrature", "both"):
        results["quadrature"] = integrate.integrate_quadrature(
            rep.flat, WordEvaluator(rep.flat, letters), s.order)
    payload = dump_operator(next(iter(results.values())))
    if len(results) == 2:
        cross = (results["series"] - results["quadrature"]).norm()
        report.add("integrate.cross_residual", cross, s.tol,
                   {"rep": rep_name, "word": word_name, "operator": payload})
    else:
        report.add("integrate.computed", 0.0, 0.0,
                   {"rep": rep_name, "word": word_name, "method": method,
                    "operator": payload})
    return report, results


def verify_module(problem, rep_name, word_names) -> Report:
    report = _new_report(problem)
    rep = problem.representation(rep_name)
    if rep.mode != FLOAT:
        raise linalg.ModeError("module law checks run in float mode")
    s = problem.settings
    flat = rep.flat
    words = {name: problem.word(name) for name in word_names}
    for name, letters in words.items():
        if not letters:
            raise ProblemError(f"word {name!r} has no letters; the module checks need one")
    lengths = [len(w) for w in words.values()]   # Stokes per word, shuffles to 3 letters
    _check_nodes(s.order, max((a + b if a + b <= 3 else max(a, b) for a in lengths for b in lengths),
                              default=0))
    for name, letters in sorted(words.items()):
        report.timed("module.dg_stokes", s.tol,
                     lambda letters=letters: integrate.dg_module_residual(flat, letters, s.order),
                     {"rep": rep_name, "word": name})
        ev = WordEvaluator(flat, letters)
        if thinness_check(ev):
            report.timed("module.thin_vanishing", s.tol,
                         lambda ev=ev: integrate.integrate_quadrature(flat, ev, s.order).norm(),
                         {"rep": rep_name, "word": name})
        report.timed("module.equivariance", s.tol,
                     lambda letters=letters: integrate.equivariance_residual(
                         flat, letters, [letters[0]]),
                     {"rep": rep_name, "word": name})
    names = sorted(words)
    for a in names:
        for b in names:
            if len(words[a]) + len(words[b]) > 3:
                continue
            report.timed("module.shuffle_multiplicative", 1e-8,
                         lambda a=a, b=b: integrate.multiplicativity_residual(
                             flat, words[a], words[b], s.order),
                         {"rep": rep_name, "left": a, "right": b})
    for name, letters in sorted(words.items()):
        if len(letters) != 1:
            continue
        chain = ez_product(WordEvaluator(flat, letters), WordEvaluator(flat, letters))
        report.timed("module.single_letter_square", 1e-10,
                     lambda chain=chain: integrate.integrate_chain(flat, chain, s.order).norm(),
                     {"rep": rep_name, "word": name})
    tangents = _default_tangents(problem.algebra.n)
    first = words[names[0]] if names else [problem.algebra.basis_vector(0, FLOAT)]
    for p, k in ((2, 1), (2, 2)):
        factors = [first[:1]] * p
        report.timed("module.product_pullback", s.tol,
                     lambda p=p, k=k, factors=factors: integrate.mu_p_residual(
                         flat, factors, tangents[:k, :p, :]),
                     {"rep": rep_name, "p": p, "k": k})
    return report


def _default_tangents(n):
    vals = np.array([[[0.7, -0.3, 0.2], [0.1, 0.9, -0.5], [0.4, 0.2, 0.8]],
                     [[-0.2, 0.5, 0.6], [0.8, -0.1, 0.3], [0.2, 0.7, -0.4]],
                     [[0.3, 0.3, -0.7], [-0.6, 0.4, 0.1], [0.5, -0.2, 0.9]]])
    return vals[:, :, :n] if n <= 3 else np.tile(vals, (1, 1, (n + 2) // 3))[:, :, :n]


def roundtrip(problem, rep_name) -> Report:
    report = _new_report(problem)
    rep = problem.representation(rep_name)
    if rep.mode != FLOAT:
        raise linalg.ModeError("roundtrip differentiation runs in float mode")
    s = problem.settings
    e1, e2, ratio = integrate.roundtrip_errors(rep, s.fd_step)
    report.add("roundtrip.recovery", e1, 100.0 * s.fd_step ** 2,
               {"rep": rep_name, "h": s.fd_step})
    report.add("roundtrip.halving_ratio", 3.5 - min(ratio, 3.5), 0.0,
               {"rep": rep_name, "ratio": round(ratio, 3)})
    return report


def adjunction(problem, grep_name, rep_name) -> Report:
    report = _new_report(problem)
    v_rep = problem.lie_representation(grep_name)
    w_rep = problem.representation(rep_name)
    if w_rep.mode == FLOAT:
        _check_float_system(problem.algebra.n, v_rep.complex.space, w_rep.complex.space)
    res = reps.adjunction_check(v_rep, w_rep, problem.settings.tol)
    tol = linalg.tolerance(v_rep.mode, problem.settings.tol)
    if res.precondition_residual > tol:
        report.add("adjunction.precondition", res.precondition_residual, tol,
                   {"rep": rep_name})
        return report
    report.add("adjunction.dimension_match",
               abs(res.dim_cartan_side - res.dim_lie_side), 0.0,
               {"lie_rep": grep_name, "rep": rep_name,
                "dims": [res.dim_cartan_side, res.dim_lie_side]})
    report.add("adjunction.reconstruction", res.reconstruction_residual, tol,
               {"lie_rep": grep_name, "rep": rep_name})
    return report


def cubical_suite(problem, rep_name, word_name) -> Report:
    report = _new_report(problem)
    rep = problem.representation(rep_name)
    if rep.mode != FLOAT:
        raise linalg.ModeError("cubical checks run in float mode")
    s = problem.settings
    flat = rep.flat
    letters = problem.word(word_name)
    k = len(letters)
    _check_nodes(s.order, k)
    if not k:
        raise ProblemError(f"word {word_name!r} has no letters; the cubical checks need one")
    if not flat.targets(k):
        raise ProblemError(f"word {word_name!r} has {k} letters, and rep {rep_name!r} has no "
                           f"degree -{k} density to check")
    theta = WordEvaluator(flat, letters, domain="cube")
    entry = cubical_entry(flat, theta)
    base = cubical.IntegrationCochain(flat, k, "simplicial", entry, s.order)
    alt = cubical.AlternationCochain(base)
    report.timed("cubical.alternating", 0.0,
                 lambda: cubical.alternating_residual(alt, theta),
                 {"rep": rep_name, "word": word_name})
    for i in range(k):
        for step in (0.2, 0.35, 0.5, 0.65, 0.8):
            report.timed("cubical.subdivision", s.tol,
                         lambda i=i, step=step: cubical.subdivision_invariance_residual(
                             alt, theta, i, step),
                         {"rep": rep_name, "word": word_name, "axis": i, "s": step})
    report.timed("cubical.shuffle_triangulation", s.tol,
                 lambda: cubical.cube_vs_simplex_residual(flat, theta, s.order),
                 {"rep": rep_name, "word": word_name})
    simplex_word = WordEvaluator(flat, letters)
    signed, off_identity = cubical.collapse_reduction_residuals(base, simplex_word)
    report.add("cubical.collapse_identity", signed, s.tol,
               {"rep": rep_name, "word": word_name})
    report.add("cubical.collapse_thin_terms", off_identity, s.tol,
               {"rep": rep_name, "word": word_name})
    return report


def cubical_entry(flat, ev):
    """Deterministic entry where the pullback density is largest: its index
    among the block entries, which list the entries of the total matrix
    inside its blocks in row-major order."""
    pts = interior_points(ev.k, "cube")
    first, = integrate.finite((d[0] for d in integrate.densities(flat, [(ev, pts)])),
                              "pullback density")
    return int(np.argmax(np.abs(first)))
