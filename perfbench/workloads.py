"""Workload definitions: seeded inputs, fixed check lists and their oracles.

Every workload is built by ``build(name, seed, root)`` and returns a
``Workload``: the generated inputs, a fixed list of named checks, and the
input properties an optimisation could depend on.  A check is a callable
that does the timed work and returns ``(ok, detail)``; ``ok`` compares the
result with an oracle fixed before the call (theory tables, exact zero,
a cross-route tolerance, or a CLI exit code).

Checks call cartankit through module attributes (``reps.chain_rep``, not a
name imported into this file), so the traced run sees the wrapped
functions.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import comb

import numpy as np

from cartankit import ce, cli, cubical, evaluators, integrate, lie, reps, schemas
from cartankit.linalg import EXACT, FLOAT

# ---------------------------------------------------------------------------
# theory oracles (independent of cartankit)
# ---------------------------------------------------------------------------

# dim H^m(g; V) for m = 0..3.  Trivial coefficients: abelian binomials,
# Heisenberg (1,2,2,1), sl2 (1,0,0,1).  Adjoint coefficients: abelian is
# three copies of the trivial answer; sl2 vanishes (Whitehead, nontrivial
# irreducible module); Heisenberg has H^0 = centre (1), H^1 = outer
# derivations (6 - 2 = 4), H^3 = coadjoint invariants (2, by duality for a
# unimodular algebra), and H^2 = 5 from the Euler characteristic 0.
COHOMOLOGY = {
    ("abelian3", "trivial"): (1, 3, 3, 1),
    ("abelian3", "adjoint"): (3, 9, 9, 3),
    ("heisenberg3", "trivial"): (1, 2, 2, 1),
    ("heisenberg3", "adjoint"): (1, 4, 5, 2),
    ("sl2", "trivial"): (1, 0, 0, 1),
    ("sl2", "adjoint"): (0, 0, 0, 0),
}

# Criterion-10 pairs (Lie rep V, functor, coefficients of W) without the
# sl2 adjoint -> U(adjoint) pair.  W^0 is one-dimensional and trivial in all
# of them, so both hom spaces have dimension dim V - dim [g, V]:
# 1 for trivial V, 2 for the Heisenberg adjoint, 0 for the sl2 adjoint.
ADJUNCTION_PAIRS = (
    ("abelian3", "trivial", "U", "trivial", 1),
    ("heisenberg3", "trivial", "E", "trivial", 1),
    ("sl2", "trivial", "U", "trivial", 1),
    ("heisenberg3", "adjoint", "U", "trivial", 2),
    ("sl2", "adjoint", "E", "trivial", 0),
)

# Float tolerances are the ones the acceptance tests use for the same laws.
CROSS_TOL = 1e-9
STOKES_TOL = 1e-9
SHUFFLE_TOL = 1e-8
CUBE_TOL = 1e-9
ROUNDTRIP_TOL = 1e-6
ROUNDTRIP_RATIO = 3.5
ORDER = 16


def expected_betti(kind, coeff, flavor):
    """Cohomology dims keyed by cartankit's degree convention: cochain
    degree m, chain degree -m with H_m = H^(3-m) (unimodular algebras)."""
    dims = COHOMOLOGY[(kind, coeff)]
    if flavor == "cochain":
        return {m: dims[m] for m in range(4)}
    return {-m: dims[3 - m] for m in range(4)}


def _trivial_form_dims(flavor):
    """Graded dims of the 8-dim chain or cochain rep with trivial
    coefficients: the exterior algebra on three generators."""
    sign = -1 if flavor == "chain" else 1
    return {sign * m: comb(3, m) for m in range(4)}


def _convolve(a, b):
    out = {}
    for p, dp in a.items():
        for q, dq in b.items():
            out[p + q] = out.get(p + q, 0) + dp * dq
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# workload container
# ---------------------------------------------------------------------------

class Workload:
    """Generated inputs and check list of one workload.

    ``calibration`` names the loops of ``calibrate.py`` whose speed tracks
    this workload's work.  ``reps``, when given, builds the representations
    whose operator density is recorded (outside the timed passes).
    """

    def __init__(self, name, seed, checks, fingerprint, properties, calibration,
                 begin_pass=None, letter_names=None, reps=None):
        self.name = name
        self.calibration = calibration
        self.reps = reps
        self.seed = seed
        self.checks = checks              # list of (name, fn(ctx) -> (ok, detail))
        self.fingerprint = fingerprint
        self.properties = properties
        self.begin_pass = begin_pass or (lambda: {})
        self.letter_names = letter_names or {}


def operator_nnz_frac(representations):
    """Nonzero share of the stored entries of every L, B and differential block."""
    nonzero = stored = 0
    for rep in representations:
        for op in rep.L + rep.B + [rep.complex.differential]:
            for block in op.blocks.values():
                nonzero += int(np.count_nonzero(block))
                stored += block.size
    return nonzero / stored if stored else 0.0


def _digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _constants_payload(algebra):
    n = algebra.n
    return [[[str(algebra.c[i, j, k]) for k in range(n)] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# exact workloads
# ---------------------------------------------------------------------------

def _coefficients(algebra, name, mode=EXACT):
    return reps.trivial_lie_rep(algebra, mode=mode) if name == "trivial" \
        else reps.adjoint_rep(algebra, mode=mode)


def _build(algebra, functor, coeff, mode=EXACT):
    coefficients = _coefficients(algebra, coeff, mode)
    if functor in ("chain", "U"):
        return reps.chain_rep(algebra, coefficients)
    return reps.cochain_rep(algebra, coefficients)


def _check_cartan(algebra, functor, coeff):
    def run(ctx):
        worst = reps.cartan_residuals(_build(algebra, functor, coeff)).worst
        return worst == 0, str(worst)
    return run


def _check_betti(algebra, kind, flavor, coeff):
    want = expected_betti(kind, coeff, flavor)

    def run(ctx):
        build = ce.ce_chain if flavor == "chain" else ce.ce_cochain
        got = ce.cohomology_dims(build(algebra, _coefficients(algebra, coeff)).complex)
        return got == want, str(got)
    return run


def _check_tensor(algebra):
    want = _convolve(_trivial_form_dims("chain"), _trivial_form_dims("cochain"))

    def run(ctx):
        a = _build(algebra, "chain", "trivial")
        b = _build(algebra, "cochain", "trivial")
        got = reps.tensor_rep(a, b).complex.space.dims
        return got == want, str(got)
    return run


def _check_pairing(algebra, functor):
    def run(ctx):
        worst = reps.evaluation_pairing_residual(_build(algebra, functor, "trivial"))
        return worst == 0, str(worst)
    return run


def _check_adjunction(algebra, v_name, functor, w_name, want):
    def run(ctx):
        res = reps.adjunction_check(_coefficients(algebra, v_name),
                                    _build(algebra, functor, w_name))
        ok = (res.ok and res.dim_cartan_side == want and res.dim_lie_side == want
              and res.reconstruction_residual == 0 and res.precondition_residual == 0)
        return ok, f"dims=({res.dim_cartan_side},{res.dim_lie_side})"
    return run


def _check_series_exact(rep_holder, letters):
    def run(ctx):
        rep = rep_holder(ctx)
        gap = (integrate.integrate_series(rep, letters)
               - integrate.word_integral_polynomial_exact(rep, letters)).norm()
        return gap == 0, str(gap)
    return run


def _check_stokes_exact(rep_holder, letters):
    def run(ctx):
        gap = integrate.dg_module_exact(rep_holder(ctx), letters)
        return gap == 0, str(gap)
    return run


# Word patterns over a pool of three letters: index tuples into the pool.
EXACT_WORDS = ((0,), (1,), (2,), (0, 1), (1, 2), (2, 0), (0, 1, 2), (1, 2, 0), (2, 0, 1))
FLOAT_CROSS_WORDS = ((0,), (1,), (0, 1), (2, 0), (0, 1, 2), (2, 1, 0))
FLOAT_STOKES_WORDS = {8: ((0,), (0, 1), (0, 1, 2)), 24: ((1,), (1, 2))}
FLOAT_SHUFFLE_SPLITS = (((0,), (1,)), ((0,), (1, 2)), ((2, 0), (1,)))
FLOAT_CUBE_WORDS = (((1,), ORDER), ((1, 2), ORDER), ((2, 0, 1), 10))


def _heisenberg_letters(algebra, rng):
    """Three integer letters, every coordinate nonzero and every pair with a
    nonzero bracket, so each word uses the full nilpotent action."""
    while True:
        out = [[Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(algebra.n)]
               for _ in range(3)]
        vecs = [algebra.vector(x) for x in out]
        if all(any(v != 0 for v in algebra.bracket(vecs[i], vecs[j]))
               for i in range(3) for j in range(i + 1, 3)):
            return out


def _exact_checks(algebras, heis_letters):
    """The shared exact check list; ``algebras`` maps a label to
    (theory kind, algebra), ``heis_letters`` holds the Heisenberg letters."""
    checks = []
    for label, (kind, g) in algebras.items():
        for coeff in ("trivial", "adjoint"):
            for functor in ("chain", "cochain"):
                checks.append((f"cartan.{label}.{functor}.{coeff}",
                               _check_cartan(g, functor, coeff)))
                checks.append((f"betti.{label}.{functor}.{coeff}",
                               _check_betti(g, kind, functor, coeff)))
        if kind == "sl2":
            checks.append((f"tensor.{label}.chain_x_cochain", _check_tensor(g)))
            for functor in ("chain", "cochain"):
                checks.append((f"pairing.{label}.{functor}", _check_pairing(g, functor)))
        for kind_p, v_name, functor, w_name, want in ADJUNCTION_PAIRS:
            if kind_p == kind:
                checks.append((f"adjunction.{label}.{v_name}.{functor}.{w_name}",
                               _check_adjunction(g, v_name, functor, w_name, want)))
        if kind == "heisenberg3":
            letters = [g.vector(x) for x in heis_letters]

            def rep_holder(ctx, g=g, label=label):
                key = ("heis_chain", label)
                if key not in ctx:
                    ctx[key] = _build(g, "chain", "trivial")
                return ctx[key]

            for word in EXACT_WORDS:
                name = "".join(str(i) for i in word)
                ws = [letters[i] for i in word]
                checks.append((f"series_vs_poly.{label}.w{name}",
                               _check_series_exact(rep_holder, ws)))
                if len(word) <= 2:
                    checks.append((f"stokes_exact.{label}.w{name}",
                                   _check_stokes_exact(rep_holder, ws)))
    return checks


def unimodular(n, rng, ops):
    """Integer matrix P of determinant +-1 and its inverse, as a product of
    ``ops`` elementary column operations (col_j += s col_i) and one
    optional column swap.  New basis vector a is sum_i P[i][a] e_i."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        for r in range(n):                 # P <- P E, E = I + s e_i e_j^T
            p[r][j] += s * p[r][i]
        for c in range(n):                 # P^-1 <- E^-1 P^-1
            pinv[i][c] -= s * pinv[j][c]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]
        pinv[i], pinv[j] = pinv[j], pinv[i]
    return p, pinv


def rebase(algebra, p, pinv):
    """Structure constants of ``algebra`` in the basis given by the columns of p."""
    n = algebra.n
    c = algebra.c
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            image = [sum(p[i][a] * p[j][b] * c[i, j, m] for i in range(n) for j in range(n))
                     for m in range(n)]
            coeffs = {k: sum(pinv[k][m] * image[m] for m in range(n)) for k in range(n)}
            coeffs = {k: v for k, v in coeffs.items() if v != 0}
            if coeffs:
                brackets[(a, b)] = coeffs
    return lie.LieAlgebra(n, brackets, name=f"{algebra.name}_rebased")


def constant_stats(algebra):
    """Share of nonzero structure constants c[i,j,k] with i < j, and max |entry|."""
    n = algebra.n
    vals = [algebra.c[i, j, k] for i in range(n) for j in range(i + 1, n) for k in range(n)]
    nonzero = [abs(v) for v in vals if v != 0]
    return len(nonzero) / len(vals), int(max(nonzero, default=0))


# Rebasing keeps drawing until the constants are this dense and no larger
# than this: the workload is defined as dense, small-integer inputs.
REBASE_OPS = 4
REBASE_MIN_DENSITY = 8 / 9
REBASE_MAX_ENTRY = 8


def _rebased(algebra, rng):
    for _ in range(1000):
        p, pinv = unimodular(algebra.n, rng, REBASE_OPS)
        g = rebase(algebra, p, pinv)
        density, biggest = constant_stats(g)
        if density >= REBASE_MIN_DENSITY and biggest <= REBASE_MAX_ENTRY:
            if g.check_jacobi() != 0:
                raise ValueError("rebased constants fail Jacobi")
            return g, p
    raise RuntimeError("no dense small change of basis found")


def _exact_workload(name, seed, rebased):
    rng = random.Random(f"{name}:{seed}")
    if rebased:
        algebras = {}
        matrices = {}
        for base in (lie.sl2(), lie.heisenberg3()):
            g, p = _rebased(base, rng)
            algebras[g.name] = (base.name, g)
            matrices[g.name] = p
    else:
        algebras = {g.name: (g.name, g) for g in (lie.abelian(3), lie.heisenberg3(), lie.sl2())}
        matrices = {}
    heisenberg = next(g for kind, g in algebras.values() if kind == "heisenberg3")
    letters = _heisenberg_letters(heisenberg, rng)
    checks = _exact_checks(algebras, letters)
    fingerprint = _digest({"constants": {k: _constants_payload(g) for k, (_, g) in algebras.items()},
                           "letters": [[str(v) for v in x] for x in letters]})
    properties = {"algebras": {}}
    for label, (_, g) in algebras.items():
        density, biggest = constant_stats(g)
        properties["algebras"][label] = {"constant_density": round(density, 4),
                                         "constant_max_abs": biggest}
        if label in matrices:
            properties["algebras"][label]["basis_change"] = matrices[label]
    properties["heisenberg_letters"] = [[str(v) for v in x] for x in letters]
    properties["words"] = ["".join(str(i) for i in w) for w in EXACT_WORDS]
    def representations():
        return [_build(g, functor, coeff) for _, g in algebras.values()
                for functor in ("chain", "cochain") for coeff in ("trivial", "adjoint")]

    return Workload(name, seed, checks, fingerprint, properties, ("python",),
                    reps=representations)


# ---------------------------------------------------------------------------
# float quadrature
# ---------------------------------------------------------------------------

# Generic unit letters x = a e + b f + c h of sl2: no coordinate near zero,
# the largest one in a fixed band, and the invariant c^2 + ab in a fixed
# band.  The largest coordinate sets the max-norm of the letter's action and
# with it the squarings of the quadrature exponentials.  c^2 + ab fixes the
# eigenvalues 0, +-2 sqrt(c^2 + ab) of ad x, hence the spectrum of the
# action in every representation, which largely sets how many series terms
# a word needs (free letters vary that by up to 5x for one k = 3 series on
# the 24-dim rep).  The bands keep the work per pass the same from seed to
# seed.
LETTER_MIN_COORD = 0.15
LETTER_MAX_COORD = (0.75, 0.95)
LETTER_INVARIANT = (0.4, 0.6)


def _unit_letters(count, rng):
    out = []
    while len(out) < count:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        v /= np.linalg.norm(v)
        top = np.max(np.abs(v))
        invariant = v[2] ** 2 + v[0] * v[1]
        if np.min(np.abs(v)) >= LETTER_MIN_COORD and \
                LETTER_MAX_COORD[0] <= top <= LETTER_MAX_COORD[1] and \
                LETTER_INVARIANT[0] <= invariant <= LETTER_INVARIANT[1]:
            out.append(v)
    return out


def letter_reuse_share(words):
    """Share of letter occurrences that repeat a letter already seen on the
    same representation within one pass: 1 - distinct / occurrences."""
    seen = set()
    total = 0
    for word in words:
        for i in word:
            seen.add(i)
            total += 1
    return 1.0 - len(seen) / total if total else 0.0


def _float_workload(name, seed):
    rng = random.Random(f"{name}:{seed}")
    g = lie.sl2()
    pool = _unit_letters(3, rng)
    rep8 = reps.chain_rep(g, reps.trivial_lie_rep(g, mode=FLOAT))
    rep24 = reps.chain_rep(g, reps.adjoint_rep(g, mode=FLOAT))
    by_dim = {8: rep8, 24: rep24}

    def begin_pass():
        # one FlatRep per representation and pass, as a CLI suite builds it
        return {d: evaluators.FlatRep(rep) for d, rep in by_dim.items()}

    def letters(word):
        return [pool[i] for i in word]

    def cross(d, word):
        def run(ctx):
            flat = ctx[d]
            s = integrate.integrate_series(by_dim[d], letters(word))
            q = integrate.integrate_quadrature(
                flat, evaluators.WordEvaluator(flat, letters(word)), ORDER)
            gap = (s - q).norm()
            return gap <= CROSS_TOL, f"{gap:.3e}"
        return run

    def stokes(d, word):
        def run(ctx):
            r = integrate.dg_module_residual(ctx[d], letters(word), ORDER)
            return r <= STOKES_TOL, f"{r:.3e}"
        return run

    def shuffle(left, right):
        def run(ctx):
            r = integrate.multiplicativity_residual(ctx[8], letters(left), letters(right), ORDER)
            return r <= SHUFFLE_TOL, f"{r:.3e}"
        return run

    def cube(word, order):
        def run(ctx):
            flat = ctx[8]
            theta = evaluators.WordEvaluator(flat, letters(word), domain="cube")
            r = cubical.cube_vs_simplex_residual(flat, theta, order)
            return r <= CUBE_TOL, f"{r:.3e}"
        return run

    def roundtrip(d):
        def run(ctx):
            e1, _, ratio = integrate.roundtrip_errors(by_dim[d], 1e-4)
            return e1 <= ROUNDTRIP_TOL and ratio >= ROUNDTRIP_RATIO, f"{e1:.3e},{ratio:.3f}"
        return run

    def tag(word):
        return "".join(str(i) for i in word)

    checks = []
    for d in (8, 24):
        for word in FLOAT_CROSS_WORDS:
            checks.append((f"cross.d{d}.w{tag(word)}", cross(d, word)))
        for word in FLOAT_STOKES_WORDS[d]:
            checks.append((f"stokes.d{d}.w{tag(word)}", stokes(d, word)))
        checks.append((f"roundtrip.d{d}", roundtrip(d)))
    for left, right in FLOAT_SHUFFLE_SPLITS:
        checks.append((f"shuffle.d8.w{tag(left)}x{tag(right)}", shuffle(left, right)))
    for word, order in FLOAT_CUBE_WORDS:
        checks.append((f"cube.d8.w{tag(word)}.o{order}", cube(word, order)))
    quadrature_words = {
        8: list(FLOAT_CROSS_WORDS) + list(FLOAT_STOKES_WORDS[8])
        + [w for split in FLOAT_SHUFFLE_SPLITS for w in split] + [w for w, _ in FLOAT_CUBE_WORDS],
        24: list(FLOAT_CROSS_WORDS) + list(FLOAT_STOKES_WORDS[24]),
    }
    properties = {
        "letters": {f"p{i}": [float(v) for v in x] for i, x in enumerate(pool)},
        "letter_reuse_share": {f"d{d}": round(letter_reuse_share(ws), 4)
                               for d, ws in quadrature_words.items()},
        "cross_words": [tag(w) for w in FLOAT_CROSS_WORDS],
    }
    fingerprint = _digest({"constants": _constants_payload(g),
                           "letters": [x.tolist() for x in pool]})
    names = {np.asarray(x, dtype=float).tobytes(): f"p{i}" for i, x in enumerate(pool)}
    return Workload(name, seed, checks, fingerprint, properties, ("numpy",), begin_pass, names,
                    reps=lambda: [rep8, rep24])


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

# (problem file, argv after the problem path).  The exact-mode variants of
# verify-cartan, ce and adjunction run on both files; the float-only verbs
# run on the exact Heisenberg file with --mode float.
CLI_CALLS = (
    ("sl2.json", ["check-lie"]),
    ("sl2.json", ["verify-cartan", "--rep", "chain_trivial"]),
    ("sl2.json", ["verify-cartan", "--rep", "chain_trivial", "--mode", "exact"]),
    ("sl2.json", ["ce", "--rep", "trivial", "--flavor", "cochain"]),
    ("sl2.json", ["ce", "--rep", "trivial", "--flavor", "chain", "--mode", "exact"]),
    ("sl2.json", ["integrate", "--rep", "chain_trivial", "--word", "weh", "--method", "both"]),
    ("sl2.json", ["verify-module", "--rep", "chain_trivial", "--words", "we,wh"]),
    ("sl2.json", ["roundtrip", "--rep", "chain_trivial"]),
    ("sl2.json", ["adjunction", "--lie-rep", "trivial", "--rep", "chain_trivial"]),
    ("sl2.json", ["adjunction", "--lie-rep", "adjoint", "--rep", "cochain_trivial",
                  "--mode", "exact"]),
    ("sl2.json", ["cubical", "--rep", "chain_trivial", "--word", "weh"]),
    ("heisenberg_exact.json", ["check-lie"]),
    ("heisenberg_exact.json", ["verify-cartan", "--rep", "chain_adjoint"]),
    ("heisenberg_exact.json", ["ce", "--rep", "adjoint", "--flavor", "cochain"]),
    ("heisenberg_exact.json", ["integrate", "--rep", "chain_trivial", "--word", "wxy",
                               "--method", "series"]),
    ("heisenberg_exact.json", ["integrate", "--rep", "chain_trivial", "--word", "wxy",
                               "--mode", "float"]),
    ("heisenberg_exact.json", ["verify-module", "--rep", "chain_trivial", "--words", "wx,wxy",
                               "--mode", "float"]),
    ("heisenberg_exact.json", ["roundtrip", "--rep", "chain_trivial", "--mode", "float"]),
    ("heisenberg_exact.json", ["adjunction", "--lie-rep", "adjoint", "--rep", "chain_trivial"]),
    ("heisenberg_exact.json", ["cubical", "--rep", "chain_trivial", "--word", "wxy",
                               "--mode", "float"]),
)

# Betti tables the ce verbs must print, from the theory table above.
CLI_BETTI = {
    ("sl2.json", "trivial", "cochain"): expected_betti("sl2", "trivial", "cochain"),
    ("sl2.json", "trivial", "chain"): expected_betti("sl2", "trivial", "chain"),
    ("heisenberg_exact.json", "adjoint", "cochain"): expected_betti("heisenberg3", "adjoint",
                                                                    "cochain"),
}


def _check_cli(path, filename, args):
    argv = [args[0], path] + args[1:] + ["--json", "--test-mode"]
    betti_key = None
    if args[0] == "ce":
        betti_key = (filename, args[args.index("--rep") + 1], args[args.index("--flavor") + 1])

    def run(ctx):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        lines = out.getvalue().strip().splitlines()
        summary = json.loads(lines[-1]) if lines else {}
        ok = code == 0 and summary.get("summary", {}).get("pass") is True
        if ok and betti_key is not None:
            record = next(json.loads(line) for line in lines
                          if json.loads(line).get("check", "").endswith(".betti"))
            got = {int(k): v for k, v in record["inputs"]["betti"].items()}
            ok = got == CLI_BETTI[betti_key]
        return ok, f"exit={code}"
    return run


def _cli_workload(name, seed, root):
    """The inputs are the committed problem files, so the seed changes nothing."""
    problems = {}
    digests = {}
    for filename in sorted({f for f, _ in CLI_CALLS}):
        path = str(root / "problems" / filename)
        problems[filename] = schemas.load_problem(path)
        with open(path, "rb") as handle:
            digests[filename] = hashlib.sha256(handle.read()).hexdigest()
    checks = []
    for filename, args in CLI_CALLS:
        label = " ".join([args[0], filename] + args[1:])
        checks.append((label, _check_cli(str(root / "problems" / filename), filename, args)))
    properties = {"problems": {f: {"dim": p.algebra.n, "mode": p.settings.mode,
                                   "sha256": digests[f]} for f, p in problems.items()}}
    return Workload(name, seed, checks, _digest(digests), properties, ("python", "numpy"))


def build(name, seed, root):
    if name == "exact_algebra":
        return _exact_workload(name, seed, rebased=False)
    if name == "exact_rebased":
        return _exact_workload(name, seed, rebased=True)
    if name == "float_quadrature":
        return _float_workload(name, seed)
    if name == "cli_verbs":
        return _cli_workload(name, seed, root)
    raise ValueError(f"unknown workload {name!r}")
