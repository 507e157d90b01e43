"""Problem-file and operator JSON schemas (versioned "cartankit/1").

A problem file bundles one Lie algebra, named representations, named
words and default settings.  Matrices are nested arrays whose entries
are numbers or "p/q" strings; indices are 0-based; structure constants
are listed for i < j only.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from . import integrate, linalg, reps
from .graded import CochainComplex, GradedOperator, GradedVectorSpace
from .lie import LieAlgebra
from .linalg import EXACT, FLOAT

SCHEMA = "cartankit/1"

# the largest total dimension of a complex a problem may assemble, 2^n dim V
# for the U and E functors and the CE complexes; twice the largest the tests
# assemble (n_6 with trivial coefficients, 2^15)
MAX_COMPLEX_DIM = 2 ** 16
# the largest Lie algebra dimension a problem may declare: its n^3 constants and
# the n^5 Jacobi check take 0.06 s at n = 32, 1.8 s at n = 64 (one x86_64 core)
MAX_ALGEBRA_DIM = 32
# the largest series cap: the float coefficient of a k-letter word at total
# degree m can be 1 / (m + k)!, which no float holds once m + k > 170, so no
# float series runs past that degree; 160 admits words of up to 10 letters
MAX_SERIES_CAP = 160


@dataclass
class Settings:
    mode: str = FLOAT
    tol: float = linalg.DEFAULT_TOL
    order: int = integrate.DEFAULT_ORDER
    series_cap: int = integrate.DEFAULT_SERIES_CAP
    fd_step: float = 1e-4

    def override(self, **kwargs):
        live = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **live)

    def check(self):
        """Raise ``ProblemError`` for a value no route can run with."""
        def count(v):
            return isinstance(v, int) and not isinstance(v, bool) and v >= 1

        for name, ok, rule in (
                ("mode", self.mode in (EXACT, FLOAT), f"{EXACT!r} or {FLOAT!r}"),
                ("order", count(self.order), "an integer >= 1"),
                ("series_cap", count(self.series_cap) and self.series_cap <= MAX_SERIES_CAP,
                 f"an integer from 1 to {MAX_SERIES_CAP}"),
                ("fd_step", 0 < self.fd_step < np.inf, "finite and > 0"),
                ("tol", 0 <= self.tol < np.inf, "finite and >= 0")):
            if not ok:
                raise ProblemError(f"setting {name} must be {rule}, got {getattr(self, name)!r}")
        return self


class ProblemError(ValueError):
    pass


_INPUT_ERRORS = (LookupError, TypeError, ValueError, AttributeError)


def _detail(err) -> str:
    return f"missing key {err}" if isinstance(err, KeyError) else str(err)


def _integer(value, field) -> int:
    """``value`` as an int; ``ValueError`` naming ``field`` for a boolean, a
    string or a number that is not integral."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _integer_keys(mapping, field) -> dict:
    """``mapping`` with its keys read as ints; ``ValueError`` naming ``field``
    when two keys name one integer, such as "0" and "00"."""
    out = {int(k): v for k, v in mapping.items()}
    if len(out) < len(mapping):
        raise ValueError(f"{field} keys {list(mapping)} name one integer twice")
    return out


def load_algebra(payload) -> LieAlgebra:
    """A pair (i, j) listed twice is an error, not an override; a ``dim``
    over ``MAX_ALGEBRA_DIM`` is refused before any constant is allocated."""
    n = _integer(payload["dim"], "dim")
    if n > MAX_ALGEBRA_DIM:
        raise ProblemError(f"Lie algebra of dimension {n} is over the budget of {MAX_ALGEBRA_DIM}")
    brackets = {}
    for item in payload.get("brackets", []):
        pair = (_integer(item["i"], "bracket i"), _integer(item["j"], "bracket j"))
        if pair in brackets:
            raise ValueError(f"bracket pair {pair} listed twice")
        brackets[pair] = {k: linalg.parse_scalar(v, EXACT)
                          for k, v in _integer_keys(item["coeffs"], "coefficient index").items()}
    return LieAlgebra(n, brackets, labels=payload.get("labels"),
                      name=payload.get("name", ""))


def load_operator(payload, space, degree, mode) -> GradedOperator:
    """Each block must be (dim target) rows x (dim source) columns; one not given is zero."""
    blocks = {}
    for k, rows in _integer_keys(payload or {}, "block degree").items():
        shape = (space.dim(k + degree), space.dim(k))
        if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
            raise ValueError(f"block {k} must be {shape[0]} x {shape[1]}")
        blocks[k] = [linalg.parse_scalar(v, mode) for row in rows for v in row]
    vec = [v for k in space.degrees
           for v in blocks.get(k, [0] * (space.dim(k + degree) * space.dim(k)))]
    return GradedOperator.from_block_entries(
        space, space, degree, np.array(vec, dtype=object if mode == EXACT else float), mode)


def dump_operator(op: GradedOperator):
    """Every block whose source and target are nonempty, zero blocks included."""
    blocks = {str(k): [[linalg.format_scalar(v) for v in row] for row in op.block(k)]
              for k in op.source.degrees if op.target.dim(k + op.degree)}
    return {"degree": op.degree, "blocks": blocks}


def _load_complex(payload, mode) -> CochainComplex:
    space = GradedVectorSpace({k: _integer(d, f"degree {k} dimension")
                               for k, d in _integer_keys(payload["degrees"], "degree").items()})
    return CochainComplex(space, load_operator(payload.get("delta"), space, 1, mode))


def load_cartan_rep(payload, algebra, mode) -> reps.CartanRep:
    complex_ = _load_complex(payload, mode)
    space = complex_.space
    L = [load_operator(p, space, 0, mode) for p in payload["L"]]
    B = [load_operator(p, space, -1, mode) for p in payload["B"]]
    return reps.CartanRep(algebra, complex_, L, B)


def load_lie_rep(payload, algebra, mode) -> reps.LieRep:
    complex_ = _load_complex(payload, mode)
    rep = reps.LieRep(algebra, complex_,
                      [load_operator(p, complex_.space, 0, mode) for p in payload["R"]])
    failed = [f"{family} residual {float(r):.6g}" for family, r in rep.residuals().items()
              if r > linalg.tolerance(mode)]
    if failed:
        raise ValueError("not a representation: " + ", ".join(failed))
    return rep


def spec_dim(spec, algebra) -> int:
    """Total dimension of the complex a representation spec builds, read
    from the dimensions alone; 0 for a spec the builders refuse."""
    if spec == "trivial":
        return 1
    if spec == "adjoint":
        return algebra.n
    if isinstance(spec, dict) and "functor" in spec:
        return 2 ** algebra.n * spec_dim(spec.get("coefficients", "trivial"), algebra)
    if isinstance(spec, dict):
        return sum(_integer(d, f"degree {k} dimension") for k, d in spec["degrees"].items())
    return 0


def build_lie_rep(spec, algebra, mode) -> reps.LieRep:
    if spec == "trivial":
        return reps.trivial_lie_rep(algebra, mode=mode)
    if spec == "adjoint":
        return reps.adjoint_rep(algebra, mode=mode)
    if isinstance(spec, dict):
        return load_lie_rep(spec, algebra, mode)
    raise ProblemError(f"unknown coefficient spec {spec!r}")


def build_cartan_rep(spec, algebra, mode) -> reps.CartanRep:
    if spec == "trivial":
        return reps.trivial_cartan_rep(algebra, mode=mode)
    if isinstance(spec, dict) and "functor" in spec:
        coeff = build_lie_rep(spec.get("coefficients", "trivial"), algebra, mode)
        if spec["functor"] == "U":
            return reps.chain_rep(algebra, coeff)
        if spec["functor"] == "E":
            return reps.cochain_rep(algebra, coeff)
        raise ProblemError(f"unknown functor {spec['functor']!r}")
    if isinstance(spec, dict):
        return load_cartan_rep(spec, algebra, mode)
    raise ProblemError(f"unknown representation spec {spec!r}")


class Problem:
    def __init__(self, payload, settings: Settings):
        if payload.get("schema") != SCHEMA:
            raise ProblemError(f'problem file must declare "schema": "{SCHEMA}"')
        self.settings = settings
        self.algebra = load_algebra(payload["lie_algebra"])
        self._rep_specs = payload.get("representations", {})
        self._grep_specs = payload.get("lie_representations", {})
        self.words = {}
        for name, letters in payload.get("words", {}).items():
            self.words[name] = [
                self.algebra.vector([linalg.parse_scalar(v, settings.mode) for v in letter],
                                    settings.mode)
                for letter in letters
            ]

    def representation(self, name) -> reps.CartanRep:
        return self._build(build_cartan_rep, self._rep_specs, "representation", name, 1)

    def lie_representation(self, name) -> reps.LieRep:
        """Every verb on a Lie representation V assembles a complex of
        dimension 2^n dim V from it (CE complex or U(V))."""
        return self._build(build_lie_rep, self._grep_specs, "Lie representation", name,
                           2 ** self.algebra.n)

    def _build(self, build, specs, kind, name, scale):
        """Build a named spec; a malformed one, one whose complexes (``scale``
        times its own dimension) are over ``MAX_COMPLEX_DIM`` (checked
        first: the Jacobi check grows as n^5), explicit operators that are
        not a representation (bracket or chain-map residual above the d^2
        check's bound), or structure constants that fail
        antisymmetry/Jacobi raise a one-line ``ProblemError``."""
        if name not in specs:
            raise ProblemError(f"unknown {kind} {name!r}")
        try:
            size = scale * spec_dim(specs[name], self.algebra)
            if size > MAX_COMPLEX_DIM:
                raise ProblemError(f"{kind} {name!r} assembles a complex of total dimension "
                                   f"{size}, over the budget of {MAX_COMPLEX_DIM}")
            if self.algebra.check_jacobi() != 0:
                raise ProblemError("structure constants fail antisymmetry/Jacobi; see check-lie")
            return build(specs[name], self.algebra, self.settings.mode)
        except (ProblemError, linalg.ModeError):
            raise
        except _INPUT_ERRORS as err:
            raise ProblemError(f"malformed {kind} {name!r}: {_detail(err)}") from err

    def word(self, name):
        if name not in self.words:
            raise ProblemError(f"unknown word {name!r}")
        return self.words[name]


def load_problem(path, defaults: Settings = None, **overrides) -> Problem:
    """File settings override the defaults; keyword overrides win over both.

    A file that is not UTF-8 or not valid JSON, lacks or misshapes a
    required field, or whose merged settings fail ``Settings.check`` raises
    ``ProblemError`` with a one-line message."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.loads(handle.read())
        base = defaults or Settings()
        merged = base.override(**payload.get("settings", {})).override(**overrides)
        return Problem(payload, merged.check())
    except ProblemError:
        raise
    except _INPUT_ERRORS as err:
        raise ProblemError(f"malformed problem file {path}: {_detail(err)}") from err
