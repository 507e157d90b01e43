"""Problem-file parsing, operator serialization, command-line behavior."""

import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from cartankit import cli, integrate, linalg, schemas, suites
from cartankit.graded import compose
from cartankit.lie import heisenberg3
from cartankit.linalg import EXACT, FLOAT
from cartankit.reps import adjoint_rep, cartan_residuals, chain_rep, trivial_lie_rep
from cartankit.schemas import dump_operator, load_algebra
from dense_reference import operator_from_blocks
from test_ce import _nilpotent
from test_stacked import _assert_same


SL2_PAYLOAD = {
    "schema": "cartankit/1",
    "settings": {"mode": "float", "tol": 1e-9, "order": 12},
    "lie_algebra": {
        "dim": 3,
        "labels": ["e", "f", "h"],
        "name": "sl2",
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1"}},
            {"i": 0, "j": 2, "coeffs": {"0": "-2"}},
            {"i": 1, "j": 2, "coeffs": {"1": "2"}},
        ],
    },
    "representations": {
        "chain_trivial": {"functor": "U", "coefficients": "trivial"},
        "trivial": "trivial",
    },
    "lie_representations": {"trivial": "trivial", "adjoint": "adjoint"},
    "words": {"we": [[1, 0, 0]], "weh": [[1, 0, 0], [0, 0, 1]]},
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(SL2_PAYLOAD))
    return str(path)


def dump_algebra(algebra):
    """The ``lie_algebra`` payload that ``load_algebra`` reads back."""
    items = []
    for i in range(algebra.n):
        for j in range(i + 1, algebra.n):
            coeffs = {str(k): linalg.format_scalar(algebra.c[i, j, k])
                      for k in range(algebra.n) if algebra.c[i, j, k] != 0}
            if coeffs:
                items.append({"i": i, "j": j, "coeffs": coeffs})
    return {"dim": algebra.n, "brackets": items, "labels": algebra.labels,
            "name": algebra.name}


def test_algebra_roundtrip():
    g = load_algebra(SL2_PAYLOAD["lie_algebra"])
    assert g.check_jacobi() == 0
    dumped = dump_algebra(g)
    again = load_algebra(dumped)
    assert np.array_equal(again.c, g.c)


def test_settings_precedence(problem_file):
    prob = schemas.load_problem(problem_file)
    assert prob.settings.order == 12                      # file overrides default
    prob2 = schemas.load_problem(problem_file, order=20, mode="exact")
    assert prob2.settings.order == 20                     # flag overrides file
    assert prob2.settings.mode == "exact"
    assert prob2.settings.tol == 1e-9


def test_problem_rejects_wrong_schema(tmp_path):
    bad = dict(SL2_PAYLOAD)
    bad["schema"] = "other/9"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(schemas.ProblemError):
        schemas.load_problem(str(path))


def test_build_representations(problem_file):
    prob = schemas.load_problem(problem_file, mode="exact")
    rep = prob.representation("chain_trivial")
    assert cartan_residuals(rep).worst == 0.0
    with pytest.raises(schemas.ProblemError):
        prob.representation("missing")
    word = prob.word("weh")
    assert len(word) == 2 and len(word[0]) == 3


def test_explicit_representation_payload():
    payload = {
        "degrees": {"-1": 1, "0": 1},
        "delta": {"-1": [["1"]]},
        "L": [{"-1": [["1"]], "0": [["1"]]}],
        "B": [{"0": [["1"]]}],
    }
    import cartankit.lie as lie
    rep = schemas.load_cartan_rep(payload, lie.abelian(1), EXACT)
    assert cartan_residuals(rep).worst == 0.0
    dumped = dump_operator(rep.B[0])
    assert dumped == {"degree": -1, "blocks": {"0": [["1"]]}}


def test_operator_dump_float(sl2_chain_float):
    dumped = dump_operator(sl2_chain_float.L[0])
    assert dumped["degree"] == 0
    assert isinstance(dumped["blocks"]["0"][0][0], float)


def test_cli_check_lie_pass(problem_file, capsys):
    code = cli.main(["check-lie", problem_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "jacobi" in out and "ok" in out


def test_cli_verify_cartan_json(problem_file, capsys):
    code = cli.main(["verify-cartan", problem_file, "--rep", "chain_trivial",
                     "--mode", "exact", "--json", "--test-mode"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(entry["schema"] == "cartankit/1" for entry in lines)
    assert lines[-1]["summary"]["pass"] is True
    assert all("seconds" not in entry for entry in lines)


def test_cli_exit_one_on_failure(tmp_path, capsys):
    broken = json.loads(json.dumps(SL2_PAYLOAD))
    broken["lie_algebra"]["brackets"] = [
        {"i": 0, "j": 1, "coeffs": {"2": "1"}},
        {"i": 0, "j": 2, "coeffs": {"0": "1"}},
    ]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code = cli.main(["check-lie", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_exit_two_on_bad_input(problem_file, capsys):
    code = cli.main(["verify-cartan", problem_file, "--rep", "missing"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv, field", [
    (["integrate", "--rep", "chain_trivial", "--word", "weh", "--order", "0"], "order"),
    (["integrate", "--rep", "chain_trivial", "--word", "weh", "--cap", "0"], "series_cap"),
    (["integrate", "--rep", "chain_trivial", "--word", "weh", "--method", "series",
      "--cap", "1000000000000"], "series_cap"),
    (["roundtrip", "--rep", "chain_trivial", "--h", "0"], "fd_step"),
    (["roundtrip", "--rep", "chain_trivial", "--h", "inf"], "fd_step"),
    (["verify-cartan", "--rep", "chain_trivial", "--tol", "-0.1"], "tol"),
    (["verify-cartan", "--rep", "chain_trivial", "--tol", "inf"], "tol"),
], ids=["order", "series_cap", "series_cap_over_budget", "fd_step", "fd_step_inf", "tol",
        "tol_inf"])
def test_cli_exit_two_on_invalid_setting(problem_file, capsys, argv, field):
    code = cli.main(argv[:1] + [problem_file] + argv[1:])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: setting {field} must be")


@pytest.mark.parametrize("field, value, message", [
    ("order", -2, "setting order must be an integer >= 1, got -2"),
    ("order", 2.5, "setting order must be an integer >= 1, got 2.5"),
    ("mode", "fast", "setting mode must be 'exact' or 'float', got 'fast'"),
], ids=["negative_order", "fractional_order", "unknown_mode"])
def test_problem_file_settings_are_checked(tmp_path, field, value, message):
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["settings"][field] = value
    path = tmp_path / "bad_settings.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(schemas.ProblemError, match=message):
        schemas.load_problem(str(path))
    good = {"order": 4, "mode": "exact"}[field]
    assert getattr(schemas.load_problem(str(path), **{field: good}).settings, field) == good


def test_cli_exit_two_on_series_nonconvergence(problem_file, capsys):
    code = cli.main(["integrate", problem_file, "--rep", "chain_trivial",
                     "--word", "weh", "--cap", "2"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert lines == ["error: series did not converge within total degree 2"]


@pytest.mark.parametrize("letter, argv, message", [
    ([300, 300, 0], ["--method", "series", "--cap", "160"], "float series is not finite"),
    ([1e6, 1e6, 0], ["--method", "series"], "float series is not finite"),
    ([1e6, 1e6, 0], ["--method", "quadrature"], "quadrature integral is not finite"),
], ids=["series_at_the_largest_cap", "series", "quadrature"])
def test_cli_exit_two_on_float_overflow(tmp_path, capsys, letter, argv, message):
    """A letter whose float integral leaves the float range exits 2 with one
    line: the series stops at its first non-finite partial sum, the quadrature
    refuses a non-finite integral, and no numpy warning escapes (the test
    configuration turns a ``RuntimeWarning`` into an error)."""
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["words"]["big"] = [letter]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["integrate", str(path), "--rep", "chain_trivial", "--word", "big"] + argv)
    captured = capsys.readouterr()
    assert code == 2 and "passed" not in captured.out
    assert captured.err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("word", [[[1e6, 1e6, 0]], [[1e6, 1e6, 0], [0, 0, 1]]],
                         ids=["one_letter", "two_letters"])
def test_cli_cubical_exit_two_on_float_overflow(tmp_path, capsys, word):
    """A cube word whose density leaves the float range exits 2 with one
    line: the entry's density and the cochain values are read with float
    overflow silenced, and no numpy warning escapes (the test configuration
    turns a ``RuntimeWarning`` into an error)."""
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["words"]["big"] = word
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["cubical", str(path), "--rep", "chain_trivial", "--word", "big"])
    captured = capsys.readouterr()
    assert code == 2 and "passed" not in captured.out
    assert captured.err.strip().splitlines() == ["error: pullback density is not finite"]


def _sl2_copy(tmp_path, **words):
    """A copy of problems/sl2.json with the given words added."""
    payload = json.loads((pathlib.Path(__file__).resolve().parents[1] / "problems" / "sl2.json")
                         .read_text())
    payload["words"].update(words)
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("word", [[[1e308, 0, 0]], [[1, 0, 0], [1e308, 1e308, 0]],
                                  [[1e200, 1e200, 0]]],
                         ids=["overflowing_letter", "overflowing_second_letter", "big_letter"])
@pytest.mark.parametrize("argv, message", [
    (["integrate", "--method", "quadrature", "--word"], "quadrature integral is not finite"),
    (["verify-module", "--words"], "quadrature integral is not finite"),
    (["cubical", "--word"], "pullback density is not finite"),
], ids=["integrate", "verify_module", "cubical"])
def test_cli_exit_two_on_a_letter_past_the_float_range(tmp_path, capsys, word, argv, message):
    """A letter whose ad(x) or L(x) overflows gets a NaN exponential table
    (``linalg.TaylorExp``), which the finite checks refuse: exit 2 with one
    line, not a traceback and exit 1, and no numpy warning escapes (the
    test configuration turns a ``RuntimeWarning`` into an error)."""
    path = _sl2_copy(tmp_path, w=word)
    code = cli.main([argv[0], path, "--rep", "chain_trivial"] + argv[1:] + ["w"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--h", "1e300"],
    ["integrate", "--word", "w", "--method", "series"],
    ["integrate", "--word", "w", "--method", "both"],
], ids=["roundtrip_huge_step", "series", "both"])
def test_cli_one_stderr_line_when_a_float_value_overflows(tmp_path, capsys, argv):
    """Point values past the float range (``TaylorExp.at`` squarings) and
    letter blocks past it (built inside the float series' own errstate)
    print no numpy warning before the one error line; the configuration
    would turn one into an error."""
    path = _sl2_copy(tmp_path, w=[[1e308, 1e308, 0]])
    code = cli.main([argv[0], path, "--rep", "chain_trivial"] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == ["error: float series is not finite"]


@pytest.mark.parametrize("argv, word, message", [
    (["cubical", "--word"], [], "word 'w' has no letters; the cubical checks need one"),
    (["verify-module", "--words"], [], "word 'w' has no letters; the module checks need one"),
    (["cubical", "--word"], [[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 1]],
     "word 'w' has 4 letters, and rep 'chain_trivial' has no degree -4 density to check"),
], ids=["cubical_empty", "verify_module_empty", "cubical_four_letters"])
def test_cli_exit_two_on_a_word_the_suites_cannot_check(tmp_path, capsys, argv, word, message):
    """A word with no letters, or with more letters than the complex has
    degrees to span, is refused with one line and exit 2, not a traceback
    and exit 1 (which means a check failed)."""
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["words"]["w"] = word
    path = tmp_path / "words.json"
    path.write_text(json.dumps(payload))
    code = cli.main([argv[0], str(path), "--rep", "chain_trivial", argv[1], "w"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {message}"]


def test_series_cap_budget_admits_its_largest_cap(problem_file):
    """The largest cap runs, and every float coefficient of a 10-letter word
    up to it is a nonzero float (the smallest, 1 / (cap + 10)!, included)."""
    assert cli.main(["integrate", problem_file, "--rep", "chain_trivial", "--word", "weh",
                     "--method", "series", "--cap", str(schemas.MAX_SERIES_CAP)]) == 0
    assert integrate.series_coefficient((0,) * 9 + (schemas.MAX_SERIES_CAP,), False) > 0


@pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["directory", "not_utf8"])
def test_cli_exit_two_on_unreadable_problem_file(tmp_path, capsys, content):
    path = tmp_path / "problem.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = cli.main(["check-lie", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _malformed_exit(tmp_path, capsys, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code = cli.main(["check-lie", str(path)])
    err = capsys.readouterr().err
    return code, err.strip().splitlines()


def test_cli_exit_two_on_missing_key(tmp_path, capsys):
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    del payload["lie_algebra"]
    code, lines = _malformed_exit(tmp_path, capsys, json.dumps(payload))
    assert code == 2
    assert len(lines) == 1 and "missing key 'lie_algebra'" in lines[0]


def test_cli_exit_two_on_bracket_order(tmp_path, capsys):
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["lie_algebra"]["brackets"][0].update({"i": 1, "j": 0})
    code, lines = _malformed_exit(tmp_path, capsys, json.dumps(payload))
    assert code == 2
    assert len(lines) == 1 and "0 <= i < j < n" in lines[0]


def test_cli_exit_two_on_invalid_json(tmp_path, capsys):
    code, lines = _malformed_exit(tmp_path, capsys, json.dumps(SL2_PAYLOAD)[:-1])
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: malformed problem file")


def test_cli_exit_two_on_malformed_representation(tmp_path, capsys):
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["representations"]["bad"] = {"degrees": {"0": 1}, "L": [{}, {}, {}]}
    path = tmp_path / "bad_rep.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["verify-cartan", str(path), "--rep", "bad"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and "malformed representation 'bad'" in lines[0]
    assert "missing key 'B'" in lines[0]


@pytest.mark.parametrize("index", ["-1", "3"])
def test_cli_exit_two_on_coefficient_index(tmp_path, capsys, index):
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["lie_algebra"]["brackets"][0]["coeffs"] = {index: "1"}
    code, lines = _malformed_exit(tmp_path, capsys, json.dumps(payload))
    assert code == 2
    assert len(lines) == 1 and f"coefficient index {index} outside 0 <= k < n" in lines[0]


def _non_jacobi_file(tmp_path):
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["lie_algebra"]["brackets"][1]["coeffs"] = {"0": "1"}     # [e, h] = e
    path = tmp_path / "non_jacobi.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["ce", "--rep", "trivial"],
    ["ce", "--rep", "trivial", "--mode", "exact"],
    ["adjunction", "--lie-rep", "trivial", "--rep", "trivial", "--mode", "exact"],
], ids=["ce_float", "ce_exact", "adjunction_exact"])
def test_cli_exit_two_on_non_jacobi_constants(tmp_path, capsys, argv):
    code = cli.main(argv[:1] + [_non_jacobi_file(tmp_path)] + argv[1:])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and "fail antisymmetry/Jacobi" in lines[0]


_NON_REPRESENTATIONS = {
    # three copies of diag(1, 0): [R_e, R_f] = 0 but [e, f] = h
    "bracket": {"degrees": {"0": 2}, "R": [{"0": [[1, 0], [0, 0]]}] * 3},
    # adjoint in degree 0, trivial in degree 1, and a delta that does not
    # intertwine them
    "chain_map": {"degrees": {"0": 3, "1": 1}, "delta": {"0": [[1, 0, 0]]},
                  "R": [{"0": [[0, 0, -2], [0, 0, 0], [0, 1, 0]]},
                        {"0": [[0, 0, 0], [0, 0, 2], [-1, 0, 0]]},
                        {"0": [[2, 0, 0], [0, -2, 0], [0, 0, 0]]}]},
}


@pytest.mark.parametrize("fault,residual", [("bracket", 2), ("chain_map", 2)])
@pytest.mark.parametrize("argv", [
    ["ce", "--rep", "bad", "--flavor", "cochain"],
    ["ce", "--rep", "bad", "--flavor", "chain"],
    ["adjunction", "--lie-rep", "bad", "--rep", "trivial"],
], ids=["ce_cochain", "ce_chain", "adjunction"])
def test_cli_exit_two_on_non_representation(tmp_path, capsys, argv, fault, residual):
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["lie_representations"]["bad"] = _NON_REPRESENTATIONS[fault]
    path = tmp_path / "non_rep.json"
    path.write_text(json.dumps(payload))
    for mode in ("exact", "float"):
        code = cli.main(argv[:1] + [str(path)] + argv[1:] + ["--mode", mode])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(lines) == 1 and "malformed Lie representation 'bad'" in lines[0]
        assert lines[0].endswith(f"not a representation: {fault} residual {residual}")


def test_check_lie_reports_non_jacobi_residual(tmp_path, capsys):
    code = cli.main(["check-lie", _non_jacobi_file(tmp_path), "--json", "--test-mode"])
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert code == 1
    assert record["check"] == "jacobi" and record["residual"] > 0 and not record["pass"]


@pytest.mark.parametrize("argv, nodes", [
    (["integrate", "--word", "w7", "--method", "quadrature"], 16 ** 7),
    (["integrate", "--word", "w7", "--method", "both"], 16 ** 7),
    (["cubical", "--word", "w7"], 16 ** 7),
    (["verify-module", "--words", "we,w7"], 16 ** 7),
    (["integrate", "--word", "we", "--method", "quadrature", "--order", "1000000"], 10 ** 6),
], ids=["quadrature", "both", "cubical", "verify_module", "order"])
def test_cli_exit_two_on_quadrature_over_budget(tmp_path, capsys, argv, nodes):
    """A quadrature over the node budget is refused from order ** k alone,
    before any node is built."""
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["settings"]["order"] = 16
    payload["words"]["w7"] = [[1, 0, 0], [0, 0, 1], [0, 1, 0]] * 2 + [[1, 0, 0]]
    path = tmp_path / "long_word.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code = cli.main(argv[:1] + [str(path), "--rep", "chain_trivial"] + argv[1:])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and elapsed < 1.0
    assert len(lines) == 1 and f"needs {nodes} nodes" in lines[0]


@pytest.mark.parametrize("argv, size", [
    (["verify-cartan", "--rep", "chain_trivial"], 2 ** 30),
    (["ce", "--rep", "adjoint", "--flavor", "cochain"], 30 * 2 ** 30),
    (["adjunction", "--lie-rep", "trivial", "--rep", "trivial"], 2 ** 30),
], ids=["functor", "ce", "adjunction"])
def test_cli_exit_two_on_complex_over_budget(tmp_path, capsys, argv, size):
    """An abelian algebra of dim 30 would assemble complexes of dimension
    2^30 dim V: refused from the dimensions alone, before any is built."""
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["lie_algebra"] = {"dim": 30, "name": "abelian30"}
    payload["words"] = {}
    path = tmp_path / "abelian30.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code = cli.main(argv[:1] + [str(path)] + argv[1:])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and elapsed < 1.0
    assert len(lines) == 1 and f"total dimension {size}," in lines[0]


@pytest.mark.parametrize("dim", [100, 1000])
def test_cli_exit_two_on_algebra_over_budget(tmp_path, capsys, dim):
    """An algebra over the dimension budget is refused before its n^3
    structure constants are allocated."""
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    payload["lie_algebra"] = {"dim": dim, "name": f"abelian{dim}"}
    payload["words"] = {}
    path = tmp_path / f"abelian{dim}.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code = cli.main(["check-lie", str(path)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert code == 2 and elapsed < 1.0
    assert len(lines) == 1 and "Traceback" not in err
    assert f"dimension {dim} is over the budget of {schemas.MAX_ALGEBRA_DIM}" in lines[0]


def _n4_file(tmp_path):
    """n_4 (6-dim) with its 64-dim chain representation of trivial coefficients."""
    g = _nilpotent(4)
    brackets = [{"i": i, "j": j, "coeffs": {str(k): str(g.c[i, j, k])
                                            for k in range(g.n) if g.c[i, j, k]}}
                for i in range(g.n) for j in range(i + 1, g.n) if any(g.c[i, j])]
    payload = {"schema": "cartankit/1", "settings": {"mode": "float"},
               "lie_algebra": {"dim": g.n, "name": "n4", "brackets": brackets},
               "representations": {"chain_trivial": {"functor": "U", "coefficients": "trivial"}},
               "lie_representations": {"adjoint": "adjoint"}, "words": {}}
    path = tmp_path / "n4.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_float_adjunction_over_the_system_budget_exits_two(tmp_path, capsys):
    """Maps out of the 384-dim chain representation of the n_4 adjoint into
    the 64-dim one: the dense float system (66,528 x 5,544, and the SVD's
    U) is refused from the dimensions alone, while the sparse exact route
    finds the maps."""
    path = _n4_file(tmp_path)
    argv = ["adjunction", path, "--lie-rep", "adjoint", "--rep", "chain_trivial", "--json"]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert code == 2 and elapsed < 1.0
    assert len(lines) == 1 and "Traceback" not in err
    assert "66528 x 5544" in lines[0] and f"budget of {suites.MAX_FLOAT_SYSTEM}" in lines[0]
    assert cli.main(argv + ["--mode", "exact"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[0]["inputs"]["dims"] == [3, 3]


def test_complex_budget_admits_the_largest_tested_case():
    assert schemas.spec_dim({"functor": "E", "coefficients": "trivial"},
                            load_algebra({"dim": 15})) <= schemas.MAX_COMPLEX_DIM


def test_cli_integrate_cross_check(problem_file, capsys):
    code = cli.main(["integrate", problem_file, "--rep", "chain_trivial",
                     "--word", "we", "--method", "both"])
    assert code == 0
    assert "cross_residual" in capsys.readouterr().out


def test_cli_ce_betti_table(problem_file, capsys):
    code = cli.main(["ce", problem_file, "--rep", "trivial", "--flavor",
                     "cochain", "--mode", "exact"])
    out = capsys.readouterr().out
    assert code == 0
    assert "betti" in out


def test_cli_roundtrip(problem_file, capsys):
    code = cli.main(["roundtrip", problem_file, "--rep", "chain_trivial"])
    assert code == 0
    assert "roundtrip.recovery" in capsys.readouterr().out


def test_cli_adjunction(problem_file, capsys):
    code = cli.main(["adjunction", problem_file, "--lie-rep", "trivial",
                     "--rep", "chain_trivial", "--mode", "exact"])
    assert code == 0
    assert "dimension_match" in capsys.readouterr().out


def test_cli_cubical_one_letter(problem_file, capsys):
    code = cli.main(["cubical", problem_file, "--rep", "chain_trivial",
                     "--word", "we", "--order", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cubical.alternating" in out and "cubical.subdivision" in out


def test_cli_verify_module(problem_file, capsys):
    code = cli.main(["verify-module", problem_file, "--rep", "chain_trivial",
                     "--words", "we", "--order", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "module.dg_stokes" in out


def test_cli_env_mode_default(problem_file, capsys, monkeypatch):
    monkeypatch.setenv("CARTANKIT_MODE", "exact")
    code = cli.main(["verify-cartan", problem_file, "--rep", "chain_trivial",
                     "--json", "--test-mode"])
    out = capsys.readouterr().out
    assert code == 0
    # the problem file pins float mode, which outranks the environment default
    assert json.loads(out.strip().splitlines()[-1])["settings"]["mode"] == "float"
    stripped = json.loads(json.dumps(SL2_PAYLOAD))
    del stripped["settings"]["mode"]
    alt = pathlib.Path(problem_file).with_name("env.json")
    alt.write_text(json.dumps(stripped))
    code = cli.main(["verify-cartan", str(alt), "--rep", "chain_trivial",
                     "--json", "--test-mode"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["settings"]["mode"] == "exact"


def test_cli_json_reports_are_reproducible(problem_file, capsys):
    cli.main(["verify-cartan", problem_file, "--rep", "chain_trivial",
              "--json", "--test-mode"])
    first = capsys.readouterr().out
    cli.main(["verify-cartan", problem_file, "--rep", "chain_trivial",
              "--json", "--test-mode"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_exact_output_matches_pinned_file(capsys, monkeypatch):
    """Exact-mode --json --test-mode output, serialised operators included,
    matches tests/data/cli_exact.jsonl byte for byte (one call per line)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    pinned = (root / "tests" / "data" / "cli_exact.jsonl").read_text()
    monkeypatch.chdir(root)
    lines = []
    for line in pinned.splitlines():
        argv = json.loads(line)["argv"]
        code = cli.main(argv)
        out = capsys.readouterr().out
        lines.append(json.dumps({"argv": argv, "exit": code, "stdout": out}, sort_keys=True))
    assert "\n".join(lines) + "\n" == pinned


def _variant_file(tmp_path, edit):
    payload = json.loads(json.dumps(SL2_PAYLOAD))
    edit(payload)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _set_bracket(value):
    def edit(payload):
        payload["lie_algebra"]["brackets"][0]["coeffs"]["2"] = value
    return edit


@pytest.mark.parametrize("value", ["1/0", float("inf")], ids=["zero_denominator", "infinity"])
@pytest.mark.parametrize("argv", [
    ["check-lie"],
    ["verify-cartan", "--rep", "chain_trivial"],
    ["ce", "--rep", "trivial", "--mode", "exact"],
], ids=["check_lie", "verify_cartan", "ce_exact"])
def test_cli_exit_two_on_arithmetic_errors(tmp_path, capsys, argv, value):
    code = cli.main(argv[:1] + [_variant_file(tmp_path, _set_bracket(value))] + argv[1:])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and "malformed problem file" in lines[0]


@pytest.mark.parametrize("argv", [
    ["check-lie"],
    ["ce", "--rep", "trivial", "--mode", "exact"],
], ids=["check_lie", "ce_exact"])
def test_cli_exit_two_on_boolean_coefficients(tmp_path, capsys, argv):
    def edit(payload):
        for bracket in payload["lie_algebra"]["brackets"]:
            bracket["coeffs"] = {k: True for k in bracket["coeffs"]}
    code = cli.main(argv[:1] + [_variant_file(tmp_path, edit)] + argv[1:])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and "boolean true is not a number" in lines[0]


def test_exact_parsing_rejects_floats_it_would_round(tmp_path):
    # 1e-13 has no fraction with denominator <= 10^12 that rounds back to it
    for mode in ("exact", "float"):
        with pytest.raises(schemas.ProblemError, match='"p/q"'):
            schemas.load_problem(_variant_file(tmp_path, _set_bracket(1e-13)), mode=mode)
    for value, frac in ((0.1, Fraction(1, 10)), (2.5e-12, Fraction(1, 400000000000))):
        prob = schemas.load_problem(_variant_file(tmp_path, _set_bracket(value)))
        assert prob.algebra.c[0, 1, 2] == frac


def test_cli_exit_two_on_misshapen_blocks(tmp_path, capsys):
    def edit(payload):
        payload["lie_representations"]["short"] = {
            "degrees": {"0": 2}, "R": [{"0": []}, {"0": []}, {"0": []}]}
    path = _variant_file(tmp_path, edit)
    code = cli.main(["ce", path, "--rep", "short", "--mode", "exact", "--flavor", "chain"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and "malformed Lie representation 'short'" in lines[0]
    assert lines[0].endswith("block 0 must be 2 x 2")


def _heisenberg_edit(path, value):
    def edit(payload):
        *keys, last = path
        for key in keys:
            payload = payload[key]
        payload[last] = value
    return edit


def _one_dim_lie_rep(dim):
    return _heisenberg_edit(("lie_representations", "one"),
                            {"degrees": {"0": dim}, "R": [{"0": [[0]]}] * 3})


def _empty_algebra(dim):
    def edit(payload):
        payload["lie_algebra"].update(dim=dim, brackets=[])
        del payload["lie_algebra"]["labels"]
    return edit


_WXY = ["integrate", "--rep", "chain_trivial", "--word", "wxy", "--mode", "float"]


@pytest.mark.parametrize("edit, argv, field", [
    (_heisenberg_edit(("lie_algebra", "brackets", 0, "i"), 0.7), ["check-lie"], "bracket i"),
    (lambda p: p["lie_algebra"]["brackets"][0].update(i=False, j=True), ["check-lie"],
     "bracket i"),
    (_one_dim_lie_rep(1.5), ["ce", "--rep", "one"], "degree 0 dimension"),
    (_one_dim_lie_rep(True), ["ce", "--rep", "one"], "degree 0 dimension"),
    (_heisenberg_edit(("settings", "order"), True), _WXY, "setting order"),
    (_heisenberg_edit(("settings", "series_cap"), True), _WXY + ["--method", "series"],
     "setting series_cap"),
    (lambda p: p["lie_algebra"]["brackets"].append({"i": 0, "j": 1, "coeffs": {"2": "5"}}),
     ["check-lie"], "bracket pair (0, 1) listed twice"),
    (_heisenberg_edit(("lie_algebra", "labels"), ["x"]), ["check-lie"],
     "1 labels for a 3-dimensional algebra"),
    (_heisenberg_edit(("lie_algebra", "labels"), []), ["check-lie"],
     "0 labels for a 3-dimensional algebra"),
    (_empty_algebra(0), ["check-lie"], "dim must be at least 1, got 0"),
    (_empty_algebra(-1), ["check-lie"], "dim must be at least 1, got -1"),
    (_heisenberg_edit(("lie_algebra", "brackets", 0, "coeffs"), {"2": "1", "02": "5"}),
     ["check-lie"], "coefficient index keys ['2', '02'] name one integer twice"),
    (_heisenberg_edit(("lie_representations", "one"),
                      {"degrees": {"0": 1, "00": 2}, "R": [{"0": [[0]]}] * 3}),
     ["ce", "--rep", "one"], "degree keys ['0', '00'] name one integer twice"),
    (_heisenberg_edit(("lie_representations", "one"),
                      {"degrees": {"0": 1}, "R": [{"0": [[1]], "00": [[2]]}] + [{}] * 2}),
     ["ce", "--rep", "one"], "block degree keys ['0', '00'] name one integer twice"),
], ids=["fractional_index", "boolean_indices", "fractional_degree_dim", "boolean_degree_dim",
        "boolean_order", "boolean_series_cap", "repeated_bracket_pair", "label_count",
        "empty_labels", "zero_dim", "negative_dim", "repeated_coefficient_index",
        "repeated_degree", "repeated_block_degree"])
def test_cli_exit_two_on_malformed_integers_and_structure(tmp_path, capsys, edit, argv, field):
    """Each edit of a copy of problems/heisenberg_exact.json is an input
    error: exit 2 and one line naming the field."""
    root = pathlib.Path(__file__).resolve().parents[1]
    payload = json.loads((root / "problems" / "heisenberg_exact.json").read_text())
    edit(payload)
    path = tmp_path / "heisenberg_variant.json"
    path.write_text(json.dumps(payload))
    code = cli.main(argv[:1] + [str(path)] + argv[1:])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and field in lines[0]


def _dump_sparse(op):
    """``dump_operator`` blocks of ``op`` with its first all-zero block left
    out (a block not given is zero) and the other zero blocks written out."""
    blocks = dump_operator(op)["blocks"]
    zero = [k for k, rows in blocks.items() if not any(Fraction(v) for row in rows for v in row)]
    return {k: rows for k, rows in blocks.items() if not zero or k != zero[0]}


def _reference_load(payload, space, degree, mode):
    """The problem-file blocks parsed into dense arrays and built by the
    dense-block reference (a missing key is a zero block)."""
    blocks = {int(k): np.array([[linalg.parse_scalar(v, mode) for v in row] for row in rows],
                               dtype=object if mode == EXACT else float).reshape(
                                   space.dim(int(k) + degree), space.dim(int(k)))
              for k, rows in payload.items()}
    return operator_from_blocks(space, space, degree, blocks, mode=mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_problem_file_operators_load_bit_for_bit(tmp_path, monkeypatch, mode):
    """Explicit Cartan and Lie representations in a problem file, with
    fractional entries, missing block keys and all-zero blocks, load into
    the entries, dtype, denominator and mode of the dense-block reference."""
    g = heisenberg3()
    cartan = chain_rep(g, trivial_lie_rep(g, mode=mode))
    space = cartan.complex.space
    scale = {k: np.diag([Fraction(i + 2, i + 1) for i in range(d)]).astype(
        object if mode == EXACT else float) for k, d in space.dims.items()}
    conj = operator_from_blocks(space, space, 0, scale, mode=mode)
    inverse = operator_from_blocks(space, space, 0, {k: np.diag(1 / np.diag(b)) for k, b in
                                                     scale.items()}, mode=mode)
    moved = [compose(compose(conj, op), inverse) for op in
             [cartan.differential] + cartan.L + cartan.B]
    lie = adjoint_rep(g, mode=mode)
    payload = {
        "schema": "cartankit/1", "settings": {"mode": mode}, "lie_algebra": dump_algebra(g),
        "representations": {"explicit": {
            "degrees": {str(k): d for k, d in space.dims.items()},
            "delta": _dump_sparse(moved[0]),
            "L": [_dump_sparse(op) for op in moved[1:4]],
            "B": [_dump_sparse(op) for op in moved[4:]]}},
        "lie_representations": {"explicit": {
            "degrees": {"0": g.n}, "R": [_dump_sparse(op) for op in lie.operators]}},
    }
    cartan_payload = payload["representations"]["explicit"]
    assert any(len(p) < len(dump_operator(op)["blocks"]) for p, op in
               zip([cartan_payload["delta"]] + cartan_payload["L"], moved))
    assert payload["lie_representations"]["explicit"]["R"][2] == {}       # ad z = 0
    assert "-3" not in cartan_payload["L"][0]              # L_x: zero on the top wedge
    zero_blocks = cartan_payload["L"][0]["0"]              # and on the bottom one
    assert not any(Fraction(v) for row in zero_blocks for v in row)
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(payload))
    loaded = []
    original = schemas.load_operator

    def recording(block_payload, space, degree, mode):
        loaded.append((block_payload, space, degree, original(block_payload, space, degree,
                                                              mode)))
        return loaded[-1][3]

    monkeypatch.setattr(schemas, "load_operator", recording)
    problem = schemas.load_problem(str(path))
    assert cartan_residuals(problem.representation("explicit")).worst <= linalg.tolerance(mode)
    problem.lie_representation("explicit")
    assert len(loaded) == 1 + 2 * g.n + 1 + g.n
    assert any(op._den > 1 for *_, op in loaded) == (mode == EXACT)
    for block_payload, op_space, degree, op in loaded:
        assert op.mode == mode
        _assert_same(op, _reference_load(block_payload or {}, op_space, degree, mode))


def test_exact_integrate_both_refuses_before_integrating(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integrated before the mode was checked")

    monkeypatch.setattr(integrate, "integrate_series", refuse)
    problem = pathlib.Path(__file__).resolve().parents[1] / "problems" / "heisenberg_exact.json"
    code = cli.main(["integrate", str(problem), "--rep", "chain_trivial", "--word", "wxy",
                     "--method", "both", "--mode", "exact"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert lines == ["error: quadrature requires float mode"]


def test_cli_imports_no_scipy():
    """numpy is the one run-time dependency: a fresh interpreter that imports
    the command line loads no scipy module."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = ("import sys, cartankit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
