"""Batch command line: load a problem file, run a named check suite,
emit JSON lines or an aligned table, exit 0 only when everything passed.

Environment: CARTANKIT_MODE in {exact, float} sets the default mode.
"""

import argparse
import os
import sys

from . import integrate, linalg, schemas, suites
from .schemas import Settings


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON lines")
    common.add_argument("--test-mode", action="store_true",
                        help="omit wall times so output is bit-reproducible")
    common.add_argument("--mode", choices=["exact", "float"])
    common.add_argument("--tol", type=float)
    common.add_argument("--order", type=int)
    common.add_argument("--cap", type=int, dest="series_cap")
    common.add_argument("--h", type=float, dest="fd_step")
    parser = argparse.ArgumentParser(
        prog="cartankit",
        description="verification kit for chain-level representation checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_, *specs):
        p = sub.add_parser(name, help=help_, parents=[common])
        p.add_argument("problem", help="problem file (JSON)")
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
        return p

    cmd("check-lie", "antisymmetry and Jacobi residuals of the structure constants")
    cmd("verify-cartan", "Cartan relation residuals of a representation",
        (("--rep",), {"required": True}))
    cmd("ce", "Chevalley-Eilenberg complex: d^2 and betti table",
        (("--rep",), {"required": True}),
        (("--flavor",), {"choices": ["cochain", "chain"], "default": "cochain"}))
    cmd("integrate", "integrate a word, by series and/or quadrature",
        (("--rep",), {"required": True}),
        (("--word",), {"required": True}),
        (("--method",), {"choices": ["series", "quadrature", "both"], "default": "both"}))
    cmd("verify-module", "chain-module laws on a list of words",
        (("--rep",), {"required": True}),
        (("--words",), {"required": True, "help": "comma-separated word names"}))
    cmd("roundtrip", "differentiate the integrated module and recover the input",
        (("--rep",), {"required": True}))
    cmd("adjunction", "dimension match for maps out of the chain representation",
        (("--lie-rep",), {"required": True, "dest": "lie_rep"}),
        (("--rep",), {"required": True}))
    cmd("cubical", "alternation and subdivision invariance on a word cube",
        (("--rep",), {"required": True}),
        (("--word",), {"required": True}))
    return parser


def load(args) -> schemas.Problem:
    defaults = Settings(mode=os.environ.get("CARTANKIT_MODE", "float"))
    return schemas.load_problem(
        args.problem, defaults,
        mode=args.mode, tol=args.tol, order=args.order,
        series_cap=args.series_cap, fd_step=args.fd_step)


def run(args):
    problem = load(args)
    command = args.command
    extra = ""
    if command == "check-lie":
        report = suites.check_lie(problem)
    elif command == "verify-cartan":
        report = suites.verify_cartan(problem, args.rep)
    elif command == "ce":
        report, betti = suites.ce_suite(problem, args.rep, args.flavor)
        extra = "betti  " + "  ".join(f"{k}:{v}" for k, v in sorted(betti.items()))
    elif command == "integrate":
        report, results = suites.integrate_word(problem, args.rep, args.word, args.method)
        op = next(iter(results.values()))
        extra = f"operator degree {op.degree}, norm {op.norm():.6e}"
    elif command == "verify-module":
        report = suites.verify_module(problem, args.rep, args.words.split(","))
    elif command == "roundtrip":
        report = suites.roundtrip(problem, args.rep)
    elif command == "adjunction":
        report = suites.adjunction(problem, args.lie_rep, args.rep)
    elif command == "cubical":
        report = suites.cubical_suite(problem, args.rep, args.word)
    else:  # pragma: no cover
        raise SystemExit(2)
    if args.json:
        print(report.json_lines(test_mode=args.test_mode))
    else:
        print(report.table())
        if extra:
            print(extra)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (schemas.ProblemError, linalg.ModeError, integrate.ConvergenceError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
