"""Command-line front end: solve, check, and reproduce.

Exit codes: 0 success (nonempty solution set / check passed), 1 input error
(a bad flag or flag value, or a horizon too long for the recursive solver,
included), 2 size cap exceeded, 3 empty solution set, 4 check failed.
Reports go to stdout and are byte-identical for identical inputs and flags;
timing and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from .concepts import CONCEPT_NAMES, SolveReport, Solver
from .dsl import load, serialize
from .economy import Economy
from .errors import DynmatchError, SizeLimitExceeded
from .framework import (
    EMPTY_POLICIES,
    check_consistency,
    check_generalized_consistency,
    is_phi_solution,
)
from .matching import (
    DEFAULT_MAX_MATCHINGS,
    matching_text,
    parse_matching_text,
)
from .reproduce import RUNNERS

SCHEMA = "solve-report/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SIZE = 2
EXIT_EMPTY = 3
EXIT_CHECK_FAILED = 4


def _load(path: str) -> tuple[Economy, str]:
    """Load an economy file (see :func:`~dynmatch.dsl.load`), a leading
    UTF-8 byte-order mark skipped; returns the economy and the digest of its
    canonical text."""
    with open(path, encoding="utf-8-sig") as fh:
        economy, doc = load(fh.read())
    return economy, hashlib.sha256(serialize(doc).encode()).hexdigest()


def _witness_dict(w) -> dict:
    return {
        "kind": w.kind,
        "period": w.period,
        "agents": list(w.agents),
        "payoffs": [str(p) for p in w.payoffs],
    }


def _witness_text(w) -> str:
    """One line: the block, who makes it, and its payoffs (see BlockWitness)."""
    return (
        f"{w.kind} block at t={w.period} by {', '.join(w.agents)} "
        f"(payoffs {', '.join(str(p) for p in w.payoffs)})"
    )


def _report_dict(report: SolveReport, digest: str) -> dict:
    return {
        "schema": SCHEMA,
        "economy_digest": digest,
        "concept": report.concept,
        "flags": {
            "empty_conjectures": report.empty_policy,
            "max_matchings": report.max_matchings,
            # The solver is sequential; solve-report/1 keeps the field.
            "threads": 1,
        },
        "solutions": [matching_text(m) for m in report.solutions],
        "candidates": [matching_text(m) for m in report.candidates],
        "consistency": [
            {
                "matching": matching_text(m),
                "passed": passed,
                "failures": [{"period": t, "agent": k} for t, k in fails],
            }
            for m, passed, fails in report.consistency
        ],
        "witnesses": [
            {"matching": matching_text(m), **_witness_dict(w)}
            for m, w in report.witnesses
        ],
    }


def _print_report(report: SolveReport) -> None:
    print(f"concept: {report.concept}")
    print(f"solutions ({len(report.solutions)}):")
    for m in report.solutions:
        print(f"  {matching_text(m)}")
    print(f"candidates ({len(report.candidates)}):")
    for m, passed, fails in report.consistency:
        status = "consistent" if passed else (
            "inconsistent at " + ", ".join(f"(t={t}, {k})" for t, k in fails)
        )
        print(f"  {matching_text(m)}  [{status}]")
    for m, w in report.witnesses:
        print(f"rejected {matching_text(m)}: {_witness_text(w)}")


def _read_matching_arg(economy: Economy, spec: str):
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8-sig") as fh:
            spec = fh.read()
    return parse_matching_text(economy, spec)


def cmd_solve(args) -> int:
    economy, digest = _load(args.file)
    solver = Solver(args.empty_conjectures, args.max_matchings)
    start = time.perf_counter()
    report = solver.solve(args.concept, economy)
    elapsed = time.perf_counter() - start
    print(f"solved in {elapsed:.3f}s", file=sys.stderr)
    if args.json:
        print(json.dumps(_report_dict(report, digest), indent=2, sort_keys=True))
    else:
        _print_report(report)
    return EXIT_OK if report.solutions else EXIT_EMPTY


def cmd_check(args) -> int:
    if args.check != "gc" and args.matching is None:
        raise ValueError(f"--matching is required for --check {args.check}")
    if args.check == "gc" and args.matching is not None:
        raise ValueError("--matching is not read by --check gc")
    economy, _ = _load(args.file)
    family = Solver(args.empty_conjectures, args.max_matchings).family(args.concept)
    if args.check == "gc":
        verdict = check_generalized_consistency(economy, family)
        if verdict.passed:
            print("generalized consistency: pass")
            return EXIT_OK
        print("generalized consistency: fail")
        for m, t, k in verdict.failures:
            print(f"  {matching_text(m)} not conjectured by {k} at t={t}")
        return EXIT_CHECK_FAILED
    m = _read_matching_arg(economy, args.matching)
    if args.check == "cc":
        verdict = check_consistency(economy, m, family)
        if verdict.passed:
            print("consistency: pass")
            return EXIT_OK
        print("consistency: fail")
        for t, k in verdict.failures:
            print(f"  not conjectured by {k} at t={t}")
        return EXIT_CHECK_FAILED
    result = is_phi_solution(economy, m, family)
    if result is True:
        print("solution: pass")
        return EXIT_OK
    print(f"solution: fail — {_witness_text(result)}")
    return EXIT_CHECK_FAILED


def cmd_reproduce(args) -> int:
    claims = RUNNERS[args.example]()
    all_pass = True
    for label, passed, detail in claims:
        mark = "PASS" if passed else "FAIL"
        all_pass &= passed
        print(f"{mark}  {label} ({detail})")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="economy file (.econ)")
    p.add_argument("--concept", choices=CONCEPT_NAMES, required=True)
    p.add_argument(
        "--empty-conjectures",
        choices=EMPTY_POLICIES,
        default="vacuous",
        help="how an empty conjecture set constrains its owner",
    )
    p.add_argument("--max-matchings", type=positive_int, default=DEFAULT_MAX_MATCHINGS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` returns a fresh
    namespace on every call and never changes the parser."""
    parser = argparse.ArgumentParser(
        prog="dynmatch",
        description="Exact solver for two-sided irreversible dynamic matching markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute solutions and candidates")
    _add_common(p_solve)
    p_solve.add_argument("--json", action="store_true", help="machine-readable report")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="verify a matching or a concept")
    _add_common(p_check)
    p_check.add_argument(
        "--check", choices=("cc", "gc", "solution"), default="solution"
    )
    p_check.add_argument(
        "--matching", help="inline matching text ('t=1: a1-b1 | t=2: -') or @file"
    )
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("reproduce", help="re-run the bundled reference claims")
    p_rep.add_argument("example", choices=sorted(RUNNERS))
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is EXIT_SIZE.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (DynmatchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
