"""Command-line surface.

Subcommands: ``check``, ``invariants``, ``decide``, ``zariski``,
``fibration``, and ``fixtures run``.  Exit codes: 0 on success, 1 on failed
checks or expectation mismatches, 2 on parse or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .errors import ParseError
from .fixtures import load_bundled_files
from .scenario_io import (
    MODULAR_KEYS,
    ScenarioDocument,
    chain_line,
    check_line,
    fmt_rational,
    listing,
    parse_scenario,
    run_pipeline,
    verdict_lines,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _load(path_text: str) -> ScenarioDocument:
    path = Path(path_text)
    if not path.exists():
        raise ParseError(f"no such file: {path}", "$")
    try:
        data = path.read_bytes()
    except OSError as exc:  # a directory, or a file without read permission
        raise ParseError(f"cannot read {path}: {exc.strerror}", "$") from None
    return parse_scenario(data)


def _cmd_check(args) -> int:
    report = run_pipeline(_load(args.file))
    if report.validation is None:
        print("no surface scenario to validate")
        return EXIT_OK if report.ok else EXIT_CHECK_FAILED
    for c in report.validation.checks:
        print(check_line(c))
    for w in report.validation.warnings:
        print(f"warning: {w}")
    return EXIT_OK if report.validation.passed else EXIT_CHECK_FAILED


def _cmd_invariants(args) -> int:
    report = run_pipeline(_load(args.file))
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_decide(args) -> int:
    report = run_pipeline(_load(args.file))
    if report.inconsistency is not None:
        print(f"inconsistent scenario: {report.inconsistency}")
        return EXIT_CHECK_FAILED
    if report.verdict is None:
        print("no verdict (validation failed or no surface scenario)")
        return EXIT_CHECK_FAILED
    print(*verdict_lines(report.verdict), sep="\n")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_zariski(args) -> int:
    report = run_pipeline(_load(args.file))
    if report.decomposition is None:
        print(report.inconsistency or "no decomposition (validation failed or K not pseudo-effective)")
        return EXIT_CHECK_FAILED
    print(f"P = {report.decomposition.nef_part}")
    if report.decomposition.negative_part:
        for name, value in report.decomposition.negative_part:
            print(f"N[{name}] = {fmt_rational(value)}")
    else:
        print("N = 0")
    for ch in report.chains:
        print(chain_line(ch))
    if report.vol is not None:
        print(f"vol = {fmt_rational(report.vol)}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_fibration(args) -> int:
    report = run_pipeline(_load(args.file))
    if report.modular is None:
        print(report.inconsistency or "no fibration block in document")
        return EXIT_CHECK_FAILED
    print(listing(MODULAR_KEYS, report.modular))
    for c in report.fibration_checks:
        print(check_line(c))
    if report.inconsistency is not None:
        print(f"inconsistent scenario: {report.inconsistency}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_fixtures(args) -> int:
    if args.action != "run":
        print(f"unknown fixtures action {args.action!r}", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    for name, raw in load_bundled_files():
        if args.filter and args.filter not in name:
            continue
        doc = parse_scenario(raw)
        report = run_pipeline(doc)
        print(f"[{'PASS' if report.ok else 'FAIL'}] {name}: {doc.name}")
        if report.ok:
            continue
        failures += 1
        if report.inconsistency:
            print(f"    inconsistency: {report.inconsistency}")
        for failure in report.expectation_failures:
            print(f"    {failure}")
        if report.validation is not None:
            for c in report.validation.failures:
                print(f"    failed check {c.name}: {c.detail}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folsurf",
        description="Exact invariants and integrability verdicts for foliated surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a scenario file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("invariants", help="full invariant report")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("decide", help="integrability verdict only")
    p.add_argument("file")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("zariski", help="Zariski decomposition and chains")
    p.add_argument("file")
    p.set_defaults(func=_cmd_zariski)

    p = sub.add_parser("fibration", help="modular invariants of the fibration block")
    p.add_argument("file")
    p.set_defaults(func=_cmd_fibration)

    p = sub.add_parser("fixtures", help="operate on the bundled fixture corpus")
    p.add_argument("action", choices=("run",))
    p.add_argument("--filter", default=None)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def cli_main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
