"""Command-line surface.

Each report view prints a selection of the sections of one
``InvariantReport`` through its one text renderer, ``to_text``; the CLI
formats no report value itself.  ``VIEWS`` gives each view's sections, the
line it prints when it printed nothing, and its exit rule: ``check`` exits 1
iff a validation check failed; ``decide``, ``zariski`` and ``fibration``
exit 0 iff their primary section (verdict, decomposition, modular
invariants) is present and the report is ok; ``invariants`` exits 0 iff the
report is ok.  ``fixtures run`` prints a PASS/FAIL line per bundled file
and, under a FAIL, that report's inconsistency, validation and expectation
failures, indented.  Exit code 2 is a parse or usage error, among them a
``--filter`` that matches no bundled file.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import ParseError
from .fixtures import load_bundled_files
from .scenario_io import InvariantReport, ScenarioDocument, parse_scenario, run_pipeline

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class View(NamedTuple):
    help: str
    sections: Optional[Tuple[str, ...]]  # None: every section
    fallback: str  # printed when the view printed nothing
    passed: Callable[[InvariantReport], bool]


VIEWS = {
    "check": View(
        "validation report only", ("validation", "warnings"), "no surface scenario to validate",
        lambda r: r.validation is None or r.validation.passed,
    ),
    "invariants": View("full invariant report", None, "", lambda r: r.ok),
    "decide": View(
        "integrability verdict only", ("inconsistency", "verdict"),
        "no verdict (validation failed or no surface scenario)",
        lambda r: r.verdict is not None and r.ok,
    ),
    "zariski": View(
        "Zariski decomposition, chains and invariants",
        ("inconsistency", "zariski", "chains", "invariants"),
        "no decomposition (validation failed or K not pseudo-effective)",
        lambda r: r.decomposition is not None and r.ok,
    ),
    "fibration": View(
        "modular invariants of the fibration block",
        ("inconsistency", "modular", "fibration_checks"), "no fibration block in document",
        lambda r: r.modular is not None and r.ok,
    ),
}


def _load(path_text: str) -> ScenarioDocument:
    path = Path(path_text)
    if not path.exists():
        raise ParseError(f"no such file: {path}", "$")
    try:
        data = path.read_bytes()
    except OSError as exc:  # a directory, or a file without read permission
        raise ParseError(f"cannot read {path}: {exc.strerror}", "$") from None
    return parse_scenario(data)


def _cmd_view(args) -> int:
    view = VIEWS[args.command]
    report = run_pipeline(_load(args.file))
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text(view.sections) or f"{view.fallback}\n")
    return EXIT_OK if view.passed(report) else EXIT_CHECK_FAILED


def _cmd_fixtures(args) -> int:
    files = [
        (name, raw)
        for name, raw in load_bundled_files()
        if not args.filter or args.filter in name
    ]
    if not files:
        print(f"no bundled fixture matches {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    for name, raw in files:
        doc = parse_scenario(raw)
        report = run_pipeline(doc)
        print(f"[{'PASS' if report.ok else 'FAIL'}] {name}: {doc.name}")
        if not report.ok:
            failures += 1
            failed = report.to_text(("inconsistency", "validation", "expectation_failures"))
            sys.stdout.write(textwrap.indent(failed, "    "))
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folsurf",
        description="Exact invariants and integrability verdicts for foliated surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, view in VIEWS.items():
        p = sub.add_parser(command, help=view.help)
        p.add_argument("file")
        if command == "invariants":
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=_cmd_view)

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
