"""Byte-for-byte golden outputs of the serializer and the CLI.

The golden file pins, for every bundled document and fixture file:
``serialize_document(parse_document_dict(doc))``, the stdout and exit code
of ``check``, ``decide``, ``zariski``, ``fibration``, ``invariants`` and
``invariants --format json``, and the stdout of ``fixtures run``.  A change
that alters any of these bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says in its description what differs.
"""

import contextlib
import io
import json
from pathlib import Path

import folsurf
from folsurf.cli import cli_main
from folsurf.fixtures import bundled_documents
from folsurf.scenario_io import parse_document_dict, serialize_document

GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.json"
FIXTURE_DIR = Path(folsurf.__file__).resolve().parent / "data" / "fixtures"
COMMANDS = (
    ("check",),
    ("decide",),
    ("zariski",),
    ("fibration",),
    ("invariants",),
    ("invariants", "--format", "json"),
)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def serialized_outputs():
    return {
        stem: serialize_document(parse_document_dict(doc))
        for stem, doc in bundled_documents().items()
    }


def cli_outputs():
    out = {}
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        for command in COMMANDS:
            argv = (command[0], str(path)) + command[1:]
            out[" ".join((command[0], path.name) + command[1:])] = _run_cli(argv)
    return out


def collect():
    return {
        "serialize": serialized_outputs(),
        "cli": cli_outputs(),
        "fixtures run": _run_cli(["fixtures", "run"]),
    }


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _assert_entries_equal(actual, expected):
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


def test_serialized_documents_match_golden():
    _assert_entries_equal(serialized_outputs(), _golden()["serialize"])


def test_cli_outputs_match_golden():
    golden = _golden()["cli"]
    assert len(golden) == 15 * len(COMMANDS)
    _assert_entries_equal(cli_outputs(), golden)


def test_fixtures_run_matches_golden():
    assert _run_cli(["fixtures", "run"]) == _golden()["fixtures run"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
