"""Byte-for-byte golden outputs of the serializer and the CLI.

The golden file pins, for every bundled document and fixture file:
``serialize_document(parse_document_dict(doc))``, the stdout and exit code
of ``check``, ``decide``, ``zariski``, ``fibration``, ``invariants`` and
``invariants --format json``, and the stdout of ``fixtures run``.  It pins
the same six commands on failure paths too: bundled documents with one
change each that makes the report fail.  A change
that alters any of these bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_outputs.py

which prints each key whose bytes were added, removed or changed before it
writes the file, and says in its description what differs.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import folsurf
from folsurf.cli import VIEWS, cli_main
from folsurf.fixtures import (
    bundled_documents,
    second_noether_ruled,
    semistable_genus2,
    slope_12_7,
    third_noether_double_cover,
)
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


def _changed(doc, change):
    change(doc)
    return doc


def _every_expect_key_mismatched(doc):
    doc["expect"] = {
        "c1_sq": "1/3",
        "c2": "5",
        "chi": "1/7",
        "vol": "7",
        "slope": "11",
        "p_g": 5,
        "singularity_count": 11,
        "genus_bound": 6,
        "verdict": "Undetermined",
        "noether_equality": "first",
        "negative_part": {"C0": "1/5"},
        "modular": {"kappa": "1", "delta": "1", "chi": "1/6"},
        "fired_rules": ["R0-declared-integrability"],
    }


def _non_reduced(doc):
    kinds = {"m1": {"eigenvalue": "2/3"}, "m2": {"eigenvalue": "nonrational"}}
    for sing in doc["singularities"]:
        sing["kind"] = kinds.get(sing["id"], sing["kind"])


# Bundled documents with one change each; every one yields a failed report.
FAILURE_CASES = {
    "every_expect_key_mismatched": lambda: _changed(
        second_noether_ruled(4), _every_expect_key_mismatched
    ),
    "declared_p_g_9": lambda: _changed(
        second_noether_ruled(4), lambda d: d["metadata"].update(p_g=9)
    ),
    # count.singularities fails while c1_sq, c2 and chi are expected
    "k_foliation_fails_validation": lambda: _changed(
        second_noether_ruled(4), lambda d: d.update(k_foliation=["1", "2"])
    ),
    "non_reduced_slope_12_7": lambda: _changed(slope_12_7(), _non_reduced),
    "modular_mismatch": lambda: _changed(
        semistable_genus2(),
        lambda d: d["expect"].update(modular={"kappa": "5", "delta": "19", "chi": "2"}),
    ),
    "genus_bound_mismatch": lambda: _changed(
        third_noether_double_cover(3), lambda d: d["expect"].update(genus_bound=4)
    ),
    # decide raises on the volume bound; the fibration block must still run
    "declared_p_g_5_with_fibration": lambda: _changed(
        third_noether_double_cover(2), lambda d: d["metadata"].update(p_g=5)
    ),
    # kodaira 2 declares general type
    "k_not_pseudo_effective": lambda: _changed(
        second_noether_ruled(4), lambda d: d["metadata"].update(k_pseudo_effective=False)
    ),
}


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


def _write_failure_cases(tmp):
    """Each failure case written to a file in ``tmp``, as (case, path)."""
    cases = []
    for case, build in FAILURE_CASES.items():
        path = Path(tmp) / f"{case}.json"
        path.write_text(json.dumps(build()), encoding="utf-8")
        cases.append((case, path))
    return cases


def failure_outputs():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, path in _write_failure_cases(tmp):
            for command in COMMANDS:
                argv = (command[0], str(path)) + command[1:]
                out[" ".join((command[0], case) + command[1:])] = _run_cli(argv)
    return out


def collect():
    return {
        "serialize": serialized_outputs(),
        "cli": cli_outputs(),
        "failure paths": failure_outputs(),
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


def test_failure_paths_match_golden():
    golden = _golden()["failure paths"]
    assert len(golden) == len(FAILURE_CASES) * len(COMMANDS)
    _assert_entries_equal(failure_outputs(), golden)


def test_fixtures_run_matches_golden():
    assert _run_cli(["fixtures", "run"]) == _golden()["fixtures run"]


def test_every_view_prints_lines_of_the_report_text():
    # each view is a selection of the report's sections, so apart from its
    # fallback line it prints lines of the full text report, in its order
    with tempfile.TemporaryDirectory() as tmp:
        paths = sorted(FIXTURE_DIR.glob("*.json"))
        paths += [path for _, path in _write_failure_cases(tmp)]
        for path in paths:
            report = _run_cli(["invariants", str(path)])["stdout"].splitlines()
            for command in ("check", "decide", "zariski", "fibration"):
                lines = _run_cli([command, str(path)])["stdout"].splitlines()
                remaining = iter(report)
                assert all(
                    line in remaining for line in lines if line != VIEWS[command].fallback
                ), f"{command} {path.name}"


def _flatten(outputs):
    """Each pinned entry as ``section / key`` -> its JSON bytes."""
    flat = {}
    for section, entries in outputs.items():
        if section == "fixtures run":  # one entry, not a map of them
            flat[section] = json.dumps(entries, sort_keys=True)
            continue
        for key, value in entries.items():
            flat[f"{section} / {key}"] = json.dumps(value, sort_keys=True)
    return flat


def golden_diff(old, new):
    """The keys added, removed and changed between two golden files."""
    before, after = _flatten(old), _flatten(new)
    return (
        sorted(after.keys() - before.keys()),
        sorted(before.keys() - after.keys()),
        sorted(k for k in before.keys() & after.keys() if before[k] != after[k]),
    )


if __name__ == "__main__":
    outputs = collect()
    old = _golden() if GOLDEN.exists() else {}
    for label, keys in zip(("added", "removed", "changed"), golden_diff(old, outputs)):
        for key in keys:
            print(f"{label}: {key}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
