"""Byte-for-byte golden outputs of the serializer and the CLI.

The golden file pins, for every bundled document and fixture file:
``serialize_document(parse_document_dict(doc))``, the stdout and exit code
of ``check``, ``decide``, ``zariski``, ``fibration``, ``invariants`` and
``invariants --format json``, and the stdout of ``fixtures run``.  It pins
each parametric fixture family too, as one sha256 over the concatenated
``render_fixture`` output of a range of its parameters.  It pins the count
and one sha256 of the outcomes of the seeded mutated and hostile documents
of ``tests/mutations.py``, and of the ``validate`` rows of the mutated
documents that parse to a scenario.  It pins
the same six commands on failure paths too: bundled documents with one
change each that makes the report fail.  It pins the stdout of every script
in ``demos/`` (``tests/test_demos.py`` compares it).  A change
that alters any of these bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_outputs.py

which prints each key whose bytes were added, removed or changed before it
writes the file, and says in its description what differs.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import folsurf
import mutations
from conftest import expand_points
from folsurf.cli import VIEWS, cli_main
from folsurf.document import parse_document_dict, serialize_document
from folsurf.fixtures import (
    bundled_documents,
    first_noether_ruled,
    render_fixture,
    second_noether_ruled,
    semistable_genus2,
    slope_12_7,
    third_noether_double_cover,
)
from folsurf.scenario_io import run_pipeline

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "outputs.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
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
    doc.update(expand_points(doc))
    kinds = {"m1": {"eigenvalue": "2/3"}, "m2": {"eigenvalue": "nonrational"}}
    for sing in doc["singularities"]:
        sing["kind"] = kinds.get(sing["id"], sing["kind"])


def _non_integral_k_foliation(doc):
    # K_F = C0 + 7/2 F on F_3, two more points off every curve balancing the
    # count: every other row passes, Z(C0) = 5/2 included
    doc["k_foliation"] = ["1", "7/2"]
    doc["singularities"] += [
        {"id": f"e{k}", "kind": {"eigenvalue": "nonrational"}} for k in (1, 2)
    ]
    del doc["expect"]


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
    "non_integral_k_foliation": lambda: _changed(
        first_noether_ruled(3), _non_integral_k_foliation
    ),
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


# Each parametric builder over a range that covers the snapshots and the
# benchmark decks (ruled n = 50..200, double cover g = 6..16).
FAMILIES = {
    "first_noether_ruled": (first_noether_ruled, range(1, 201)),
    "second_noether_ruled": (second_noether_ruled, range(2, 201)),
    "third_noether_double_cover": (third_noether_double_cover, range(2, 17)),
}


def test_counted_points_give_the_bytes_of_the_points_listed_one_by_one():
    # every family member of FAMILIES and every bundled document, grouped as
    # its builder writes it and listed point by point
    documents = [build(param) for build, params in FAMILIES.values() for param in params]
    documents += bundled_documents().values()
    counted = 0
    for doc in documents:
        grouped = parse_document_dict(doc)
        listed = parse_document_dict(expand_points(doc))
        assert run_pipeline(grouped).to_json() == run_pipeline(listed).to_json(), doc["name"]
        if grouped.scenario is not None:
            rows = mutations.validation_rows(grouped.scenario)
            assert rows == mutations.validation_rows(listed.scenario), doc["name"]
            counted += len(grouped.scenario.singularities) < len(listed.scenario.singularities)
    # every family member, and the 11 bundled documents whose builders count points
    assert counted == sum(len(params) for _, params in FAMILIES.values()) + 11


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


def family_digests():
    out = {}
    for family, (build, params) in FAMILIES.items():
        digest = hashlib.sha256()
        for param in params:
            digest.update(render_fixture(build(param)).encode("utf-8"))
        out[family] = digest.hexdigest()
    return out


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


def run_demo(demo):
    """Run one demo script against the package in ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def demo_outputs():
    out = {}
    for demo in DEMOS:
        result = run_demo(demo)
        assert result.returncode == 0, result.stderr
        out[demo.name] = result.stdout
    return out


def collect():
    return {
        "serialize": serialized_outputs(),
        "families": family_digests(),
        "mutations": mutations.digest(),
        "cli": cli_outputs(),
        "failure paths": failure_outputs(),
        "fixtures run": _run_cli(["fixtures", "run"]),
        "demos": demo_outputs(),
        "validation": mutations.validation_digest(),
    }


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _assert_entries_equal(actual, expected):
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


def test_serialized_documents_match_golden():
    _assert_entries_equal(serialized_outputs(), _golden()["serialize"])


def test_fixture_families_match_golden():
    _assert_entries_equal(family_digests(), _golden()["families"])


def _is_json_dumps_form(result):
    # a JSON report, accepted or refused, is what json.dumps writes of it
    if result.startswith("{"):
        assert result == json.dumps(json.loads(result), indent=2, sort_keys=True) + "\n"


def test_mutated_documents_match_golden():
    # each mutated document's ParseError path and reason, or its JSON report
    assert mutations.digest(check=_is_json_dumps_form) == _golden()["mutations"]


def test_validation_rows_of_mutated_documents_match_golden():
    # every check's name, status, detail and residual; the report omits residuals
    assert mutations.validation_digest() == _golden()["validation"]


def test_a_document_over_the_time_bound_fails_the_mutation_harness(monkeypatch):
    monkeypatch.setattr(mutations, "DOCUMENT_SECONDS", 0.0)
    with pytest.raises(mutations.SlowDocument, match="document 0 took"):
        mutations.digest()


def test_each_source_and_hostile_document_stays_under_the_memory_bound():
    # the 24 source documents in two forms and the 7 hostile inputs, one
    # traced peak each
    peaks = mutations.memory_peaks()
    assert len(peaks) == 48 + 7
    assert max(peaks) <= mutations.DOCUMENT_BYTES


def test_a_document_over_the_memory_bound_fails_the_mutation_harness(monkeypatch):
    monkeypatch.setattr(mutations, "DOCUMENT_BYTES", 0)
    with pytest.raises(mutations.LargeDocument, match="document 0 held"):
        mutations.memory_peaks()


def test_cli_outputs_match_golden():
    golden = _golden()["cli"]
    assert len(golden) == 15 * len(COMMANDS)
    _assert_entries_equal(cli_outputs(), golden)


def test_failure_paths_match_golden():
    golden = _golden()["failure paths"]
    assert len(golden) == len(FAILURE_CASES) * len(COMMANDS)
    _assert_entries_equal(failure_outputs(), golden)


def test_a_non_integral_k_foliation_fails_only_the_curve_classes_row():
    # a foliation's canonical class is a line bundle's, so it is integral
    report = run_pipeline(parse_document_dict(FAILURE_CASES["non_integral_k_foliation"]()))
    failed = [c for c in report.validation.checks if c.failed]
    assert [(c.name, c.detail) for c in failed] == [
        ("structure.curve-classes", "non-integral classes ['K_F']")
    ]
    assert not report.ok and (report.chern, report.p_g, report.verdict) == (None, None, None)


def test_mutation_outcomes_are_written_one_line_per_document(monkeypatch, tmp_path):
    # the lines name each document's outcome, and hash to its digest
    monkeypatch.setattr(mutations, "MUTATIONS_PER_DOCUMENT", 2)
    out = tmp_path / "outcomes.jsonl"
    mutations.write_outcomes(str(out))
    lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    h = hashlib.sha256()
    for k, line in enumerate(lines):
        assert line["document"] == k
        h.update(f"{k}\t{line['outcome']}\n".encode("utf-8"))
    assert mutations.digest() == {"documents": 48 * 2 + 7, "sha256": h.hexdigest()}


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
