import json

import pytest

from folsurf.cli import cli_main
from folsurf.fixtures import second_noether_ruled, render_fixture, slope_12_7


@pytest.fixture
def fixture_file(tmp_path):
    def write(doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(render_fixture(doc), encoding="utf-8")
        return str(path)

    return write


def test_missing_file_is_usage_error(capsys):
    assert cli_main(["invariants", "definitely_missing.json"]) == 2


def test_check_subcommand(fixture_file, capsys):
    assert cli_main(["check", fixture_file(second_noether_ruled(3))]) == 0
    out = capsys.readouterr().out
    assert "count.singularities" in out


def test_decide_subcommand(fixture_file, capsys):
    assert cli_main(["decide", fixture_file(slope_12_7())]) == 0
    out = capsys.readouterr().out
    assert "Transcendental" in out
    assert "R3-slope-below-two" in out


def test_zariski_subcommand(fixture_file, capsys):
    assert cli_main(["zariski", fixture_file(second_noether_ruled(5))]) == 0
    out = capsys.readouterr().out
    assert "N[C0] = 1/5" in out
    assert "vol = 16/5" in out


def test_invariants_json(fixture_file, capsys):
    assert cli_main(["invariants", fixture_file(second_noether_ruled(5)), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariants"]["c1_sq"] == "16/5"
    assert payload["ok"] is True


def test_expectation_failure_exit_code(fixture_file, capsys):
    doc = second_noether_ruled(5)
    doc["expect"]["c2"] = "5"
    assert cli_main(["invariants", fixture_file(doc)]) == 1


def test_parse_error_exit_code(fixture_file, capsys):
    doc = second_noether_ruled(5)
    doc["surprise"] = True
    assert cli_main(["invariants", fixture_file(doc)]) == 2


@pytest.mark.parametrize(
    "content",
    [
        ('{"name": "x", "fibration": {"genus": ' + "1" * 5000 + "}}").encode(),
        b'{"name": "\xff"}',
    ],
    ids=["long-integer", "not-utf8"],
)
def test_undecodable_file_is_a_parse_error(tmp_path, capsys, content):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    assert cli_main(["check", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_unreadable_path_is_a_parse_error(tmp_path, capsys):
    assert cli_main(["check", str(tmp_path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_fixtures_run(capsys):
    assert cli_main(["fixtures", "run"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_fixtures_run_filter(capsys):
    assert cli_main(["fixtures", "run", "--filter", "third_noether"]) == 0
    out = capsys.readouterr().out
    assert "third_noether_g2.json" in out
    assert "slope_12_7" not in out


def test_fixtures_run_filter_matching_nothing_is_usage_error(capsys):
    assert cli_main(["fixtures", "run", "--filter", "nosuchfixture"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no bundled fixture matches 'nosuchfixture'\n"


def test_fixtures_run_deterministic(capsys):
    cli_main(["fixtures", "run"])
    first = capsys.readouterr().out
    cli_main(["fixtures", "run"])
    second = capsys.readouterr().out
    assert first == second


def test_check_deep_camacho_sad_component_reports_without_traceback(tmp_path, capsys):
    # 1 000 points on one invariant line make one Camacho-Sad component as
    # long as the point count; the check reports it instead of raising
    doc = {
        "name": "one-line-many-points",
        "surface": {"base": "P2", "blowups": 0},
        "k_foliation": ["0"],
        "curves": [{"name": "C", "class": ["1"], "f_invariant": True}],
        "singularities": [
            {"id": f"p{k}", "kind": {"eigenvalue": "-2"}, "on_curves": ["C"]}
            for k in range(1000)
        ],
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "unknown",
        },
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["check", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(
        line.strip().startswith(("[skip] camacho-sad.C", "[FAIL] camacho-sad.C")) for line in lines
    )
