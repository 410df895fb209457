import pytest

from folsurf.document import parse_document_dict, parse_scenario
from folsurf.fixtures import (
    bundled_documents,
    first_noether_ruled,
    second_noether_ruled,
    third_noether_double_cover,
    load_bundled_files,
    render_fixture,
)
from folsurf.scenario_io import run_pipeline


def test_bundled_files_match_builders():
    files = dict(load_bundled_files())
    docs = bundled_documents()
    assert set(files) == {f"{stem}.json" for stem in docs}
    for stem, doc in docs.items():
        assert files[f"{stem}.json"] == render_fixture(doc), stem


def test_every_bundled_fixture_passes():
    for name, raw in load_bundled_files():
        report = run_pipeline(parse_scenario(raw))
        assert report.ok, (name, report.inconsistency, report.expectation_failures)


def test_corpus_covers_every_example_family():
    names = {doc["name"] for doc in bundled_documents().values()}
    prefixes = (
        "first-noether",
        "second-noether",
        "third-noether",
        "slope-12-7",
        "degree-2-on-P2",
        "genus1-nonisotrivial",
        "semistable-genus2",
        "elliptic-i0star",
    )
    for prefix in prefixes:
        assert any(n.startswith(prefix) for n in names), prefix


@pytest.mark.parametrize("n", [1, 2, 10, 25, 50])
def test_first_noether_ruled_family(n):
    assert run_pipeline(parse_document_dict(first_noether_ruled(n))).ok


@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_second_noether_ruled_family(n):
    assert run_pipeline(parse_document_dict(second_noether_ruled(n))).ok


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_third_noether_double_cover_family(g):
    assert run_pipeline(parse_document_dict(third_noether_double_cover(g))).ok


def test_a_ruled_document_grows_with_its_distinct_data_not_its_points():
    # 6 399 of the 6 402 points are one kind off every curve: one entry
    text = render_fixture(second_noether_ruled(3200))
    assert len(text.encode("utf-8")) < 2000
    scenario = parse_scenario(text).scenario
    assert len(scenario.singularities) <= 8
    assert scenario.singularity_count == 6402


def test_mutated_expectation_is_caught():
    doc = second_noether_ruled(5)
    doc["expect"]["negative_part"]["C0"] = "2/5"  # off by 1/n
    report = run_pipeline(parse_document_dict(doc))
    assert not report.ok
    assert any("negative_part" in f for f in report.expectation_failures)


def test_a_double_cover_document_grows_linearly_in_g():
    # sparse classes and one counted entry for the 2g nodal fibers: a dense
    # class has a rational per basis class, and the document grew as g^2
    size = {
        g: len(render_fixture(third_noether_double_cover(g)).encode("utf-8")) for g in (40, 160)
    }
    assert size[160] < 5 * size[40]
