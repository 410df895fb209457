import copy
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import folsurf
import folsurf.document as document
import folsurf.scenario_io as sio
from conftest import count_calls, dense_form, expand_points
from folsurf.document import (
    EXPECT,
    document_to_dict,
    fmt_rational,
    parse_document_dict,
    parse_rational,
    parse_scenario,
    serialize_document,
    write_json,
)
from folsurf.chern import ChernNumbers, FiredRule, Verdict
from folsurf.errors import DomainError, ParseError
from folsurf.fibration import FiberNode
from folsurf.fixtures import (
    bundled_documents,
    degree_two_p2,
    first_noether_ruled,
    i0star_elliptic,
    load_bundled_files,
    second_noether_ruled,
    semistable_genus2,
    slope_12_7,
    third_noether_double_cover,
)
from folsurf.foliation import CheckResult, CurveRecord, ScenarioRefused, ValidationReport
from folsurf.local_invariants import (
    COUNTED_ON_CURVES,
    EigenvalueClass,
    NonDegenerate,
    SingularityRecord,
)
from folsurf.scenario_io import InvariantReport, run_pipeline
from folsurf.surface import SurfaceModel
from folsurf.zariski import FChain, ZariskiDecomposition


def test_fmt_and_parse_rational_roundtrip():
    for q in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(22, 7)):
        assert parse_rational(fmt_rational(q), "$") == q


@pytest.mark.parametrize("value", [0.1, 2.0, True, False, "1/2", None], ids=repr)
def test_fmt_rational_refuses_what_is_not_an_exact_rational(value):
    # the format has no floating point: a float or a bool is not printed
    with pytest.raises(DomainError):
        fmt_rational(value)


def test_fmt_rational_prints_ints_and_fractions_as_before():
    assert [fmt_rational(q) for q in (7, -3, 0, Fraction(22, 7), Fraction(-4, 2))] == [
        "7", "-3", "0", "22/7", "-2",
    ]


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_rational("1/0", "$.x")


def test_parse_rational_rejects_floats_and_garbage():
    with pytest.raises(ParseError):
        parse_rational("0.5", "$")
    with pytest.raises(ParseError):
        parse_rational("a/b", "$")


@pytest.mark.parametrize(
    "text",
    ["1_000", " 3 ", "+3", "3/ 4", "\u0663", "3/-4", "3/+4", "-", "3/", "/4", "--3", "-+3", ""],
)
def test_parse_rational_refuses_what_int_alone_would_take(text):
    # an optional "-", ASCII digits, and optionally "/" and ASCII digits; int()
    # also takes underscores, spaces, signs and non-ASCII digits such as U+0663
    with pytest.raises(ParseError, match="malformed rational"):
        parse_rational(text, "$")


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000, "-" + "1" * 5000 + "/3"])
def test_parse_rational_refuses_over_long_digit_strings(text):
    # CPython's int() raises ValueError past sys.get_int_max_str_digits() (4300)
    with pytest.raises(ParseError, match="malformed rational"):
        parse_rational(text, "$")


def test_parse_rational_accepts_the_grammar_and_json_integers():
    for text, want in (("0", 0), ("-0", 0), ("007", 7), ("-12/8", Fraction(-3, 2)), ("5/1", 5)):
        assert parse_rational(text, "$") == want
    assert parse_rational(-4, "$") == -4  # JSON integers stay accepted


def test_class_decoding_builds_no_fraction_for_a_zero_entry(monkeypatch):
    doc = dense_form(third_noether_double_cover(40))
    seen = []
    original = document._rational

    def counting(text, memo):
        seen.append(text)
        return original(text, memo)

    monkeypatch.setattr(document, "_rational", counting)
    scenario = parse_document_dict(doc).scenario
    dense = [doc["k_foliation"]] + [c["class"] for c in doc["curves"]]
    entries = [x for cls in dense for x in cls]
    nonzero = [x for x in entries if x != "0"]
    assert (len(entries), len(nonzero)) == (27556, 334)
    # the class codec looks ``_rational`` up when called: one call per
    # nonzero class entry, none for a "0"; an eigenvalue decodes from its
    # text's integers without it
    assert len(seen) == len(nonzero)
    assert "0" not in seen
    classes = [scenario.k_foliation] + [c.cls for c in scenario.curves]
    assert sum(len(c.terms) for c in classes) == len(nonzero)
    assert [list(map(fmt_rational, c.coefficients)) for c in classes] == dense


def test_parsing_builds_one_fraction_per_distinct_text_and_reruns_no_field_check(monkeypatch):
    doc = third_noether_double_cover(8)
    counts = {"Fraction": 0, "FiberNode": 0, "EigenvalueClass": 0}
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    built = folsurf.local_invariants.fraction

    def counting_fraction(n, d):
        counts["Fraction"] += 1
        return built(n, d)

    # a Fraction built from two ints goes through ``fraction``, which skips
    # ``Fraction.__new__``: count it in every module that holds the name
    for name, module in list(sys.modules.items()):
        if name.startswith("folsurf") and getattr(module, "fraction", None) is built:
            monkeypatch.setattr(module, "fraction", counting_fraction)
    for kind in (FiberNode, EigenvalueClass):
        post_init = kind.__post_init__

        def counting_post_init(self, _name=kind.__name__, _post_init=post_init):
            counts[_name] += 1
            _post_init(self)

        monkeypatch.setattr(kind, "__post_init__", counting_post_init)
    parse_document_dict(doc)
    monkeypatch.undo()
    fibration, expect = doc["fibration"], doc["expect"]
    classes = [doc["k_foliation"]] + [c["class"] for c in doc["curves"]]
    texts = set().union(*(cls.values() for cls in classes))
    texts |= {fibration[k] for k in ("k_f_sq", "e_f", "chi_f")}
    texts |= {expect[k] for k in ("c1_sq", "c2", "chi", "vol", "slope")}
    texts |= set(expect["negative_part"].values()) | set(expect["modular"].values())
    eigenvalues = {s["kind"]["eigenvalue"] for s in doc["singularities"]}
    assert (len(texts), len(eigenvalues)) == (42, 37)
    # one Fraction per distinct text, one per distinct eigenvalue, built in
    # its canonical form n/d, |n| >= d, from the text's integers, and two for
    # FibrationModel's own check K_f^2 + e_f = 12 chi_f
    fractions = len(texts) + len(eigenvalues) + 2
    assert counts == {"Fraction": fractions, "FiberNode": 0, "EigenvalueClass": 0}


def test_points_listed_one_by_one_read_as_the_counted_form_in_linear_time():
    # 6 402 points, 6 399 of them one kind off every curve, each listed with
    # its own kind object: every local fact is read once per record, so the
    # cost grows by one record's work per listed point (about 17 ms in all)
    counted = second_noether_ruled(3200)
    listed = expand_points(counted)
    start = time.perf_counter()
    parsed = parse_document_dict(listed)
    report = run_pipeline(parsed)
    assert time.perf_counter() - start < 1.0
    assert report.ok and len(parsed.scenario.singularities) == 6402
    assert report.to_json() == run_pipeline(parse_document_dict(counted)).to_json()


@pytest.mark.parametrize(
    "accepted, look_alike, where, reason",
    [
        ({"eigenvalue": 1}, {"eigenvalue": True}, "eigenvalue", "got True"),
        ({"eigenvalue": 1}, {"eigenvalue": 1.0}, "eigenvalue", "got 1.0"),
        ({"eigenvalue": -2}, {"eigenvalue": -2.0}, "eigenvalue", "got -2.0"),
        ({"eigenvalue": "-2"}, {"eigenvalue": ["-2"]}, "eigenvalue", "got ['-2']"),
        ({"saddle_node": 2, "bb": 1}, {"saddle_node": 2, "bb": True}, "bb", "got True"),
    ],
    ids=["1-true", "1-float", "int-float", "str-list", "bb-1-true"],
)
def test_a_look_alike_of_an_accepted_kind_is_refused(accepted, look_alike, where, reason):
    # each kind is decoded on its own, so a value equal to an accepted one
    # (1 == True == 1.0 and -2 == -2.0) is still refused by its type
    doc = expand_points(second_noether_ruled(3))
    doc["singularities"][3]["kind"] = accepted
    parse_document_dict(doc)
    doc["singularities"][4]["kind"] = look_alike
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == f"$.singularities[4].kind.{where}"
    assert err.value.reason == f"expected a rational string, {reason}"


LAZY_DECODERS = """
import folsurf
from folsurf import document

records = [v for v in vars(document).values() if isinstance(v, document.Record)]
assert len(records) == 13, len(records)
assert not [r for r in records if "decoder" in vars(r)]
from folsurf.fixtures import render_fixture, second_noether_ruled

assert not [r for r in records if "decoder" in vars(r)]
folsurf.parse_scenario(render_fixture(second_noether_ruled(2)))
assert all("decoder" in vars(r) for r in records)
"""


def test_record_decoders_are_built_on_the_first_parse_not_at_import():
    # callers that never parse, such as the chain oracle, pay nothing for them
    env = dict(os.environ)
    src = str(Path(folsurf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", LAZY_DECODERS], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_round_trip_stability():
    for stem, doc in bundled_documents().items():
        parsed = parse_scenario(json.dumps(doc))
        text = serialize_document(parsed)
        reparsed = parse_scenario(text)
        assert document_to_dict(parsed) == document_to_dict(reparsed), stem
        assert serialize_document(reparsed) == text, stem


def test_unknown_key_rejected():
    doc = second_noether_ruled(3)
    doc["mystery"] = 1
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert "mystery" in str(err.value)


def test_unknown_nested_key_rejected():
    doc = second_noether_ruled(3)
    doc["curves"][0]["color"] = "blue"
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert "curves[0]" in err.value.path


def test_dangling_curve_reference_names_the_curve():
    doc = second_noether_ruled(3)
    doc["singularities"][0]["on_curves"] = ["Ghost"]
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert "Ghost" in str(err.value)


def test_duplicate_names_rejected():
    doc = second_noether_ruled(3)
    doc["curves"].append(copy.deepcopy(doc["curves"][0]))
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert (err.value.path, err.value.reason) == ("$.curves[2]", "duplicate curve name 'C0'")
    doc2 = expand_points(second_noether_ruled(3))
    doc2["singularities"].append(copy.deepcopy(doc2["singularities"][0]))
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc2)
    assert (err.value.path, err.value.reason) == (
        "$.singularities[8]", "duplicate singularity id 'p_neg'",
    )


# Each refusal of a singularity, as a change to the second point ("p2", on
# Finf) of second_noether_ruled(3), to its third, or to its counted entry
# ("u", five points off every curve), and the path and reason.
SINGULARITY_REFUSALS = {
    "order-2-at-multiplicity-1": (
        1, {"vanishing_order": 2},
        "$.singularities[1]", "p2: multiplicity 1 is below vanishing_order^2 = 4",
    ),
    "order-2-at-multiplicity-3": (
        1, {"kind": {"saddle_node": 3}, "vanishing_order": 2},
        "$.singularities[1]", "p2: multiplicity 3 is below vanishing_order^2 = 4",
    ),
    "on-curves-not-a-list": (
        1, {"on_curves": "Finf"}, "$.singularities[1].on_curves", "expected a list",
    ),
    "curve-name-not-a-string": (
        1, {"on_curves": ["Finf", 7]},
        "$.singularities[1].on_curves[1]", "expected a string, got 7",
    ),
    "epsilon-2": (1, {"epsilon": 2}, "$.singularities[1].epsilon", "epsilon must be 0 or 1"),
    "vanishing-order-0": (
        1, {"vanishing_order": 0},
        "$.singularities[1].vanishing_order", "expected an integer >= 1, got 0",
    ),
    "duplicate-id": (2, {"id": "p2"}, "$.singularities[2]", "duplicate singularity id 'p2'"),
    "count-0": (3, {"count": 0}, "$.singularities[3].count", "expected an integer >= 1, got 0"),
    "count-minus-1": (
        3, {"count": -1}, "$.singularities[3].count", "expected an integer >= 1, got -1",
    ),
    "count-true": (3, {"count": True}, "$.singularities[3].count", "expected an integer, got True"),
    "count-string": (3, {"count": "2"}, "$.singularities[3].count", "expected an integer, got '2'"),
    "count-float": (3, {"count": 1.5}, "$.singularities[3].count", "expected an integer, got 1.5"),
    "count-on-a-curve": (1, {"count": 2}, "$.singularities[1].count", COUNTED_ON_CURVES),
    # the count is checked before the curves it names
    "count-on-an-undeclared-curve": (
        3, {"on_curves": ["Ghost"]}, "$.singularities[3].count", COUNTED_ON_CURVES,
    ),
}


@pytest.mark.parametrize("case", list(SINGULARITY_REFUSALS))
def test_each_singularity_refusal_names_its_path_and_reason(case):
    index, change, path, reason = SINGULARITY_REFUSALS[case]
    doc = second_noether_ruled(3)
    doc["singularities"][index].update(change)
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert (err.value.path, err.value.reason) == (path, reason)


@pytest.mark.parametrize("case", [c for c in SINGULARITY_REFUSALS if c.startswith("count-")])
def test_the_record_constructor_refuses_each_count_the_parser_refuses(case):
    index, change, _, reason = SINGULARITY_REFUSALS[case]
    point = {**second_noether_ruled(3)["singularities"][index], **change}
    with pytest.raises(DomainError) as err:
        SingularityRecord(
            point["id"],
            NonDegenerate(EigenvalueClass.nonrational()),
            incident_curves=point.get("on_curves", ()),
            count=point["count"],
        )
    name = point["id"]
    wanted = reason if reason == COUNTED_ON_CURVES else "count must be an integer >= 1"
    assert str(err.value) == f"{name}: {wanted}"


# Changes to the curves (C0, Finf) and singularities (p_neg, p2, p3, then u1
# to u7, listed point by point) of second_noether_ruled(4), a key set to None
# deleted, and the one
# refusal: the first bad singularity in list order, its id checked before
# the curves it names, after a repeated curve name, which is refused once
# every curve's class has been checked.
REFUSAL_ORDER = {
    "kind-missing": (
        {("singularities", 3): {"id": "x", "kind": None, "on_curves": ["C0"]}},
        "$.singularities[3]", "missing required key 'kind'",
    ),
    "vanishing-order-0-on-a-bare-point": (
        {("singularities", 3): {"vanishing_order": 0}},
        "$.singularities[3].vanishing_order", "expected an integer >= 1, got 0",
    ),
    "undeclared-curve-before-a-duplicate-id": (
        {("singularities", 2): {"on_curves": ["Ghost"]}, ("singularities", 4): {"id": "p_neg"}},
        "$.singularities[2].on_curves", "singularity references undeclared curve 'Ghost'",
    ),
    "duplicate-id-before-an-undeclared-curve": (
        {("singularities", 3): {"id": "p3"}, ("singularities", 5): {"on_curves": ["Ghost"]}},
        "$.singularities[3]", "duplicate singularity id 'p3'",
    ),
    "duplicate-id-and-undeclared-curve-on-one-point": (
        {("singularities", 3): {"id": "p3", "on_curves": ["Finf", "Ghost"]}},
        "$.singularities[3]", "duplicate singularity id 'p3'",
    ),
    "duplicate-curve-name-before-a-duplicate-id": (
        {("curves", 1): {"name": "C0"}, ("singularities", 3): {"id": "p3"}},
        "$.curves[1]", "duplicate curve name 'C0'",
    ),
    "curve-class-before-a-duplicate-curve-name": (
        {("curves", 0): {"name": "Finf"}, ("curves", 1): {"class": ["1"]}},
        "$.curves[1].class", "class has 1 coefficients, surface rank is 2",
    ),
}

# the record attribute of each key whose refusal is the scenario constructor's
CONSTRUCTOR_ATTRS = {"name": "name", "id": "id", "on_curves": "incident_curves"}


@pytest.mark.parametrize("case", list(REFUSAL_ORDER))
def test_the_first_bad_singularity_is_the_one_refused(case):
    changes, path, reason = REFUSAL_ORDER[case]
    doc = expand_points(second_noether_ruled(4))
    for where, change in changes.items():
        item = doc[where[0]][where[1]]
        item.update(change)
        for key in [k for k, v in change.items() if v is None]:
            del item[key]
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert (err.value.path, err.value.reason) == (path, reason)
    if any(key not in CONSTRUCTOR_ATTRS for change in changes.values() for key in change):
        return  # a refusal of the decoder's, before any scenario is built
    # the public constructor, given the same changes, refuses at the same path
    s = parse_document_dict(expand_points(second_noether_ruled(4))).scenario
    parts = {"curves": list(s.curves), "singularities": list(s.singularities)}
    for (part, k), change in changes.items():
        attrs = {CONSTRUCTOR_ATTRS[key]: value for key, value in change.items()}
        parts[part][k] = dataclasses.replace(parts[part][k], **attrs)
    with pytest.raises(ScenarioRefused) as refused:
        dataclasses.replace(s, **parts)
    part, k, *rest = refused.value.where
    assert (f"$.{part}[{k}]" + "".join(f".{r}" for r in rest), str(refused.value)) == (
        path, reason,
    )


def test_a_vanishing_order_within_the_multiplicity_bound_parses():
    doc = second_noether_ruled(3)
    doc["singularities"][1].update(kind={"saddle_node": 4}, vanishing_order=2)
    s = parse_document_dict(doc).scenario.singularities[1]
    assert (s.multiplicity, s.vanishing_order, s.incident_curves) == (4, 2, ("Finf",))


def test_zero_eigenvalue_rejected():
    doc = second_noether_ruled(3)
    doc["singularities"][0]["kind"] = {"eigenvalue": "0"}
    with pytest.raises(ParseError):
        parse_document_dict(doc)


def test_wrong_class_length_rejected():
    doc = second_noether_ruled(3)
    doc["k_foliation"] = ["1"]
    with pytest.raises(ParseError):
        parse_document_dict(doc)


def test_document_requires_content():
    with pytest.raises(ParseError):
        parse_document_dict({"name": "empty"})


@pytest.mark.parametrize("key", ["k_foliation", "curves", "singularities", "metadata"])
def test_surface_keys_without_a_surface_are_refused(key):
    # they belonged to no scenario, so the document parsed and lost them
    doc = i0star_elliptic()
    doc[key] = slope_12_7()[key]
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == f"$.{key}"


def test_fibration_only_document_may_declare_empty_lists():
    doc = i0star_elliptic()
    doc.update(curves=[], singularities=[])
    assert parse_document_dict(doc).scenario is None


def test_non_normal_crossing_fiber_is_refused_at_that_fiber():
    doc = dense_form(semistable_genus2())
    doc["fibration"]["fibers"][1]["alpha"] = 2
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == "$.fibration.fibers[1]"
    assert "alpha" in str(err.value)


def test_the_first_bad_field_in_field_order_is_the_one_refused():
    # "alpha" is optional and declared before the required "nodes": a
    # decoder that read required keys first would report ".nodes"
    doc = third_noether_double_cover(2)
    fiber = doc["fibration"]["fibers"][0]
    fiber.update(alpha="x", nodes="x")
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert (err.value.path, err.value.reason) == (
        "$.fibration.fibers[0].alpha", "expected an integer, got 'x'"
    )


def test_a_curve_decodes_to_the_record_its_public_constructor_builds():
    # one curve with only its required keys, one with its optional hint
    doc = {
        "name": "curves",
        "surface": {"base": "P2", "blowups": 1},
        "k_foliation": {"L": "1"},
        "curves": [
            {"name": "C", "class": {"L": "1", "E1": "-1"}, "f_invariant": True},
            {"name": "D", "class": ["0", "1"], "f_invariant": False, "arithmetic_genus_hint": 0},
        ],
        "metadata": {
            "k_pseudo_effective": True, "relatively_minimal": True, "algebraically_integral": "unknown",
        },
    }
    surface = SurfaceModel.p2(1)
    assert parse_document_dict(doc).scenario.curves == (
        CurveRecord("C", surface.divisor([1, -1]), True),
        CurveRecord("D", surface.divisor([0, 1]), False, 0),
    )


def test_a_singularity_with_only_id_and_kind_takes_every_default():
    record = document.decode(document.SINGULARITY, {"id": "p", "kind": {"eigenvalue": "-1"}})
    assert record == SingularityRecord("p", NonDegenerate(EigenvalueClass.rational(-1)))
    assert (record.vanishing_order, record.incident_curves, record.epsilon, record.count) == (
        1, (), None, 1,
    )


# A singularity entry with a key missing: the first missing or bad field in
# field order ("id", "kind", then the optional ones) is the one refused.
@pytest.mark.parametrize(
    "entry, reason",
    [
        ({"kind": "x"}, "missing required key 'id'"),
        ({"id": "q", "count": 0}, "missing required key 'kind'"),
    ],
    ids=["no-id-and-a-bad-kind", "no-kind-and-a-bad-count"],
)
def test_a_missing_required_key_is_refused_before_later_fields(entry, reason):
    doc = second_noether_ruled(3)
    doc["singularities"][3] = entry
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert (err.value.path, err.value.reason) == ("$.singularities[3]", reason)


def test_negative_fiber_arithmetic_genus_is_refused_at_its_field():
    # a connected reduced fiber has p_a >= 0
    doc = dense_form(semistable_genus2())
    doc["fibration"]["fibers"][1]["pa_reduced"] = -1
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == "$.fibration.fibers[1].pa_reduced"


def test_fiber_arithmetic_genus_above_the_fibration_genus_is_refused_at_its_fiber():
    # p_a(F_red) <= g; the genus-2 fiber would have a negative Euler number
    doc = dense_form(semistable_genus2())
    doc["fibration"]["fibers"][1]["pa_reduced"] = 3
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == "$.fibration.fibers[1]"
    assert "p_a(F_red) must be an integer from 0 to the fiber genus" in str(err.value)


def test_report_is_frozen():
    report = run_pipeline(parse_document_dict(second_noether_ruled(3)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.vol = Fraction(0)


# A wrong value for each ``expect`` key of the third-Noether g = 2 document.
WRONG_EXPECTATIONS = {
    "c1_sq": "1",
    "c2": "5",
    "chi": "1/2",
    "vol": "1",
    "slope": "3",
    "p_g": 3,
    "singularity_count": 15,
    "genus_bound": 3,
    "verdict": "Transcendental",
    "noether_equality": "second",
    "negative_part": {"E1": "1/5"},
    "modular": {"kappa": "1", "delta": "4", "chi": "5/12"},
    "fired_rules": ["R4-integrable-slope-bound"],
}


@pytest.mark.parametrize("key", sorted(EXPECT.keys))
def test_each_expect_key_is_compared(key):
    doc = third_noether_double_cover(2)
    assert run_pipeline(parse_document_dict(doc)).ok
    doc["expect"] = {key: WRONG_EXPECTATIONS[key]}
    report = run_pipeline(parse_document_dict(doc))
    assert not report.ok
    assert [f.split(":")[0] for f in report.expectation_failures] == [key]


def test_report_determinism():
    doc = parse_scenario(json.dumps(slope_12_7()))
    first = run_pipeline(doc)
    second = run_pipeline(doc)
    assert first.to_json() == second.to_json()
    assert first.to_text() == second.to_text()


def test_expectation_mismatch_reported():
    doc = second_noether_ruled(4)
    doc["expect"]["vol"] = "999"
    report = run_pipeline(parse_document_dict(doc))
    assert not report.ok
    assert any("vol" in f for f in report.expectation_failures)


def test_inconsistency_is_surfaced_not_swallowed():
    doc = second_noether_ruled(4)
    # claim a wrong p_g: sections give 4
    doc["metadata"]["p_g"] = 9
    report = run_pipeline(parse_document_dict(doc))
    assert not report.ok
    assert "p_g" in report.inconsistency


def test_json_report_uses_rational_strings_only():
    report = run_pipeline(parse_scenario(json.dumps(second_noether_ruled(5))))
    payload = report.to_json()
    assert '"16/5"' in payload
    assert "0.3" not in payload


def test_parallel_invocations_are_byte_identical():
    from concurrent.futures import ThreadPoolExecutor

    doc = parse_scenario(json.dumps(slope_12_7()))
    with ThreadPoolExecutor(max_workers=8) as pool:
        payloads = list(pool.map(lambda _: run_pipeline(doc).to_json(), range(16)))
    assert len(set(payloads)) == 1


def test_a_counted_fiber_parses_to_one_model():
    fibration = parse_document_dict(semistable_genus2()).fibration
    assert [fm.count for fm in fibration.singular_fibers] == [20]
    listed = parse_document_dict(dense_form(semistable_genus2())).fibration
    assert len(listed.singular_fibers) == 20
    assert fibration.modular == listed.modular


@pytest.mark.parametrize("count", [0, -2, True, 1.5, "3"], ids=repr)
def test_a_fiber_count_that_is_not_an_integer_of_at_least_one_is_refused(count):
    doc = semistable_genus2()
    doc["fibration"]["fibers"][0]["count"] = count
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == "$.fibration.fibers[0].count"
    assert err.value.reason.startswith("expected an integer")


def _refused_tower(doc):
    doc["surface"]["blowups"] = 10**9
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert time.perf_counter() - start < 1.0
    return err.value.path, err.value.reason


TOWER_REFUSAL = (
    "$.surface.blowups", f"expected an integer <= {document.MAX_BLOWUPS}, got 1000000000"
)


def test_huge_blowup_count_is_refused_in_bounded_time():
    assert _refused_tower(dense_form(second_noether_ruled(3))) == TOWER_REFUSAL


def test_a_sparse_document_with_a_huge_blowup_count_is_refused_at_blowups():
    # a sparse class's size does not follow the rank, so the limit on
    # blowups, not a class's length, refuses the tower
    assert _refused_tower(second_noether_ruled(3)) == TOWER_REFUSAL


def test_the_blowup_limit_is_inclusive():
    top = document.MAX_BLOWUPS
    doc = {
        "name": "tower",
        "surface": {"base": "P2", "blowups": top},
        "k_foliation": {f"E{top}": "1"},
        "metadata": slope_12_7()["metadata"],
    }
    scenario = parse_document_dict(doc).scenario
    assert scenario.surface.rank == top + 1
    assert scenario.k_foliation.numerators == {top: 1}
    doc["surface"]["blowups"] += 1
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert (err.value.path, err.value.reason) == (
        "$.surface.blowups", f"expected an integer <= {top}, got {top + 1}"
    )


_LABELS_REASON = "labels are L, C0, F and E1, E2, ... in canonical spelling"

# A change to one sparse class of a bundled document (third_noether_g2 on
# Hirzebruch(3) with 12 blow-ups, or degree2_p2 on P2), and its refusal.
SPARSE_REFUSALS = {
    "unknown-label": (
        third_noether_double_cover, ("curves", 1), {"G": "1"},
        "$.curves[1].class.G", f"unknown basis label 'G': {_LABELS_REASON}",
    ),
    "leading-zero": (
        third_noether_double_cover, ("curves", 8), {"E07": "1"},
        "$.curves[8].class.E07", f"unknown basis label 'E07': {_LABELS_REASON}",
    ),
    "lower-case": (
        third_noether_double_cover, ("curves", 8), {"e7": "1"},
        "$.curves[8].class.e7", f"unknown basis label 'e7': {_LABELS_REASON}",
    ),
    "E0": (
        third_noether_double_cover, ("curves", 8), {"E0": "1"},
        "$.curves[8].class.E0", f"unknown basis label 'E0': {_LABELS_REASON}",
    ),
    "L-on-a-hirzebruch-base": (
        third_noether_double_cover, (), {"L": "1"},
        "$.k_foliation.L", "basis label 'L' names no class of a Hirzebruch surface",
    ),
    "C0-on-P2": (
        degree_two_p2, ("curves", 1), {"C0": "1"},
        "$.curves[1].class.C0", "basis label 'C0' names no class of P2",
    ),
    "F-on-P2": (
        degree_two_p2, (), {"F": "0"},
        "$.k_foliation.F", "basis label 'F' names no class of P2",
    ),
    "past-the-rank": (
        third_noether_double_cover, ("curves", 8), {"E13": "1"},
        "$.curves[8].class.E13", "basis label 'E13' is past the surface's 12 blow-ups",
    ),
    "a-zero-past-the-rank": (
        third_noether_double_cover, (), {"E99": "0"},
        "$.k_foliation.E99", "basis label 'E99' is past the surface's 12 blow-ups",
    ),
    "malformed-rational": (
        third_noether_double_cover, ("curves", 8), {"E7": "x"},
        "$.curves[8].class.E7", "malformed rational 'x'",
    ),
    "neither-form": (
        third_noether_double_cover, ("curves", 8), None,
        "$.curves[8].class", "expected an object of basis labels or a list",
    ),
}


@pytest.mark.parametrize("case", list(SPARSE_REFUSALS))
def test_a_bad_sparse_class_is_refused_at_its_label(case):
    build, where, change, path, reason = SPARSE_REFUSALS[case]
    doc = build(2) if build is third_noether_double_cover else build()
    if where:
        curve = doc[where[0]][where[1]]
        curve["class"] = "1" if change is None else {**curve["class"], **change}
    else:
        doc["k_foliation"] = {**doc["k_foliation"], **change}
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert (err.value.path, err.value.reason) == (path, reason)


def test_a_sparse_class_reads_as_its_dense_list():
    # label order, zero entries and JSON integers do not change the class
    doc = third_noether_double_cover(2)
    doc["k_foliation"] = {"E12": "-1", "F": 2, "E2": "-1", "E5": "0", "C0": "1"}
    doc["curves"][4]["class"] = {"E12": "-1", "E11": "1"}
    sparse = parse_document_dict(doc).scenario
    dense = parse_document_dict(dense_form(third_noether_double_cover(2))).scenario
    assert sparse == dense
    assert sparse.k_foliation.numerators == {0: 1, 1: 2, 3: -1, 13: -1}
    empty = degree_two_p2()
    empty["k_foliation"] = {}
    assert parse_document_dict(empty).scenario.k_foliation.is_zero


def test_each_label_is_read_once_per_document(monkeypatch):
    calls = count_calls(monkeypatch, ["_label_slot"])
    doc = third_noether_double_cover(16)
    classes = [doc["k_foliation"]] + [c["class"] for c in doc["curves"]]
    labels = set().union(*classes)
    assert len(labels) == 4 * 16 + 6
    parse_document_dict(doc)
    assert calls == {"_label_slot": len(labels)}
    parse_document_dict(doc)  # the memo belongs to one parse
    assert calls == {"_label_slot": 2 * len(labels)}


_family_members = st.one_of(
    st.sampled_from(sorted(bundled_documents().items())).map(lambda item: item[1]),
    st.integers(1, 200).map(first_noether_ruled),
    st.integers(2, 200).map(second_noether_ruled),
    st.integers(2, 40).map(third_noether_double_cover),
)


@settings(max_examples=60, deadline=None)
@given(_family_members)
def test_a_dense_document_serializes_to_the_sparse_form_and_reparses_equal(built):
    parsed = parse_document_dict(dense_form(built))
    text = serialize_document(parsed)
    written = json.loads(text)
    if parsed.scenario is not None:
        classes = [written["k_foliation"]] + [c["class"] for c in written["curves"]]
        assert all(type(cls) is dict and "0" not in cls.values() for cls in classes)
    assert parse_scenario(text) == parsed
    # the fibers stay listed as parsed; each declares the scenario and the
    # modular invariants of the document as built
    again = parse_document_dict(built)
    assert parsed.scenario == again.scenario
    assert run_pipeline(parsed).to_json() == run_pipeline(again).to_json()


def test_the_readme_example_document_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("```json\n", 1)[1].split("```", 1)[0]
    doc = parse_scenario(text)
    assert doc.scenario.k_foliation.numerators == {0: 1, 1: 2}
    assert [fm.count for fm in doc.fibration.singular_fibers] == [20]


def json_form(text: str) -> str:
    """What ``json.dumps`` writes of the JSON ``text``, as a report prints it."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


WRITER_DOCUMENTS = {
    **{name: raw for name, raw in load_bundled_files()},
    **{
        f"{build.__name__}({n})": build(n)
        for build, sizes in (
            (first_noether_ruled, (1, 4, 30)),
            (second_noether_ruled, (2, 5, 40)),
            (third_noether_double_cover, (2, 6, 16)),
        )
        for n in sizes
    },
}


@pytest.mark.parametrize("name", sorted(WRITER_DOCUMENTS))
def test_report_json_is_what_json_dumps_writes(name):
    text = run_pipeline(parse_scenario(WRITER_DOCUMENTS[name])).to_json()
    assert text == json_form(text)


# names and details with quotes, backslashes, control characters and text
# outside ASCII, each of which the writer escapes as json.dumps does
report_texts = st.text(max_size=8) | st.sampled_from(
    ["", '"quoted"', "back\\slash", "\x00\x1f\n\t\x7f", "caf\u00e9 \u2603 \U0001f600", "\u2028"]
)
report_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=24) | st.integers(-9, 9)
non_negative = st.fractions(min_value=0, max_value=40, max_denominator=24)
# curve names as the double-cover family lists them, whose sorted order is
# not the order a report holds them in: E10 sorts before E2, Gamma0 after E43
curve_names = st.sampled_from(["E1", "E2", "E10", "Gamma0", "E43"])
check_rows = st.lists(
    st.builds(CheckResult, report_texts, st.sampled_from([None, True, False]), report_texts),
    max_size=4,
).map(tuple)
_P2_2 = SurfaceModel.p2(2)


def _tuples(strategy, max_size=3):
    return st.lists(strategy, max_size=max_size).map(tuple)


@st.composite
def reports(draw):
    """A hand-built report: each optional section present or absent, rows of
    every status, and free text wherever the report prints text."""

    def maybe(strategy):
        return draw(st.none() | strategy)

    three = st.tuples(report_rationals, report_rationals, report_rationals)
    return InvariantReport(
        name=draw(report_texts),
        validation=maybe(st.builds(ValidationReport, check_rows, st.just(()))),
        inconsistency=maybe(report_texts),
        decomposition=maybe(st.builds(
            lambda nef, negative: ZariskiDecomposition(_P2_2.divisor(list(nef)), negative, 0),
            three,
            st.lists(
                st.tuples(report_texts | curve_names, report_rationals),
                max_size=5,
                unique_by=lambda pair: pair[0],
            ).map(tuple),
        )),
        chains=draw(_tuples(st.builds(FChain, _tuples(report_texts), _tuples(st.integers(2, 9))))),
        chern=maybe(st.builds(lambda a, b: ChernNumbers(a, b, (a + b) / 12), non_negative, non_negative)),
        vol=maybe(report_rationals),
        slope_value=maybe(report_rationals),
        singularity_count=maybe(st.integers(0, 99)),
        p_g=maybe(st.integers(0, 9)),
        bounds=maybe(three),
        bound_equalities=draw(_tuples(st.sampled_from(["first", "second", "third"]))),
        verdict=maybe(st.builds(
            Verdict,
            report_texts,
            _tuples(st.builds(FiredRule, report_texts, report_texts, report_texts), 2),
            st.none() | st.integers(0, 9),
            _tuples(report_texts, 2),
        )),
        modular=maybe(three),
        fibration_checks=draw(check_rows),
        expectation_failures=draw(_tuples(report_texts, 2)),
        warnings=draw(_tuples(report_texts, 2)),
    )


@settings(max_examples=120, deadline=None)
@given(reports())
def test_hand_built_report_json_is_what_json_dumps_writes(report):
    text = report.to_json()
    assert text == json_form(text)
    payload = json.loads(text)
    optional = {
        "validation": report.validation, "inconsistency": report.inconsistency,
        "zariski": report.decomposition, "chains": report.chains or None,
        "invariants": report.chern, "singularity_count": report.singularity_count,
        "p_g": report.p_g, "noether_bounds": report.bounds, "verdict": report.verdict,
        "modular": report.modular, "fibration_checks": report.fibration_checks or None,
    }
    assert {key for key, value in optional.items() if value is not None} == (
        payload.keys() - {"name", "expectation_failures", "warnings", "ok"}
    )
    rows = [*(report.validation.checks if report.validation else ()), *report.fibration_checks]
    printed = [*payload.get("validation", {}).get("checks", []), *payload.get("fibration_checks", [])]
    assert printed == [{"detail": c.detail, "name": c.name, "status": c.status} for c in rows]


def reference_sections(report):
    """The sections of ``report`` in text order, as its JSON key, its JSON
    value and its text lines: a copy of the report's section walk before each
    section had a writer of its own, the reference for both forms."""

    def rationals(keys, values):
        return {k: None if v is None else fmt_rational(v) for k, v in zip(keys, values)}

    def rows(checks):
        return [{"detail": c.detail, "name": c.name, "status": c.status} for c in checks]

    yield "name", report.name, [f"scenario: {report.name}"]
    v = report.validation
    if v is not None:
        yield "validation", {"checks": rows(v.checks), "passed": v.passed}, (
            [f"validation: {'PASS' if v.passed else 'FAIL'}"]
            + [f"  {sio.check_line(c)}" for c in v.checks]
        )
    why = report.inconsistency
    if why is not None:
        yield "inconsistency", why, [f"inconsistent: {why}"]
    dec = report.decomposition
    if dec is not None:
        value = {
            "nef_part": [fmt_rational(c) for c in dec.nef_part.coefficients],
            "negative_part": {name: fmt_rational(c) for name, c in dec.negative_part},
        }
        yield "zariski", value, [f"P = {dec.nef_part}"] + (
            [f"N[{n}] = {fmt_rational(c)}" for n, c in dec.negative_part] or ["N = 0"]
        )
    chains = report.chains
    if chains:
        value = [{"curves": list(c.curves), "e": list(c.self_intersections)} for c in chains]
        yield "chains", value, [
            f"chain: [{', '.join(c.curves)}]  e = {list(c.self_intersections)}" for c in chains
        ]
    if report.chern is not None:
        c = report.chern
        values = (c.c1_sq, c.c2, c.chi, report.vol, report.slope_value)
        yield "invariants", rationals(("c1_sq", "c2", "chi", "vol", "slope"), values), [
            "invariants: " + sio.listing(("c1^2", "c2", "chi", "vol", "slope"), values)
        ]
    n = report.singularity_count
    if n is not None:
        yield "singularity_count", n, [f"singularities (with multiplicity): {n}"]
    if report.p_g is not None:
        yield "p_g", report.p_g, [f"p_g = {report.p_g}"]
    bounds, equalities = report.bounds, report.bound_equalities
    names = ("first", "second", "third")
    if bounds is not None:
        value = {**rationals(names, bounds), "equalities": list(equalities)}
        eq = f"  equality: {', '.join(equalities)}" if equalities else ""
        yield "noether_bounds", value, [f"noether bounds: {sio.listing(names, bounds)}{eq}"]
    verdict = report.verdict
    if verdict is not None:
        value = {
            "status": verdict.status,
            "fired_rules": [
                {"id": r.rule_id, "citation": r.citation, "comparison": r.comparison}
                for r in verdict.fired_rules
            ],
            "genus_bound": verdict.genus_bound,
            "informational": list(verdict.sanity_failures),
        }
        bound = verdict.genus_bound
        yield "verdict", value, [
            f"verdict: {verdict.status}",
            *(f"  {r.rule_id}: {r.comparison}  [{r.citation}]" for r in verdict.fired_rules),
            *([] if bound is None else [f"  genus bound: {bound}"]),
            *(f"  note: {note}" for note in verdict.sanity_failures),
        ]
    modular = report.modular
    if modular is not None:
        keys = ("kappa", "delta", "chi")
        yield "modular", rationals(keys, modular), [
            f"modular invariants: {sio.listing(keys, modular)}"
        ]
    checks = report.fibration_checks
    if checks:
        yield "fibration_checks", rows(checks), list(map(sio.check_line, checks))
    failures = report.expectation_failures
    yield "expectation_failures", list(failures), [f"expectation mismatch: {f}" for f in failures]
    yield "warnings", list(report.warnings), [f"warning: {w}" for w in report.warnings]
    yield "ok", report.ok, [f"result: {'ok' if report.ok else 'FAILED'}"]


# every section, in text order
SECTION_KEYS = [
    "name", "validation", "inconsistency", "zariski", "chains", "invariants", "singularity_count",
    "p_g", "noether_bounds", "verdict", "modular", "fibration_checks", "expectation_failures",
    "warnings", "ok",
]


@settings(max_examples=120, deadline=None)
@given(reports(), st.none() | st.sets(st.sampled_from(SECTION_KEYS)))
@example(
    InvariantReport(
        name="negative part in double-cover order",
        decomposition=ZariskiDecomposition(
            _P2_2.divisor([1, 0, Fraction(-1, 2)]),
            tuple((n, Fraction(1, i)) for i, n in enumerate(["E1", "E2", "E10", "Gamma0", "E43"], 2)),
            0,
        ),
    ),
    None,
)
def test_hand_built_report_has_the_values_of_the_reference_walk(report, sections):
    reference = list(reference_sections(report))
    assert json.loads(report.to_json()) == {key: value for key, value, _ in reference}
    assert report.to_text() == "".join(f"{line}\n" for _, _, lines in reference for line in lines)
    assert report.to_text(sections) == "".join(
        f"{line}\n"
        for key, _, lines in reference
        if sections is None or key in sections
        for line in lines
    )


def test_check_status_words():
    checks = (
        CheckResult("a", None, "not run"),
        CheckResult("b", True),
        CheckResult("c", False, "off by one"),
    )
    assert [c.status for c in checks] == ["skip", "pass", "fail"]
    report = InvariantReport(
        name="statuses",
        validation=ValidationReport(checks=checks, warnings=()),
        fibration_checks=checks,
    )
    payload = json.loads(report.to_json())
    for block in (payload["validation"]["checks"], payload["fibration_checks"]):
        assert [c["status"] for c in block] == ["skip", "pass", "fail"]
    text = report.to_text()
    assert "  [skip] a  (not run)\n  [pass] b\n  [FAIL] c  (off by one)\n" in text
    assert "\n[skip] a  (not run)\n[pass] b\n[FAIL] c  (off by one)\n" in text


# --------------------------------------------------------------------------
# Property tests over generated documents that use every field of the format.

small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def rational_json(draw, values=small_rationals):
    """A rational in either spelling the format accepts: "p/q" or an integer."""
    q = draw(values)
    if q.denominator == 1 and draw(st.booleans()):
        return q.numerator
    return fmt_rational(q)


def _maybe(draw, obj, key, strategy):
    if draw(st.booleans()):
        obj[key] = draw(strategy)


names = st.text(alphabet="CEFpq0123_", min_size=1, max_size=4)
labels = st.text(max_size=6)


@st.composite
def singularities(draw, curve_names):
    if draw(st.booleans()):
        multiplicity = draw(st.integers(2, 9))
        kind = {"saddle_node": multiplicity}
        _maybe(draw, kind, "bb", rational_json())
    else:
        multiplicity = 1
        kind = {
            "eigenvalue": draw(
                st.just("nonrational") | rational_json(small_rationals.filter(bool))
            )
        }
    sing = {"kind": kind}
    _maybe(draw, sing, "vanishing_order", st.integers(1, isqrt(multiplicity)))
    if curve_names:
        _maybe(draw, sing, "on_curves", st.lists(st.sampled_from(curve_names), max_size=2))
    _maybe(draw, sing, "epsilon", st.sampled_from([0, 1]))
    if not sing.get("on_curves"):  # a count above 1 needs a point off every curve
        _maybe(draw, sing, "count", st.integers(1, 5))
    return sing


@st.composite
def surface_blocks(draw):
    base = draw(st.just("P2") | st.builds(lambda e: {"hirzebruch": e}, st.integers(0, 6)))
    surface = {"base": base}
    _maybe(draw, surface, "blowups", st.integers(0, 4))
    blowups = surface.get("blowups", 0)
    rank = (1 if base == "P2" else 2) + blowups
    basis = (["L"] if base == "P2" else ["C0", "F"]) + [f"E{i}" for i in range(1, blowups + 1)]
    # a class in either form: a dense list, or an object keyed by basis label
    classes = st.lists(rational_json(), min_size=rank, max_size=rank) | st.dictionaries(
        st.sampled_from(basis), rational_json(), max_size=rank
    )
    curve_names = draw(st.lists(names, unique=True, max_size=4))
    curves = []
    for name in curve_names:
        curve = {"name": name, "class": draw(classes), "f_invariant": draw(st.booleans())}
        _maybe(draw, curve, "arithmetic_genus_hint", st.integers(0, 5))
        curves.append(curve)
    sings = []
    for sid in draw(st.lists(names, unique=True, max_size=5)):
        sings.append({"id": sid, **draw(singularities(curve_names))})
    metadata = {
        "k_pseudo_effective": draw(st.booleans()),
        "relatively_minimal": draw(st.booleans()),
        "algebraically_integral": draw(st.sampled_from(["yes", "no", "unknown"])),
    }
    _maybe(draw, metadata, "kodaira", st.sampled_from(["-inf", "0", "1", "2", "unknown"]))
    _maybe(draw, metadata, "p_g", st.integers(0, 9))
    return {
        "surface": surface,
        "k_foliation": draw(classes),
        "curves": curves,
        "singularities": sings,
        "metadata": metadata,
    }


@st.composite
def fibration_blocks(draw):
    genus = draw(st.integers(1, 4))
    fibers = []
    e_f = 0
    for _ in range(draw(st.integers(0, 3))):
        node = st.fixed_dictionaries(
            {"a": st.integers(1, 4), "b": st.integers(1, 4), "in_negative_part": st.booleans()}
        )
        fiber = {
            "pa_reduced": draw(st.integers(0, genus)),
            "f_red_sq": draw(st.integers(-4, 0)),
            "nodes": draw(st.lists(node, max_size=3)),
        }
        _maybe(draw, fiber, "alpha", st.just(0))
        _maybe(draw, fiber, "count", st.integers(1, 3))
        e_f += fiber.get("count", 1) * (2 * (genus - fiber["pa_reduced"]) + len(fiber["nodes"]))
        fibers.append(fiber)
    chi_f = draw(small_rationals)
    return {
        "genus": genus,
        "k_f_sq": draw(rational_json(st.just(12 * chi_f - e_f))),
        "e_f": draw(rational_json(st.just(Fraction(e_f)))),
        "chi_f": draw(rational_json(st.just(chi_f))),
        "fibers": fibers,
    }


@st.composite
def expect_blocks(draw):
    expect = {}
    for key in ("c1_sq", "c2", "chi", "vol", "slope"):
        _maybe(draw, expect, key, rational_json())
    for key in ("p_g", "singularity_count", "genus_bound"):
        _maybe(draw, expect, key, st.integers(-3, 30))
    for key in ("verdict", "noether_equality"):
        _maybe(draw, expect, key, labels)
    _maybe(draw, expect, "negative_part", st.dictionaries(names, rational_json(), max_size=3))
    _maybe(
        draw,
        expect,
        "modular",
        st.fixed_dictionaries(
            {"kappa": rational_json(), "delta": rational_json(), "chi": rational_json()}
        ),
    )
    _maybe(draw, expect, "fired_rules", st.lists(labels, max_size=3))
    return expect


@st.composite
def documents(draw):
    doc = {"name": draw(labels)}
    has_surface = draw(st.booleans())
    if has_surface:
        doc.update(draw(surface_blocks()))
    if not has_surface or draw(st.booleans()):
        doc["fibration"] = draw(fibration_blocks())
    _maybe(draw, doc, "expect", expect_blocks())
    return doc


@settings(max_examples=80, deadline=None)
@given(documents())
def test_parse_serialize_round_trip_property(doc):
    parsed = parse_document_dict(doc)
    text = serialize_document(parsed)
    assert parse_scenario(text) == parsed
    assert serialize_document(parse_scenario(text)) == text


def _objects(value, path="$"):
    """(path, object) for every JSON object with a fixed key set."""
    if isinstance(value, dict):
        if not path.endswith(".negative_part"):
            yield path, value
        for key, item in value.items():
            yield from _objects(item, f"{path}.{key}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _objects(item, f"{path}[{k}]")


@settings(max_examples=80, deadline=None)
@given(documents(), st.data())
def test_unknown_key_in_any_object_names_that_object(doc, data):
    doc = copy.deepcopy(doc)
    path, obj = data.draw(st.sampled_from(list(_objects(doc))))
    obj["zz_unknown"] = 1
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == f"{path}.zz_unknown"
    assert "zz_unknown" in err.value.reason


def test_pipeline_pairs_kf_nf_and_p_squared_once_and_corrects_each_fiber_once(monkeypatch):
    names = ["pairing_table", "intersect", "canonical_class", "_fiber_terms"]
    calls = count_calls(monkeypatch, names)
    doc = parse_document_dict(third_noether_double_cover(16))
    report = run_pipeline(doc)
    assert report.ok and report.vol == report.chern.c1_sq
    # validation, the Zariski solve and chern read one pairing table: K_F.N_F
    # and K_F^2 come from it, P^2 from the solve; the pipeline reads vol from
    # the checked c1^2; modular invariants are computed once, reading each
    # fiber's terms once
    assert calls == {
        "pairing_table": 1,
        "intersect": 0,
        "canonical_class": 0,
        "_fiber_terms": len(doc.fibration.singular_fibers),
    }


def _tracing_targets():
    """``MODULE_TARGETS`` and ``CLASS_TARGETS`` of the benchmark's tracer."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.MODULE_TARGETS, tracing.CLASS_TARGETS


def test_every_name_the_tracer_wraps_on_scenario_io_is_called_there(monkeypatch):
    # the tracer times a layer by rebinding its name on scenario_io; a stage
    # that reached it another way would read 0 for that layer's metric
    assert sio.intersect is folsurf.surface.intersect
    assert sio.parse_scenario is document.parse_scenario
    module_targets, class_targets = _tracing_targets()
    targets = [(sio, attr) for module, attr, _ in module_targets if module == "scenario_io"]
    targets += [
        (getattr(sio, cls), attr)
        for module, cls, attr, _ in class_targets
        if module == "scenario_io"
    ]
    assert targets
    calls = {}
    for owner, attr in targets:
        calls[attr] = 0

        def counting(*args, _attr=attr, _original=getattr(owner, attr), **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    files = load_bundled_files()
    assert len(files) == 15
    for _, raw in files:
        sio.run_pipeline(sio.parse_scenario(raw)).to_json()
    assert [attr for attr, n in calls.items() if not n] == ["intersect"]


def test_fibration_block_runs_after_a_surface_stage_raises():
    doc = third_noether_double_cover(2)
    doc["metadata"]["p_g"] = 5
    report = run_pipeline(parse_document_dict(doc))
    assert report.inconsistency == "vol = 4/5 violates the bound vol >= p_g - 2 = 3"
    assert report.modular == (Fraction(4, 5), Fraction(4), Fraction(2, 5))
    assert [c.name for c in report.fibration_checks] == [
        "fibration.slope-inequality",
        "fibration.crosscheck",
    ]
    assert all(c.passed for c in report.fibration_checks)


def test_fibration_block_skips_the_chern_crosscheck_without_chern_numbers():
    doc = expand_points(third_noether_double_cover(2))
    # a non-reduced point on no curve: validation passes, chern_numbers refuses
    next(s for s in doc["singularities"] if s["id"] == "m1")["kind"] = {"eigenvalue": "2/3"}
    report = run_pipeline(parse_document_dict(doc))
    assert report.chern is None
    assert report.inconsistency == "Chern numbers need a reduced foliation; not reduced: ['m1']"
    assert report.modular == (Fraction(4, 5), Fraction(4), Fraction(2, 5))
    assert [c.name for c in report.fibration_checks] == ["fibration.slope-inequality"]


def test_huge_hirzebruch_section_count_finishes_in_bounded_time():
    # K_F = a(C0 + F) on F_0 with one saddle node carrying the whole count
    # c2(S) + N.K = 2a^2 + 4a + 4; h0 once looped a + 1 times here
    a = 10**12
    text = json.dumps(
        {
            "name": "huge-sections",
            "surface": {"base": {"hirzebruch": 0}},
            "k_foliation": [str(a), str(a)],
            "singularities": [{"id": "p", "kind": {"saddle_node": 2 * a * a + 4 * a + 4}}],
            "metadata": {
                "k_pseudo_effective": True,
                "relatively_minimal": True,
                "algebraically_integral": "unknown",
            },
        }
    )
    start = time.perf_counter()
    report = run_pipeline(parse_scenario(text))
    assert time.perf_counter() - start < 1.0
    assert report.inconsistency is None
    assert report.p_g == (a + 1) ** 2


@pytest.mark.parametrize(
    "data",
    [
        '{"name": "x", "fibration": {"genus": ' + "1" * 5000 + "}}",
        b'{"name": "\xff"}',
        b"\xfe\xff\x00{",
        '{"name": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=["long-integer", "latin-1-byte", "utf-16-bom", "deep-nesting"],
)
def test_hostile_text_raises_parse_error_at_the_root(data):
    with pytest.raises(ParseError) as err:
        parse_scenario(data)
    assert err.value.path == "$"


# --------------------------------------------------------------------------
# The one JSON writer behind every rendered report, document and fixture.

json_strings = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té \U0001d11e') | st.characters())
json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**30), 10**30)
    | st.sampled_from([10**29, -(10**30) + 1])
    | json_strings,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(json_trees)
def test_write_json_matches_json_dumps(tree):
    assert write_json(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value", [1.5, Fraction(1, 2), {1: "a"}, {"a": [0.0]}, ("a",)], ids=repr
)
def test_write_json_refuses_what_is_not_a_json_tree(value):
    with pytest.raises(TypeError):
        write_json(value)
