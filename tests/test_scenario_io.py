import copy
import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import folsurf
import mutations
from conftest import count_calls
from folsurf.errors import DomainError, ParseError
from folsurf.fibration import FiberNode
from folsurf.fixtures import (
    bundled_documents,
    i0star_elliptic,
    second_noether_ruled,
    semistable_genus2,
    slope_12_7,
    third_noether_double_cover,
)
from folsurf.foliation import CheckResult, FoliatedScenario, ValidationReport
from folsurf.local_invariants import EigenvalueClass, NonDegenerate
from folsurf.scenario_io import (
    EXPECT,
    EXPECTED_VALUES,
    InvariantReport,
    document_to_dict,
    fmt_rational,
    parse_document_dict,
    parse_rational,
    parse_scenario,
    run_pipeline,
    serialize_document,
    write_json,
)


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
    import folsurf.scenario_io as sio

    doc = third_noether_double_cover(40)
    seen = []
    original = sio._rational

    def counting(text, memo):
        seen.append(text)
        return original(text, memo)

    monkeypatch.setattr(sio, "_rational", counting)
    scenario = parse_document_dict(doc).scenario
    dense = [doc["k_foliation"]] + [c["class"] for c in doc["curves"]]
    entries = [x for cls in dense for x in cls]
    nonzero = [x for x in entries if x != "0"]
    assert (len(entries), len(nonzero)) == (27556, 334)
    # the class and eigenvalue codecs look ``_rational`` up when called: one
    # call per nonzero class entry and one per distinct kind, none for a "0"
    kinds = {tuple(s["kind"].items()) for s in doc["singularities"]}
    assert len(seen) == len(nonzero) + len(kinds)
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
    for kind in (FiberNode, EigenvalueClass):
        post_init = kind.__post_init__

        def counting_post_init(self, _name=kind.__name__, _post_init=post_init):
            counts[_name] += 1
            _post_init(self)

        monkeypatch.setattr(kind, "__post_init__", counting_post_init)
    parse_document_dict(doc)
    monkeypatch.undo()
    fibration, expect = doc["fibration"], doc["expect"]
    eigenvalues = [s["kind"]["eigenvalue"] for s in doc["singularities"]]
    texts = set(doc["k_foliation"]).union(*(c["class"] for c in doc["curves"]), eigenvalues)
    texts |= {fibration[k] for k in ("k_f_sq", "e_f", "chi_f")}
    texts |= {expect[k] for k in ("c1_sq", "c2", "chi", "vol", "slope")}
    texts |= set(expect["negative_part"].values()) | set(expect["modular"].values())
    texts.discard("0")  # a "0" class entry builds no Fraction
    flipped = {t for t in eigenvalues if abs(Fraction(t)) < 1}
    assert (len(texts), len(flipped)) == (78, 33)
    # one Fraction per distinct text, one more per eigenvalue brought to its
    # canonical form n/d, |n| >= d, and two for FibrationModel's own check
    # K_f^2 + e_f = 12 chi_f
    fractions = len(texts) + len(flipped) + 2
    assert counts == {"Fraction": fractions, "FiberNode": 0, "EigenvalueClass": 0}


def test_equal_kinds_of_one_document_share_one_object(monkeypatch):
    built = []
    original = NonDegenerate.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(NonDegenerate, "__init__", counting)
    doc = second_noether_ruled(200)
    scenario = parse_document_dict(doc).scenario
    # one "-200" and 401 "nonrational" kinds
    assert len(scenario.singularities) == 402
    assert len(built) == 2
    assert len({id(s.kind) for s in scenario.singularities}) == 2
    # the memo belongs to one call: a second parse builds its own kinds
    again = parse_document_dict(doc).scenario
    assert len(built) == 4
    assert again.singularities[1].kind is not scenario.singularities[1].kind


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
    # the memo of decoded kinds must not take a value that decoding refuses:
    # 1 == True == 1.0 and -2 == -2.0 with equal hashes
    doc = second_noether_ruled(3)
    doc["singularities"][3]["kind"] = accepted
    parse_document_dict(doc)
    doc["singularities"][4]["kind"] = look_alike
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == f"$.singularities[4].kind.{where}"
    assert err.value.reason == f"expected a rational string, {reason}"


LAZY_DECODERS = """
import folsurf
from folsurf import scenario_io as sio

records = [v for v in vars(sio).values() if isinstance(v, sio.Record)]
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
    with pytest.raises(ParseError):
        parse_document_dict(doc)
    doc2 = second_noether_ruled(3)
    doc2["singularities"].append(copy.deepcopy(doc2["singularities"][0]))
    with pytest.raises(ParseError):
        parse_document_dict(doc2)


# Each refusal of a singularity, as a change to the second point ("p2", on
# Finf) of second_noether_ruled(3) or to its third, and the path and reason.
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
}


@pytest.mark.parametrize("case", list(SINGULARITY_REFUSALS))
def test_each_singularity_refusal_names_its_path_and_reason(case):
    index, change, path, reason = SINGULARITY_REFUSALS[case]
    doc = second_noether_ruled(3)
    doc["singularities"][index].update(change)
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert (err.value.path, err.value.reason) == (path, reason)


# Changes to the singularities of second_noether_ruled(4) (p_neg, p2, p3, then
# u1 to u7; a key set to None is deleted), and the one refusal: the first bad
# singularity in list order, its id checked before the curves it names.
REFUSAL_ORDER = {
    "kind-missing": (
        {3: {"id": "x", "kind": None, "on_curves": ["C0"]}},
        "$.singularities[3]", "missing required key 'kind'",
    ),
    "vanishing-order-0-on-a-bare-point": (
        {3: {"vanishing_order": 0}},
        "$.singularities[3].vanishing_order", "expected an integer >= 1, got 0",
    ),
    "undeclared-curve-before-a-duplicate-id": (
        {2: {"on_curves": ["Ghost"]}, 4: {"id": "p_neg"}},
        "$.singularities[2].on_curves", "singularity references undeclared curve 'Ghost'",
    ),
    "duplicate-id-before-an-undeclared-curve": (
        {3: {"id": "p3"}, 5: {"on_curves": ["Ghost"]}},
        "$.singularities[3]", "duplicate singularity id 'p3'",
    ),
    "duplicate-id-and-undeclared-curve-on-one-point": (
        {3: {"id": "p3", "on_curves": ["Finf", "Ghost"]}},
        "$.singularities[3]", "duplicate singularity id 'p3'",
    ),
}


@pytest.mark.parametrize("case", list(REFUSAL_ORDER))
def test_the_first_bad_singularity_is_the_one_refused(case):
    changes, path, reason = REFUSAL_ORDER[case]
    doc = second_noether_ruled(4)
    for index, change in changes.items():
        point = doc["singularities"][index]
        point.update(change)
        for key in [k for k, v in change.items() if v is None]:
            del point[key]
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert (err.value.path, err.value.reason) == (path, reason)


def _index_views(s):
    return (
        s.by_kind,
        [s.singularities_on(c.name) for c in s.curves],
        s.singularity_count,
        s.is_reduced,
        s.non_reduced,
    )


def test_the_parse_built_index_equals_the_one_a_public_scenario_builds():
    # bundled documents, the harness's family members and every mutated
    # document that parses: the index handed over by the parse walk reads
    # as the one a scenario built through the public constructor makes
    scenarios = [parse_document_dict(doc).scenario for doc in mutations.sources()]
    scenarios = [s for s in scenarios if s is not None]
    assert len(scenarios) == 22  # two bundled documents hold only a fibration
    scenarios += [s for _, s in mutations.parsed_scenarios()]
    for s in scenarios:
        assert "singularity_index" in vars(s)
        rebuilt = FoliatedScenario(**{f.name: getattr(s, f.name) for f in dataclasses.fields(s)})
        assert "singularity_index" not in vars(rebuilt)
        assert _index_views(rebuilt) == _index_views(s), s.name
        assert rebuilt.singularity_index == s.singularity_index, s.name


def test_a_public_scenario_reads_is_reduced_from_its_points_without_an_index():
    # the harness's 24 source documents, as parsed and with their first and
    # last points given one non-reduced kind: a publicly built scenario
    # answers is_reduced from its points' kinds and builds no index, and its
    # answers agree with the ones its index gives
    non_reduced_kind = NonDegenerate(EigenvalueClass.rational(Fraction(3, 2)))
    sides = {True: 0, False: 0}
    for doc in mutations.sources():
        parsed = parse_document_dict(doc).scenario
        if parsed is None:
            continue
        fields = {f.name: getattr(parsed, f.name) for f in dataclasses.fields(parsed)}
        points = parsed.singularities
        ends = {0, len(points) - 1}
        changed = tuple(
            dataclasses.replace(p, kind=non_reduced_kind, vanishing_order=1) if k in ends else p
            for k, p in enumerate(points)
        )
        for singularities in (points, changed):
            public = FoliatedScenario(**{**fields, "singularities": singularities})
            reduced, non_reduced = public.is_reduced, public.non_reduced
            if reduced:
                assert "singularity_index" not in vars(public)
            groups = public.singularity_index.by_kind
            assert reduced == all(group[0].is_reduced for group in groups)
            bad = {id(p) for group in groups if not group[0].is_reduced for p in group}
            assert non_reduced == tuple(p for p in singularities if id(p) in bad)
            assert len(non_reduced) == (0 if singularities is points else len(ends))
            sides[reduced] += 1
        # a parsed scenario reads the index its parse handed it
        assert parsed.is_reduced and parsed.non_reduced == ()
    assert sides == {True: 22, False: 22}


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
    doc = semistable_genus2()
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


def test_negative_fiber_arithmetic_genus_is_refused_at_its_field():
    # a connected reduced fiber has p_a >= 0
    doc = semistable_genus2()
    doc["fibration"]["fibers"][1]["pa_reduced"] = -1
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == "$.fibration.fibers[1].pa_reduced"


def test_fiber_arithmetic_genus_above_the_fibration_genus_is_refused_at_its_fiber():
    # p_a(F_red) <= g; the genus-2 fiber would have a negative Euler number
    doc = semistable_genus2()
    doc["fibration"]["fibers"][1]["pa_reduced"] = 3
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == "$.fibration.fibers[1]"
    assert "p_a(F_red) must be an integer from 0 to the fiber genus" in str(err.value)


def test_report_is_frozen():
    report = run_pipeline(parse_document_dict(second_noether_ruled(3)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.vol = Fraction(0)


def test_every_expect_key_has_a_report_value():
    assert set(EXPECTED_VALUES) == {f.key for f in EXPECT.fields}


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


def test_huge_blowup_count_is_refused_in_bounded_time():
    doc = second_noether_ruled(3)
    doc["surface"]["blowups"] = 10**9
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert time.perf_counter() - start < 1.0
    assert err.value.path == "$.k_foliation"
    assert "1000000002" in str(err.value)


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
    payload = report.to_json_dict()
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
    return sing


@st.composite
def surface_blocks(draw):
    base = draw(st.just("P2") | st.builds(lambda e: {"hirzebruch": e}, st.integers(0, 6)))
    surface = {"base": base}
    _maybe(draw, surface, "blowups", st.integers(0, 4))
    rank = (1 if base == "P2" else 2) + surface.get("blowups", 0)
    classes = st.lists(rational_json(), min_size=rank, max_size=rank)
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
        e_f += 2 * (genus - fiber["pa_reduced"]) + len(fiber["nodes"])
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
    doc = third_noether_double_cover(2)
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
