import dataclasses
import itertools
import math
import pathlib
import random
from fractions import Fraction
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

import folsurf.chern as chern
from conftest import expand_points
from folsurf.chern import (
    ALGEBRAICALLY_INTEGRAL,
    TRANSCENDENTAL,
    UNDETERMINED,
    ChernNumbers,
    FiredRule,
    Verdict,
    chern_numbers,
    decide,
    genus_bound,
    noether_bounds,
    slope,
)
from folsurf.document import parse_document_dict
from folsurf.errors import DomainError, InconsistentScenario
from folsurf.fixtures import (
    bundled_documents,
    elliptic_pencil,
    second_noether_ruled,
    third_noether_double_cover,
    isotrivial_vector_field,
    semistable_genus2,
    slope_12_7,
)
from folsurf.foliation import CurveRecord, FoliatedScenario, ScenarioMetadata, validate
from folsurf.local_invariants import SingularityRecord, beta_p, chi_p
from folsurf.scenario_io import run_pipeline
from folsurf.surface import SurfaceModel, chi_structure
from folsurf.zariski import zariski_decompose


def scenario_from(doc):
    return parse_document_dict(doc).scenario


def with_metadata(s, **changes):
    fields = {
        "k_pseudo_effective": s.metadata.k_pseudo_effective,
        "relatively_minimal": s.metadata.relatively_minimal,
        "algebraically_integral": s.metadata.algebraically_integral,
        "kodaira": s.metadata.kodaira,
        "p_g": s.metadata.p_g,
    }
    fields.update(changes)
    return FoliatedScenario(
        name=s.name,
        surface=s.surface,
        k_foliation=s.k_foliation,
        curves=s.curves,
        singularities=s.singularities,
        metadata=ScenarioMetadata(**fields),
    )


def test_chern_numbers_slope_example():
    c = chern_numbers(scenario_from(slope_12_7()))
    assert (c.c1_sq, c.c2, c.chi) == (2, 12, Fraction(7, 6))


def test_non_reduced_scenario_is_refused():
    # slope_12_7 with m1 made non-reduced (2/3) and m2 non-rational, which
    # skips the direct-chi cross-check: this used to report ok=True with
    # c2 = 59/6, slope 144/71 and an Undetermined verdict
    doc = expand_points(slope_12_7())
    kinds = {"m1": {"eigenvalue": "2/3"}, "m2": {"eigenvalue": "nonrational"}}
    for sing in doc["singularities"]:
        sing["kind"] = kinds.get(sing["id"], sing["kind"])
    del doc["expect"]
    with pytest.raises(DomainError, match="m1"):
        chern_numbers(scenario_from(doc))
    report = run_pipeline(parse_document_dict(doc))
    assert not report.ok
    assert report.chern is None and report.verdict is None
    assert "reduced" in report.inconsistency


def test_a_counted_non_reduced_record_is_named_with_its_number_of_points():
    # slope_12_7's counted entry m stands for 8 points; t1 is one point and
    # keeps the bare id of a listed point
    doc = slope_12_7()
    del doc["expect"]
    for sing in doc["singularities"]:
        if sing["id"] in ("t1", "m"):
            sing["kind"] = {"eigenvalue": "2"}
    f = scenario_from(doc)
    assert [(s.id, s.count) for s in f.non_reduced] == [("t1", 1), ("m", 8)]
    with pytest.raises(DomainError) as err:
        chern_numbers(f)
    assert str(err.value) == (
        "Chern numbers need a reduced foliation; not reduced: ['t1', 'm' (8 points)]"
    )
    epsilon = next(c for c in validate(f).checks if c.name == "structure.epsilon-declarations")
    assert epsilon.detail == (
        "t1: epsilon required for eigenvalue 2; m (8 points): epsilon required for eigenvalue 2"
    )


def test_chern_numbers_second_noether_ruled():
    c = chern_numbers(scenario_from(second_noether_ruled(4)))
    assert (c.c1_sq, c.c2, c.chi) == (Fraction(9, 4), 0, Fraction(3, 16))


def test_chern_numbers_isotrivial_zero():
    c = chern_numbers(scenario_from(isotrivial_vector_field()))
    assert (c.c1_sq, c.c2, c.chi) == (0, 0, 0)


def test_chern_numbers_not_pseudo_effective():
    p2 = SurfaceModel.p2()
    s = FoliatedScenario(
        name="rational-pencil",
        surface=p2,
        k_foliation=p2.divisor([-2]),
        curves=(),
        singularities=(),
        metadata=ScenarioMetadata(k_pseudo_effective=False, relatively_minimal=True),
    )
    c = chern_numbers(s)
    assert (c.c1_sq, c.c2, c.chi) == (0, 0, 0)
    verdict = decide(s, c)
    assert verdict.status == ALGEBRAICALLY_INTEGRAL
    assert verdict.fired_rules[0].rule_id == "R1-rational-pencil"


def test_chern_numbers_refuse_c1_squared_off_the_volume():
    # K_F = L + E1 meets E1 with degree -1, so N = E1 and P = L, P^2 = 1; but
    # K_F^2 = 0 and no singularity on E1 carries the missing beta
    surface = SurfaceModel.p2(1)
    s = FoliatedScenario(
        name="no-beta-on-n",
        surface=surface,
        k_foliation=surface.divisor([1, 1]),
        curves=(CurveRecord("E1", surface.divisor([0, 1]), True),),
        singularities=(),
        metadata=ScenarioMetadata(k_pseudo_effective=True, relatively_minimal=False),
    )
    with pytest.raises(InconsistentScenario) as err:
        chern_numbers(s)
    assert str(err.value) == (
        "c1^2 = 0 disagrees with the volume P^2 = 1; the declared "
        "negative-part singularities do not match the decomposition"
    )


def test_chern_numbers_refuse_a_direct_chi_off_the_noether_path():
    # K_F = L with no singularities: chi = 1/12 by Noether, but the direct
    # formula reads chi(O) + K_F.N_F / 4 = 1 + 4/4
    p2 = SurfaceModel.p2()
    s = FoliatedScenario(
        name="no-singularities",
        surface=p2,
        k_foliation=p2.divisor([1]),
        curves=(),
        singularities=(),
        metadata=ScenarioMetadata(k_pseudo_effective=True, relatively_minimal=True),
    )
    with pytest.raises(InconsistentScenario) as err:
        chern_numbers(s)
    assert str(err.value) == "direct chi formula gives 2, Noether path gives 1/12"


def reference_chern_numbers(f):
    """The Chern numbers of a reduced, pseudo-effective scenario summed point
    by point as Fractions, or the message that refuses them."""
    dec = zariski_decompose(f)
    support = set(dec.support)
    on_n, off_n, local_chi = Fraction(0), Fraction(0), Fraction(0)
    for s in f.singularities:
        if support.isdisjoint(s.incident_curves):
            off_n += beta_p(s)
        else:
            on_n += beta_p(s)
        chi_s = chi_p(s)
        local_chi = None if local_chi is None or chi_s is None else local_chi + chi_s
    c1 = f.kf_square + on_n
    if c1 != dec.nef_square:
        return (
            f"c1^2 = {c1} disagrees with the volume P^2 = {dec.nef_square}; the "
            "declared negative-part singularities do not match the decomposition"
        )
    chi = (c1 + off_n) / 12
    if local_chi is not None:
        direct = chi_structure(f.surface) + f.kf_dot_nf / 4 + local_chi
        if direct != chi:
            return f"direct chi formula gives {direct}, Noether path gives {chi}"
    return ChernNumbers(c1, off_n, chi)


def _chern_or_message(f):
    try:
        return chern_numbers(f)
    except InconsistentScenario as err:
        return str(err)


@pytest.mark.parametrize(
    "stem", sorted(stem for stem, doc in bundled_documents().items() if "surface" in doc)
)
def test_chern_numbers_match_the_fraction_sum_on_every_bundled_scenario(stem):
    # the reference sums the document's points one by one
    doc = bundled_documents()[stem]
    f = scenario_from(doc)
    assert f.is_reduced and f.metadata.k_pseudo_effective
    assert _chern_or_message(f) == reference_chern_numbers(scenario_from(expand_points(doc)))


_KINDS = (
    {"eigenvalue": "nonrational"},
    {"eigenvalue": "-4"},  # the kind of p_neg on C0
    {"eigenvalue": "-1"},
    {"eigenvalue": "-3"},
    {"eigenvalue": "-5/2"},
    {"eigenvalue": "-7/3"},
    {"saddle_node": 2},
    {"saddle_node": 3},
    {"saddle_node": 2, "bb": "3"},
    {"saddle_node": 3, "bb": "-7/2"},
)


@st.composite
def ruled_variants(draw):
    """second_noether_ruled(4) with its points other than p_neg drawn kinds
    from a drawn palette of ``_KINDS`` (equal kinds share one object once
    parsed), and some of the points off every curve moved onto C0, the
    negative part."""
    doc = expand_points(second_noether_ruled(4))
    del doc["expect"]
    palette = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4, unique_by=str))
    for point in doc["singularities"][1:]:
        point["kind"] = dict(draw(st.sampled_from(palette)))
        if "on_curves" not in point and draw(st.integers(0, 3)) == 0:
            point["on_curves"] = ["C0"]
    return doc


@settings(max_examples=150, deadline=None)
@given(ruled_variants())
def test_chern_numbers_match_the_fraction_sum_on_ruled_variants(doc):
    f = scenario_from(doc)
    expected = reference_chern_numbers(f)
    assert _chern_or_message(f) == expected
    # the same points with a fresh kind object each: no group has two points
    fresh = tuple(
        SingularityRecord(p.id, dataclasses.replace(p.kind), p.vanishing_order, p.incident_curves)
        for p in f.singularities
    )
    alone = FoliatedScenario(f.name, f.surface, f.k_foliation, f.curves, fresh, f.metadata)
    assert _chern_or_message(alone) == expected


def test_chern_ctor_enforces_noether_and_positivity():
    with pytest.raises(InconsistentScenario):
        ChernNumbers(Fraction(1), Fraction(1), Fraction(1))
    with pytest.raises(InconsistentScenario):
        ChernNumbers(Fraction(-12), Fraction(0), Fraction(-1))


@pytest.mark.parametrize("make", [int, Fraction], ids=["int", "Fraction"])
def test_chern_numbers_refuse_a_negative_entry_or_a_noether_mismatch(make):
    # the checks read numerators and denominators, which ints carry too
    for fields in ((12, 0, 1), (0, 12, 1), (0, 0, 0), (24, 12, 3)):
        ChernNumbers(*map(make, fields))
    for fields in ((-12, 24, 1), (24, -12, 1), (-12, 0, -1), (0, -12, -1)):
        with pytest.raises(InconsistentScenario, match="must be non-negative"):
            ChernNumbers(*map(make, fields))
    for fields in ((1, 1, 1), (12, 0, 2), (0, 12, 0), (24, 12, 2)):
        with pytest.raises(InconsistentScenario, match="Noether equality violated"):
            ChernNumbers(*map(make, fields))


def test_chern_numbers_checks_hold_on_fractional_fields():
    half, twelfth = Fraction(1, 2), Fraction(1, 12)
    ChernNumbers(half, half, twelfth)
    ChernNumbers(Fraction(7, 3), Fraction(5, 3), Fraction(1, 3))
    with pytest.raises(InconsistentScenario, match="must be non-negative"):
        ChernNumbers(-half, Fraction(3, 2), twelfth)
    with pytest.raises(InconsistentScenario, match="Noether equality violated"):
        ChernNumbers(half, Fraction(1, 3), twelfth)
    with pytest.raises(InconsistentScenario, match="Noether equality violated"):
        ChernNumbers(Fraction(7, 3), Fraction(5, 3), Fraction(1, 4))


def test_slope_values():
    assert slope(ChernNumbers(2, 12, Fraction(7, 6))) == Fraction(12, 7)
    assert slope(ChernNumbers(12, 0, 1)) == 12
    with pytest.raises(DomainError):
        slope(ChernNumbers(0, 0, 0))


@pytest.mark.parametrize(
    "p_g,expected",
    [
        (2, (Fraction(0), Fraction(1, 2), Fraction(4, 5))),
        (3, (Fraction(1), Fraction(4, 3), Fraction(12, 7))),
    ],
)
def test_noether_bounds(p_g, expected):
    assert noether_bounds(p_g) == expected


def test_noether_bounds_second_equality_family():
    for n in range(2, 20):
        first, second, third = noether_bounds(n)
        assert second == Fraction(n) - 2 + Fraction(1, n)


def test_noether_bounds_closed_forms_match_their_defining_expressions():
    # the bounds are built from closed forms; the definitions are
    # p_g - 2, p_g - 2 + 1/p_g and p_g - 3/2 + 3/(2(2 p_g + 1))
    for p_g in range(2, 501):
        first = Fraction(p_g - 2)
        second = first + Fraction(1, p_g)
        third = Fraction(p_g) - Fraction(3, 2) + Fraction(3, 2 * (2 * p_g + 1))
        bounds = noether_bounds(p_g)
        assert bounds == (first, second, third)
        assert all(type(b) is Fraction for b in bounds)


@pytest.mark.parametrize(
    "lam,expected",
    [(Fraction(2), 2), (Fraction(3), 4), (Fraction(8, 3), 3)],
)
def test_genus_bound(lam, expected):
    assert genus_bound(lam) == expected


def test_genus_bound_domain():
    with pytest.raises(DomainError):
        genus_bound(Fraction(4))
    with pytest.raises(DomainError):
        genus_bound(Fraction(9, 2))


def test_decide_r3_slope():
    report = run_pipeline(parse_document_dict(slope_12_7()))
    assert report.verdict.status == TRANSCENDENTAL
    assert [r.rule_id for r in report.verdict.fired_rules] == ["R3-slope-below-two"]


def test_decide_r5_noether_gap():
    report = run_pipeline(parse_document_dict(second_noether_ruled(3)))
    assert report.vol == Fraction(4, 3)
    assert report.bounds[2] == Fraction(12, 7)
    assert report.verdict.status == TRANSCENDENTAL
    assert [r.rule_id for r in report.verdict.fired_rules] == ["R5-noether-gap"]


def test_decide_equality_case_does_not_fire():
    report = run_pipeline(parse_document_dict(third_noether_double_cover(2)))
    assert report.vol == report.bounds[2]
    ids = [r.rule_id for r in report.verdict.fired_rules]
    assert "R5-noether-gap" not in ids and "R3-slope-below-two" not in ids
    assert report.verdict.status == ALGEBRAICALLY_INTEGRAL


def test_decide_r2_nongeneral():
    report = run_pipeline(parse_document_dict(elliptic_pencil()))
    ids = [r.rule_id for r in report.verdict.fired_rules]
    assert "R2-nongeneral-positive-chern" in ids
    assert report.verdict.status == ALGEBRAICALLY_INTEGRAL


def test_decide_r4_and_genus_bound():
    report = run_pipeline(parse_document_dict(semistable_genus2()))
    ids = [r.rule_id for r in report.verdict.fired_rules]
    assert "R4-integrable-slope-bound" in ids
    assert report.verdict.genus_bound == 2


def test_verdict_monotonicity():
    s = scenario_from(third_noether_double_cover(2))
    undeclared = with_metadata(s, algebraically_integral="unknown")
    c = chern_numbers(undeclared)
    base = decide(undeclared, c)
    assert base.status == UNDETERMINED
    declared = decide(s, chern_numbers(s), genus=2)
    assert declared.status == ALGEBRAICALLY_INTEGRAL


def test_transcendence_verdict_survives_extra_metadata():
    s = scenario_from(slope_12_7())
    tagged = with_metadata(s, algebraically_integral="no")
    c = chern_numbers(tagged)
    assert decide(tagged, c).status == TRANSCENDENTAL


def test_contradiction_raises():
    s = scenario_from(slope_12_7())
    contradictory = with_metadata(s, algebraically_integral="yes")
    c = chern_numbers(contradictory)
    with pytest.raises(InconsistentScenario):
        decide(contradictory, c)


def test_kodaira_conflict_raises():
    s = scenario_from(second_noether_ruled(3))
    conflicted = with_metadata(s, kodaira="1")
    c = chern_numbers(conflicted)
    with pytest.raises(InconsistentScenario):
        decide(conflicted, c)


@pytest.mark.parametrize("kodaira", ["0", "1"])
def test_finite_kodaira_without_pseudo_effective_k_f_is_refused(kodaira):
    # kodaira >= 0 makes a multiple of K_F effective: the two declarations
    # contradict each other, whatever the rules would fire
    doc = slope_12_7()
    del doc["expect"]
    doc["metadata"].update(k_pseudo_effective=False, kodaira=kodaira)
    report = run_pipeline(parse_document_dict(doc))
    assert not report.ok and report.verdict is None
    assert report.inconsistency == (
        f"metadata says kodaira {kodaira} but k_pseudo_effective is false"
    )
    doc["metadata"]["kodaira"] = "-inf"
    assert run_pipeline(parse_document_dict(doc)).ok


@pytest.mark.parametrize("kodaira", ["-inf", "0"])
def test_kodaira_below_one_is_refused_where_r2_fires(kodaira):
    # off general type, positive c2 or chi come only from a non-isotrivial
    # genus-1 fibration, whose foliation has kodaira 1
    doc = elliptic_pencil()
    del doc["expect"]
    doc["metadata"].update(algebraically_integral="unknown", kodaira=kodaira)
    report = run_pipeline(parse_document_dict(doc))
    assert not report.ok and report.verdict is None
    assert report.inconsistency == (
        f"metadata says kodaira {kodaira} but c2 = 12, chi = 1 off general type force kodaira 1"
    )


@pytest.mark.parametrize("kodaira", ["1", "unknown"])
def test_kodaira_one_or_unknown_passes_where_r2_fires(kodaira):
    doc = elliptic_pencil()
    del doc["expect"]
    doc["metadata"].update(algebraically_integral="unknown", kodaira=kodaira)
    report = run_pipeline(parse_document_dict(doc))
    assert report.ok and report.verdict.status == "AlgebraicallyIntegral"
    assert [r.rule_id for r in report.verdict.fired_rules] == ["R2-nongeneral-positive-chern"]


def test_sanity_violation_raises():
    s = scenario_from(semistable_genus2())
    bloated = with_metadata(s, p_g=60)
    c = chern_numbers(bloated)
    with pytest.raises(InconsistentScenario):
        decide(bloated, c)


def test_genus_one_constraint_matches_elliptic_pencil():
    # a non-isotrivial genus-1 pencil has c1^2 = 0 and c2 = 12 chi > 0
    c = chern_numbers(scenario_from(elliptic_pencil()))
    assert c.c1_sq == 0
    assert c.c2 == 12 * c.chi and c.c2 > 0


@pytest.mark.parametrize(
    "doc", [second_noether_ruled(50), third_noether_double_cover(8)], ids=["ruled50", "cover8"]
)
def test_pipeline_evaluates_each_local_invariant_once(doc, monkeypatch):
    import folsurf.chern as chern
    import folsurf.local_invariants as loc

    parsed = parse_document_dict(doc)
    records = len(parsed.scenario.singularities)
    calls = {"local_terms": 0, "EigenvalueClass": 0}
    original = loc.local_terms

    def counting(kind):
        calls["local_terms"] += 1
        return original(kind)

    # every name the pipeline could reach the function through
    monkeypatch.setattr(loc, "local_terms", counting)
    monkeypatch.setattr(chern, "local_terms", counting)
    post_init = loc.EigenvalueClass.__post_init__

    def counting_post_init(self):
        calls["EigenvalueClass"] += 1
        post_init(self)

    monkeypatch.setattr(loc.EigenvalueClass, "__post_init__", counting_post_init)
    report = run_pipeline(parsed)
    assert report.ok
    # beta_p and 12 chi_p of a record come from one local_terms call
    assert calls == {"local_terms": records, "EigenvalueClass": 0}
    if doc["name"] == "second-noether-n50":  # 102 points in four records
        assert calls["local_terms"] == 4


def _ruled_with_interleaved_kinds(sign):
    """second_noether_ruled(4) with its off-curve points u1, u2, u3, u6, u7
    given eigenvalues 2, 3, 2, 3, 2 times ``sign``, u4 made a saddle-node
    without a Baum-Bott index (so chi_p is unavailable) and u5 dropped to
    keep the count.  The ``expect`` block, written for the fixture, is left
    out."""
    doc = expand_points(second_noether_ruled(4))
    del doc["expect"]
    points = {s["id"]: s for s in doc["singularities"]}
    for name, eigenvalue in zip(["u1", "u2", "u3", "u6", "u7"], [2, 3, 2, 3, 2]):
        points[name]["kind"] = {"eigenvalue": str(sign * eigenvalue)}
    points["u4"]["kind"] = {"saddle_node": 2}
    doc["singularities"].remove(points["u5"])
    return doc


@pytest.mark.parametrize("sign", [1, -1], ids=["non-reduced", "reduced"])
def test_sharing_kind_objects_cannot_change_the_report(sign):
    # the parser builds a kind object per point; the same scenario built
    # through the public constructors shares one object per equal kind
    parsed = parse_document_dict(_ruled_with_interleaved_kinds(sign))
    s = parsed.scenario
    kinds = {}
    sharing = tuple(
        SingularityRecord(
            p.id, kinds.setdefault(p.kind, p.kind), p.vanishing_order, p.incident_curves
        )
        for p in s.singularities
    )
    assert len({id(p.kind) for p in s.singularities}) == len(sharing) == 9 and len(kinds) == 5
    rebuilt = FoliatedScenario(s.name, s.surface, s.k_foliation, s.curves, sharing, s.metadata)
    alone = run_pipeline(parsed)
    shared = run_pipeline(dataclasses.replace(parsed, scenario=rebuilt))
    assert alone.to_json() == shared.to_json()
    assert alone.to_text() == shared.to_text()
    if sign > 0:  # every point of a positive integer eigenvalue, in declared order
        detail = next(c.detail for c in shared.validation.checks if "epsilon" in c.name)
        assert [part.split(":")[0] for part in detail.split("; ")] == ["u1", "u2", "u3", "u6", "u7"]
    else:  # chi_p is unavailable, and c2 counts every point of each kind
        assert shared.ok and shared.chern.c2 == 3 * Fraction(1, 2) + 2 * Fraction(1, 3)


_terms = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(-10**6, 10**6),
        st.one_of(st.integers(1, 30), st.integers(1, 10**12)),
        st.integers(1, 5),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_exact_sum_totals_over_the_lcm_of_its_denominators(terms):
    sums = chern._ExactSum(3)
    expected = [Fraction(0)] * 3
    for slot, numerator, denominator, count in terms:
        sums.add(slot, numerator, denominator, count)
        expected[slot] += count * Fraction(numerator, denominator)
    numerators, denominator = sums.total()
    assert denominator == math.lcm(1, *(t[2] for t in terms))
    assert [Fraction(n, denominator) for n in numerators] == expected


@pytest.mark.parametrize("terms", [3, 4, 200])
def test_exact_sum_groups_denominators_past_the_rescale_size(terms):
    # random odd 3 000-bit denominators are almost surely coprime: the first
    # two rescale the running sum past the rescale size, and every later new
    # denominator is grouped (one group for 3 terms) and merged at the end
    rng = random.Random(terms)
    sums = chern._ExactSum(2)
    expected = [Fraction(0)] * 2
    denominators = []
    for k in range(terms):
        slot, numerator, count = rng.randrange(2), rng.randint(-10**9, 10**9), rng.randint(1, 5)
        if k > 3 and rng.random() < 0.2:
            denominator = rng.choice(denominators[2:])
        else:
            denominator = rng.getrandbits(3000) | 1
        denominators.append(denominator)
        sums.add(slot, numerator, denominator, count)
        expected[slot] += count * Fraction(numerator, denominator)
    assert len(sums.groups) == len(set(denominators[2:]))
    numerators, denominator = sums.total()
    assert denominator == math.lcm(*denominators)
    assert [Fraction(n, denominator) for n in numerators] == expected


# ``decide`` compared with its earlier form, kept here as the reference.

_REFERENCE_R1 = FiredRule(
    "R1-rational-pencil",
    "Miyaoka's criterion: a non-pseudo-effective canonical class forces a "
    "pencil of rational curves",
    "K_F not pseudo-effective",
)


def reference_decide(
    f: FoliatedScenario,
    c: ChernNumbers,
    genus: Optional[int] = None,
    p_g: Optional[int] = None,
) -> Verdict:
    """``chern.decide`` as it was before its rule table: seven inline rules,
    a set of the statuses fired, and a final check that they agree; the
    refusal of kodaira -inf or 0 where R2 fires is written in as well.

    The volume is ``c.c1_sq``, which ``chern_numbers`` takes from P^2.
    ``genus`` is the fibration genus when one is known; ``p_g`` overrides the
    metadata value when the geometric genus was computed rather than declared.
    Contradictory firings, metadata conflicting with a fired rule, and hard
    sanity violations all raise InconsistentScenario instead of producing a
    verdict.  The slope >= 1 guess is reported as an informational flag only.
    """
    meta, vol = f.metadata, c.c1_sq
    effective_pg = p_g if p_g is not None else meta.p_g
    fired: List[FiredRule] = []
    statuses = set()
    info: List[str] = []
    bound: Optional[int] = None

    pe = meta.k_pseudo_effective
    general = pe and vol > 0
    if meta.kodaira == "2" and not general:
        raise InconsistentScenario(
            "metadata says general type but the volume vanishes"
        )
    if meta.kodaira in ("-inf", "0", "1") and general:
        raise InconsistentScenario(
            f"metadata says kodaira {meta.kodaira} but the volume is positive"
        )
    if meta.kodaira in ("0", "1") and not pe:
        raise InconsistentScenario(
            f"metadata says kodaira {meta.kodaira} but k_pseudo_effective is false"
        )

    if not pe:
        fired.append(_REFERENCE_R1)
        statuses.add(ALGEBRAICALLY_INTEGRAL)

    if pe and not general and (c.c2 > 0 or c.chi > 0):
        if meta.kodaira in ("-inf", "0"):
            raise InconsistentScenario(
                f"metadata says kodaira {meta.kodaira} but c2 = {c.c2}, chi = {c.chi} "
                "off general type force kodaira 1"
            )
        fired.append(
            FiredRule(
                "R2-nongeneral-positive-chern",
                "off general type, positive c2 or chi occurs only for "
                "non-isotrivial genus-1 pencils",
                f"c2 = {c.c2}, chi = {c.chi}",
            )
        )
        statuses.add(ALGEBRAICALLY_INTEGRAL)

    lam: Optional[Fraction] = None
    if general:
        lam = slope(c)
        if lam < 2:
            fired.append(
                FiredRule(
                    "R3-slope-below-two",
                    "integrable foliations of general type have slope at least 2",
                    f"slope = {lam} < 2",
                )
            )
            statuses.add(TRANSCENDENTAL)
        if lam < 1:
            info.append(f"slope {lam} < 1 violates the expected lower bound (guess)")

    if general and meta.algebraically_integral == "yes":
        if genus is not None and genus >= 2:
            required = Fraction(4 * (genus - 1), genus)
            if lam < required:
                raise InconsistentScenario(
                    f"declared integrable of genus {genus} but slope {lam} < "
                    f"4(g-1)/g = {required}"
                )
            fired.append(
                FiredRule(
                    "R4-integrable-slope-bound",
                    "an integrable general-type foliation of genus g has slope "
                    "at least 4(g-1)/g",
                    f"slope = {lam} >= {required} at g = {genus}",
                )
            )
        if lam < 4:
            bound = genus_bound(lam)

    if general and effective_pg is not None and effective_pg >= 2:
        first, _, third = noether_bounds(effective_pg)
        if vol < third:
            fired.append(
                FiredRule(
                    "R5-noether-gap",
                    "volume below the integrable Noether bound "
                    "p_g - 3/2 + 3/(2(2 p_g + 1)) forces transcendence",
                    f"vol = {vol} < {third}",
                )
            )
            statuses.add(TRANSCENDENTAL)
        if vol < first:
            raise InconsistentScenario(
                f"vol = {vol} violates the bound vol >= p_g - 2 = {first}"
            )
        if vol < Fraction(1, 2):
            raise InconsistentScenario(
                f"vol = {vol} violates the universal bound vol >= 1/2 at p_g >= 2"
            )
    if general and effective_pg is not None and effective_pg > 12 * c.chi + 2:
        raise InconsistentScenario(
            f"p_g = {effective_pg} exceeds 12*chi + 2 = {12 * c.chi + 2}"
        )

    if meta.algebraically_integral == "yes":
        if TRANSCENDENTAL in statuses:
            raise InconsistentScenario(
                "a transcendence rule fired on a scenario declared integrable"
            )
        fired.append(
            FiredRule(
                "R0-declared-integrability",
                "declared metadata",
                "algebraically_integral = yes",
            )
        )
        statuses.add(ALGEBRAICALLY_INTEGRAL)
    if meta.algebraically_integral == "no":
        if ALGEBRAICALLY_INTEGRAL in statuses:
            raise InconsistentScenario(
                "an integrability rule fired on a scenario declared transcendental"
            )
        fired.append(
            FiredRule(
                "R0-declared-transcendence",
                "declared metadata",
                "algebraically_integral = no",
            )
        )
        statuses.add(TRANSCENDENTAL)

    if TRANSCENDENTAL in statuses and ALGEBRAICALLY_INTEGRAL in statuses:
        raise InconsistentScenario(
            "contradictory rule firings: both transcendence and integrability"
        )
    if TRANSCENDENTAL in statuses:
        status = TRANSCENDENTAL
    elif ALGEBRAICALLY_INTEGRAL in statuses:
        status = ALGEBRAICALLY_INTEGRAL
    else:
        status = UNDETERMINED
    return Verdict(
        status=status,
        fired_rules=tuple(fired),
        genus_bound=bound,
        sanity_failures=tuple(info),
    )


# Each refusal ``reference_decide`` can reach; its last two checks (p_g
# against 12 chi + 2, and contradictory firings) are never reached.
REFUSALS = (
    "metadata says general type but the volume vanishes",
    "but the volume is positive",
    "but k_pseudo_effective is false",
    "off general type force kodaira 1",
    "declared integrable of genus ",
    "violates the bound vol >= p_g - 2",
    "violates the universal bound vol >= 1/2",
    "a transcendence rule fired on a scenario declared integrable",
    "an integrability rule fired on a scenario declared transcendental",
)
REFERENCE_STATUS = {  # the status each rule implies, as the reference assigns them
    "R0-declared-integrability": ALGEBRAICALLY_INTEGRAL,
    "R0-declared-transcendence": TRANSCENDENTAL,
    "R1-rational-pencil": ALGEBRAICALLY_INTEGRAL,
    "R2-nongeneral-positive-chern": ALGEBRAICALLY_INTEGRAL,
    "R3-slope-below-two": TRANSCENDENTAL,
    "R4-integrable-slope-bound": None,
    "R5-noether-gap": TRANSCENDENTAL,
}
# (c1^2, c2): vol = 0 with and without c2, then chi = 1 at slopes 1/4, 3/2,
# 2, 3, 4 and 9/2
GRID_CHERN = [
    ChernNumbers(Fraction(c1), Fraction(c2), (Fraction(c1) + Fraction(c2)) / 12)
    for c1, c2 in [
        (0, 0), (0, 12), ("1/4", "47/4"), ("3/2", "21/2"), (2, 10), (3, 9), (4, 8), ("9/2", "15/2"),
    ]
]


def _verdict_or_message(rule, *args):
    try:
        return rule(*args)
    except (InconsistentScenario, DomainError) as exc:
        return type(exc).__name__, str(exc)


def test_decide_matches_the_reference_on_a_grid():
    base = scenario_from(elliptic_pencil())
    scenarios = [
        with_metadata(
            base, k_pseudo_effective=pe, algebraically_integral=integral, kodaira=kodaira, p_g=p_g
        )
        for pe, integral, kodaira, p_g in itertools.product(
            (True, False), ("yes", "no", "unknown"), (None, "-inf", "0", "1", "2"), (None, 0, 2, 5)
        )
    ]
    cases = list(itertools.product(scenarios, GRID_CHERN, (None, 1, 2, 3), (None, 1, 3, 20)))
    fired, refused = set(), set()
    for f, c, genus, p_g in cases:
        got = _verdict_or_message(decide, f, c, genus, p_g)
        assert got == _verdict_or_message(reference_decide, f, c, genus, p_g)
        if isinstance(got, Verdict):
            ids = [r.rule_id for r in got.fired_rules]
            fired.update(ids)
            statuses = {REFERENCE_STATUS[i] for i in ids} - {None}
            assert statuses == (set() if got.status == UNDETERMINED else {got.status})
        else:
            assert got[0] == "InconsistentScenario"
            found = [r for r in REFUSALS if r in got[1]]
            assert len(found) == 1, got
            refused.update(found)
    assert len(cases) == 120 * 8 * 4 * 4
    assert fired == set(REFERENCE_STATUS) == set(chern._RULES)
    assert refused == set(REFUSALS)


def test_readme_rule_table_lists_every_rule_with_its_status():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = [
        [cell.strip().strip("`") for cell in line.split("|")[1:3]]
        for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `R")
    ]
    listed = [(rule, None if status == "none" else status) for rule, status in rows]
    assert listed == [(rule, status) for rule, (status, _) in chern._RULES.items()]
