import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folsurf.chern import (
    ALGEBRAICALLY_INTEGRAL,
    TRANSCENDENTAL,
    UNDETERMINED,
    ChernNumbers,
    chern_numbers,
    decide,
    genus_bound,
    noether_bounds,
    slope,
)
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
from folsurf.foliation import CurveRecord, FoliatedScenario, ScenarioMetadata
from folsurf.local_invariants import SingularityRecord, beta_p, chi_p
from folsurf.scenario_io import parse_document_dict, run_pipeline
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
    doc = slope_12_7()
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
    f = scenario_from(bundled_documents()[stem])
    assert f.is_reduced and f.metadata.k_pseudo_effective
    assert _chern_or_message(f) == reference_chern_numbers(f)


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
    doc = second_noether_ruled(4)
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
    firsts = {}  # the first point of each kind object, in declared order
    for s in parsed.scenario.singularities:
        firsts.setdefault(id(s.kind), s)
    kinds = list(firsts.values())
    # chi_p is collected up to and including the first unavailable one
    first_missing = next(
        (k for k, s in enumerate(kinds) if loc.chi_p(s) is None), len(kinds) - 1
    )
    calls = {"beta_p": 0, "chi_p": 0, "EigenvalueClass": 0}

    def counting(name):
        original = getattr(loc, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        # every name the pipeline could reach the function through
        monkeypatch.setattr(loc, name, wrapper)
        monkeypatch.setattr(chern, name, wrapper)

    counting("beta_p")
    counting("chi_p")
    post_init = loc.EigenvalueClass.__post_init__

    def counting_post_init(self):
        calls["EigenvalueClass"] += 1
        post_init(self)

    monkeypatch.setattr(loc.EigenvalueClass, "__post_init__", counting_post_init)
    report = run_pipeline(parsed)
    assert report.ok
    assert calls == {"beta_p": len(kinds), "chi_p": first_missing + 1, "EigenvalueClass": 0}
    if doc["name"] == "second-noether-n50":  # 102 points of two kinds
        assert calls["beta_p"] == calls["chi_p"] == 2


def _ruled_with_interleaved_kinds(sign):
    """second_noether_ruled(4) with its off-curve points u1, u2, u3, u6, u7
    given eigenvalues 2, 3, 2, 3, 2 times ``sign``, u4 made a saddle-node
    without a Baum-Bott index (so chi_p is unavailable) and u5 dropped to
    keep the count.  The ``expect`` block, written for the fixture, is left
    out."""
    doc = second_noether_ruled(4)
    del doc["expect"]
    points = {s["id"]: s for s in doc["singularities"]}
    for name, eigenvalue in zip(["u1", "u2", "u3", "u6", "u7"], [2, 3, 2, 3, 2]):
        points[name]["kind"] = {"eigenvalue": str(sign * eigenvalue)}
    points["u4"]["kind"] = {"saddle_node": 2}
    doc["singularities"].remove(points["u5"])
    return doc


@pytest.mark.parametrize("sign", [1, -1], ids=["non-reduced", "reduced"])
def test_sharing_kind_objects_cannot_change_the_report(sign):
    # the parsed document shares one object per equal kind; the same scenario
    # built through the public constructors has a fresh kind per point
    parsed = parse_document_dict(_ruled_with_interleaved_kinds(sign))
    s = parsed.scenario
    fresh = tuple(
        SingularityRecord(p.id, dataclasses.replace(p.kind), p.vanishing_order, p.incident_curves)
        for p in s.singularities
    )
    rebuilt = FoliatedScenario(s.name, s.surface, s.k_foliation, s.curves, fresh, s.metadata)
    assert len(s.by_kind) == 5 and len(rebuilt.by_kind) == len(fresh) == 9
    shared = run_pipeline(parsed)
    alone = run_pipeline(dataclasses.replace(parsed, scenario=rebuilt))
    assert alone.to_json() == shared.to_json()
    assert alone.to_text() == shared.to_text()
    if sign > 0:  # every point of a positive integer eigenvalue, in declared order
        detail = next(c.detail for c in shared.validation.checks if "epsilon" in c.name)
        assert [part.split(":")[0] for part in detail.split("; ")] == ["u1", "u2", "u3", "u6", "u7"]
    else:  # chi_p is unavailable, and c2 counts every point of each kind
        assert shared.ok and shared.chern.c2 == 3 * Fraction(1, 2) + 2 * Fraction(1, 3)
