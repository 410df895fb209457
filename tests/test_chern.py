from fractions import Fraction

import pytest

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
    elliptic_pencil,
    second_noether_ruled,
    third_noether_double_cover,
    isotrivial_vector_field,
    semistable_genus2,
    slope_12_7,
)
from folsurf.foliation import CurveRecord, FoliatedScenario, ScenarioMetadata
from folsurf.scenario_io import parse_document_dict, run_pipeline
from folsurf.surface import SurfaceModel


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
    verdict = decide(s, c, Fraction(0))
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
    base = decide(undeclared, c, c.c1_sq)
    assert base.status == UNDETERMINED
    declared = decide(s, chern_numbers(s), c.c1_sq, genus=2)
    assert declared.status == ALGEBRAICALLY_INTEGRAL


def test_transcendence_verdict_survives_extra_metadata():
    s = scenario_from(slope_12_7())
    tagged = with_metadata(s, algebraically_integral="no")
    c = chern_numbers(tagged)
    assert decide(tagged, c, c.c1_sq).status == TRANSCENDENTAL


def test_contradiction_raises():
    s = scenario_from(slope_12_7())
    contradictory = with_metadata(s, algebraically_integral="yes")
    c = chern_numbers(contradictory)
    with pytest.raises(InconsistentScenario):
        decide(contradictory, c, c.c1_sq)


def test_kodaira_conflict_raises():
    s = scenario_from(second_noether_ruled(3))
    conflicted = with_metadata(s, kodaira="1")
    c = chern_numbers(conflicted)
    with pytest.raises(InconsistentScenario):
        decide(conflicted, c, c.c1_sq)


def test_sanity_violation_raises():
    s = scenario_from(semistable_genus2())
    bloated = with_metadata(s, p_g=60)
    c = chern_numbers(bloated)
    with pytest.raises(InconsistentScenario):
        decide(bloated, c, c.c1_sq)


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
    sings = parsed.scenario.singularities
    # chi_p is collected up to and including the first unavailable one
    first_missing = next(
        (k for k, s in enumerate(sings) if loc.chi_p(s) is None), len(sings) - 1
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
    assert calls == {"beta_p": len(sings), "chi_p": first_missing + 1, "EigenvalueClass": 0}
