from fractions import Fraction

import pytest

from folsurf.errors import DomainError
from folsurf.fixtures import second_noether_ruled, third_noether_double_cover, slope_12_7
from folsurf.foliation import (
    CurveRecord,
    FoliatedScenario,
    ScenarioMetadata,
    camacho_sad_check,
    normal_class,
    singularity_count_check,
    tangency,
    validate,
    z_total,
)
from folsurf.local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    SingularityRecord,
)
from folsurf.scenario_io import parse_document_dict
from folsurf.surface import SurfaceModel, canonical_class


def scenario_from(builder_doc):
    return parse_document_dict(builder_doc).scenario


def test_normal_class_examples():
    p2 = SurfaceModel.p2()
    degree2 = FoliatedScenario(
        name="deg2",
        surface=p2,
        k_foliation=p2.divisor([1]),
        curves=(),
        singularities=(),
        metadata=ScenarioMetadata(True, True),
    )
    assert normal_class(degree2).coefficients == (Fraction(4),)

    s = scenario_from(second_noether_ruled(4))
    assert normal_class(s).coefficients == (Fraction(3), Fraction(9))  # 3C0 + (2n+1)F

    trivial = FoliatedScenario(
        name="kf-equals-ks",
        surface=p2,
        k_foliation=canonical_class(p2),
        curves=(),
        singularities=(),
        metadata=ScenarioMetadata(True, True),
    )
    assert normal_class(trivial).is_zero


def test_tangency_on_branch_curve():
    s = scenario_from(slope_12_7())
    curve = s.curve("Dbranch")
    assert tangency(s, curve) == 4
    with pytest.raises(DomainError):
        z_total(s, curve)


def test_tangency_rejects_invariant_curve():
    s = scenario_from(second_noether_ruled(3))
    with pytest.raises(DomainError):
        tangency(s, s.curve("C0"))


def test_z_total_examples():
    s = scenario_from(second_noether_ruled(5))
    assert z_total(s, s.curve("C0")) == 1
    assert z_total(s, s.curve("Finf")) == 3

    chain = scenario_from(third_noether_double_cover(2))
    assert z_total(chain, chain.curve("E1")) == 1
    assert z_total(chain, chain.curve("E5")) == 2


def test_camacho_sad_check_direct():
    s = scenario_from(second_noether_ruled(5))
    c0 = s.curve("C0")
    good = camacho_sad_check(s, c0, {"p_neg": Fraction(-5)})
    assert good.passed
    wrong_branch = camacho_sad_check(s, c0, {"p_neg": Fraction(-1, 5)})
    assert wrong_branch.failed
    assert wrong_branch.residual == Fraction(-1, 5) - Fraction(-5)
    missing = camacho_sad_check(s, c0, {})
    assert missing.failed


def test_camacho_sad_transverse_crossing_branch_pair():
    # two invariant curves crossing once: the index pair is {lam, 1/lam}
    s = scenario_from(third_noether_double_cover(2))
    report = validate(s)
    cs_checks = [c for c in report.checks if c.name.startswith("camacho-sad.")]
    assert cs_checks and all(c.passed for c in cs_checks)


def test_singularity_count_check_passes_and_fails():
    s = scenario_from(second_noether_ruled(4))
    assert singularity_count_check(s).passed

    removed = FoliatedScenario(
        name=s.name,
        surface=s.surface,
        k_foliation=s.k_foliation,
        curves=s.curves,
        singularities=s.singularities[:-1],
        metadata=s.metadata,
    )
    check = singularity_count_check(removed)
    assert check.failed
    assert abs(check.residual) == 1


def test_degree2_count_example():
    p2 = SurfaceModel.p2()
    sings = tuple(
        SingularityRecord(f"s{i}", NonDegenerate(EigenvalueClass.nonrational()))
        for i in range(7)
    )
    s = FoliatedScenario(
        name="deg2",
        surface=p2,
        k_foliation=p2.divisor([1]),
        curves=(),
        singularities=sings,
        metadata=ScenarioMetadata(True, True),
    )
    assert singularity_count_check(s).passed  # 3 + 4 = 7


def test_validate_full_fixture():
    report = validate(scenario_from(slope_12_7()))
    assert report.passed
    assert any("zariski" in w for w in report.warnings)


def test_validate_epsilon_rules():
    p2 = SurfaceModel.p2()
    non_reduced = SingularityRecord(
        "p", NonDegenerate(EigenvalueClass.rational(3)), epsilon=None
    )
    s = FoliatedScenario(
        name="eps",
        surface=p2,
        k_foliation=p2.divisor([0]),
        curves=(),
        singularities=(non_reduced,),
        metadata=ScenarioMetadata(True, True),
    )
    report = validate(s)
    eps = next(c for c in report.checks if c.name == "structure.epsilon-declarations")
    assert eps.failed

    declared = SingularityRecord(
        "p", NonDegenerate(EigenvalueClass.rational(3)), epsilon=1
    )
    s2 = FoliatedScenario(
        name="eps2",
        surface=p2,
        k_foliation=p2.divisor([0]),
        curves=(),
        singularities=(declared,),
        metadata=ScenarioMetadata(True, True, algebraically_integral="yes"),
    )
    report2 = validate(s2)
    eps2 = next(c for c in report2.checks if c.name == "structure.epsilon-declarations")
    assert eps2.failed  # epsilon = 1 contradicts integrability


def test_duplicate_names_rejected():
    p2 = SurfaceModel.p2()
    with pytest.raises(DomainError):
        FoliatedScenario(
            name="dup",
            surface=p2,
            k_foliation=p2.divisor([0]),
            curves=(
                CurveRecord("C", p2.divisor([1]), True),
                CurveRecord("C", p2.divisor([1]), True),
            ),
            singularities=(),
            metadata=ScenarioMetadata(True, True),
        )


def test_tangency_small_formula_check():
    p2 = SurfaceModel.p2()
    s = FoliatedScenario(
        name="tang",
        surface=p2,
        k_foliation=p2.divisor([1]),
        curves=(CurveRecord("C", p2.divisor([1]), False),),
        singularities=(),
        metadata=ScenarioMetadata(True, True),
    )
    assert tangency(s, s.curve("C")) == 2  # K.C = 1, C^2 = 1


def _minus_two_points_on_one_curve(count, blowups):
    """``count`` singularities of eigenvalue -2 on one invariant curve of class
    L - E1 - ... - E_blowups; each contributes -2 or -1/2 to Camacho-Sad."""
    s = SurfaceModel.p2(blowups)
    curve = CurveRecord("C", s.divisor([1] + [-1] * blowups), True)
    sings = tuple(
        SingularityRecord(
            f"p{k}", NonDegenerate(EigenvalueClass.rational(-2)), incident_curves=("C",)
        )
        for k in range(count)
    )
    return FoliatedScenario(
        name="minus-two-points",
        surface=s,
        k_foliation=s.divisor([0] * (1 + blowups)),
        curves=(curve,),
        singularities=sings,
        metadata=ScenarioMetadata(True, True),
    )


def _camacho_sad(report):
    return next(c for c in report.checks if c.name == "camacho-sad.C")


def test_camacho_sad_budget_exhaustion_is_skipped_not_failed():
    # C^2 = -9 and all 18 branches at -1/2 balance the curve, but the search
    # runs out of its node budget before it reaches that assignment
    check = _camacho_sad(validate(_minus_two_points_on_one_curve(18, 10)))
    assert check.passed is None
    assert check.detail == "skipped (search budget exhausted)"


def test_camacho_sad_finished_search_without_solution_fails():
    # C^2 = -3 is none of the sums -4, -5/2, -1 of two branches in {-2, -1/2}
    check = _camacho_sad(validate(_minus_two_points_on_one_curve(2, 4)))
    assert check.failed
    assert check.detail == "no branch assignment balances the curve"


def test_camacho_sad_builds_branch_options_once_per_singularity(monkeypatch):
    import folsurf.foliation as foliation

    calls = []
    original = foliation._cs_branches

    def counting(s):
        calls.append(s.id)
        return original(s)

    monkeypatch.setattr(foliation, "_cs_branches", counting)
    # C^2 = -6 is none of the sums -5 - 3k/2 of ten branches in {-2, -1/2}, so
    # the search visits all 2^11 - 1 nodes before it fails
    check = _camacho_sad(validate(_minus_two_points_on_one_curve(10, 7)))
    assert check.detail == "no branch assignment balances the curve"
    assert sorted(calls) == sorted(f"p{k}" for k in range(10))


def test_scenario_builds_its_pairings_and_incidence_once():
    p2 = SurfaceModel.p2(1)
    point = SingularityRecord(
        "p", NonDegenerate(EigenvalueClass.rational(-1)), incident_curves=("C", "C", "D")
    )
    s = FoliatedScenario(
        name="cached",
        surface=p2,
        k_foliation=p2.divisor([1, 0]),
        curves=(
            CurveRecord("C", p2.divisor([1, -1]), True),
            CurveRecord("D", p2.divisor([0, 1]), True),
        ),
        singularities=(point,),
        metadata=ScenarioMetadata(True, True),
    )
    assert s.pairings is s.pairings
    assert s.singularities_on("C") == (point,)  # a repeated incidence counts once
    assert s.singularities_on("D") == (point,)
    assert s.singularities_on("E") == ()
    assert s.curve_numbers(s.curve("C")) == (0, 1, -2)  # C^2, K_F.C, K_S.C
    with pytest.raises(DomainError):
        s.curve("E")
    with pytest.raises(DomainError):
        s.curve_numbers(CurveRecord("C", p2.divisor([1, 0]), True))  # not the declared C


def test_validation_pairs_the_curves_through_one_table(monkeypatch):
    import folsurf.foliation as foliation

    calls = {"intersect": 0, "canonical_class": 0, "pairing_table": 0}

    def counting(name):
        original = getattr(foliation, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(foliation, name, wrapper)

    for name in calls:
        counting(name)
    s = scenario_from(third_noether_double_cover(16))
    assert len(s.curves) == 69
    assert validate(s).passed
    # one table for all 69 curves; the singularity count pairs N_F with K_F once
    assert calls == {"intersect": 1, "canonical_class": 2, "pairing_table": 1}
