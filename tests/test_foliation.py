import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import count_calls, expand_points
from folsurf.document import ScenarioDocument, document_to_dict, parse_document_dict, parse_scenario
from folsurf.errors import DomainError, ParseError
from folsurf.fibration import FiberModel, FiberNode, FibrationModel
from folsurf.fixtures import (
    load_bundled_files,
    second_noether_ruled,
    slope_12_7,
    third_noether_double_cover,
)
from folsurf.foliation import (
    CheckResult,
    CurveRecord,
    FoliatedScenario,
    ScenarioMetadata,
    ScenarioRefused,
    singularity_count_check,
    validate,
)
from folsurf.local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    SaddleNode,
    SingularityRecord,
)
from folsurf.scenario_io import run_pipeline
from folsurf.surface import SurfaceModel, canonical_class, intersect


def scenario_from(builder_doc):
    return parse_document_dict(builder_doc).scenario


def _checks_by_name(scenario):
    return {c.name: c for c in validate(scenario).checks}


def test_kf_dot_nf_examples():
    # N_F = K_F - K_S; the scenario reads K_F.N_F = K_F^2 - K_F.K_S off its table
    p2 = SurfaceModel.p2()
    degree2 = FoliatedScenario(
        name="deg2",
        surface=p2,
        k_foliation=p2.divisor([1]),
        curves=(),
        singularities=(),
        metadata=ScenarioMetadata(True, True),
    )
    assert degree2.kf_dot_nf == 4  # N_F = 4L

    s = scenario_from(second_noether_ruled(4))
    assert s.kf_dot_nf == 6  # K_F = C0 + 3F, N_F = 3C0 + 9F on F_4

    trivial = FoliatedScenario(
        name="kf-equals-ks",
        surface=p2,
        k_foliation=canonical_class(p2),
        curves=(),
        singularities=(),
        metadata=ScenarioMetadata(True, True),
    )
    assert trivial.kf_dot_nf == 0


def _node_record(**fields):
    return SingularityRecord("q", NonDegenerate(EigenvalueClass.rational(-1)), **fields)


# each integer field of a public constructor: a build from one value, a value
# it accepts, and inexact values equal to or near accepted ones, which would
# otherwise leak out (Hirzebruch(1.5) gives canonical degrees (-0.5, -2), a
# saddle-node of multiplicity 2.5 a float chi_p, and epsilon=True serializes
# as ``true``, which the parser refuses)
INTEGER_FIELDS = {
    "hirzebruch_e": (SurfaceModel.hirzebruch, 1, (1.5, 1.0, True)),
    "blowups": (SurfaceModel.p2, 2, (1.5, 2.0, True)),
    "saddle_node_multiplicity": (SaddleNode, 3, (2.5, 3.0)),
    "vanishing_order": (lambda v: _node_record(vanishing_order=v), 1, (1.0, True)),
    "epsilon": (lambda v: _node_record(epsilon=v), 1, (1.0, True, 0.0, False)),
    "count": (lambda v: _node_record(count=v), 2, (2.0, True, 1.0)),
    "fiber_node_a": (lambda v: FiberNode(v, 1, False), 2, (2.0, True)),
    "fiber_node_b": (lambda v: FiberNode(1, v, False), 2, (2.0, True)),
    "p_g": (lambda v: ScenarioMetadata(True, True, p_g=v), 2, (2.0, True, 0.0)),
    # a fiber of genus 2.5 would have the float Euler number 5.0, and p_a or
    # F_red^2 of 0.5 a fractional c1 correction
    "fiber_genus": (lambda v: FiberModel(v, 0, -1, ()), 2, (2.5, 2.0, True)),
    "fiber_pa_reduced": (lambda v: FiberModel(2, v, -1, ()), 0, (0.5, 0.0, False, -1, -3)),
    "fiber_f_red_sq": (lambda v: FiberModel(2, 0, v, ()), -1, (-1.5, -1.0, False)),
    "fiber_alpha": (lambda v: FiberModel(2, 0, -1, (), alpha=v), 0, (0.0, False)),
    "fibration_genus": (lambda v: FibrationModel(v, 0, 0, 0, ()), 2, (2.0, True)),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_public_constructors_refuse_floats_and_bools_in_integer_fields(field):
    build, accepted, refused = INTEGER_FIELDS[field]
    build(accepted)
    for value in refused:
        with pytest.raises(DomainError, match="must be"):
            build(value)


def test_tangency_on_branch_curve():
    checks = _checks_by_name(scenario_from(slope_12_7()))
    tang = checks["tangency.Dbranch"]
    assert (tang.status, tang.detail, tang.residual) == ("pass", "tang = 4", None)
    assert "z-index.Dbranch" not in checks  # Z is defined for invariant curves


def test_tangency_rejects_invariant_curve():
    checks = _checks_by_name(scenario_from(second_noether_ruled(3)))
    assert "tangency.C0" not in checks
    assert checks["z-index.C0"].passed


def test_z_total_examples():
    for scenario, expected in [
        (second_noether_ruled(5), {"C0": "Z = 1", "Finf": "Z = 3"}),
        (third_noether_double_cover(2), {"E1": "Z = 1", "E5": "Z = 2"}),
    ]:
        checks = _checks_by_name(scenario_from(scenario))
        for name, detail in expected.items():
            z = checks[f"z-index.{name}"]
            assert (z.status, z.detail, z.residual) == ("pass", detail, None)


def camacho_sad_check(f, c, cs_assignments):
    """The reference Camacho-Sad rule the sweep is compared against: pass iff
    the assigned indices cover exactly the points on the invariant curve ``c``
    and sum to C^2."""
    assert c.f_invariant
    incident = {s.id for s in f.singularities if c.name in s.incident_curves}
    if set(cs_assignments) != incident:
        missing = sorted(incident - set(cs_assignments))
        extra = sorted(set(cs_assignments) - incident)
        return CheckResult(
            name=f"camacho-sad.{c.name}",
            passed=False,
            detail=f"assignment keys mismatch (missing {missing}, extra {extra})",
        )
    total = sum(cs_assignments.values(), Fraction(0))
    square = intersect(c.cls, c.cls)
    residual = total - square
    return CheckResult(
        name=f"camacho-sad.{c.name}",
        passed=residual == 0,
        detail=f"sum {total} vs C^2 = {square}",
        residual=residual,
    )


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
    s = scenario_from(expand_points(second_noether_ruled(4)))
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


def test_singularity_count_weighs_each_record_by_multiplicity_and_count():
    # a counted record adds m_p once per point it stands for: the counted
    # scenario and the same points listed one by one count 3*4 + 5 + 2
    p2 = SurfaceModel.p2()
    counted = (
        SingularityRecord("a", SaddleNode(3), count=4),
        SingularityRecord("b", NonDegenerate(EigenvalueClass.nonrational()), count=5),
        SingularityRecord("c", SaddleNode(2)),
    )
    listed = tuple(
        dataclasses.replace(s, id=f"{s.id}{k}", count=1)
        for s in counted
        for k in range(1, s.count + 1)
    )
    counts = []
    for sings in (counted, listed):
        f = FoliatedScenario(
            name="counted-records",
            surface=p2,
            k_foliation=p2.divisor([0]),
            curves=(),
            singularities=sings,
            metadata=ScenarioMetadata(True, True),
        )
        counts.append(f.singularity_count)
    assert len(listed) == 10
    assert counts == [19, 19]


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

    # the first and last points of a parsed scenario given one non-reduced
    # kind, which needs no epsilon: those two, in declared order
    parsed = scenario_from(second_noether_ruled(3))
    points = list(parsed.singularities)
    three_halves = NonDegenerate(EigenvalueClass.rational(Fraction(3, 2)))
    for k in (0, -1):
        points[k] = dataclasses.replace(points[k], kind=three_halves)
    s3 = dataclasses.replace(parsed, singularities=points)
    assert parsed.is_reduced and parsed.non_reduced == ()
    assert not s3.is_reduced and s3.non_reduced == (points[0], points[-1])
    assert not _checks_by_name(s3)["structure.epsilon-declarations"].failed


def test_duplicate_names_rejected():
    p2 = SurfaceModel.p2()
    with pytest.raises(ScenarioRefused, match="duplicate curve name 'C'") as err:
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
    assert err.value.where == ("curves", 1)
    with pytest.raises(ScenarioRefused, match="duplicate singularity id 'q'") as err:
        FoliatedScenario(
            name="dup",
            surface=p2,
            k_foliation=p2.divisor([0]),
            curves=(),
            singularities=(_node_record(), _node_record()),
            metadata=ScenarioMetadata(True, True),
        )
    assert err.value.where == ("singularities", 1)


def test_a_point_on_an_undeclared_curve_is_refused():
    # the constructor refuses it, and a parse at the same path
    p2 = SurfaceModel.p2()
    fields = dict(
        name="ghost",
        surface=p2,
        k_foliation=p2.divisor([1]),
        curves=(CurveRecord("C", p2.divisor([1]), True),),
        metadata=ScenarioMetadata(True, True),
    )
    ghost = _node_record(incident_curves=("C", "Ghost"))
    with pytest.raises(ScenarioRefused, match="undeclared curve 'Ghost'") as err:
        FoliatedScenario(singularities=(ghost,), **fields)
    assert err.value.where == ("singularities", 0, "on_curves")
    s = FoliatedScenario(singularities=(_node_record(incident_curves=("C",)),), **fields)
    doc = document_to_dict(ScenarioDocument(s.name, s, None))
    doc["singularities"][0]["on_curves"].append("Ghost")
    with pytest.raises(ParseError) as err:
        parse_document_dict(doc)
    assert err.value.path == "$.singularities[0].on_curves"


def test_tangency_small_formula_check():
    # C = L on P2, so K_F.C + C^2 = K_F.C + 1
    p2 = SurfaceModel.p2()
    for kf, status, detail in [
        (1, "pass", "tang = 2"),
        (-2, "fail", "C: tangency count -1 is negative"),
    ]:
        s = FoliatedScenario(
            name="tang",
            surface=p2,
            k_foliation=p2.divisor([kf]),
            curves=(CurveRecord("C", p2.divisor([1]), False),),
            singularities=(),
            metadata=ScenarioMetadata(True, True),
        )
        tang = _checks_by_name(s)["tangency.C"]
        assert (tang.status, tang.detail, tang.residual) == (status, detail, None)


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


def test_camacho_sad_budget_exhaustion_is_skipped_not_failed(monkeypatch):
    import folsurf.foliation as foliation

    # C^2 = -9 and all 18 branches at -1/2 balance the curve; a sweep that
    # runs out of its work budget first has not shown that no choice does
    monkeypatch.setattr(foliation, "CAMACHO_SAD_WORK_BUDGET", 100)
    check = _camacho_sad(validate(_minus_two_points_on_one_curve(18, 10)))
    assert check.passed is None
    assert check.detail == "skipped (search budget exhausted)"


@pytest.mark.parametrize("count, blowups", [(18, 10), (200, 110)])
def test_camacho_sad_long_balanced_curve_passes_quickly(count, blowups):
    # C^2 = 1 - blowups: 18 branches at -1/2 give -9, and six at -2 with 194
    # at -1/2 give -109; the distinct partial sums number at most count + 1
    s = _minus_two_points_on_one_curve(count, blowups)
    start = time.perf_counter()
    check = _camacho_sad(validate(s))
    assert time.perf_counter() - start < 0.5
    assert check.passed
    assert check.detail == f"sum {1 - blowups} vs C^2 = {1 - blowups}"
    assert check.residual == 0


def test_camacho_sad_finished_search_without_solution_fails():
    # C^2 = -3 is none of the sums -4, -5/2, -1 of two branches in {-2, -1/2}
    check = _camacho_sad(validate(_minus_two_points_on_one_curve(2, 4)))
    assert check.failed
    assert check.detail == "no branch assignment balances the curve"


def test_camacho_sad_verdict_does_not_depend_on_shared_kind_objects():
    # ten points of eigenvalue -2 on C, each read through its own record:
    # p0..p4 sharing one kind object and p5..p9 another, or one object for
    # all ten, give the verdict of a fresh kind per point.  The branch sums
    # are -5 - 3k/2 for k = 0..10: C^2 = -6 (7 blowups) is none of them and
    # C^2 = -8 (9 blowups) is k = 2
    for blowups, passed in ((7, False), (9, True)):
        s = _minus_two_points_on_one_curve(10, blowups)
        fresh = _camacho_sad(validate(s))
        assert fresh.passed is passed
        first, second = (NonDegenerate(EigenvalueClass.rational(-2)) for _ in range(2))
        for kinds in ((first,) * 5 + (second,) * 5, (first,) * 10):
            shared = tuple(
                dataclasses.replace(p, kind=k) for p, k in zip(s.singularities, kinds)
            )
            check = _camacho_sad(validate(dataclasses.replace(s, singularities=shared)))
            assert check == fresh


def _point(sid, lam, *curves):
    return SingularityRecord(
        sid, NonDegenerate(EigenvalueClass.rational(lam)), incident_curves=curves
    )


def _camacho_sad_scenario(surface, curves, singularities, k_foliation=None):
    return FoliatedScenario(
        name="camacho-sad",
        surface=surface,
        k_foliation=k_foliation or surface.divisor([0] * surface.rank),
        curves=tuple(curves),
        singularities=tuple(singularities),
        metadata=ScenarioMetadata(True, True),
    )


def _camacho_sad_checks(scenario):
    return {c.name: c for c in validate(scenario).checks if c.name.startswith("camacho-sad.")}


@pytest.mark.parametrize("lam_q, e2_status", [(-3, "fail"), (-1, "pass")])
def test_camacho_sad_verdict_is_per_connected_component(lam_q, e2_status):
    # E1 and E2 share no singularity: E1 balances with p alone, whatever q does
    p2 = SurfaceModel.p2(2)
    s = _camacho_sad_scenario(
        p2,
        [CurveRecord("E1", p2.divisor([0, 1, 0]), True),
         CurveRecord("E2", p2.divisor([0, 0, 1]), True)],
        [_point("p", -1, "E1"), _point("q", lam_q, "E2")],
    )
    checks = _camacho_sad_checks(s)
    assert checks["camacho-sad.E1"].status == "pass"
    assert checks["camacho-sad.E2"].status == e2_status


def test_camacho_sad_components_share_one_budget(monkeypatch):
    import folsurf.foliation as foliation

    # A balances before the 18-point curve C spends the budget; D, swept
    # after C, gets no work left and is skipped too
    monkeypatch.setattr(foliation, "CAMACHO_SAD_WORK_BUDGET", 100)
    base = _minus_two_points_on_one_curve(18, 10)
    surface = base.surface
    e1 = surface.divisor([0, 1] + [0] * 9)
    s = _camacho_sad_scenario(
        surface,
        [CurveRecord("A", e1, True), *base.curves, CurveRecord("D", e1, True)],
        [_point("a", -1, "A"), *base.singularities, _point("d", -1, "D")],
    )
    checks = _camacho_sad_checks(s)
    assert checks["camacho-sad.A"].status == "pass"
    for name in ("C", "D"):
        assert checks[f"camacho-sad.{name}"].detail == "skipped (search budget exhausted)"


def test_camacho_sad_counts_a_repeated_curve_once():
    # p lies on C twice and on D once; like singularities_on, Camacho-Sad
    # counts it once on C, so each curve balances with the index -1
    p2 = SurfaceModel.p2(2)
    curves = [CurveRecord("C", p2.divisor([0, 1, 0]), True),
              CurveRecord("D", p2.divisor([0, 0, 1]), True)]
    for on in (("C", "D"), ("C", "C", "D")):
        checks = _camacho_sad_checks(_camacho_sad_scenario(p2, curves, [_point("p", -1, *on)]))
        assert [c.status for c in checks.values()] == ["pass", "pass"]


def _second_noether_with_one_nonrational_point_on_finf(*on_curves):
    """second_noether_ruled(3) with expect dropped and p3 given the rational
    eigenvalue -1: Finf keeps one non-rational point, p2, on ``on_curves``."""
    doc = second_noether_ruled(3)
    del doc["expect"]
    for point in doc["singularities"]:
        if point["id"] == "p3":
            point["kind"] = {"eigenvalue": "-1"}
        elif point["id"] == "p2":
            point["on_curves"] = list(on_curves)
    return parse_scenario(doc)


def test_camacho_sad_fails_a_curve_with_one_nonrational_index():
    # Finf's sum is -3 + (-1 or -1) + (lam or 1/lam) with lam irrational: it
    # cannot meet the rational Finf^2 = 0
    doc = _second_noether_with_one_nonrational_point_on_finf("Finf")
    checks = _camacho_sad_checks(doc.scenario)
    assert checks["camacho-sad.C0"].status == "pass"
    finf = checks["camacho-sad.Finf"]
    assert finf.status == "fail"
    assert finf.detail == "the non-rational index at 'p2' cannot balance C^2"
    assert not run_pipeline(doc).ok


def test_camacho_sad_skips_a_nonrational_point_meeting_the_curve_twice():
    # two branches of Finf at p2 give lam + 1/lam, which may be rational
    doc = _second_noether_with_one_nonrational_point_on_finf("Finf", "Finf")
    finf = _camacho_sad_checks(doc.scenario)["camacho-sad.Finf"]
    assert finf.status == "skip"


@pytest.mark.parametrize("extra", ["nonrational", "saddle-node"])
def test_camacho_sad_skips_a_curve_with_a_second_open_point(extra):
    # a second non-rational point, or a saddle-node, may balance the first
    p2 = SurfaceModel.p2(1)
    c = CurveRecord("C", p2.divisor([0, 1]), True)
    kind = (
        SaddleNode(multiplicity=2, bb_index=Fraction(3)) if extra == "saddle-node"
        else NonDegenerate(EigenvalueClass.nonrational())
    )
    points = [
        SingularityRecord("a", NonDegenerate(EigenvalueClass.nonrational()), incident_curves=("C",)),
        SingularityRecord("b", kind, incident_curves=("C",)),
        _point("r", -1, "C"),
    ]
    checks = _camacho_sad_checks(_camacho_sad_scenario(p2, [c], points))
    assert checks["camacho-sad.C"].status == "skip"


@pytest.mark.parametrize(
    "doc",
    [
        *(third_noether_double_cover(g) for g in (2, 16, 40)),
        *(raw for name, raw in load_bundled_files() if name.startswith("third_noether_g")),
    ],
    ids=["g2", "g16", "g40", "bundled-g2", "bundled-g3"],
)
def test_camacho_sad_decides_the_double_cover_family_with_no_budget(doc, monkeypatch):
    # the family's invariant curves form a tree of crossings: every branch is
    # forced, and the sweep, the only part that spends budget, has no point
    import folsurf.foliation as foliation

    monkeypatch.setattr(foliation, "CAMACHO_SAD_WORK_BUDGET", 0)
    s = parse_scenario(doc).scenario
    checks = _camacho_sad_checks(s)
    assert len(checks) == sum(c.f_invariant for c in s.curves) > 0
    assert all(c.status == "pass" for c in checks.values())


def _hub_scenario(spokes):
    """A hub curve H met by ``spokes`` curves C_i, each through u_i on H and
    C_i and through v_i on C_i alone; H is declared, and so swept, first."""
    surface = SurfaceModel.p2(spokes)
    curves = [CurveRecord("H", surface.basis_divisor(0), True)]
    curves += [CurveRecord(f"C{i}", surface.basis_divisor(i + 1), True) for i in range(spokes)]
    points = [_point(f"u{i}", -2, "H", f"C{i}") for i in range(spokes)]
    points += [_point(f"v{i}", -2, f"C{i}") for i in range(spokes)]
    return _camacho_sad_scenario(surface, curves, points)


def _many_points_scenario(count):
    p2 = SurfaceModel.p2()
    points = [_point(f"p{k}", -2, "C") for k in range(count)]
    return _camacho_sad_scenario(p2, [CurveRecord("C", p2.divisor([1]), True)], points)


@pytest.mark.parametrize(
    "build",
    [lambda: _many_points_scenario(10_000), lambda: _hub_scenario(5_000)],
    ids=["10000-points-on-one-curve", "hub-with-5000-spokes"],
)
def test_camacho_sad_hostile_shapes_get_a_verdict_in_bounded_time(build):
    s = build()
    start = time.perf_counter()
    checks = _camacho_sad_checks(s)
    assert time.perf_counter() - start < 1.0
    assert len(checks) == len(s.curves)
    assert all(c.status in ("skip", "fail") for c in checks.values())


def _primes(count):
    """The first ``count`` primes, by a sieve."""
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for k in range(2, int(limit**0.5) + 1):
            if sieve[k]:
                sieve[k * k :: k] = bytes(len(range(k * k, limit, k)))
        primes = [k for k in range(limit) if sieve[k]]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def test_camacho_sad_scales_each_component_by_its_own_denominators():
    # 10 000 one-curve components E_i, each with one point of eigenvalue
    # -1/p_i for a distinct prime p_i: one scale for all would be the product
    # of the primes, a 10^4-digit integer in every sum
    count = 10_000
    surface = SurfaceModel.p2(count)
    curves = [CurveRecord(f"E{i}", surface.basis_divisor(i + 1), True) for i in range(count)]
    points = [_point(f"p{i}", Fraction(-1, p), f"E{i}") for i, p in enumerate(_primes(count))]
    s = _camacho_sad_scenario(surface, curves, points)
    start = time.perf_counter()
    checks = _camacho_sad_checks(s)
    assert time.perf_counter() - start < 1.0
    # E_i^2 = -1 is neither -p_i nor -1/p_i
    assert len(checks) == count
    assert all(c.detail == "no branch assignment balances the curve" for c in checks.values())


LAMBDAS = [-1, -2, Fraction(-1, 2), -3, Fraction(-2, 3), Fraction(-3, 2), -4,
           Fraction(-5, 2), Fraction(1, 3), 2, 5]


def _balancing_assignments(scenario):
    """Each component of the invariant curves, linked by shared points, with
    one balancing assignment {curve: {point: index}} or None, found by trying
    every branch choice in turn."""
    invariant = [c for c in scenario.curves if c.f_invariant]
    names = {c.name for c in invariant}
    on = {s.id: sorted(set(s.incident_curves) & names) for s in scenario.singularities}
    parent = {n: n for n in names}

    def root(n):
        while parent[n] != n:
            n = parent[n]
        return n

    for curves in on.values():
        for a, b in zip(curves, curves[1:]):
            parent[root(a)] = root(b)
    for top in sorted({root(n) for n in names}):
        component = [c for c in invariant if root(c.name) == top]
        members = {c.name for c in component}
        points = [s for s in scenario.singularities if set(on[s.id]) & members]
        options = []
        for s in points:
            lam = s.eigenvalue.value
            if len(on[s.id]) == 1:
                options.append([{on[s.id][0]: lam}, {on[s.id][0]: 1 / lam}])
            elif len(on[s.id]) == 2:
                a, b = on[s.id]
                options.append([{a: lam, b: 1 / lam}, {a: 1 / lam, b: lam}])
            else:
                options.append([])
        found = None
        for picks in itertools.product(*options):
            sums = {c.name: Fraction(0) for c in component}
            for s, pick in zip(points, picks):
                for name, value in pick.items():
                    sums[name] += value
            if all(sums[c.name] == intersect(c.cls, c.cls) for c in component):
                found = {c.name: {} for c in component}
                for s, pick in zip(points, picks):
                    for name, value in pick.items():
                        found[name][s.id] = value
                break
        yield component, found


def _palette_scenario(k_foliation, scale):
    """A builder of 1-5 curves with squares from a palette, 90% of them
    invariant, and 0-9 points on 1-3 random curves each; K_F is
    ``k_foliation``, which puts the squares over the table's ``scale**2``."""

    def build(rng):
        surface = SurfaceModel.p2(3)
        palette = [
            surface.divisor([0, 1, 0, 0]),  # -1
            surface.divisor([1, -1, 0, 0]),  # 0
            surface.divisor([1, 0, 0, 0]),  # 1
            surface.divisor([0, 1, -1, 0]),  # -2
            surface.divisor([1, -1, -1, -1]),  # -2
            surface.divisor([0, 1, -1, -1]),  # -3
        ]
        curves = [
            CurveRecord(f"C{k}", rng.choice(palette), rng.random() < 0.9)
            for k in range(rng.randint(1, 5))
        ]
        points = [
            _point(f"p{k}", rng.choice(LAMBDAS),
                   *rng.sample([c.name for c in curves], min(len(curves), rng.randint(1, 3))))
            for k in range(rng.randint(0, 9))
        ]
        s = _camacho_sad_scenario(surface, curves, points, surface.divisor(k_foliation))
        assert s.pairings.scale == scale
        return s

    return build


def _class_with_square(surface, square):
    """A class a H + b E1 on P2(1) with a^2 - b^2 = ``square``: a - b = 1 and
    a + b = ``square``."""
    return surface.divisor([(square + 1) / 2, (square - 1) / 2])


def _planted_tree(variant):
    """A builder of a random tree of 6-10 curves crossing at one point per
    edge, with the points of ``variant``: "extra" adds one-curve points,
    "cycle" one more crossing that closes a cycle, "unit" draws eigenvalues
    +-1 often.  Each curve's square is its sum under one random branch
    choice, so that choice balances; in half the cases one square is moved
    off by 1, which most often leaves no balancing choice."""

    def build(rng):
        surface = SurfaceModel.p2(1)
        count = rng.randint(6, 10)
        names = [f"C{k}" for k in range(count)]
        on = [(names[rng.randrange(k)], names[k]) for k in range(1, count)]
        if variant == "extra":
            on += [(rng.choice(names),) for _ in range(rng.randint(1, 2))]
        elif variant == "cycle":
            on.append(tuple(rng.sample(names, 2)))
        rng.shuffle(on)
        lambdas = LAMBDAS + [1, -1] * 4 if variant == "unit" else LAMBDAS
        points, sums = [], dict.fromkeys(names, Fraction(0))
        for k, curves in enumerate(on):
            lam = Fraction(rng.choice(lambdas))
            points.append(_point(f"p{k}", lam, *curves))
            values = (lam, 1 / lam) if rng.random() < 0.5 else (1 / lam, lam)
            for name, value in zip(curves, values):
                sums[name] += value
        if rng.random() < 0.5:
            sums[rng.choice(names)] += 1
        curves = [CurveRecord(n, _class_with_square(surface, sums[n]), True) for n in names]
        return _camacho_sad_scenario(surface, curves, points)

    return build


@pytest.mark.parametrize(
    "build, cases, budget",
    [
        (_palette_scenario([0, 0, 0, 0], 1), 400, None),
        (_palette_scenario([Fraction(1, 2), 0, 0, 0], 2), 400, None),
        (_palette_scenario([0, Fraction(1, 3), 0, Fraction(-2, 3)], 3), 400, None),
        (_planted_tree("tree"), 60, 0),
        (_planted_tree("extra"), 60, None),
        (_planted_tree("cycle"), 60, None),
        (_planted_tree("unit"), 60, 0),
    ],
    ids=["kf-zero", "kf-halves", "kf-thirds", "tree", "tree-extra", "tree-cycle", "tree-unit"],
)
def test_camacho_sad_agrees_with_exhaustive_enumeration(build, cases, budget, monkeypatch):
    # LAMBDAS holds positive eigenvalues as well as negative ones.  On a tree
    # of crossings every branch is forced, so a tree is decided with no
    # budget at all; an extra point on one curve, or a crossing that closes a
    # cycle, leaves points to the sweep
    import folsurf.foliation as foliation

    if budget is not None:
        monkeypatch.setattr(foliation, "CAMACHO_SAD_WORK_BUDGET", budget)
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(cases):
        s = build(rng)
        checks = _camacho_sad_checks(s)
        assert len(checks) == sum(c.f_invariant for c in s.curves)
        for component, found in _balancing_assignments(s):
            for c in component:
                assert checks[f"camacho-sad.{c.name}"].passed is (found is not None)
                if found is not None:
                    assert camacho_sad_check(s, c, found[c.name]).passed
            verdicts.add(found is not None)
    assert verdicts == {True, False}


def _random_sub_scenario(rng, surface, prefix):
    """A few invariant curves with random squares, and singularities of random
    eigenvalue on one or two of them, all named with ``prefix``."""
    rank = surface.rank
    palette = [
        surface.divisor([0, 1] + [0] * (rank - 2)),  # -1
        surface.divisor([1, -1] + [0] * (rank - 2)),  # 0
        surface.divisor([1] + [0] * (rank - 1)),  # 1
        surface.divisor([0, 1, -1] + [0] * (rank - 3)),  # -2
    ]
    curves = [
        CurveRecord(f"{prefix}{k}", rng.choice(palette), True) for k in range(rng.randint(1, 3))
    ]
    eigenvalues = [-1, -2, Fraction(-1, 2), -3, Fraction(-2, 3), 2]
    singularities = []
    for k in range(rng.randint(0, 4)):
        on = rng.sample([c.name for c in curves], min(len(curves), rng.randint(1, 2)))
        singularities.append(_point(f"{prefix}p{k}", rng.choice(eigenvalues), *on))
    return curves, singularities


def test_camacho_sad_status_of_disjoint_parts_is_their_status_alone():
    rng = random.Random(20261018)
    surface = SurfaceModel.p2(3)
    statuses = set()
    for _ in range(200):
        a_curves, a_sings = _random_sub_scenario(rng, surface, "A")
        b_curves, b_sings = _random_sub_scenario(rng, surface, "B")
        together = _camacho_sad_checks(
            _camacho_sad_scenario(surface, a_curves + b_curves, a_sings + b_sings)
        )
        alone = {
            **_camacho_sad_checks(_camacho_sad_scenario(surface, a_curves, a_sings)),
            **_camacho_sad_checks(_camacho_sad_scenario(surface, b_curves, b_sings)),
        }
        assert together == alone
        statuses.update(c.status for c in alone.values())
    assert statuses == {"pass", "fail"}


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
    with pytest.raises(DomainError):
        s.curve("E")


def test_details_of_non_integral_curves_print_exact_quotients():
    # C = D = L/2 on P2(1) with K_F = L: C^2 = 1/4, K_S.C = -3/2, K_F.C = 1/2;
    # D balances with the branch 1/4 of its one point of eigenvalue 4
    p2 = SurfaceModel.p2(1)
    half = p2.divisor([Fraction(1, 2), 0])
    point = SingularityRecord(
        "q", NonDegenerate(EigenvalueClass.rational(4)), incident_curves=("D",), epsilon=0
    )
    s = FoliatedScenario(
        name="halves",
        surface=p2,
        k_foliation=p2.divisor([1, 0]),
        curves=(CurveRecord("C", half, False), CurveRecord("D", half, True)),
        singularities=(point,),
        metadata=ScenarioMetadata(True, True),
    )
    checks = _checks_by_name(s)
    assert checks["structure.adjunction"].detail == "C: p_a = 3/8; D: p_a = 3/8"
    assert checks["tangency.C"].detail == "C: tangency count 3/4 is not an integer"
    assert checks["count.singularities"].detail == "declared 1 vs c2(S) + N.K = 8"
    assert checks["count.singularities"].residual == Fraction(-7)
    cs = checks["camacho-sad.D"]
    assert (cs.status, cs.detail, cs.residual) == ("pass", "sum 1/4 vs C^2 = 1/4", 0)
    assert type(cs.residual) is Fraction


def test_details_under_a_fractional_foliation_canonical_class():
    # K_F = (5/2) E1: Z(E1) = K_F.E1 - K_S.E1 - E1^2 = -5/2 + 1 + 1
    p2 = SurfaceModel.p2(1)
    s = FoliatedScenario(
        name="fractional-kf",
        surface=p2,
        k_foliation=p2.divisor([0, Fraction(5, 2)]),
        curves=(CurveRecord("E1", p2.divisor([0, 1]), True, arithmetic_genus_hint=1),),
        singularities=(),
        metadata=ScenarioMetadata(True, True),
    )
    checks = _checks_by_name(s)
    z = checks["z-index.E1"]
    assert (z.status, z.detail, z.residual) == ("fail", "Z = -1/2", Fraction(-1, 2))
    assert type(z.residual) is Fraction
    assert checks["structure.adjunction"].detail == "E1: p_a = 0 but hint says 1"
    count = checks["count.singularities"]
    assert (count.detail, count.residual) == ("declared 0 vs c2(S) + N.K = 1/4", Fraction(-1, 4))


def test_validation_pairs_the_curves_through_one_table(monkeypatch):
    calls = count_calls(monkeypatch, ["intersect", "canonical_class", "pairing_table"])
    s = scenario_from(third_noether_double_cover(16))
    assert len(s.curves) == 69
    assert validate(s).passed
    # one table for all 69 curves and K_F; the singularity count reads K_F.N_F
    # from it, and K_S enters it by degree, not as a class
    assert calls == {"intersect": 0, "canonical_class": 0, "pairing_table": 1}


def test_distinct_curves_meeting_negatively_fail_the_curve_meets_check():
    # C = E1 - E2 and E = E1 on P2(2) meet in E1^2 = -1, which two distinct
    # irreducible curves cannot; every other structural check passes
    p2 = SurfaceModel.p2(2)
    s = FoliatedScenario(
        name="negative-meet",
        surface=p2,
        k_foliation=p2.divisor([1, 0, 0]),
        curves=(
            CurveRecord("C", p2.divisor([0, 1, -1]), True),
            CurveRecord("E", p2.divisor([0, 1, 0]), True),
        ),
        singularities=(),
        metadata=ScenarioMetadata(True, True),
    )
    checks = _checks_by_name(s)
    meets = checks["structure.curve-meets"]
    assert (meets.status, meets.detail) == ("fail", "C.E = -1")
    others = [c for name, c in checks.items() if name.startswith("structure.") and c is not meets]
    assert len(others) == 4 and all(c.passed for c in others)
    assert not validate(s).passed
