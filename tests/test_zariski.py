import random
from fractions import Fraction
from math import gcd

import pytest

from folsurf.errors import DomainError, InconsistentScenario
from folsurf.fixtures import first_noether_ruled, second_noether_ruled, third_noether_double_cover
from folsurf.foliation import CurveRecord
from folsurf.local_invariants import beta
from folsurf.scenario_io import parse_document_dict
from folsurf.surface import SurfaceModel, intersect
from folsurf.zariski import (
    FChain,
    chain_coefficients,
    chain_eigenvalues,
    chain_mu_sequence,
    chain_negative_square,
    chain_xi_sequence,
    coefficient_bounds_check,
    decompose_against_curves,
    detect_chains_with_flags,
    volume,
    zariski_decompose,
)


def scenario_from(doc):
    return parse_document_dict(doc).scenario


@pytest.mark.parametrize(
    "e,expected",
    [
        ([4], (4, 1, [Fraction(1, 4)])),
        ([2, 2], (3, 2, [Fraction(2, 3), Fraction(1, 3)])),
        ([2], (2, 1, [Fraction(1, 2)])),
    ],
)
def test_chain_coefficients(e, expected):
    assert chain_coefficients(e) == expected


def test_chain_coefficients_rejects_small_e():
    with pytest.raises(DomainError):
        chain_coefficients([2, 1])


@pytest.mark.parametrize(
    "e,expected",
    [([5], Fraction(-1, 5)), ([2, 2], Fraction(-2, 3)), ([2], Fraction(-1, 2))],
)
def test_chain_negative_square(e, expected):
    assert chain_negative_square(e) == expected


def test_chain_eigenvalues_examples():
    assert [ev.value for ev in chain_eigenvalues([2])] == [Fraction(-2)]
    assert [ev.value for ev in chain_eigenvalues([2, 2])] == [
        Fraction(-2),
        Fraction(-3, 2),
    ]
    assert [ev.value for ev in chain_eigenvalues([3])] == [Fraction(-3)]
    assert sum(beta(ev.negated()) for ev in chain_eigenvalues([2, 2])) == Fraction(2, 3)


def test_chain_beta_sum_matches_negative_square():
    for e in ([2], [3], [2, 2], [5, 2, 3], [2, 3, 4, 5]):
        total = sum(beta(ev.negated()) for ev in chain_eigenvalues(e))
        assert total == -chain_negative_square(e)


@pytest.mark.parametrize("e", [[2], [3, 2], [7, 2, 2], [2, 5, 3]])
def test_coefficient_bounds(e):
    chain = FChain(tuple(f"C{i}" for i in range(len(e))), tuple(e))
    assert coefficient_bounds_check(chain).passed


def test_detect_chains_second_noether_ruled():
    s = scenario_from(second_noether_ruled(6))
    chains = detect_chains_with_flags(s)[0]
    assert chains == [FChain(("C0",), (6,))]


def test_detect_chains_third_noether_double_cover():
    g = 2
    s = scenario_from(third_noether_double_cover(g))
    chains = detect_chains_with_flags(s)[0]
    by_head = {ch.curves[0]: ch for ch in chains}
    assert set(by_head) == {"E1", "Gamma0", "E12"}
    long = by_head["E1"]
    assert long.curves == tuple(f"E{i}" for i in range(1, 4 * g + 2))
    assert long.self_intersections == (2,) * (4 * g + 1)
    assert by_head["Gamma0"].curves == ("Gamma0", "E11")
    assert by_head["Gamma0"].self_intersections == (g + 1, 2)
    assert by_head["E12"] == FChain(("E12",), (2,))


def test_detect_chains_empty_for_nef():
    s = scenario_from(first_noether_ruled(4))
    assert detect_chains_with_flags(s)[0] == []


def test_zariski_second_noether_ruled():
    s = scenario_from(second_noether_ruled(5))
    dec = zariski_decompose(s)
    assert dec.negative_part == (("C0", Fraction(1, 5)),)
    # P = (n-1)F + ((n-1)/n) C0
    assert dec.nef_part.coefficients == (Fraction(4, 5), Fraction(4))
    assert volume(s) == Fraction(5) - 2 + Fraction(1, 5)


def test_zariski_nef_case():
    s = scenario_from(first_noether_ruled(3))
    dec = zariski_decompose(s)
    assert dec.negative_part == ()
    assert dec.nef_part.coefficients == s.k_foliation.coefficients
    assert volume(s) == 3


def test_zariski_requires_pseudo_effective():
    doc = second_noether_ruled(3)
    doc["metadata"]["k_pseudo_effective"] = False
    del doc["expect"]
    s = scenario_from(doc)
    with pytest.raises(DomainError):
        zariski_decompose(s)


def test_zariski_third_noether_double_cover_matches_display():
    for g in (2, 3):
        s = scenario_from(third_noether_double_cover(g))
        dec = zariski_decompose(s)
        coeffs = dict(dec.negative_part)
        n = 4 * g + 2
        for i in range(1, 4 * g + 2):
            assert coeffs[f"E{i}"] == Fraction(n - i, n)
        assert coeffs["Gamma0"] == Fraction(2, 2 * g + 1)
        assert coeffs[f"E{4 * g + 3}"] == Fraction(1, 2 * g + 1)
        assert coeffs[f"E{4 * g + 4}"] == Fraction(1, 2)
        assert f"E{4 * g + 2}" not in coeffs
        assert volume(s) == Fraction(2 * g * (g - 1), 2 * g + 1)
        # orthogonality and support contract
        for name, _ in dec.negative_part:
            assert intersect(dec.nef_part, s.curve(name).cls) == 0
        for c in s.curves:
            assert intersect(dec.nef_part, c.cls) >= 0


def test_general_solver_matches_closed_form(chain_scenario):
    rng = random.Random(97)
    for _ in range(300):
        r = rng.randint(1, 8)
        e = [rng.randint(2, 7) for _ in range(r)]
        s = chain_scenario(e)
        dec = zariski_decompose(s)
        n, q, b = chain_coefficients(e)
        assert dec.negative_part == tuple(
            (f"C{j + 1}", b[j]) for j in range(r)
        )
        assert detect_chains_with_flags(s)[0] == [
            FChain(tuple(f"C{j + 1}" for j in range(r)), tuple(e))
        ]


def test_big_divisor_decomposition_outside_canonical_setting():
    # L = m F + C0 on a ruled surface with 0 < m < e decomposes as
    # (m F + (m/e) C0) + ((e-m)/e) C0; its volume is m^2 / e
    e, m = 7, 3
    surface = SurfaceModel.hirzebruch(e)
    ell = surface.divisor([1, m])
    c0 = CurveRecord("C0", surface.divisor([1, 0]), True)
    dec = decompose_against_curves(ell, [c0])
    assert dec.negative_part == (("C0", Fraction(e - m, e)),)
    assert intersect(dec.nef_part, dec.nef_part) == Fraction(m * m, e)


def test_solver_rejects_non_negative_definite_support():
    surface = SurfaceModel.hirzebruch(0)
    bad = CurveRecord("B", surface.divisor([0, 1]), True)  # square 0
    d = surface.divisor([-1, 0])  # meets B negatively
    with pytest.raises(InconsistentScenario):
        decompose_against_curves(d, [bad])


def test_xi_decreasing_and_mu_coprime():
    for e in ([2], [2, 2, 2], [4, 3], [7, 2, 2, 6]):
        xi = chain_xi_sequence(e)
        assert all(xi[j] > xi[j + 1] for j in range(len(e) + 1))
        mu = chain_mu_sequence(e)
        assert all(gcd(mu[k], mu[k + 1]) == 1 for k in range(len(mu) - 1))


def test_relatively_minimal_rejects_integral_negative_part():
    # a (-2)-curve met with degree -2 would need coefficient 1, which the
    # structure of a relatively minimal decomposition forbids
    from folsurf.foliation import FoliatedScenario, ScenarioMetadata

    surface = SurfaceModel.hirzebruch(2)
    scenario = FoliatedScenario(
        name="too-negative",
        surface=surface,
        k_foliation=surface.divisor([1, 0]),
        curves=(CurveRecord("C0", surface.divisor([1, 0]), True),),
        singularities=(),
        metadata=ScenarioMetadata(
            k_pseudo_effective=True, relatively_minimal=True
        ),
    )
    with pytest.raises(InconsistentScenario):
        zariski_decompose(scenario)


def test_ambiguous_orientation_is_flagged():
    from folsurf.foliation import FoliatedScenario, ScenarioMetadata
    from folsurf.zariski import detect_chains_with_flags

    # two (-2)-curves meeting once, both with K_F degree -1: no valid head
    surface = SurfaceModel.p2(3)
    c1 = CurveRecord("A", surface.divisor([0, 1, -1, 0]), True)
    c2 = CurveRecord("B", surface.divisor([0, 0, 1, -1]), True)
    k_f = surface.divisor([0, 1, 0, -1])
    assert intersect(k_f, c1.cls) == -1
    assert intersect(k_f, c2.cls) == -1
    scenario = FoliatedScenario(
        name="symmetric",
        surface=surface,
        k_foliation=k_f,
        curves=(c1, c2),
        singularities=(),
        metadata=ScenarioMetadata(
            k_pseudo_effective=True, relatively_minimal=False
        ),
    )
    chains, flags = detect_chains_with_flags(scenario)
    assert chains == []
    assert flags and "ambiguous orientation" in flags[0]
