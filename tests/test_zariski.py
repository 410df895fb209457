import random
from fractions import Fraction
from math import gcd

import pytest

from folsurf.errors import DomainError, InconsistentScenario, ShapeError
from folsurf.fixtures import (
    bundled_documents,
    first_noether_ruled,
    second_noether_ruled,
    third_noether_double_cover,
)
from folsurf.foliation import CurveRecord
from folsurf.local_invariants import beta
from folsurf.scenario_io import parse_document_dict
from folsurf.surface import SurfaceModel, intersect
from folsurf.zariski import (
    FChain,
    ZariskiDecomposition,
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


def _assert_double_cover_closed_forms(g):
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
    return s, dec


def test_zariski_third_noether_double_cover_matches_display():
    for g in (2, 3):
        _assert_double_cover_closed_forms(g)


@pytest.mark.parametrize("g", [10, 16, 40])
def test_zariski_third_noether_double_cover_long_chains(g):
    s, dec = _assert_double_cover_closed_forms(g)
    assert len(dec.negative_part) == 4 * g + 4
    chains, flags = detect_chains_with_flags(s)
    assert flags == []
    assert chains == [
        FChain(tuple(f"E{i}" for i in range(1, 4 * g + 2)), (2,) * (4 * g + 1)),
        FChain((f"E{4 * g + 4}",), (2,)),
        FChain(("Gamma0", f"E{4 * g + 3}"), (g + 1, 2)),
    ]


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


def test_decomposition_refuses_curves_on_another_surface():
    d = SurfaceModel.p2(2).divisor([1, 1, 0])
    curve = CurveRecord("C", SurfaceModel.hirzebruch(1, 1).divisor([0, 0, 1]), True)
    with pytest.raises(ShapeError, match="divisor classes live on different surfaces"):
        decompose_against_curves(d, [curve])


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


# Chains found on each bundled document by the detection that paired every
# two candidate curves with ``intersect``.
BUNDLED_CHAINS = {
    "slope_12_7": [],
    "degree2_p2": [],
    "first_noether_n1": [],
    "first_noether_n3": [],
    "first_noether_n7": [],
    "second_noether_n2": [(("C0",), (2,))],
    "second_noether_n4": [(("C0",), (4,))],
    "second_noether_n5": [(("C0",), (5,))],
    "third_noether_g2": [
        (tuple(f"E{i}" for i in range(1, 10)), (2,) * 9),
        (("E12",), (2,)),
        (("Gamma0", "E11"), (3, 2)),
    ],
    "third_noether_g3": [
        (tuple(f"E{i}" for i in range(1, 14)), (2,) * 13),
        (("E16",), (2,)),
        (("Gamma0", "E15"), (4, 2)),
    ],
    "elliptic_pencil": [],
    "isotrivial_vector_field": [],
    "semistable_genus2": [],
}


def test_detect_chains_on_every_bundled_document():
    with_surface = {}
    for stem, doc in bundled_documents().items():
        s = scenario_from(doc)
        if s is not None:
            with_surface[stem] = detect_chains_with_flags(s)
    assert sorted(with_surface) == sorted(BUNDLED_CHAINS)
    for stem, (chains, flags) in with_surface.items():
        assert flags == [], stem
        assert [(ch.curves, ch.self_intersections) for ch in chains] == BUNDLED_CHAINS[stem], stem


NOT_NEGATIVE_DEFINITE = "support intersection matrix is not negative definite"
NEGATIVE_COEFFICIENT = (
    "negative part received a negative coefficient; the declared data "
    "does not describe a pseudo-effective decomposition"
)


def _sympy_decompose(d, curves):
    """The add-violators iteration over QQ with sympy: every support is
    re-solved from scratch and certified negative definite by its leading
    principal minors."""
    import sympy

    def q(x):
        return sympy.Rational(x.numerator, x.denominator)

    m = len(curves)
    gram = [[q(intersect(a.cls, b.cls)) for b in curves] for a in curves]
    dvals = [q(intersect(d, c.cls)) for c in curves]
    support, x = [], []
    while True:
        violators = [
            i
            for i in range(m)
            if i not in support
            and dvals[i] - sum(xk * gram[k][i] for k, xk in zip(support, x)) < 0
        ]
        if not violators:
            break
        support += violators
        g = sympy.Matrix([[gram[i][j] for j in support] for i in support])
        for k in range(1, len(support) + 1):
            minor = g[:k, :k].det()
            if minor == 0 or (minor < 0) != (k % 2 == 1):
                raise InconsistentScenario(NOT_NEGATIVE_DEFINITE)
        x = list(g.LUsolve(sympy.Matrix([dvals[i] for i in support])))
    if any(v < 0 for v in x):
        raise InconsistentScenario(NEGATIVE_COEFFICIENT)
    coefficient = {i: Fraction(int(v.p), int(v.q)) for i, v in zip(support, x)}
    negative = tuple(
        (curves[i].name, coefficient[i]) for i in sorted(coefficient) if coefficient[i]
    )
    nef = d
    for i, b in coefficient.items():
        nef = nef - curves[i].cls.scale(b)
    return negative, nef.coefficients


def _random_class(rng, surface, pool):
    """A sparse class: a few exceptional entries from ``pool`` (so curves
    share indices and close cycles), sometimes a base entry."""
    coeffs = [0] * surface.rank
    head, *tail = rng.sample(pool, rng.randint(1, 3))
    coeffs[head] = rng.choice([1, 1, 2])
    for idx in tail:
        coeffs[idx] = rng.choice([-1, -1, -2])
    if rng.random() < 0.3:
        coeffs[rng.randrange(surface.base_rank)] = rng.choice([-1, 1, 2])
    return coeffs


def _random_case(rng):
    n = rng.randint(3, 8)
    if rng.random() < 0.5:
        surface = SurfaceModel.p2(n)
    else:
        surface = SurfaceModel.hirzebruch(rng.randint(0, 4), n)
    pool = list(range(surface.base_rank, surface.rank))
    rational = rng.random() < 0.4
    curves = []
    for k in range(rng.randint(1, 7)):
        coeffs = _random_class(rng, surface, pool)
        if rational and rng.random() < 0.5:
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            coeffs = [scale * c for c in coeffs]
        curves.append(CurveRecord(f"C{k}", surface.divisor(coeffs), True))
    # an effective-looking class: a base part plus positive multiples of
    # some curves, so the iteration usually has violators to collect
    d = surface.divisor([rng.randint(0, 3)] + [0] * (surface.rank - 1))
    for c in curves:
        if rng.random() < 0.7:
            b = Fraction(rng.randint(1, 6), rng.choice([1, 1, 2, 3, 7]) if rational else 1)
            d = d + c.cls.scale(b)
    return d, curves


def _cycle_case(rng):
    """r curves E_k - E_{k+1} - F_k around a cycle: squares -3, consecutive
    curves meet once, so closing the cycle forces fill-in."""
    r = rng.randint(3, 7)
    surface = SurfaceModel.p2(2 * r)
    curves = []
    for k in range(r):
        coeffs = [0] * surface.rank
        coeffs[1 + k] = 1
        coeffs[1 + (k + 1) % r] = -1
        coeffs[1 + r + k] = -1
        curves.append(CurveRecord(f"C{k}", surface.divisor(coeffs), True))
    d = surface.divisor([rng.randint(0, 2)] + [0] * (surface.rank - 1))
    for c in curves:
        d = d + c.cls.scale(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    return d, curves


def _outcome(solve, d, curves):
    try:
        return solve(d, curves)
    except InconsistentScenario as exc:
        return str(exc)


def test_solver_matches_sympy_oracle_on_random_sparse_supports():
    pytest.importorskip("sympy")
    rng = random.Random(2024)
    seen = {"refused": 0, "support >= 3": 0, "rational": 0, "cycle": 0}
    for trial in range(240):
        cycle = trial % 6 == 0
        d, curves = _cycle_case(rng) if cycle else _random_case(rng)
        expected = _outcome(_sympy_decompose, d, curves)
        got = _outcome(decompose_against_curves, d, curves)
        if isinstance(got, ZariskiDecomposition):
            got = (got.negative_part, got.nef_part.coefficients)
        assert got == expected, (d, curves)
        if isinstance(expected, str):
            seen["refused"] += 1
        elif len(expected[0]) >= 3:
            seen["support >= 3"] += 1
            seen["cycle"] += cycle
            seen["rational"] += not all(c.cls.is_integral for c in curves) or not d.is_integral
    assert all(count >= 5 for count in seen.values()), seen
