import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from folsurf.errors import DomainError, InconsistentScenario, ShapeError
from folsurf.fixtures import (
    bundled_documents,
    first_noether_ruled,
    second_noether_ruled,
    third_noether_double_cover,
)
from folsurf.foliation import CurveRecord, FoliatedScenario, ScenarioMetadata, validate
from folsurf.local_invariants import EigenvalueClass, NonDegenerate, SingularityRecord, beta
from folsurf.scenario_io import ScenarioDocument, parse_document_dict, run_pipeline
from folsurf.surface import SurfaceModel, intersect, pairing_table
import folsurf.zariski as zariski
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


def test_chain_negative_square_is_minus_q_over_n_on_every_small_chain():
    for r in range(1, 5):
        for e in product(range(2, 7), repeat=r):
            n, q, _ = chain_coefficients(e)
            assert chain_negative_square(e) == Fraction(-q, n)


def test_decomposing_a_chain_scenario_builds_no_singularity_index(chain_scenario):
    # zariski_decompose reads only is_reduced, which a publicly built
    # scenario answers from its points' kinds
    for e, nef_multiple in (((2,), 0), ((5, 2, 4), 0), ((3, 2, 2, 7), 2)):
        s = chain_scenario(e, nef_multiple=nef_multiple)
        dec = zariski_decompose(s)
        assert "singularity_index" not in vars(s)
        assert [c for _, c in dec.negative_part] == chain_coefficients(e)[2]


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


def reference_bounds_detail(e, xi):
    """The violations of b_1 < 1/(e_1 - 1) and b_j < 1/(2 e_j - 3), compared
    as Fractions b_j = xi_j / xi_0."""
    violations = []
    for j, ej in enumerate(e, start=1):
        bj = Fraction(xi[j], xi[0])
        bound = Fraction(1, ej - 1) if j == 1 else Fraction(1, 2 * ej - 3)
        if not bj < bound:
            violations.append(f"b_{j} = {bj} !< {bound}")
    return "; ".join(violations)


def _chains(max_length, entries):
    for r in range(1, max_length + 1):
        for e in product(entries, repeat=r):
            yield FChain(tuple(f"C{i}" for i in range(r)), e)


def test_coefficient_bounds_match_the_fraction_formula_on_every_small_chain():
    count = 0
    for chain in _chains(5, range(2, 8)):
        e = chain.self_intersections
        check = coefficient_bounds_check(chain)
        detail = reference_bounds_detail(e, chain_xi_sequence(e))
        assert (check.passed, check.detail) == (detail == "", detail)
        count += 1
    assert count == sum(6**r for r in range(1, 6))


def test_coefficient_bounds_violations_read_as_the_fraction_formula(monkeypatch):
    # every real chain passes, so a shrunken xi_0 stands in for one that fails
    failures = 0
    for chain in _chains(3, range(2, 6)):
        xi = chain_xi_sequence(chain.self_intersections)
        for n in range(1, xi[0] + 1):
            shrunk = [n] + xi[1:]
            monkeypatch.setattr(zariski, "chain_xi_sequence", lambda e, _xi=shrunk: _xi)
            check = coefficient_bounds_check(chain)
            detail = reference_bounds_detail(chain.self_intersections, shrunk)
            assert (check.passed, check.detail) == (detail == "", detail)
            failures += not check.passed
    assert failures > 100


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


def test_volume_is_zero_where_the_pipeline_reports_zero():
    # K_F = -L on P2: N_F = 2L, so c2 + N_F.K_F = 3 - 2 asks for one point
    p2 = SurfaceModel.p2()
    point = SingularityRecord("p", NonDegenerate(EigenvalueClass.rational(-1)))
    s = FoliatedScenario(
        name="rational-pencil",
        surface=p2,
        k_foliation=p2.divisor([-1]),
        curves=(),
        singularities=(point,),
        metadata=ScenarioMetadata(k_pseudo_effective=False, relatively_minimal=True),
    )
    assert validate(s).passed
    report = run_pipeline(ScenarioDocument(s.name, s, None))
    assert report.ok and report.vol == 0
    assert volume(s) == report.vol


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


def _e(i, j):
    """E_i - E_j on a blow-up of P^2: a smooth rational (-2)-curve class."""
    return {i: 1, j: -1}


@pytest.mark.parametrize(
    "n,curves,k_f,expected",
    [
        # a cycle of three (-2)-curves
        (3, [_e(1, 2), _e(2, 3), _e(3, 1)], {}, []),
        # E1 - E2 meets the three others once; E_i - E_j classes give it at
        # most two neighbours that miss each other, so the last two are
        # H - E_a - E_b - E_c; the end E2 - E3 has K_F degree -1
        (7, [_e(1, 2), _e(2, 3), {0: 1, 1: -1, 4: -1, 5: -1}, {0: 1, 1: -1, 6: -1, 7: -1}], {3: -1}, []),
        # two candidates meeting twice, H - E1 - E2 - E3 with K_F degree -1
        # and 2H - E4 - ... - E9 with 0 (no two E_i - E_j meet twice)
        (9, [{0: 1, 1: -1, 2: -1, 3: -1}, {0: 2, **{i: -1 for i in range(4, 10)}}], {1: -1}, []),
        # a path whose interior curve has K_F degree -1 (degrees -1, -1, 0)
        (4, [_e(1, 2), _e(2, 3), _e(3, 4)], {2: -1, 3: -2, 4: -2}, []),
        # a path with no head
        (3, [_e(1, 2), _e(2, 3)], {}, []),
        # one curve of K_F degree 0
        (2, [_e(1, 2)], {}, []),
        # one curve of K_F degree -1: a one-curve chain
        (2, [_e(1, 2)], {2: -1}, [(("C0",), (2,))]),
        # never candidates, each with K_F degree -1: a non-invariant curve,
        # a (-1)-curve, and a (-2)-curve of arithmetic genus 1
        (2, [(_e(1, 2), False)], {2: -1}, []),
        (1, [{1: 1}], {1: 1}, []),
        (11, [{0: 3, **{i: -1 for i in range(1, 12)}}], {1: -1}, []),
    ],
    ids=[
        "cycle",
        "branch-point",
        "double-meet",
        "interior-head",
        "no-head",
        "one-curve-degree-0",
        "one-curve-chain",
        "non-invariant",
        "minus-one-curve",
        "genus-one",
    ],
)
def test_detect_chains_on_small_shapes(n, curves, k_f, expected):
    from folsurf.foliation import FoliatedScenario, ScenarioMetadata

    surface = SurfaceModel.p2(n)

    def cls(terms):
        return surface.divisor([terms.get(i, 0) for i in range(n + 1)])

    records = []
    for k, spec in enumerate(curves):
        terms, invariant = spec if isinstance(spec, tuple) else (spec, True)
        records.append(CurveRecord(f"C{k}", cls(terms), invariant))
    scenario = FoliatedScenario(
        name="shape",
        surface=surface,
        k_foliation=cls(k_f),
        curves=tuple(records),
        singularities=(),
        metadata=ScenarioMetadata(
            k_pseudo_effective=True, relatively_minimal=False
        ),
    )
    chains, flags = detect_chains_with_flags(scenario)
    assert [(ch.curves, ch.self_intersections) for ch in chains] == expected
    assert flags == []


# Chains found on each bundled document, read from the scenario's pairing
# table (``FoliatedScenario.pairings``).
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
            assert got.nef_square == intersect(got.nef_part, got.nef_part), (d, curves)
            got = (got.negative_part, got.nef_part.coefficients)
        assert got == expected, (d, curves)
        if isinstance(expected, str):
            seen["refused"] += 1
        elif len(expected[0]) >= 3:
            seen["support >= 3"] += 1
            seen["cycle"] += cycle
            seen["rational"] += not all(c.cls.is_integral for c in curves) or not d.is_integral
    assert all(count >= 5 for count in seen.values()), seen


def _fraction_negative_definite(matrix):
    """Negative definiteness by Gaussian elimination over Fractions: every
    pivot of -matrix is positive."""
    a = [[Fraction(-v) for v in row] for row in matrix]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            ratio = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= ratio * a[k][j]
    return True


def _fraction_solve(matrix, rhs):
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in range(n):
        for i in range(k + 1, n):
            ratio = a[i][k] / a[k][k]
            for j in range(k, n + 1):
                a[i][j] -= ratio * a[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        x[k] = (a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))) / a[k][k]
    return x


def _factor_state(factor):
    return factor.minors, factor.upper, factor.upper_rhs


def test_bordered_factor_refusal_leaves_the_factor_intact():
    # every candidate row is offered to one factor; a second factor, built
    # fresh, receives only the rows the first accepted, and the two must
    # agree after every step: a refused row leaves no trace
    rng = random.Random(7)
    refused = accepted_after_refusal = 0
    for _ in range(150):
        n = rng.randint(2, 9)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = -rng.randint(1, 4)
            for j in range(i):
                if rng.random() < 0.5:
                    gram[i][j] = gram[j][i] = rng.choice([-2, -1, 1, 1, 2, 3])
        rhs = [rng.randint(-3, 3) for _ in range(n)]
        factor, kept, after_refusal = zariski._BorderedFactor(), [], False
        for i in range(n):
            entries = {k: gram[i][j] for k, j in enumerate(kept) if gram[i][j]}
            entries[len(kept)] = gram[i][i]
            fresh = zariski._BorderedFactor()
            for r, j in enumerate(kept):
                row = {k: gram[j][m] for k, m in enumerate(kept[: r + 1]) if gram[j][m]}
                assert fresh.append(row, rhs[j])
            rows = kept + [i]
            expected = _fraction_negative_definite([[gram[a][b] for b in rows] for a in rows])
            assert factor.append(entries, rhs[i]) == expected
            if expected:
                assert fresh.append(entries, rhs[i])
                kept.append(i)
                accepted_after_refusal += after_refusal
            else:
                refused += 1
                after_refusal = True
            assert _factor_state(factor) == _factor_state(fresh)
            y, det = factor.solve(), factor.minors[-1]
            assert y == fresh.solve()
            x = _fraction_solve([[gram[a][b] for b in kept] for a in kept], [rhs[a] for a in kept])
            assert [Fraction(v, det) for v in y] == x
    assert refused >= 50 and accepted_after_refusal >= 20, (refused, accepted_after_refusal)


def _chain_or_tree_case(rng, tree):
    """Curves E_h - E_t1 - ... on a blown-up plane, each curve's head one of
    an earlier curve's tails, so each meets its parent once: a chain, or a
    tree whose parent is drawn from every curve with a free tail.  Now and
    then two lines L - E_a - E_b on fresh classes join them: they meet once,
    so both together are not negative definite.  D is a multiple of L plus
    positive multiples of some curves, now and then minus a curve, and a few
    signed exceptional classes, so D.C takes both signs and some cases
    refuse."""
    r = rng.randint(1, 9)
    tails_of = [rng.randint(1, 3) for _ in range(r)]
    surface = SurfaceModel.p2(5 + sum(tails_of))
    free, classes, next_index = [], [], 2  # free[k]: the unused tails of curve k
    for k in range(r):
        if k == 0:
            head = 1
        elif tree:
            tails = rng.choice([t for t in free if t])
            head = tails.pop(rng.randrange(len(tails)))
        else:
            head = free[k - 1].pop(0)
        free.append(list(range(next_index, next_index + tails_of[k])))
        next_index += tails_of[k]
        coeffs = [0] * surface.rank
        coeffs[head] = 1
        for t in free[k]:
            coeffs[t] = -1
        classes.append(coeffs)
    lines = rng.random() < 0.3
    for a in (next_index, next_index + 2) if lines else ():
        coeffs = [0] * surface.rank
        coeffs[0] = 1
        coeffs[a] = coeffs[a + 1] = -1
        classes.append(coeffs)
    curves = [CurveRecord(f"C{k}", surface.divisor(c), True) for k, c in enumerate(classes)]
    d = surface.divisor([rng.randint(0, 2)] + [0] * (surface.rank - 1))
    for c in curves:
        if rng.random() < 0.7:
            d = d + c.cls.scale(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        elif rng.random() < 0.2:
            d = d - c.cls  # D is then seldom effective
    for _ in range(rng.randint(0, 2)):
        coeffs = [0] * surface.rank
        coeffs[rng.randrange(1, surface.rank)] = rng.choice([-1, 1, 2])
        d = d + surface.divisor(coeffs)
    if lines and rng.random() < 0.7:  # D may meet both lines negatively
        coeffs = [0] * surface.rank
        coeffs[next_index] = coeffs[next_index + 2] = -1
        d = d + surface.divisor(coeffs)
    return d, curves


def _coefficients(solved):
    support, y, det = solved
    return {i: Fraction(v, det) for i, v in zip(support, y) if v}


def _count_factor_work(monkeypatch):
    """Swap ``zariski._BorderedFactor`` for a subclass that counts the
    factorizations it starts and the solves it runs."""
    counts = {"factorizations": 0, "solves": 0}

    class Counting(zariski._BorderedFactor):
        def __init__(self):
            counts["factorizations"] += 1
            super().__init__()

        def solve(self):
            counts["solves"] += 1
            return super().solve()

    monkeypatch.setattr(zariski, "_BorderedFactor", Counting)
    return counts


def _solved(table, seed):
    """``zariski._solve``'s coefficients by curve index, or its refusal."""
    try:
        return _coefficients(zariski._solve(table, seed))
    except InconsistentScenario as exc:
        return str(exc)


def test_seeded_solve_matches_the_unseeded_loop(monkeypatch):
    # Random sparse supports: chains, trees, cycles and the oracle's mixed
    # classes (with negative meets), each also shuffled.  The loop from the
    # guessed support must give the unseeded loop's answer or message; with
    # non-negative meets it never refuses for a negative coefficient.
    counts = _count_factor_work(monkeypatch)
    rng = random.Random(20)
    seen = dict.fromkeys(["one round", "several rounds", "refused", "negative meet"], 0)
    for trial in range(1200):
        kind = trial % 4
        if kind == 0:
            d, curves = _cycle_case(rng)
        elif kind == 3:
            d, curves = _random_case(rng)
        else:
            d, curves = _chain_or_tree_case(rng, tree=kind == 2)
        if rng.random() < 0.5:
            curves = rng.sample(curves, len(curves))
        table = pairing_table([c.cls for c in curves], d)
        unseeded = _solved(table, ())
        counts["solves"] = 0
        seeded = _solved(table, zariski._guess(table))
        assert seeded == unseeded, (d, curves)
        if any(g < 0 for row in table.meets for g in row.values()):
            seen["negative meet"] += 1
        elif isinstance(seeded, str):
            assert seeded != NEGATIVE_COEFFICIENT, (d, curves)
            seen["refused"] += 1
        else:
            seen["one round" if counts["solves"] == 1 else "several rounds"] += 1
        got = _outcome(decompose_against_curves, d, curves)
        if isinstance(seeded, str):
            assert got == seeded
        else:
            assert dict(got.negative_part) == {curves[i].name: v for i, v in seeded.items()}
    assert all(count >= 5 for count in seen.values()), seen


def test_double_cover_decomposes_in_one_solve(monkeypatch):
    # the unseeded loop solves once per round: 321 solves at g = 80
    s = scenario_from(third_noether_double_cover(80))
    counts = _count_factor_work(monkeypatch)
    dec = zariski_decompose(s)
    assert len(dec.negative_part) == 4 * 80 + 4
    assert counts == {"factorizations": 1, "solves": 1}, counts
