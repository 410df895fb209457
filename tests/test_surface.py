import random
from fractions import Fraction

import pytest

from folsurf.errors import DomainError, ShapeError
from folsurf.fixtures import bundled_documents
from folsurf.foliation import CurveRecord, FoliatedScenario, ScenarioMetadata
from folsurf.scenario_io import parse_document_dict
from folsurf.surface import (
    DivisorClass,
    SurfaceModel,
    canonical_class,
    chi_structure,
    chi_top,
    h0_line_bundle,
    intersect,
    pairing_table,
)


def test_basic_intersections():
    p2 = SurfaceModel.p2()
    line = p2.basis_divisor(0)
    assert intersect(line, line) == 1

    hn = SurfaceModel.hirzebruch(3)
    c0, f = hn.basis_divisor(0), hn.basis_divisor(1)
    assert intersect(c0, c0) == -3
    assert intersect(c0, f) == 1
    assert intersect(f, f) == 0

    blown = SurfaceModel.p2(1)
    e = blown.basis_divisor(1)
    pullback_line = blown.basis_divisor(0)
    assert intersect(e, e) == -1
    assert intersect(e, pullback_line) == 0


def test_intersect_rejects_mismatched_surfaces():
    a = SurfaceModel.p2().basis_divisor(0)
    b = SurfaceModel.hirzebruch(1).basis_divisor(0)
    with pytest.raises(ShapeError):
        intersect(a, b)


def test_canonical_class_by_adjunction():
    # a rational curve C must satisfy C.(C + K) = -2
    p2 = SurfaceModel.p2()
    k = canonical_class(p2)
    line = p2.basis_divisor(0)
    assert intersect(line, line + k) == -2
    assert k.coefficients == (Fraction(-3),)

    h2 = SurfaceModel.hirzebruch(2)
    k2 = canonical_class(h2)
    for curve in (h2.basis_divisor(0), h2.basis_divisor(1)):
        assert intersect(curve, curve + k2) == -2
    assert k2.coefficients == (Fraction(-2), Fraction(-4))

    blown = SurfaceModel.p2(1)
    kb = canonical_class(blown)
    assert kb.coefficients == (Fraction(-3), Fraction(1))
    e = blown.basis_divisor(1)
    assert intersect(e, e + kb) == -2


@pytest.mark.parametrize(
    "surface,expected",
    [
        (SurfaceModel.p2(), 3),
        (SurfaceModel.hirzebruch(0), 4),
        (SurfaceModel.hirzebruch(5), 4),
        (SurfaceModel.hirzebruch(3, 2), 6),
    ],
)
def test_chi_top(surface, expected):
    assert chi_top(surface) == expected


def test_noether_identity_for_surfaces():
    for surface in (
        SurfaceModel.p2(),
        SurfaceModel.p2(4),
        SurfaceModel.hirzebruch(0),
        SurfaceModel.hirzebruch(2, 3),
        SurfaceModel.hirzebruch(7, 11),
    ):
        k = canonical_class(surface)
        assert intersect(k, k) + chi_top(surface) == 12 * chi_structure(surface)


def test_bilinearity_and_symmetry():
    rng = random.Random(7)
    surface = SurfaceModel.hirzebruch(2, 4)
    for _ in range(200):
        a = surface.divisor([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(surface.rank)])
        b = surface.divisor([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(surface.rank)])
        c = surface.divisor([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(surface.rank)])
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a.scale(lam) + b, c) == lam * intersect(a, c) + intersect(b, c)


def test_unimodular_determinant_and_rank_increment():
    # |det Gram| = 1 with sign (-1)^(rank-1), as befits signature (1, rank-1)
    def det(surface):
        n = surface.rank
        m = [[Fraction(surface.gram(i, j)) for j in range(n)] for i in range(n)]
        result = Fraction(1)
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
            assert pivot_row is not None
            if pivot_row != col:
                m[col], m[pivot_row] = m[pivot_row], m[col]
                result = -result
            result *= m[col][col]
            for r in range(col + 1, n):
                factor = m[r][col] / m[col][col]
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
        return result

    for surface in (
        SurfaceModel.p2(),
        SurfaceModel.p2(3),
        SurfaceModel.hirzebruch(0),
        SurfaceModel.hirzebruch(4, 2),
    ):
        assert det(surface) == (-1) ** (surface.rank - 1)

    base = SurfaceModel.hirzebruch(1)
    assert SurfaceModel.hirzebruch(1, 1).rank == base.rank + 1


def _h0_oracle_hirzebruch(e, a, b):
    # enumerate the monomial section basis of O(a C0 + b F) on the toric surface
    if a < 0:
        return 0
    count = 0
    for k in range(a + 1):
        degree = b - k * e
        count += sum(1 for _ in range(degree + 1)) if degree >= 0 else 0
    return count


def test_h0_line_bundle_closed_forms():
    p2 = SurfaceModel.p2()
    assert h0_line_bundle(p2, p2.divisor([0])) == 1
    assert h0_line_bundle(p2, p2.divisor([2])) == 6
    assert h0_line_bundle(p2, p2.divisor([-1])) == 0

    h2 = SurfaceModel.hirzebruch(2)
    assert h0_line_bundle(h2, h2.divisor([1, 1])) == 2
    hn = SurfaceModel.hirzebruch(4)
    assert h0_line_bundle(hn, hn.divisor([1, 4])) == 6  # n + 2 at n = 4
    assert h0_line_bundle(hn, hn.divisor([0, 0])) == 1

    for e in range(0, 5):
        he = SurfaceModel.hirzebruch(e)
        for a in range(-1, 4):
            for b in range(-2, 8):
                assert h0_line_bundle(he, he.divisor([a, b])) == _h0_oracle_hirzebruch(e, a, b)


def test_h0_unavailable_and_errors():
    blown = SurfaceModel.p2(1)
    assert h0_line_bundle(blown, blown.divisor([1, 0])) is None
    p2 = SurfaceModel.p2()
    with pytest.raises(DomainError):
        h0_line_bundle(p2, p2.divisor([Fraction(1, 2)]))


def test_h0_hirzebruch_closed_form_matches_the_section_sum():
    # the sum over k = 0..a of max(0, b - k e + 1), which h0 used to loop over
    for e in range(0, 8):
        he = SurfaceModel.hirzebruch(e)
        for a in range(-3, 30):
            for b in range(-40, 40):
                want = sum(max(0, b - k * e + 1) for k in range(a + 1)) if a >= 0 else 0
                assert h0_line_bundle(he, he.divisor([a, b])) == want, (e, a, b)


def test_pairing_table_refuses_classes_on_different_surfaces():
    p2 = SurfaceModel.p2(2).divisor([1, 1, 0])
    f1 = SurfaceModel.hirzebruch(1, 1).divisor([0, 0, 1])
    for curves, classes in (([f1], [p2]), ([p2], [p2, f1]), ([], [p2, f1])):
        with pytest.raises(ShapeError, match="divisor classes live on different surfaces"):
            pairing_table(curves, classes)


# An independent Gram oracle: the matrix written from scratch, diag(1, -1, ...)
# on P2 and [[-e, 1], [1, 0]] + (-I) on F_e, with the canonical class
# -3L + sum E_i or -2C0 - (e+2)F + sum E_i.  ``intersect`` and the pairing
# table share ``SurfaceModel.base_partners``, so neither can check the other.


def _oracle_gram(surface):
    n = surface.rank
    gram = [[0] * n for _ in range(n)]
    if surface.base == "P2":
        gram[0][0], first_exceptional = 1, 1
    else:
        gram[0][0], gram[0][1], gram[1][0] = -surface.hirzebruch_e, 1, 1
        first_exceptional = 2
    for k in range(first_exceptional, n):
        gram[k][k] = -1
    return gram


def _oracle_canonical(surface):
    if surface.base == "P2":
        base = [-3]
    else:
        base = [-2, -(surface.hirzebruch_e + 2)]
    return [Fraction(c) for c in base + [1] * (surface.rank - len(base))]


def _oracle_pair(gram, a, b):
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    return sum(
        (x * gram[i][j] * y for i, x in enumerate(a) if x for j, y in nonzero_b), Fraction(0)
    )


def _assert_pairings_match_oracle(s):
    gram = _oracle_gram(s.surface)
    ks = _oracle_canonical(s.surface)
    kf = s.k_foliation.coefficients
    table = s.pairings
    unit = table.scale * table.scale
    for i, c in enumerate(s.curves):
        ci = c.cls.coefficients
        numbers = tuple(_oracle_pair(gram, x, ci) for x in (ci, kf, ks))
        assert (
            Fraction(table.squares[i], unit),
            Fraction(table.against[0][i], unit),
            Fraction(table.against[1][i], unit),
        ) == numbers, (s.name, c.name)
        assert s.curve_numbers(c) == numbers
        assert intersect(c.cls, c.cls) == numbers[0]
        assert intersect(s.k_foliation, c.cls) == numbers[1]
        assert i not in table.meets[i] and all(table.meets[i].values())
        for j, other in enumerate(s.curves):
            if j != i:
                want = _oracle_pair(gram, ci, other.cls.coefficients)
                assert Fraction(table.meets[i].get(j, 0), unit) == want, (s.name, i, j)
                assert intersect(c.cls, other.cls) == want
    assert intersect(s.k_foliation, s.k_foliation) == _oracle_pair(gram, kf, kf)
    among = [[Fraction(x, unit) for x in row] for row in table.among]
    assert among == [[_oracle_pair(gram, kf, b) for b in (kf, ks)]], s.name
    assert s.kf_square == _oracle_pair(gram, kf, kf)
    assert s.kf_dot_nf == _oracle_pair(gram, kf, [k - c for k, c in zip(kf, ks)])
    basis = [[int(a == b) for b in range(s.surface.rank)] for a in range(s.surface.rank)]
    degrees = [_oracle_pair(gram, ks, e) for e in basis]
    base_rank = s.surface.base_rank
    assert list(s.surface.canonical_degrees) == degrees[:base_rank]
    assert degrees[base_rank:] == [-1] * s.surface.blowups


def test_pairings_of_every_bundled_scenario_match_the_gram_oracle():
    scenarios = [parse_document_dict(doc).scenario for doc in bundled_documents().values()]
    scenarios = [s for s in scenarios if s is not None]
    assert len(scenarios) == 13
    for s in scenarios:
        _assert_pairings_match_oracle(s)


def test_pairings_of_random_rational_scenarios_match_the_gram_oracle():
    rng = random.Random(11)

    def rational_class(surface):
        coeffs = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.6 else 0
            for _ in range(surface.rank)
        ]
        return surface.divisor(coeffs)

    for trial in range(120):
        blowups = rng.randint(0, 6)
        if trial % 2:
            surface = SurfaceModel.p2(blowups)
        else:
            surface = SurfaceModel.hirzebruch(rng.randint(0, 5), blowups)
        curves = tuple(
            CurveRecord(f"C{k}", rational_class(surface), rng.random() < 0.5)
            for k in range(rng.randint(1, 6))
        )
        _assert_pairings_match_oracle(
            FoliatedScenario(
                name=f"random-{trial}",
                surface=surface,
                k_foliation=rational_class(surface),
                curves=curves,
                singularities=(),
                metadata=ScenarioMetadata(True, True),
            )
        )


def test_divisor_class_refuses_an_index_outside_the_rank_or_out_of_order():
    s = SurfaceModel.p2(2)
    for terms in (((3, 1),), ((-1, 1),), ((0, 1), (5, 2)), ((True, 1),), (("1", 1),)):
        with pytest.raises(ShapeError, match="outside the surface rank 3"):
            DivisorClass(s, terms)
    for terms in (((1, 1), (0, 1)), ((1, 1), (1, 2))):
        with pytest.raises(ShapeError, match="increasing basis indices"):
            DivisorClass(s, terms)
    with pytest.raises(ShapeError, match="outside the surface rank 3"):
        s.basis_divisor(3)
    with pytest.raises(ShapeError, match="class has 2 coefficients, surface rank is 3"):
        s.divisor([1, 0])


def _oracle_str(surface, dense):
    labels = ["L"] if surface.base == "P2" else ["C0", "F"]
    labels += [f"E{k}" for k in range(1, surface.rank - len(labels) + 1)]
    out = ""
    for c, label in zip(dense, labels):
        if c:
            term = label if abs(c) == 1 else f"{abs(c)}*{label}"
            sign = (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
            out += sign + term
    return out or "0"


def test_sparse_classes_match_a_dense_oracle():
    rng = random.Random(23)

    def dense(surface):
        return [
            Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) if rng.random() < 0.4 else 0
            for _ in range(surface.rank)
        ]

    for trial in range(300):
        blowups = rng.randint(0, 9)
        if trial % 2:
            surface = SurfaceModel.p2(blowups)
        else:
            surface = SurfaceModel.hirzebruch(rng.randint(0, 4), blowups)
        gram = _oracle_gram(surface)
        a, b = dense(surface), dense(surface)
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        da, db = surface.divisor(a), surface.divisor(b)
        assert da.coefficients == tuple(map(Fraction, a))
        assert da.terms == tuple((i, c) for i, c in enumerate(a) if c)
        assert (da + db).coefficients == tuple(x + y for x, y in zip(a, b))
        assert (da - db).coefficients == tuple(x - y for x, y in zip(a, b))
        assert da.scale(lam).coefficients == tuple(lam * x for x in a)
        assert intersect(da, db) == _oracle_pair(gram, a, b)
        assert intersect(da, da) == _oracle_pair(gram, a, a)
        assert da.is_integral == all(Fraction(x).denominator == 1 for x in a)
        assert da.is_zero == (not any(a))
        assert str(da) == _oracle_str(surface, a)
        # equal classes built by different routes are equal, hash equally and
        # make equal curve records
        for other in (
            da + db - db,
            db + da - db,
            da.scale(2) - da,
            DivisorClass(surface, tuple((i, c) for i, c in enumerate(a))),
            DivisorClass(surface, da.terms),
        ):
            assert other == da and hash(other) == hash(da)
            assert CurveRecord("C", other, True) == CurveRecord("C", da, True)
        zero = da - da
        assert zero.is_zero and zero.terms == () and zero.coefficients == (0,) * surface.rank
        assert zero == surface.divisor([0] * surface.rank) == da.scale(0)
        assert str(zero) == "0" and intersect(zero, db) == 0
        assert (da == db) == (a == b)
