import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

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
from folsurf.zariski import zariski_decompose


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
        basis = [surface.basis_divisor(i) for i in range(n)]
        m = [[intersect(a, b) for b in basis] for a in basis]
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


def test_divisor_drops_exact_zeros_and_checks_every_other_entry():
    assert SurfaceModel.p2(2).divisor([0, Fraction(0), 2]).terms == ((2, Fraction(2)),)
    s = SurfaceModel.p2(1)
    for dense in ([0.0, 1], [False, 1], [True, 0], [0, 1.5], ["0", 1], ["", 1], [None, 1]):
        with pytest.raises(DomainError, match="expected an exact rational"):
            s.divisor(dense)


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
    for curves, d in (([f1], p2), ([p2, f1], p2), ([p2], f1)):
        with pytest.raises(ShapeError, match="divisor classes live on different surfaces"):
            pairing_table(curves, d)


# An independent Gram oracle: the matrix written from scratch, diag(1, -1, ...)
# on P2 and [[-e, 1], [1, 0]] + (-I) on F_e, with the canonical class
# -3L + sum E_i or -2C0 - (e+2)F + sum E_i.  ``intersect`` and the table's
# pairings with one class (D^2, K_S.C and D.K_S) pair by one walk
# (``surface._pair``), and the table's other fields come from its batched
# ``pair_with_curves`` over the same ``SurfaceModel.base_partners``, so
# neither can check the other: this oracle is the independent check of every
# field of ``Pairings`` and of the one K_S, ``SurfaceModel.canonical_terms``.


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
            Fraction(table.d_dot[i], unit),
            Fraction(table.ks_dot[i], unit),
        ) == numbers, (s.name, c.name)
        assert intersect(c.cls, c.cls) == numbers[0]
        assert intersect(s.k_foliation, c.cls) == numbers[1]
        assert i not in table.meets[i] and all(table.meets[i].values())
        for j, other in enumerate(s.curves):
            if j != i:
                want = _oracle_pair(gram, ci, other.cls.coefficients)
                assert Fraction(table.meets[i].get(j, 0), unit) == want, (s.name, i, j)
                assert intersect(c.cls, other.cls) == want
    assert intersect(s.k_foliation, s.k_foliation) == _oracle_pair(gram, kf, kf)
    kf_numbers = (Fraction(table.d_square, unit), Fraction(table.d_dot_ks, unit))
    assert kf_numbers == tuple(_oracle_pair(gram, kf, b) for b in (kf, ks)), s.name
    assert table.d_row == {i: int(c * table.scale) for i, c in s.k_foliation.terms}
    assert s.kf_square == _oracle_pair(gram, kf, kf)
    assert s.kf_dot_nf == _oracle_pair(gram, kf, [k - c for k, c in zip(kf, ks)])
    assert canonical_class(s.surface).coefficients == tuple(_oracle_canonical(s.surface))


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


# The stored integer form against a Fraction reference kept in this test:
# classes on P2 and F_e with 0-6 blow-ups, each coefficient an int or a
# Fraction (integral Fractions included), about half of them zero.
_coefficient = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
)
_factor = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


@st.composite
def _classes_on_a_surface(draw):
    blowups = draw(st.integers(0, 6))
    if draw(st.booleans()):
        surface = SurfaceModel.p2(blowups)
    else:
        surface = SurfaceModel.hirzebruch(draw(st.integers(0, 4)), blowups)
    dense = st.lists(_coefficient, min_size=surface.rank, max_size=surface.rank)
    return surface, draw(dense), draw(dense), draw(_factor)


def _nef_reference(surface, dense):
    # against the disjoint (-1)-curves E_i alone, N takes the positive part
    # of each E_i coefficient: (D - c E_i).E_i = -c + c = 0
    return [min(c, 0) if k >= surface.base_rank else c for k, c in enumerate(dense)]


@settings(max_examples=300, deadline=None)
@given(_classes_on_a_surface())
def test_the_integer_form_matches_a_fraction_reference(drawn):
    surface, a, b, lam = drawn
    fa, fb = [Fraction(x) for x in a], [Fraction(x) for x in b]
    gram = _oracle_gram(surface)
    da, db = surface.divisor(a), surface.divisor(b)
    den = lcm(*(x.denominator for x in fa))
    assert da.denominator == den
    assert da.numerators == {i: int(x * den) for i, x in enumerate(fa) if x}
    assert list(da.numerators) == sorted(da.numerators)
    assert da.coefficients == tuple(fa)
    assert da.terms == tuple((i, x) for i, x in enumerate(fa) if x)
    assert (da + db).coefficients == tuple(x + y for x, y in zip(fa, fb))
    assert (da - db).coefficients == tuple(x - y for x, y in zip(fa, fb))
    assert da.scale(lam).coefficients == tuple(lam * x for x in fa)
    assert intersect(da, db) == _oracle_pair(gram, fa, fb)
    assert intersect(da, da) == _oracle_pair(gram, fa, fa)
    assert da.is_integral == all(x.denominator == 1 for x in fa)
    assert da.is_zero == (not any(fa))
    assert str(da) == _oracle_str(surface, fa)
    assert (da == db) == (fa == fb)

    # equal values compare equal and hash alike, whichever route built them
    scenario = FoliatedScenario(
        name="nef",
        surface=surface,
        k_foliation=da,
        curves=tuple(
            CurveRecord(surface.label(k), surface.basis_divisor(k), True)
            for k in range(surface.base_rank, surface.rank)
        ),
        singularities=(),
        metadata=ScenarioMetadata(True, False),
    )
    nef = zariski_decompose(scenario).nef_part
    want = _nef_reference(surface, fa)
    assert nef.coefficients == tuple(want)
    for built, other in (
        (da, DivisorClass(surface, list(enumerate(a)))),
        (da, DivisorClass(surface, da.terms)),
        (da, surface.divisor(fa)),
        (da, da + db - db),
        (da, db + (da - db)),
        (da, da.scale(2) - da),
        (da, da.scale(lam).scale(1 / Fraction(lam)) if lam else da),
        (nef, DivisorClass(surface, nef.terms)),
        (nef, surface.divisor(want)),
        (nef, da - (da - nef)),
    ):
        assert other == built and hash(other) == hash(built)
        assert (other.numerators, other.denominator) == (built.numerators, built.denominator)


_INEXACT = (0.0, 1.5, float("nan"), True, False, "1", "", None, [1])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.data())
def test_the_class_refusals_keep_their_messages(blowups, data):
    surface = SurfaceModel.p2(blowups)
    rank = surface.rank
    k = data.draw(st.integers(0, rank - 1))
    good = [(i, data.draw(_coefficient)) for i in range(k)]

    value = data.draw(st.sampled_from(_INEXACT))
    inexact = re.escape(f"expected an exact rational, got {value!r}")
    with pytest.raises(DomainError, match=inexact):
        DivisorClass(surface, good + [(k, value)])
    dense = [c for _, c in good] + [value] + [0] * (rank - k - 1)
    with pytest.raises(DomainError, match=inexact):
        surface.divisor(dense)
    with pytest.raises(DomainError, match=inexact):
        surface.basis_divisor(0).scale(value)

    index = data.draw(st.sampled_from((rank, rank + 3, -1, True, "0", 1.0, None)))
    with pytest.raises(ShapeError, match=re.escape(
        f"basis index {index!r} is outside the surface rank {rank}"
    )):
        DivisorClass(surface, good + [(index, 1)])
    if k:
        repeated = data.draw(st.integers(0, k - 1))
        with pytest.raises(ShapeError, match="class terms must have increasing basis indices"):
            DivisorClass(surface, good + [(repeated, 1)])
    wrong_length = f"class has {rank + 1} coefficients, surface rank is {rank}"
    with pytest.raises(ShapeError, match=wrong_length):
        surface.divisor([0] * (rank + 1))


@pytest.mark.parametrize("name", ["surface", "numerators", "denominator", "other"])
def test_a_class_refuses_to_assign_or_delete_a_field(name):
    d = SurfaceModel.p2(1).divisor([1, Fraction(1, 2)])
    with pytest.raises(FrozenInstanceError, match=re.escape(f"cannot assign to field {name!r}")):
        setattr(d, name, None)
    with pytest.raises(FrozenInstanceError, match=re.escape(f"cannot delete field {name!r}")):
        delattr(d, name)
    assert (d.numerators, d.denominator) == ({0: 2, 1: 1}, 2)


def test_a_class_is_unequal_to_what_is_not_a_class():
    zero = SurfaceModel.p2().divisor([0])
    one = SurfaceModel.p2().divisor([1])
    for other in (0, Fraction(0), None, "0", (), {}, zero.numerators, SurfaceModel.p2()):
        assert (zero == other) is False and (zero != other) is True
    assert (one == Fraction(1)) is False and (one == [Fraction(1)]) is False


# the entries a document writes: "0", ints (0 included) and fractions over
# denominators that need a common one
_entry_text = st.one_of(
    st.just("0"),
    st.integers(-6, 6).map(str),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([2, 3, 4, 6, 9])).map(str),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_entry_text, max_size=7), st.integers(0, 3), st.lists(_entry_text, max_size=7))
def test_a_parsed_class_equals_the_class_of_its_entries(head, zeros, other):
    texts = head + ["0"] * zeros  # trailing zeros end the decoder's scan early
    rank = max(len(texts), len(other), 1)
    texts += ["0"] * (rank - len(texts))
    other += ["0"] * (rank - len(other))
    surface = SurfaceModel.p2(rank - 1)
    doc = {
        "name": "entries",
        "surface": {"base": "P2", "blowups": rank - 1},
        "k_foliation": texts,
        "curves": [{"name": "C", "class": other, "f_invariant": True}],
        "singularities": [],
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "unknown",
            "kodaira": "unknown",
        },
    }
    s = parse_document_dict(doc).scenario
    for parsed, entries in ((s.k_foliation, texts), (s.curves[0].cls, other)):
        values = [Fraction(t) if "/" in t else int(t) for t in entries]
        built = surface.divisor(values)
        assert parsed == built and hash(parsed) == hash(built)
        assert (parsed.numerators, parsed.denominator) == (built.numerators, built.denominator)
        assert list(parsed.numerators) == sorted(parsed.numerators)
