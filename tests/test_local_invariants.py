import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from folsurf.document import NON_DEGENERATE, decode
from folsurf.errors import DomainError
from folsurf.local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    SaddleNode,
    SingularityRecord,
    baum_bott,
    beta,
    beta_p,
    beta_ratio,
    cached,
    chi_local,
    chi_p,
    fraction,
    local_terms,
)

nonzero_rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
).filter(lambda q: q != 0)


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(-1)),
        (Fraction(2, 3), Fraction(1, 6)),
        (Fraction(0), Fraction(0)),
        (Fraction(-5), Fraction(-1, 5)),
    ],
)
def test_beta_values(value, expected):
    assert beta(value) == expected


def test_beta_nonrational_is_zero():
    assert beta(EigenvalueClass.nonrational()) == 0


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(-1, 2)),
        (Fraction(2), Fraction(0)),
        (Fraction(3), Fraction(1, 18)),
    ],
)
def test_chi_local_values(value, expected):
    assert chi_local(value) == expected


def test_chi_local_rejects_zero():
    with pytest.raises(DomainError):
        chi_local(Fraction(0))


@given(nonzero_rationals)
def test_inversion_symmetry(u):
    assert beta(u) == beta(1 / u)
    assert chi_local(u) == chi_local(1 / u)


@given(nonzero_rationals.filter(lambda q: q not in (1, -1)))
def test_shift_identity(u):
    # the defining blow-up identity; u = -1 corresponds to the excluded
    # eigenvalue-1 case, where both right-hand terms degenerate to beta(0)
    assert beta(u) == beta(u + 1) + beta(1 / u + 1)
    assert chi_local(u) == chi_local(u + 1) + chi_local(1 / u + 1)


def test_shift_identity_bulk():
    rng = random.Random(20240811)
    for _ in range(10_000):
        num = rng.randint(-80, 80)
        den = rng.randint(1, 60)
        if num == 0:
            continue
        u = Fraction(num, den)
        if u in (0, 1, -1):
            continue
        assert beta(u) == beta(u + 1) + beta(1 / u + 1)
        assert chi_local(u) == chi_local(u + 1) + chi_local(1 / u + 1)


@given(nonzero_rationals)
def test_eigenvalue_class_canonicalization(q):
    assert EigenvalueClass.rational(q) == EigenvalueClass.rational(1 / q)
    # the constructor, ``rational`` and the scenario decoder all choose the
    # one representative n/d with |n| >= d, from either member of the class
    want = q if abs(q.numerator) >= q.denominator else 1 / q
    for u in (q, 1 / q):
        parsed = decode(NON_DEGENERATE, {"eigenvalue": str(u)}).eigenvalue
        for ev in (EigenvalueClass(u), EigenvalueClass.rational(u), parsed):
            assert type(ev.value) is Fraction and ev.value == want
            assert ev == EigenvalueClass(want) and hash(ev) == hash(EigenvalueClass(want))


def test_eigenvalue_class_rejects_zero():
    with pytest.raises(DomainError):
        EigenvalueClass.rational(0)


def test_reducedness_classification():
    non_reduced = SingularityRecord("a", NonDegenerate(EigenvalueClass.rational(Fraction(3, 2))))
    reduced_neg = SingularityRecord("b", NonDegenerate(EigenvalueClass.rational(-2)))
    reduced_irr = SingularityRecord("c", NonDegenerate(EigenvalueClass.nonrational()))
    saddle = SingularityRecord("d", SaddleNode(2))
    assert not non_reduced.is_reduced
    assert reduced_neg.is_reduced
    assert reduced_irr.is_reduced
    assert saddle.is_reduced


def test_record_invariants():
    with pytest.raises(DomainError):
        SaddleNode(1)
    with pytest.raises(DomainError):
        SingularityRecord("x", SaddleNode(3), vanishing_order=2)  # m < a^2
    s = SingularityRecord("y", SaddleNode(4), vanishing_order=2)
    assert s.multiplicity == 4
    nd = SingularityRecord("z", NonDegenerate(EigenvalueClass.rational(-1)))
    assert nd.multiplicity == 1


@pytest.mark.parametrize(
    "lam,expected",
    [
        (Fraction(-1), Fraction(1)),
        (Fraction(-5), Fraction(1, 5)),
    ],
)
def test_beta_p_nondegenerate(lam, expected):
    s = SingularityRecord("p", NonDegenerate(EigenvalueClass.rational(lam)))
    assert beta_p(s) == expected


def test_beta_p_saddle_node_vanishes():
    assert beta_p(SingularityRecord("p", SaddleNode(2))) == 0


def test_baum_bott():
    minus_one = SingularityRecord("p", NonDegenerate(EigenvalueClass.rational(-1)))
    assert baum_bott(minus_one) == 0
    one = SingularityRecord("q", NonDegenerate(EigenvalueClass.rational(1)))
    assert baum_bott(one) == 4
    irr = SingularityRecord("r", NonDegenerate(EigenvalueClass.nonrational()))
    assert baum_bott(irr) is None
    sn = SingularityRecord("s", SaddleNode(2, Fraction(3)))
    assert baum_bott(sn) == 3
    assert baum_bott(SingularityRecord("t", SaddleNode(2))) is None


def test_chi_p_values():
    minus_one = SingularityRecord("p", NonDegenerate(EigenvalueClass.rational(-1)))
    assert chi_p(minus_one) == 0
    one = SingularityRecord("q", NonDegenerate(EigenvalueClass.rational(1)))
    assert chi_p(one) == Fraction(-1, 2)
    sn = SingularityRecord("s", SaddleNode(2, Fraction(3)))
    assert chi_p(sn) == Fraction(-5, 12)
    assert chi_p(SingularityRecord("t", SaddleNode(2))) is None


@given(nonzero_rationals)
def test_chi_p_matches_chi_local(lam):
    s = SingularityRecord("p", NonDegenerate(EigenvalueClass.rational(lam)))
    assert chi_p(s) == chi_local(-lam)


# Independent oracles for the closed forms of beta_p, chi_p and BB_p: each is
# written from its definition on a representation a/b that need not be in
# lowest terms, never from the module under test.


def oracle_beta(a: int, b: int) -> Fraction:
    g = gcd(a, b)
    return Fraction(g * g) / (a * b)


def oracle_chi(u: Fraction, scale: int) -> Fraction:
    return (u + 1 / u + oracle_beta(scale * u.numerator, scale * u.denominator) - 3) / 12


nonzero_ints = st.integers(-(10**30), 10**30).filter(lambda k: k != 0)
eigenvalues = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    nonzero_rationals,
    st.builds(Fraction, nonzero_ints, st.integers(1, 10**12)),
)
scales = st.integers(1, 10**6)


def record(lam: Fraction) -> SingularityRecord:
    return SingularityRecord("p", NonDegenerate(EigenvalueClass.rational(lam)))


@given(eigenvalues, scales)
def test_closed_forms_match_the_definitions(lam, k):
    s = record(lam)
    minus = -lam
    assert beta_p(s) == oracle_beta(k * minus.numerator, k * minus.denominator)
    assert chi_p(s) == chi_local(-lam) == oracle_chi(-lam, k)
    assert baum_bott(s) == lam + 1 / lam + 2
    # the class forgets the representative: 1/lam gives the same values
    t = record(1 / lam)
    assert (beta_p(t), chi_p(t), baum_bott(t)) == (beta_p(s), chi_p(s), baum_bott(s))


@given(st.integers(1, 10**12), st.integers(1, 10**12))
def test_fiber_node_beta_is_beta_p_at_minus_a_over_b(a, b):
    # a node where branches of multiplicities a and b meet is lam = -a/b
    assert beta_ratio(a, b) == beta_p(record(Fraction(-a, b)))
    assert beta_ratio(a, b) == oracle_beta(a, b)


@given(
    st.integers(2, 10**6),
    st.one_of(st.none(), st.fractions(max_denominator=10**6)),
)
def test_saddle_node_closed_forms(m, bb):
    s = SingularityRecord("p", SaddleNode(m, bb))
    assert beta_p(s) == 0
    assert baum_bott(s) == bb
    if bb is None:
        assert chi_p(s) is None
    else:
        assert chi_p(s) == -(bb + m) / Fraction(12)


kinds = st.one_of(
    eigenvalues.map(lambda lam: NonDegenerate(EigenvalueClass.rational(lam))),
    st.builds(
        SaddleNode,
        st.integers(2, 10**6),
        st.one_of(st.none(), st.fractions(max_denominator=10**6)),
    ),
    st.just(NonDegenerate(EigenvalueClass.nonrational())),
)


@given(kinds)
@example(NonDegenerate(EigenvalueClass.rational(1)))
@example(NonDegenerate(EigenvalueClass.rational(-1)))
@example(NonDegenerate(EigenvalueClass.rational(Fraction(-(10**40) - 1, 10**39))))
@example(SaddleNode(2, Fraction(3)))
def test_local_terms_agree_with_the_fraction_forms(kind):
    s = SingularityRecord("p", kind)
    terms = local_terms(kind)
    lam = kind.eigenvalue.value if type(kind) is NonDegenerate else None
    if lam is None:  # a saddle-node or a non-rational eigenvalue
        assert terms is None
        return
    beta_num, chi12_num, den = terms
    assert den == abs(lam.numerator * lam.denominator)
    assert Fraction(beta_num, den) == beta_p(s) == beta(-lam)
    assert Fraction(chi12_num, 12 * den) == chi_p(s) == chi_local(-lam)
    # 12 chi_p = -(BB_p + 1 - beta_p), so the two numerators give BB_p too
    assert Fraction(beta_num - chi12_num - den, den) == baum_bott(s)


def test_nonrational_closed_forms():
    s = SingularityRecord("p", NonDegenerate(EigenvalueClass.nonrational()))
    assert (beta_p(s), baum_bott(s), chi_p(s)) == (0, None, None)


_ints = st.one_of(st.integers(-60, 60), st.integers(-(2**80), 2**80))


@given(_ints, _ints.filter(bool), st.fractions(max_denominator=50))
@example(0, 7, Fraction(1, 3))
@example(0, -7, Fraction(1, 3))
@example(5, 1, Fraction(-2, 3))
@example(5, -1, Fraction(-2, 3))
@example(-12, -18, Fraction(0))
@example(2**64 + 2, -(2**65), Fraction(7, 2))
@example(-(2**64) * 3, 2**64, Fraction(1))
def test_fraction_is_the_fraction_of_its_two_ints(n, d, other):
    got, want = fraction(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert got == want and hash(got) == hash(want)
    assert (str(got), repr(got)) == (str(want), repr(want))
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int
    assert (got + other, got - other, got * other, -got, abs(got)) == (
        want + other, want - other, want * other, -want, abs(want)
    )
    assert (got < other, got >= other, bool(got)) == (want < other, want >= other, bool(want))
    if other:
        assert got / other == want / other
    if want:
        assert other / got == other / want and got**-1 == want**-1


def test_cached_computes_once_per_instance_into_its_dict():
    calls = []

    @dataclass(frozen=True)
    class Point:
        x: int

        @cached
        def double(self) -> int:
            """Twice x."""
            calls.append(self.x)
            return 2 * self.x

    p, q = Point(1), Point(2)
    assert isinstance(Point.double, cached) and Point.double.__doc__ == "Twice x."
    assert "double" not in vars(p)
    assert (p.double, p.double, q.double, p.double) == (2, 2, 4, 2)
    assert calls == [1, 2]
    assert vars(p) == {"x": 1, "double": 2}
    # the cached value is no field: equality, hashing and freezing are the class's
    assert p == Point(1) and hash(p) == hash(Point(1))
    with pytest.raises(FrozenInstanceError):
        p.x = 3
