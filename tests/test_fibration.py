import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folsurf.chern import ChernNumbers
from folsurf.errors import DomainError, InconsistentScenario
from folsurf.fibration import (
    FiberModel,
    FiberNode,
    FibrationModel,
    crosscheck_with_chern,
    fiber_euler,
    fiber_local_chern,
    modular_invariants,
    slope_inequality_check,
)


def semistable_fiber(g, nodes=1):
    return FiberModel(
        genus_of_fibration=g,
        pa_reduced=g,
        f_red_sq=0,
        nodes=tuple(FiberNode(1, 1, False) for _ in range(nodes)),
    )


I0STAR = FiberModel(
    genus_of_fibration=1,
    pa_reduced=0,
    f_red_sq=-2,
    nodes=tuple(FiberNode(2, 1, True) for _ in range(4)),
)


def test_fiber_local_chern_semistable():
    assert fiber_local_chern(semistable_fiber(2)) == (0, 0, 0)


def test_fiber_local_chern_i0star():
    assert fiber_local_chern(I0STAR) == (0, 6, Fraction(1, 2))


def test_fiber_local_chern_smooth():
    smooth = FiberModel(genus_of_fibration=3, pa_reduced=3, f_red_sq=0, nodes=())
    assert fiber_local_chern(smooth) == (0, 0, 0)


def test_fiber_local_chern_rejects_non_normal_crossing():
    with pytest.raises(DomainError):
        FiberModel(genus_of_fibration=1, pa_reduced=0, f_red_sq=-2, nodes=(), alpha=1)


def test_fiber_arithmetic_genus_above_the_fibration_genus_is_refused():
    # p_a(F_red) <= g: FiberModel(2, 5, 0, ()) would have e_F = -6
    assert fiber_euler(FiberModel(2, 2, 0, ())) == 0
    for pa in (3, 5):
        with pytest.raises(DomainError, match="from 0 to the fiber genus"):
            FiberModel(2, pa, 0, ())


def test_fiber_euler():
    assert fiber_euler(semistable_fiber(2)) == 1
    assert fiber_euler(I0STAR) == 6
    assert fiber_euler(FiberModel(3, 3, 0, ())) == 0


def test_semistable_one_one_nodes_always_vanish():
    for g in (1, 2, 5):
        for k in (1, 3, 9):
            assert fiber_local_chern(semistable_fiber(g, k)) == (0, 0, 0)


def test_modular_invariants_semistable():
    fb = FibrationModel(
        genus=2,
        k_f_sq=Fraction(4),
        e_f=Fraction(20),
        chi_f=Fraction(2),
        singular_fibers=tuple(semistable_fiber(2) for _ in range(20)),
    )
    assert modular_invariants(fb) == (4, 20, 2)


def test_modular_invariants_i0star_only():
    fb = FibrationModel(
        genus=1,
        k_f_sq=Fraction(0),
        e_f=Fraction(6),
        chi_f=Fraction(1, 2),
        singular_fibers=(I0STAR,),
    )
    assert modular_invariants(fb) == (0, 0, 0)


def test_modular_invariants_empty_fiber_list():
    fb = FibrationModel(
        genus=2,
        k_f_sq=Fraction(12),
        e_f=Fraction(0),
        chi_f=Fraction(1),
        singular_fibers=(),
    )
    assert modular_invariants(fb) == (12, 0, 1)


def test_fibration_model_validates_noether_and_euler_sum():
    with pytest.raises(InconsistentScenario):
        FibrationModel(2, Fraction(4), Fraction(20), Fraction(3), ())
    with pytest.raises(InconsistentScenario):
        FibrationModel(
            2,
            Fraction(4),
            Fraction(20),
            Fraction(2),
            (semistable_fiber(2),),  # euler sum 1 != 20
        )
    with pytest.raises(InconsistentScenario):
        FibrationModel(
            2,
            Fraction(4),
            Fraction(20),
            Fraction(2),
            tuple(semistable_fiber(3) for _ in range(20)),  # wrong fiber genus
        )


def test_crosscheck_examples():
    genus1 = FibrationModel(
        genus=1,
        k_f_sq=Fraction(0),
        e_f=Fraction(12),
        chi_f=Fraction(1),
        singular_fibers=tuple(semistable_fiber(1) for _ in range(12)),
    )
    match = crosscheck_with_chern(genus1, ChernNumbers(0, 12, 1))
    assert match.passed
    kappa, delta, chi = modular_invariants(genus1)
    assert kappa == 0 and delta == 12 * chi and delta > 0

    mismatch = crosscheck_with_chern(genus1, ChernNumbers(0, 0, 0))
    assert mismatch.failed


def test_slope_inequality_check():
    assert slope_inequality_check(2, Fraction(2), Fraction(1)).passed
    assert slope_inequality_check(3, Fraction(8), Fraction(3)).passed
    below = slope_inequality_check(2, Fraction(3), Fraction(2))
    assert below.failed
    assert below.residual == Fraction(3, 2) - 2
    with pytest.raises(DomainError):
        slope_inequality_check(1, Fraction(1), Fraction(1))
    with pytest.raises(DomainError):
        slope_inequality_check(2, Fraction(1), Fraction(0))


def test_fiber_node_beta():
    assert FiberNode(2, 1, True).beta == Fraction(1, 2)
    assert FiberNode(4, 6, False).beta == Fraction(4, 24)
    with pytest.raises(DomainError):
        FiberNode(0, 1, False)


def reference_fiber_local_chern(fm):
    """The per-fiber corrections summed node by node as Fractions."""
    beta_f = Fraction(0)
    c_minus1 = Fraction(0)
    for node in fm.nodes:
        beta_f += node.beta
        if node.in_negative_part:
            c_minus1 += node.beta
    c1 = 4 * (fm.genus_of_fibration - fm.pa_reduced) + fm.f_red_sq - c_minus1
    c2 = fiber_euler(fm) - beta_f + c_minus1
    return c1, c2, (c1 + c2) / 12


def reference_modular(genus, k_f_sq, e_f, chi_f, fibers):
    """(kappa, delta, chi) as the global numbers minus the reference
    corrections, or the message that refuses them."""
    kappa, delta, chi = k_f_sq, e_f, chi_f
    for fm in fibers:
        c1, c2, ch = reference_fiber_local_chern(fm)
        kappa, delta, chi = kappa - c1, delta - c2, chi - ch
    if kappa < 0 or delta < 0 or chi < 0:
        return f"modular invariants must be non-negative, got ({kappa}, {delta}, {chi})"
    return kappa, delta, chi


def _modular_or_message(fb):
    try:
        return fb.modular
    except InconsistentScenario as err:
        return str(err)


# small multiplicities share denominators; large ones are mostly coprime
_multiplicities = st.one_of(st.integers(1, 6), st.integers(10**9, 10**15))
_nodes = st.builds(FiberNode, _multiplicities, _multiplicities, st.booleans())


@st.composite
def fibrations(draw):
    genus = draw(st.integers(1, 4))
    fibers = draw(
        st.lists(
            st.builds(
                FiberModel,
                st.just(genus),
                st.integers(0, genus),
                st.integers(-5, 0),
                st.lists(_nodes, max_size=8).map(tuple),
            ),
            max_size=5,
        )
    )
    e_f = sum(fiber_euler(fm) for fm in fibers)
    corrections = sum((reference_fiber_local_chern(fm)[0] for fm in fibers), Fraction(0))
    # kappa = K_f^2 - sum of c1 corrections; a negative kappa is refused
    kappa = draw(st.fractions(-3, 10, max_denominator=50))
    k_f_sq = corrections + kappa
    return genus, k_f_sq, Fraction(e_f), (k_f_sq + e_f) / 12, tuple(fibers)


@settings(max_examples=150, deadline=None)
@given(fibrations())
def test_modular_matches_the_fraction_sum_over_fibers(args):
    fb = FibrationModel(*args)
    for fm in fb.singular_fibers:
        assert fiber_local_chern(fm) == reference_fiber_local_chern(fm)
    assert _modular_or_message(fb) == reference_modular(*args)


def _primes(count):
    sieve = bytearray([1]) * 70000
    sieve[:2] = b"\x00\x00"
    for k in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytes(len(range(k * k, len(sieve), k)))
    primes = [k for k, flag in enumerate(sieve) if flag]
    assert len(primes) >= count
    return primes[:count]


def test_thousands_of_pairwise_coprime_nodes_sum_in_bounded_time():
    # node k meets branches of the k-th pair of distinct primes, so every
    # a*b is coprime to every other and the common denominator is their product
    count = 3000
    primes = _primes(2 * count)
    nodes = [FiberNode(primes[2 * k], primes[2 * k + 1], k % 3 == 0) for k in range(count)]
    fibers = tuple(FiberModel(3, 1, -2, tuple(nodes[i::3])) for i in range(3))
    e_f = Fraction(sum(fiber_euler(fm) for fm in fibers))
    k_f_sq = sum((reference_fiber_local_chern(fm)[0] for fm in fibers), Fraction(1))
    args = (3, k_f_sq, e_f, (k_f_sq + e_f) / 12, fibers)
    fb = FibrationModel(*args)
    start = time.perf_counter()
    modular = fb.modular
    elapsed = time.perf_counter() - start
    assert modular == reference_modular(*args)
    assert modular[0] == 1 and modular[1].denominator.bit_length() > 50000
    assert elapsed < 5.0
