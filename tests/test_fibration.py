from fractions import Fraction

import pytest

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
