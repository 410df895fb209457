import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import folsurf
from folsurf.blowup import (
    DICRITICAL,
    SADDLE_NODE_ENDING,
    blow_up_singularity,
    reduction_step_bound,
    seidenberg_reduce,
    transform_canonical,
)
from folsurf.errors import DomainError
from folsurf.local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    SaddleNode,
    SingularityRecord,
    beta,
    beta_p,
    chi_p,
)


LAZY_BLOWUP = """
import sys
import folsurf

assert "folsurf.blowup" not in sys.modules
from folsurf import BlowupOutcome, seidenberg_reduce

assert "folsurf.blowup" in sys.modules
assert seidenberg_reduce.__module__ == BlowupOutcome.__module__ == "folsurf.blowup"
try:
    folsurf.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("folsurf.no_such_name was found")
"""


def test_the_package_imports_blowup_on_first_use():
    # no pipeline stage or CLI command blows up a point, so importing the
    # package does not pay for the module
    env = dict(os.environ)
    src = str(Path(folsurf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", LAZY_BLOWUP], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "a_p,invariant,expected",
    [(1, True, 0), (0, True, -1), (1, False, 1), (2, True, 1), (2, False, 2)],
)
def test_transform_canonical(a_p, invariant, expected):
    assert transform_canonical(a_p, invariant) == expected


def nd(lam):
    return SingularityRecord("p", NonDegenerate(EigenvalueClass.rational(lam)))


def test_blow_up_regular_point():
    out = blow_up_singularity(None)
    assert out.exceptional_invariant
    assert out.k_drop == -1
    (child,) = out.children
    assert child.eigenvalue == EigenvalueClass.rational(-1)
    assert beta_p(child) == 1
    assert chi_p(child) == 0


def test_blow_up_generic_case_children():
    out = blow_up_singularity(nd(3))
    values = sorted(c.eigenvalue.value for c in out.children)
    # the pair {lam - 1, 1/lam - 1} = {2, -2/3}; -2/3 is stored as -3/2
    assert values == [Fraction(-3, 2), Fraction(2)]
    assert beta(Fraction(-3)) == beta(Fraction(-2)) + beta(Fraction(2, 3))
    assert out.k_drop == 0


def test_blow_up_saddle_node():
    sn = SingularityRecord("p", SaddleNode(3, Fraction(5)))
    out = blow_up_singularity(sn)
    kinds = out.children
    assert isinstance(kinds[0].kind, SaddleNode)
    assert kinds[0].kind.multiplicity == 3
    assert kinds[0].kind.bb_index == 4
    assert kinds[1].eigenvalue == EigenvalueClass.rational(-1)
    # beta additivity with the -1 correction: 0 = 0 + 1 - 1
    assert beta_p(sn) == beta_p(kinds[0]) + beta_p(kinds[1]) - 1
    assert chi_p(sn) == chi_p(kinds[0]) + chi_p(kinds[1]) - Fraction(1, 12)


def test_blow_up_eigenvalue_one_needs_epsilon():
    with pytest.raises(DomainError):
        blow_up_singularity(nd(1))
    dicritical = blow_up_singularity(nd(1), epsilon=0)
    assert not dicritical.exceptional_invariant
    assert dicritical.children == ()
    assert dicritical.k_drop == 1

    saddle = blow_up_singularity(nd(1), epsilon=1)
    assert saddle.exceptional_invariant
    (child,) = saddle.children
    assert isinstance(child.kind, SaddleNode)
    assert child.kind.multiplicity == 2
    assert beta_p(nd(1)) == beta_p(child) - 1
    assert chi_p(nd(1)) == chi_p(child) - Fraction(1, 12)


def test_blow_up_nonrational_children():
    s = SingularityRecord("p", NonDegenerate(EigenvalueClass.nonrational()))
    out = blow_up_singularity(s)
    assert all(c.eigenvalue.value is None for c in out.children)


def test_beta_chi_additivity_random():
    rng = random.Random(451)
    for _ in range(10_000):
        num = rng.randint(-60, 60)
        den = rng.randint(1, 40)
        if num == 0:
            continue
        lam = Fraction(num, den)
        if lam == 1:
            continue
        parent = nd(lam)
        out = blow_up_singularity(parent)
        assert beta_p(parent) == sum(beta_p(c) for c in out.children)
        assert chi_p(parent) == sum(chi_p(c) for c in out.children)


@pytest.mark.parametrize(
    "lam,expected",
    [(Fraction(3, 2), 3), (Fraction(1), 1), (Fraction(5, 3), 4), (Fraction(7), 7)],
)
def test_reduction_step_bound(lam, expected):
    assert reduction_step_bound(lam) == expected


def test_seidenberg_examples():
    r = seidenberg_reduce(Fraction(3, 2), 0)
    assert r.ending == DICRITICAL
    assert r.k_corrections == 1
    values = sorted(s.eigenvalue.value for s in r.resolved)
    # classes of {-1/3, -1/2} are stored as {-3, -2}
    assert values == [Fraction(-3), Fraction(-2)]
    assert sum(beta_p(s) for s in r.resolved) == beta(Fraction(-3, 2)) + 1
    assert r.steps == 3
    assert r.chain_self_intersections == (-3, -1, -2)

    unit = seidenberg_reduce(Fraction(1), 0)
    assert unit.ending == DICRITICAL
    assert unit.resolved == ()
    assert unit.steps == 1
    assert unit.chain_self_intersections is None

    sn = seidenberg_reduce(Fraction(2), 1)
    assert sn.ending == SADDLE_NODE_ENDING
    assert sn.k_corrections == 0
    assert sn.steps == 2
    kinds = [s.kind for s in sn.resolved]
    assert any(isinstance(k, SaddleNode) and k.multiplicity == 2 for k in kinds)
    reduced = [s for s in sn.resolved if s.eigenvalue is not None]
    assert [s.eigenvalue.value for s in reduced] == [Fraction(-2)]


def test_seidenberg_five_thirds_chain():
    r = seidenberg_reduce(Fraction(5, 3), 0)
    assert r.steps == 4
    assert r.chain_self_intersections == (-3, -2, -1, -3)
    assert sum(beta_p(s) for s in r.resolved) == beta(Fraction(-5, 3)) + 1


def _contracts_to_nothing(chain):
    curves = list(chain)
    while curves:
        try:
            i = curves.index(-1)
        except ValueError:
            return False
        if i > 0:
            curves[i - 1] += 1
        if i + 1 < len(curves):
            curves[i + 1] += 1
        curves.pop(i)
    return True


def test_chain_is_a_contractible_blowup_tower():
    for num in range(2, 25):
        for den in range(2, 25):
            if gcd(num, den) != 1:
                continue
            r = seidenberg_reduce(Fraction(num, den), 0)
            assert r.chain_self_intersections is not None
            assert _contracts_to_nothing(r.chain_self_intersections)
            assert r.chain_self_intersections.count(-1) == 1


@functools.cache
def _small_sweep():
    """Reduce every coprime eigenvalue m1/m2 <= 60 with both epsilons, once."""
    sweep = []
    for num in range(1, 61):
        for den in range(1, 61):
            if gcd(num, den) != 1:
                continue
            lam = Fraction(num, den)
            for eps in (0, 1):
                sweep.append((lam, eps, seidenberg_reduce(lam, eps)))
    return tuple(sweep)


def test_seidenberg_exhaustive_small():
    for lam, eps, r in _small_sweep():
        assert r.steps <= reduction_step_bound(lam)
        assert all(s.is_reduced for s in r.resolved)
        if r.ending == DICRITICAL:
            assert r.k_corrections == 1
            assert sum(beta_p(s) for s in r.resolved) == beta(-lam) + 1
        else:
            saddles = [s for s in r.resolved if isinstance(s.kind, SaddleNode)]
            assert len(saddles) == 1
            assert saddles[0].kind.multiplicity == 2
            assert r.k_corrections == 0


def test_seidenberg_steps_equal_the_bound():
    # the step count is exactly the bound the docstring states
    cases = 0
    for lam, eps, r in _small_sweep():
        assert r.steps == reduction_step_bound(lam), (lam, eps)
        cases += 1
    assert cases == 4406


def _hirzebruch_jung_numerator(entries):
    """Numerator of e1 - 1/(e2 - 1/(... - 1/ek)), evaluated from the inside."""
    value = Fraction(entries[-1])
    for e in reversed(entries[:-1]):
        value = e - 1 / value
    return value.numerator


def test_seidenberg_chain_arms_are_the_continued_fractions_of_lam():
    # an independent oracle: the arms left and right of the (-1)-curve
    # resolve the cyclic quotient points m1 and m2 of the eigenvalue m1/m2
    pairs = 0
    for m1 in range(2, 61):
        for m2 in range(2, 61):
            if gcd(m1, m2) != 1:
                continue
            chain = seidenberg_reduce(Fraction(m1, m2), 0).chain_self_intersections
            i = chain.index(-1)
            left, right = [-e for e in chain[:i]], [-e for e in chain[i + 1 :]]
            assert _hirzebruch_jung_numerator(left) == m1, (m1, m2, chain)
            assert _hirzebruch_jung_numerator(right) == m2, (m1, m2, chain)
            pairs += 1
    assert pairs == 2084
