"""Local Chern numbers of normal-crossing fibers and modular invariants.

Only normal-crossing fibers are supported: alpha_F = 0 and the total Milnor
number equals the node count, which is what the correction formulas below
assume.  A node where branches of multiplicities a and b meet is the point
lam = -a/b, so its beta is gcd(a, b)^2 / (a b) (``local_invariants.beta_ratio``).
A fiber's corrections are c1^2 = 4(g - p_a(F_red)) + F_red^2 - c_{-1} and
c2 = e_F - beta_F + c_{-1}, where beta_F sums beta over all nodes and c_{-1}
over the nodes on the negative part.  ``_fiber_terms`` is that formula,
written once: it returns the integer parts and adds each node's beta to an
exact sum (``chern._ExactSum``), kept apart for nodes off and on the negative
part, so beta_F is both sums and c_{-1} the second.  ``fiber_local_chern``
reads one fiber through it, and ``FibrationModel.modular`` every fiber into
one sum, so the node terms of a whole fibration meet over one common
denominator and become Fractions once.  The global numbers K_f^2, e_f,
chi_f are inputs validated against the fiber list rather than derived from a
surface model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Tuple

from .chern import ChernNumbers, _ExactSum
from .errors import DomainError, InconsistentScenario
from .foliation import CheckResult
from .local_invariants import as_rational, beta_ratio


@dataclass(frozen=True)
class FiberNode:
    """A normal-crossing point where branches of multiplicities a and b meet;
    the foliation eigenvalue there is -a/b."""

    a: int
    b: int
    in_negative_part: bool

    def __post_init__(self):
        if type(self.a) is not int or type(self.b) is not int or self.a < 1 or self.b < 1:
            raise DomainError("node branch multiplicities must be integers >= 1")

    @property
    def beta(self) -> Fraction:
        """beta_p = beta(a/b) = gcd(a, b)^2 / (a b) at lam = -a/b."""
        return beta_ratio(self.a, self.b)


@dataclass(frozen=True)
class FiberModel:
    genus_of_fibration: int
    pa_reduced: int
    f_red_sq: int
    nodes: Tuple[FiberNode, ...]
    alpha: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if type(self.genus_of_fibration) is not int or self.genus_of_fibration < 1:
            raise DomainError("fiber genus must be an integer >= 1")
        # a connected reduced fiber of a genus-g fibration has 0 <= p_a <= g
        if type(self.pa_reduced) is not int or not 0 <= self.pa_reduced <= self.genus_of_fibration:
            raise DomainError("a fiber's p_a(F_red) must be an integer from 0 to the fiber genus")
        if type(self.f_red_sq) is not int or self.f_red_sq > 0:
            raise DomainError("a fiber's reduced self-intersection must be an integer <= 0")
        if type(self.alpha) is not int or self.alpha != 0:
            raise DomainError(
                "alpha must be the integer 0: only normal-crossing fibers are supported"
            )


def _fiber_terms(fm: FiberModel, betas: _ExactSum) -> Tuple[int, int]:
    """The integer parts (4(g - p_a(F_red)) + F_red^2, e_F) of a fiber's
    c1^2 and c2 corrections.  Each node's beta, ``beta_ratio(a, b)`` as an
    integer numerator and denominator, is added to ``betas``: slot 1 for a
    node on the negative part, slot 0 for one off it.  The corrections are
    c1^2 = first - slot 1 and c2 = e_F - slot 0."""
    add = betas.add
    for node in fm.nodes:
        a, b = node.a, node.b
        g = gcd(a, b)
        add(node.in_negative_part, g * g, a * b)
    return 4 * (fm.genus_of_fibration - fm.pa_reduced) + fm.f_red_sq, fiber_euler(fm)


def fiber_local_chern(fm: FiberModel) -> Tuple[Fraction, Fraction, Fraction]:
    """(c1^2, c2, chi) corrections of a single normal-crossing fiber."""
    betas = _ExactSum(2)
    first, euler = _fiber_terms(fm, betas)
    c1 = first - betas.fraction(1)
    c2 = euler - betas.fraction(0)
    return c1, c2, (c1 + c2) / 12


def fiber_euler(fm: FiberModel) -> int:
    """e_F = 2 (g - p_a(F_red)) + number of nodes."""
    return 2 * (fm.genus_of_fibration - fm.pa_reduced) + len(fm.nodes)


@dataclass(frozen=True)
class FibrationModel:
    genus: int
    k_f_sq: Fraction
    e_f: Fraction
    chi_f: Fraction
    singular_fibers: Tuple[FiberModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "k_f_sq", as_rational(self.k_f_sq))
        object.__setattr__(self, "e_f", as_rational(self.e_f))
        object.__setattr__(self, "chi_f", as_rational(self.chi_f))
        object.__setattr__(self, "singular_fibers", tuple(self.singular_fibers))
        if type(self.genus) is not int or self.genus < 1:
            raise DomainError("fibration genus must be an integer >= 1")
        if self.k_f_sq + self.e_f != 12 * self.chi_f:
            raise InconsistentScenario(
                f"K_f^2 + e_f = {self.k_f_sq + self.e_f} != 12 chi_f = {12 * self.chi_f}"
            )
        for fm in self.singular_fibers:
            if fm.genus_of_fibration != self.genus:
                raise InconsistentScenario(
                    "a singular fiber declares a different genus than the fibration"
                )
        total = sum(fiber_euler(fm) for fm in self.singular_fibers)
        if total != self.e_f:
            raise InconsistentScenario(
                f"sum of fiber Euler numbers {total} != e_f = {self.e_f}"
            )

    @cached_property
    def modular(self) -> Tuple[Fraction, Fraction, Fraction]:
        """(kappa, delta, chi), see :func:`modular_invariants`."""
        betas = _ExactSum(2)
        first = euler = 0
        for fm in self.singular_fibers:
            f1, e = _fiber_terms(fm, betas)
            first += f1
            euler += e
        off_n, on_n = betas.fraction(0), betas.fraction(1)
        kappa = self.k_f_sq - first + on_n
        delta = self.e_f - euler + off_n
        # the sum over fibers of (c1^2 + c2) / 12
        chi = self.chi_f - (first + euler - off_n - on_n) / 12
        if kappa < 0 or delta < 0 or chi < 0:
            raise InconsistentScenario(
                f"modular invariants must be non-negative, got ({kappa}, {delta}, {chi})"
            )
        if kappa + delta != 12 * chi:
            raise InconsistentScenario(
                f"kappa + delta = {kappa + delta} != 12 chi = {12 * chi}"
            )
        return kappa, delta, chi


def modular_invariants(fb: FibrationModel) -> Tuple[Fraction, Fraction, Fraction]:
    """(kappa, delta, chi): the global numbers minus all local corrections,
    computed once per fibration (``FibrationModel.modular``).

    The result must satisfy kappa + delta = 12 chi and be non-negative;
    violations mean the declared data is inconsistent.
    """
    return fb.modular


def crosscheck_with_chern(fb: FibrationModel, c: ChernNumbers) -> CheckResult:
    """Pass iff (kappa, delta, chi) equal (c1^2, c2, chi) exactly."""
    kappa, delta, chi = modular_invariants(fb)
    mismatches = []
    if kappa != c.c1_sq:
        mismatches.append(f"kappa = {kappa} vs c1^2 = {c.c1_sq}")
    if delta != c.c2:
        mismatches.append(f"delta = {delta} vs c2 = {c.c2}")
    if chi != c.chi:
        mismatches.append(f"chi(f) = {chi} vs chi = {c.chi}")
    return CheckResult(
        name="fibration.crosscheck",
        passed=not mismatches,
        detail="; ".join(mismatches) or "modular invariants match the Chern numbers",
    )


def slope_inequality_check(g: int, kappa: Fraction, chi: Fraction) -> CheckResult:
    """Pass iff kappa/chi >= 4(g-1)/g for a genus-g fibration, g >= 2."""
    if g < 2:
        raise DomainError("the slope inequality applies to genus >= 2")
    if chi <= 0:
        raise DomainError("the slope inequality requires chi > 0")
    bound = Fraction(4 * (g - 1), g)
    value = kappa / chi
    return CheckResult(
        name="fibration.slope-inequality",
        passed=value >= bound,
        detail=f"kappa/chi = {value} vs 4(g-1)/g = {bound}",
        residual=value - bound,
    )
