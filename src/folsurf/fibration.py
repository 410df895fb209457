"""Local Chern numbers of normal-crossing fibers and modular invariants.

Only normal-crossing fibers are supported: alpha_F = 0 and the total Milnor
number equals the node count, which is what the correction formulas below
assume.  A ``FiberModel`` may stand for ``count`` equal fibers; it is never
expanded, and every sum below multiplies its terms by the count.  A node
where branches of multiplicities a and b meet is the point lam = -a/b, so
its beta is gcd(a, b)^2 / (a b) (``local_invariants.beta_ratio``).
A fiber's corrections are c1^2 = 4(g - p_a(F_red)) + F_red^2 - c_{-1} and
c2 = e_F - beta_F + c_{-1}, where beta_F sums beta over all nodes and c_{-1}
over the nodes on the negative part.  ``_fiber_terms`` is that formula,
written once: it returns the integer parts and adds each node's beta to an
exact sum (``chern._ExactSum``), kept apart for nodes off and on the negative
part, so beta_F is both sums and c_{-1} the second.  ``_corrections`` is the
one place the sum is run and read: ``fiber_local_chern`` passes it one
fiber, and ``FibrationModel.modular`` every fiber, so the node terms of a
whole fibration meet over one common denominator.  Each modular invariant is
then one Fraction: its declared global number less the summed correction,
written as one integer numerator over the two denominators, and the
non-negativity check reads those numerators.  That kappa + delta equals
12 chi needs no check: the constructor refuses K_f^2 + e_f != 12 chi_f,
and the chi correction is the sum of the other two over 12.  The global
numbers K_f^2, e_f, chi_f are inputs validated against the fiber list
rather than derived from a surface model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Tuple

from .chern import ChernNumbers, _ExactSum
from .errors import DomainError, InconsistentScenario
from .foliation import CheckResult
from .local_invariants import as_rational, cached, fraction


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


@dataclass(frozen=True)
class FiberModel:
    """A normal-crossing singular fiber, or ``count`` equal ones.  A counted
    fiber is never expanded: its Euler number, node betas and corrections
    are multiplied by ``count``."""

    genus_of_fibration: int
    pa_reduced: int
    f_red_sq: int
    nodes: Tuple[FiberNode, ...]
    alpha: int = 0
    count: int = 1

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
        if type(self.count) is not int or self.count < 1:
            raise DomainError("a fiber's count must be an integer >= 1")


def _fiber_terms(fm: FiberModel, betas: _ExactSum) -> Tuple[int, int]:
    """The integer parts (4(g - p_a(F_red)) + F_red^2, e_F) of the c1^2 and
    c2 corrections of a fiber's ``count`` copies.  Each node's beta,
    ``local_invariants.beta_ratio(a, b)`` as an integer numerator and
    denominator, is added ``count`` times to ``betas``: slot 1 for a node on
    the negative part, slot 0 for one off it."""
    add, count = betas.add, fm.count
    for node in fm.nodes:
        a, b = node.a, node.b
        g = gcd(a, b)
        add(node.in_negative_part, g * g, a * b, count)
    first = 4 * (fm.genus_of_fibration - fm.pa_reduced) + fm.f_red_sq
    return count * first, fiber_euler(fm)


def _corrections(fibers: Iterable[FiberModel]) -> Tuple[int, int, int, int, int]:
    """The corrections of ``fibers`` summed, as (first, euler, off, on, den):
    ``_fiber_terms`` of every fiber, its integer parts added up and its node
    betas into one exact sum over the common denominator den.  The summed
    c1^2 correction is first - on / den, and the c2 one euler - off / den."""
    betas = _ExactSum(2)
    first = euler = 0
    for fm in fibers:
        f1, e = _fiber_terms(fm, betas)
        first += f1
        euler += e
    (off, on), den = betas.total()
    return first, euler, off, on, den


def fiber_local_chern(fm: FiberModel) -> Tuple[Fraction, Fraction, Fraction]:
    """(c1^2, c2, chi) corrections of a normal-crossing fiber, summed over
    its ``count`` copies."""
    first, euler, off, on, den = _corrections((fm,))
    c1 = first - fraction(on, den)
    c2 = euler - fraction(off, den)
    return c1, c2, (c1 + c2) / 12


def fiber_euler(fm: FiberModel) -> int:
    """e_F = 2 (g - p_a(F_red)) + number of nodes, summed over the fiber's
    ``count`` copies."""
    return fm.count * (2 * (fm.genus_of_fibration - fm.pa_reduced) + len(fm.nodes))


@dataclass(frozen=True)
class FibrationModel:
    """A fibration of genus g: its modular invariants K_f^2, e_f and chi_f,
    and its singular fibers."""

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

    @cached
    def modular(self) -> Tuple[Fraction, Fraction, Fraction]:
        """(kappa, delta, chi), see :func:`modular_invariants`."""
        first, euler, off, on, den = _corrections(self.singular_fibers)

        def less(declared: Fraction, correction: int, scale: int = 1) -> Tuple[int, int]:
            """declared - correction / (scale den) as a numerator n over
            scale r den, r the part of the declared denominator den lacks"""
            q = declared.denominator
            g = gcd(q, den)
            r = q // g
            return declared.numerator * scale * (den // g) - r * correction, r

        # the corrections summed over fibers, c1^2 and c2, and their sum / 12
        k, kr = less(self.k_f_sq, first * den - on)
        d, dr = less(self.e_f, euler * den - off)
        c, cr = less(self.chi_f, (first + euler) * den - off - on, 12)
        kappa, delta, chi = fraction(k, kr * den), fraction(d, dr * den), fraction(c, 12 * cr * den)
        if k < 0 or d < 0 or c < 0:
            raise InconsistentScenario(
                f"modular invariants must be non-negative, got ({kappa}, {delta}, {chi})"
            )
        return kappa, delta, chi


def modular_invariants(fb: FibrationModel) -> Tuple[Fraction, Fraction, Fraction]:
    """(kappa, delta, chi): the global numbers minus all local corrections,
    computed once per fibration (``FibrationModel.modular``).

    The result has kappa + delta equal to 12 chi by construction and must be
    non-negative; a negative one means the declared data is inconsistent.
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
    bound = fraction(4 * (g - 1), g)
    value = kappa / chi
    return CheckResult(
        name="fibration.slope-inequality",
        passed=value >= bound,
        detail=f"kappa/chi = {value} vs 4(g-1)/g = {bound}",
        residual=value - bound,
    )
