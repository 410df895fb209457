"""Chern numbers, slope, Noether bounds, and the integrability decision rules.

The three Chern numbers of a scenario with pseudo-effective canonical class:

    c1^2 = K_F^2 + sum of beta_p over singularities on the negative part,
    c2   = sum of beta_p over singularities off the negative part,
    chi  = (c1^2 + c2) / 12.

The Noether identity is the computation path for chi, which keeps the value
rational even when individual eigenvalues are not; whenever every local chi_p
is available the direct formula chi(O_S) + K_F.N_F/4 + sum chi_p is evaluated
as a cross-check and any mismatch is an inconsistency, not a warning.  The
first Chern number must also coincide with the volume P^2; this too is
asserted rather than assumed.  K_F^2 and K_F.N_F come from the scenario's
pairing table, and the volume comes from the Zariski solve of K_F = P + N as
P^2 = K_F^2 - K_F.N.  That is exact, not an approximation: the solve makes
P.C = 0 on every curve C in the support of N, so P.N = 0 and
P^2 = P.K_F = K_F^2 - K_F.N.

Both sums come from one pass over the scenario's singularities grouped by
kind (``FoliatedScenario.by_kind``).  beta_p = -1/(n d) and
chi_p = -((n + d)^2 + n d + 1)/(12 n d) are closed forms in the canonical
eigenvalue n/d (see ``local_invariants``), so each is evaluated at most once
per kind.  Only a kind with nonzero beta (not a saddle-node, not a
non-rational eigenvalue) has its points counted on and off the negative
part; the chi_p sum takes each kind's chi_p times its number of points and
stops at the first kind whose chi_p is unavailable.

The sums are exact and kept in integers: ``_ExactSum`` holds c1^2, c2 and
12 times the direct chi as numerators over one common denominator, the lcm
of the denominators added so far, and each kind adds its numerator times its
count of points.  The direct-chi cross-check compares numerators, and a
Fraction is built once per reported number (``fibration`` sums its modular
invariants the same way).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import List, Optional, Tuple

from .errors import DomainError, InconsistentScenario
from .foliation import FoliatedScenario
from .local_invariants import beta_p, chi_p
from .surface import chi_structure
from .zariski import ZariskiDecomposition, zariski_decompose

TRANSCENDENTAL = "Transcendental"
ALGEBRAICALLY_INTEGRAL = "AlgebraicallyIntegral"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class ChernNumbers:
    c1_sq: Fraction
    c2: Fraction
    chi: Fraction

    def __post_init__(self):
        if self.c1_sq < 0 or self.c2 < 0 or self.chi < 0:
            raise InconsistentScenario(
                f"Chern numbers must be non-negative, got "
                f"({self.c1_sq}, {self.c2}, {self.chi})"
            )
        if self.c1_sq + self.c2 != 12 * self.chi:
            raise InconsistentScenario(
                f"Noether equality violated: {self.c1_sq} + {self.c2} != 12*{self.chi}"
            )


class _ExactSum:
    """Exact rational sums kept as integer numerators over one common
    denominator, the lcm of every denominator added so far."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, size: int) -> None:
        self.numerators = [0] * size
        self.denominator = 1

    def add(self, slot: int, numerator: int, denominator: int, count: int = 1) -> None:
        """Add count * numerator / denominator (denominator >= 1) to sum ``slot``."""
        common = self.denominator
        g = gcd(common, denominator)
        if g != denominator:  # the common denominator grows by denominator / g
            scale = denominator // g
            self.numerators = [x * scale for x in self.numerators]
            self.denominator = common * scale
        self.numerators[slot] += count * numerator * (common // g)

    def fraction(self, slot: int) -> Fraction:
        return Fraction(self.numerators[slot], self.denominator)


_C1, _C2, _CHI12 = range(3)  # the slots of chern_numbers' sum


@dataclass(frozen=True)
class FiredRule:
    rule_id: str
    citation: str
    comparison: str


@dataclass(frozen=True)
class Verdict:
    status: str
    fired_rules: Tuple[FiredRule, ...]
    genus_bound: Optional[int] = None
    sanity_failures: Tuple[str, ...] = ()


def chern_numbers(
    f: FoliatedScenario, decomposition: Optional[ZariskiDecomposition] = None
) -> ChernNumbers:
    """The three Chern numbers of a scenario.

    A scenario whose canonical class is not pseudo-effective has all three
    equal to zero by definition.  Membership of a singularity in the negative
    part is derived: it lies on N iff one of its incident curves is in the
    support of N.  Non-reduced scenarios raise :class:`DomainError`.
    """
    if not f.is_reduced:
        ids = [s.id for s in f.non_reduced]
        raise DomainError(f"Chern numbers need a reduced foliation; not reduced: {ids}")
    if not f.metadata.k_pseudo_effective:
        return ChernNumbers(Fraction(0), Fraction(0), Fraction(0))
    dec = decomposition if decomposition is not None else zariski_decompose(f)
    support = set(dec.support)
    sums = _ExactSum(3)
    add = sums.add
    kf2 = f.kf_square
    add(_C1, kf2.numerator, kf2.denominator)
    # 12 chi = 12 chi(O_S) + 3 K_F.N_F + 12 sum chi_p on the direct path
    kn = f.kf_dot_nf
    add(_CHI12, 12 * chi_structure(f.surface), 1)
    add(_CHI12, 3 * kn.numerator, kn.denominator)
    chi_available = True
    for group in f.by_kind:
        value = beta_p(group[0])
        if value:
            on = 0
            for s in group:
                if not support.isdisjoint(s.incident_curves):
                    on += 1
            if on:
                add(_C1, value.numerator, value.denominator, on)
            if on < len(group):
                add(_C2, value.numerator, value.denominator, len(group) - on)
        if chi_available:
            chi_s = chi_p(group[0])
            if chi_s is None:
                chi_available = False
            else:
                add(_CHI12, 12 * chi_s.numerator, chi_s.denominator, len(group))
    c1 = sums.fraction(_C1)
    vol = dec.nef_square
    if c1 != vol:
        raise InconsistentScenario(
            f"c1^2 = {c1} disagrees with the volume P^2 = {vol}; the declared "
            "negative-part singularities do not match the decomposition"
        )
    c2 = sums.fraction(_C2)
    chi = (c1 + c2) / 12
    numbers = ChernNumbers(c1, c2, chi)

    num = sums.numerators
    if chi_available and num[_CHI12] != num[_C1] + num[_C2]:
        direct = Fraction(num[_CHI12], 12 * sums.denominator)
        raise InconsistentScenario(
            f"direct chi formula gives {direct}, Noether path gives {chi}"
        )
    return numbers


def slope(c: ChernNumbers) -> Fraction:
    """c1^2 / chi; defined whenever chi > 0 (always the case in general type)."""
    if c.chi == 0:
        raise DomainError("slope is undefined when chi = 0")
    return c.c1_sq / c.chi


def noether_bounds(p_g: int) -> Tuple[Fraction, Fraction, Fraction]:
    """The three volume lower bounds at geometric genus p_g >= 2."""
    if p_g < 2:
        raise DomainError("Noether bounds are stated for p_g >= 2")
    first = Fraction(p_g - 2)
    second = first + Fraction(1, p_g)
    third = Fraction(p_g) - Fraction(3, 2) + Fraction(3, 2 * (2 * p_g + 1))
    return first, second, third


def genus_bound(lam: Fraction) -> int:
    """Largest genus compatible with an integrable foliation of slope lam < 4."""
    if not 0 < lam < 4:
        raise DomainError("the genus bound applies to slopes in (0, 4)")
    return floor(Fraction(4) / (4 - lam))


_R1 = FiredRule(
    "R1-rational-pencil",
    "Miyaoka's criterion: a non-pseudo-effective canonical class forces a "
    "pencil of rational curves",
    "K_F not pseudo-effective",
)


def decide(
    f: FoliatedScenario,
    c: ChernNumbers,
    genus: Optional[int] = None,
    p_g: Optional[int] = None,
) -> Verdict:
    """Apply the decision rules and return a rule-cited verdict.

    The volume is ``c.c1_sq``, which ``chern_numbers`` takes from P^2.
    ``genus`` is the fibration genus when one is known; ``p_g`` overrides the
    metadata value when the geometric genus was computed rather than declared.
    Contradictory firings, metadata conflicting with a fired rule, and hard
    sanity violations all raise InconsistentScenario instead of producing a
    verdict.  The slope >= 1 guess is reported as an informational flag only.
    """
    meta, vol = f.metadata, c.c1_sq
    effective_pg = p_g if p_g is not None else meta.p_g
    fired: List[FiredRule] = []
    statuses = set()
    info: List[str] = []
    bound: Optional[int] = None

    pe = meta.k_pseudo_effective
    general = pe and vol > 0
    if meta.kodaira == "2" and not general:
        raise InconsistentScenario(
            "metadata says general type but the volume vanishes"
        )
    if meta.kodaira in ("-inf", "0", "1") and general:
        raise InconsistentScenario(
            f"metadata says kodaira {meta.kodaira} but the volume is positive"
        )

    if not pe:
        fired.append(_R1)
        statuses.add(ALGEBRAICALLY_INTEGRAL)

    if pe and not general and (c.c2 > 0 or c.chi > 0):
        fired.append(
            FiredRule(
                "R2-nongeneral-positive-chern",
                "off general type, positive c2 or chi occurs only for "
                "non-isotrivial genus-1 pencils",
                f"c2 = {c.c2}, chi = {c.chi}",
            )
        )
        statuses.add(ALGEBRAICALLY_INTEGRAL)

    lam: Optional[Fraction] = None
    if general:
        lam = slope(c)
        if lam < 2:
            fired.append(
                FiredRule(
                    "R3-slope-below-two",
                    "integrable foliations of general type have slope at least 2",
                    f"slope = {lam} < 2",
                )
            )
            statuses.add(TRANSCENDENTAL)
        if lam < 1:
            info.append(f"slope {lam} < 1 violates the expected lower bound (guess)")

    if general and meta.algebraically_integral == "yes":
        if genus is not None and genus >= 2:
            required = Fraction(4 * (genus - 1), genus)
            if lam < required:
                raise InconsistentScenario(
                    f"declared integrable of genus {genus} but slope {lam} < "
                    f"4(g-1)/g = {required}"
                )
            fired.append(
                FiredRule(
                    "R4-integrable-slope-bound",
                    "an integrable general-type foliation of genus g has slope "
                    "at least 4(g-1)/g",
                    f"slope = {lam} >= {required} at g = {genus}",
                )
            )
        if lam < 4:
            bound = genus_bound(lam)

    if general and effective_pg is not None and effective_pg >= 2:
        first, _, third = noether_bounds(effective_pg)
        if vol < third:
            fired.append(
                FiredRule(
                    "R5-noether-gap",
                    "volume below the integrable Noether bound "
                    "p_g - 3/2 + 3/(2(2 p_g + 1)) forces transcendence",
                    f"vol = {vol} < {third}",
                )
            )
            statuses.add(TRANSCENDENTAL)
        if vol < first:
            raise InconsistentScenario(
                f"vol = {vol} violates the bound vol >= p_g - 2 = {first}"
            )
        if vol < Fraction(1, 2):
            raise InconsistentScenario(
                f"vol = {vol} violates the universal bound vol >= 1/2 at p_g >= 2"
            )
    if general and effective_pg is not None and effective_pg > 12 * c.chi + 2:
        raise InconsistentScenario(
            f"p_g = {effective_pg} exceeds 12*chi + 2 = {12 * c.chi + 2}"
        )

    if meta.algebraically_integral == "yes":
        if TRANSCENDENTAL in statuses:
            raise InconsistentScenario(
                "a transcendence rule fired on a scenario declared integrable"
            )
        fired.append(
            FiredRule(
                "R0-declared-integrability",
                "declared metadata",
                "algebraically_integral = yes",
            )
        )
        statuses.add(ALGEBRAICALLY_INTEGRAL)
    if meta.algebraically_integral == "no":
        if ALGEBRAICALLY_INTEGRAL in statuses:
            raise InconsistentScenario(
                "an integrability rule fired on a scenario declared transcendental"
            )
        fired.append(
            FiredRule(
                "R0-declared-transcendence",
                "declared metadata",
                "algebraically_integral = no",
            )
        )
        statuses.add(TRANSCENDENTAL)

    if TRANSCENDENTAL in statuses and ALGEBRAICALLY_INTEGRAL in statuses:
        raise InconsistentScenario(
            "contradictory rule firings: both transcendence and integrability"
        )
    if TRANSCENDENTAL in statuses:
        status = TRANSCENDENTAL
    elif ALGEBRAICALLY_INTEGRAL in statuses:
        status = ALGEBRAICALLY_INTEGRAL
    else:
        status = UNDETERMINED
    return Verdict(
        status=status,
        fired_rules=tuple(fired),
        genus_bound=bound,
        sanity_failures=tuple(info),
    )
