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
stops at the first kind whose chi_p is unavailable.  A kind's number of
points is its records' counts summed (``FoliatedScenario.points_by_kind``).
The split walks a group's records, not its points: only a record on curves
can lie on N, and it is one point.

The sums are exact and kept in integers: ``_ExactSum`` holds c1^2, c2 and
12 times the direct chi as numerators over one common denominator, the lcm
of the denominators added so far, and each kind adds its numerator times its
count of points.  The direct-chi cross-check compares numerators, and a
Fraction is built once per reported number (``fibration`` sums its modular
invariants the same way).

``_RULES`` is the one place a decision rule's status and citation are
written; ``decide`` fires each rule by its id.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import Dict, List, Optional, Tuple

from .errors import DomainError, InconsistentScenario
from .foliation import FoliatedScenario, point_label
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


# Real sums stay far below this: the pipeline's largest common denominator,
# that of the double cover at g = 160, has 931 bits.  Only denominators that
# keep adding new factors pass it, and those are grouped rather than rescaled.
_RESCALE_BITS = 4096


class _ExactSum:
    """Exact rational sums kept as integer numerators over one common
    denominator, the lcm of every denominator added.

    A term whose denominator the common one does not divide rescales the
    numerators to the new lcm.  Real terms share their factors, so the lcm
    soon stops growing and most terms only add.  But k pairwise-coprime
    denominators would rescale numerators that grow with every one of them,
    a cost quadratic in k; so once the common denominator has more than
    ``_RESCALE_BITS`` bits, such terms are grouped by denominator instead,
    and ``total`` merges the groups and the running sum pairwise in a
    balanced tree, about log k rounds of products."""

    __slots__ = ("numerators", "denominator", "groups")

    def __init__(self, size: int) -> None:
        self.numerators = [0] * size
        self.denominator = 1
        self.groups: Dict[int, List[int]] = {}  # denominator -> numerators

    def add(self, slot: int, numerator: int, denominator: int, count: int = 1) -> None:
        """Add count * numerator / denominator (denominator >= 1) to sum ``slot``."""
        common = self.denominator
        if common % denominator:  # the common denominator grows
            if common.bit_length() > _RESCALE_BITS:
                group = self.groups.get(denominator)
                if group is None:
                    group = self.groups[denominator] = [0] * len(self.numerators)
                group[slot] += count * numerator
                return
            scale = denominator // gcd(common, denominator)
            self.numerators = [x * scale for x in self.numerators]
            common = self.denominator = common * scale
        self.numerators[slot] += count * numerator * (common // denominator)

    def total(self) -> Tuple[List[int], int]:
        """The numerators of every sum over one common denominator, the lcm
        of every denominator added, and that denominator."""
        if not self.groups:
            return self.numerators, self.denominator
        level = [(self.denominator, self.numerators), *self.groups.items()]
        while len(level) > 1:
            merged = []
            for (d1, n1), (d2, n2) in zip(level[::2], level[1::2]):
                g = gcd(d1, d2)
                s1, s2 = d2 // g, d1 // g
                merged.append((d1 * s1, [a * s1 + b * s2 for a, b in zip(n1, n2)]))
            if len(level) % 2:
                merged.append(level[-1])
            level = merged
        denominator, numerators = level[0]
        return numerators, denominator


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
        ids = ", ".join(point_label(s, repr) for s in f.non_reduced)
        raise DomainError(f"Chern numbers need a reduced foliation; not reduced: [{ids}]")
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
    for group, points in zip(f.by_kind, f.points_by_kind):
        value = beta_p(group[0])
        if value:
            on = 0  # a record on curves stands for one point
            for s in group:
                if not support.isdisjoint(s.incident_curves):
                    on += 1
            if on:
                add(_C1, value.numerator, value.denominator, on)
            if on < points:
                add(_C2, value.numerator, value.denominator, points - on)
        if chi_available:
            chi_s = chi_p(group[0])
            if chi_s is None:
                chi_available = False
            else:
                add(_CHI12, 12 * chi_s.numerator, chi_s.denominator, points)
    num, den = sums.total()
    c1 = Fraction(num[_C1], den)
    vol = dec.nef_square
    if c1 != vol:
        raise InconsistentScenario(
            f"c1^2 = {c1} disagrees with the volume P^2 = {vol}; the declared "
            "negative-part singularities do not match the decomposition"
        )
    c2 = Fraction(num[_C2], den)
    chi = (c1 + c2) / 12
    numbers = ChernNumbers(c1, c2, chi)

    if chi_available and num[_CHI12] != num[_C1] + num[_C2]:
        direct = Fraction(num[_CHI12], 12 * den)
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
    """The three volume lower bounds at geometric genus p_g >= 2: p_g - 2,
    p_g - 2 + 1/p_g and p_g - 3/2 + 3/(2(2 p_g + 1)), each built once from
    its closed form over the integers."""
    if p_g < 2:
        raise DomainError("Noether bounds are stated for p_g >= 2")
    return (
        Fraction(p_g - 2),
        Fraction((p_g - 1) ** 2, p_g),
        Fraction(2 * p_g * (p_g - 1), 2 * p_g + 1),
    )


def genus_bound(lam: Fraction) -> int:
    """Largest genus compatible with an integrable foliation of slope lam < 4."""
    if not 0 < lam < 4:
        raise DomainError("the genus bound applies to slopes in (0, 4)")
    return floor(Fraction(4) / (4 - lam))


# The one place each rule's status and citation are written: rule id ->
# (the status the rule implies, None if it implies none; its citation).
_RULES: Dict[str, Tuple[Optional[str], str]] = {
    "R1-rational-pencil": (
        ALGEBRAICALLY_INTEGRAL,
        "Miyaoka's criterion: a non-pseudo-effective canonical class forces a "
        "pencil of rational curves",
    ),
    "R2-nongeneral-positive-chern": (
        ALGEBRAICALLY_INTEGRAL,
        "off general type, positive c2 or chi occurs only for non-isotrivial genus-1 pencils",
    ),
    "R3-slope-below-two": (
        TRANSCENDENTAL, "integrable foliations of general type have slope at least 2"
    ),
    "R4-integrable-slope-bound": (
        None, "an integrable general-type foliation of genus g has slope at least 4(g-1)/g"
    ),
    "R5-noether-gap": (
        TRANSCENDENTAL,
        "volume below the integrable Noether bound "
        "p_g - 3/2 + 3/(2(2 p_g + 1)) forces transcendence",
    ),
    "R0-declared-integrability": (ALGEBRAICALLY_INTEGRAL, "declared metadata"),
    "R0-declared-transcendence": (TRANSCENDENTAL, "declared metadata"),
}

# The declared algebraically_integral value -> its R0 rule, and the refusal
# when a rule of the other status has fired.
_DECLARED = {
    "yes": (
        "R0-declared-integrability",
        "a transcendence rule fired on a scenario declared integrable",
    ),
    "no": (
        "R0-declared-transcendence",
        "an integrability rule fired on a scenario declared transcendental",
    ),
}


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
    Metadata conflicting with the volume or with a fired rule, and hard
    sanity violations, raise InconsistentScenario instead of producing a
    verdict.  The slope >= 1 guess is reported as an informational flag only.

    The status is the one status among the fired rules, or Undetermined.
    Fired rules never disagree: R1 and R2 fire only off general type (K_F
    not pseudo-effective, or vol = 0), R3 and R5 only in general type
    (vol > 0), so before R0 all have one status, and R0 refuses the other.
    Nor is p_g > 12 chi + 2 checked: it needs p_g >= 3, and then
    vol >= p_g - 2 > 12 chi = vol + c2 would make c2 negative.
    """
    meta, vol = f.metadata, c.c1_sq
    effective_pg = p_g if p_g is not None else meta.p_g
    fired: List[FiredRule] = []
    info: List[str] = []
    bound: Optional[int] = None

    def fire(rule_id: str, comparison: str) -> None:
        fired.append(FiredRule(rule_id, _RULES[rule_id][1], comparison))

    general = meta.k_pseudo_effective and vol > 0
    if meta.kodaira == "2" and not general:
        raise InconsistentScenario("metadata says general type but the volume vanishes")
    if meta.kodaira in ("-inf", "0", "1") and general:
        raise InconsistentScenario(
            f"metadata says kodaira {meta.kodaira} but the volume is positive"
        )

    if not meta.k_pseudo_effective:
        fire("R1-rational-pencil", "K_F not pseudo-effective")
    elif not general and (c.c2 > 0 or c.chi > 0):
        fire("R2-nongeneral-positive-chern", f"c2 = {c.c2}, chi = {c.chi}")

    if general:
        lam = slope(c)
        if lam < 2:
            fire("R3-slope-below-two", f"slope = {lam} < 2")
        if lam < 1:
            info.append(f"slope {lam} < 1 violates the expected lower bound (guess)")
        if meta.algebraically_integral == "yes":
            if genus is not None and genus >= 2:
                required = Fraction(4 * (genus - 1), genus)
                if lam < required:
                    raise InconsistentScenario(
                        f"declared integrable of genus {genus} but slope {lam} < "
                        f"4(g-1)/g = {required}"
                    )
                fire("R4-integrable-slope-bound", f"slope = {lam} >= {required} at g = {genus}")
            if lam < 4:
                bound = genus_bound(lam)
        if effective_pg is not None and effective_pg >= 2:
            first, _, third = noether_bounds(effective_pg)
            if vol < third:
                fire("R5-noether-gap", f"vol = {vol} < {third}")
            if vol < first:
                raise InconsistentScenario(
                    f"vol = {vol} violates the bound vol >= p_g - 2 = {first}"
                )
            if vol < Fraction(1, 2):
                raise InconsistentScenario(
                    f"vol = {vol} violates the universal bound vol >= 1/2 at p_g >= 2"
                )

    implied = {_RULES[r.rule_id][0] for r in fired} - {None}  # at most one status
    status = implied.pop() if implied else UNDETERMINED
    if meta.algebraically_integral in _DECLARED:
        rule_id, refusal = _DECLARED[meta.algebraically_integral]
        declared = _RULES[rule_id][0]
        if status not in (UNDETERMINED, declared):
            raise InconsistentScenario(refusal)
        fire(rule_id, f"algebraically_integral = {meta.algebraically_integral}")
        status = declared
    return Verdict(status, tuple(fired), bound, tuple(info))
