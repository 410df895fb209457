"""The foliated-scenario aggregate and its pointwise/curvewise identities.

A scenario bundles a surface model, the canonical class of a foliation,
named curves, singularities, and metadata.  The identities implemented here
are all class-level: the tangency count of a non-invariant curve, the total
Z-index of an invariant curve, the Camacho-Sad balance, and the global
singularity count.  Per-point indices are never inferred from local
equations; they are declared or derived by exact branch matching.  A
scenario pairs its curves with each other and with K_F and K_S, and K_F
with itself and K_S, once, on first use (``FoliatedScenario.pairings``).
Every curvewise identity, K_F.N_F = K_F^2 - K_F.K_S (``kf_dot_nf``), K_F^2
for the Chern numbers and the Zariski solve read that one table.  The
Camacho-Sad balance is decided exactly, by one iterative sweep per connected
component of the invariant curves, under one work budget for the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .errors import DomainError, InconsistentScenario
from .local_invariants import SingularityRecord
from .surface import (
    DivisorClass,
    Pairings,
    SurfaceModel,
    canonical_class,
    chi_top,
    pairing_table,
)

KODAIRA_VALUES = ("-inf", "0", "1", "2")
INTEGRALITY_VALUES = ("yes", "no", "unknown")

# work that ``resolve_camacho_sad`` may spend over all components: each
# candidate vector of partial sums costs its length plus one
CAMACHO_SAD_WORK_BUDGET = 200_000

TRUST_BOUNDARY_WARNING = (
    "zariski: only declared curves are visible to the decomposition; an "
    "undeclared obstructing curve cannot be detected"
)


@dataclass(frozen=True)
class CurveRecord:
    name: str
    cls: DivisorClass
    f_invariant: bool
    arithmetic_genus_hint: Optional[int] = None


@dataclass(frozen=True)
class ScenarioMetadata:
    k_pseudo_effective: bool
    relatively_minimal: bool
    algebraically_integral: str = "unknown"
    kodaira: Optional[str] = None
    p_g: Optional[int] = None

    def __post_init__(self):
        if self.algebraically_integral not in INTEGRALITY_VALUES:
            raise DomainError(
                f"algebraically_integral must be one of {INTEGRALITY_VALUES}"
            )
        if self.kodaira is not None and self.kodaira not in KODAIRA_VALUES:
            raise DomainError(f"kodaira must be one of {KODAIRA_VALUES} or unknown")
        if self.p_g is not None and self.p_g < 0:
            raise DomainError("p_g must be >= 0")


@dataclass(frozen=True)
class FoliatedScenario:
    name: str
    surface: SurfaceModel
    k_foliation: DivisorClass
    curves: Tuple[CurveRecord, ...]
    singularities: Tuple[SingularityRecord, ...]
    metadata: ScenarioMetadata

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "singularities", tuple(self.singularities))
        names = [c.name for c in self.curves]
        if len(set(names)) != len(names):
            raise DomainError("curve names must be unique")
        ids = [s.id for s in self.singularities]
        if len(set(ids)) != len(ids):
            raise DomainError("singularity ids must be unique")

    @cached_property
    def pairings(self) -> Pairings:
        """The curves paired with each other and with [K_F, K_S], and K_F
        with [K_F, K_S], built once."""
        return pairing_table([c.cls for c in self.curves], [self.k_foliation])

    @property
    def kf_square(self) -> Fraction:
        """K_F^2, from the pairing table; the first Chern number reads it."""
        t = self.pairings
        return Fraction(t.among[0][0], t.scale * t.scale)

    @cached_property
    def kf_dot_nf(self) -> Fraction:
        """K_F.N_F = K_F^2 - K_F.K_S, from the pairing table; the singularity
        count and the direct chi formula read it."""
        t = self.pairings
        kf_kf, kf_ks = t.among[0]
        return Fraction(kf_kf - kf_ks, t.scale * t.scale)

    @cached_property
    def singularity_count(self) -> int:
        """The number of singularities counted with multiplicity, summed once;
        the count check and the report read it."""
        return sum(s.multiplicity for s in self.singularities)

    @cached_property
    def _positions(self) -> Dict[str, int]:
        return {c.name: i for i, c in enumerate(self.curves)}

    @cached_property
    def _incidence(self) -> Dict[str, Tuple[SingularityRecord, ...]]:
        on: Dict[str, List[SingularityRecord]] = {}
        for s in self.singularities:
            for name in dict.fromkeys(s.incident_curves):
                on.setdefault(name, []).append(s)
        return {name: tuple(sings) for name, sings in on.items()}

    def curve(self, name: str) -> CurveRecord:
        if name not in self._positions:
            raise DomainError(f"no curve named {name!r}")
        return self.curves[self._positions[name]]

    def singularities_on(self, curve_name: str) -> Tuple[SingularityRecord, ...]:
        return self._incidence.get(curve_name, ())

    @cached_property
    def _numbers(self) -> List[Tuple[Fraction, Fraction, Fraction]]:
        t = self.pairings
        unit = t.scale * t.scale
        return [
            (Fraction(sq, unit), Fraction(kf, unit), Fraction(ks, unit))
            for sq, kf, ks in zip(t.squares, *t.against)
        ]

    def curve_numbers(self, c: CurveRecord) -> Tuple[Fraction, Fraction, Fraction]:
        """C^2, K_F.C and K_S.C of a declared curve, from the pairing table."""
        i = self._positions.get(c.name)
        if i is None or self.curves[i] != c:
            raise DomainError(f"{c.name} is not a curve of this scenario")
        return self._numbers[i]

    @cached_property
    def is_reduced(self) -> bool:
        return all(s.is_reduced for s in self.singularities)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: Optional[bool]  # None means the check was skipped
    detail: str = ""
    residual: Optional[Fraction] = None

    @property
    def failed(self) -> bool:
        return self.passed is False

    @property
    def status(self) -> str:
        """'skip', 'pass' or 'fail'."""
        return "skip" if self.passed is None else ("pass" if self.passed else "fail")


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[CheckResult, ...]
    warnings: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not any(c.failed for c in self.checks)


def normal_class(f: FoliatedScenario) -> DivisorClass:
    """N_F = K_F - K_S, derived rather than stored."""
    return f.k_foliation - canonical_class(f.surface)


def tangency(f: FoliatedScenario, c: CurveRecord) -> int:
    """tang = K_F.C + C^2 for a curve that is not invariant; always >= 0."""
    if c.f_invariant:
        raise DomainError(f"{c.name}: tangency is defined for non-invariant curves")
    square, kf, _ = f.curve_numbers(c)
    value = kf + square
    if value.denominator != 1:
        raise InconsistentScenario(f"{c.name}: tangency count {value} is not an integer")
    if value < 0:
        raise InconsistentScenario(f"{c.name}: tangency count {value} is negative")
    return int(value)


def z_total(f: FoliatedScenario, c: CurveRecord) -> Fraction:
    """Z = K_F.C + chi(C) with chi(C) = -K_S.C - C^2, for an invariant curve."""
    if not c.f_invariant:
        raise DomainError(f"{c.name}: total Z-index is defined for invariant curves")
    square, kf, ks = f.curve_numbers(c)
    return kf - ks - square


def camacho_sad_check(
    f: FoliatedScenario,
    c: CurveRecord,
    cs_assignments: Mapping[str, Fraction],
) -> CheckResult:
    """Pass iff the assigned indices cover exactly the incident singularities
    and sum to C^2."""
    if not c.f_invariant:
        raise DomainError(f"{c.name}: Camacho-Sad applies to invariant curves")
    incident = {s.id for s in f.singularities_on(c.name)}
    if set(cs_assignments) != incident:
        missing = sorted(incident - set(cs_assignments))
        extra = sorted(set(cs_assignments) - incident)
        return CheckResult(
            name=f"camacho-sad.{c.name}",
            passed=False,
            detail=f"assignment keys mismatch (missing {missing}, extra {extra})",
        )
    total = sum(cs_assignments.values(), Fraction(0))
    square = f.curve_numbers(c)[0]
    residual = total - square
    return CheckResult(
        name=f"camacho-sad.{c.name}",
        passed=residual == 0,
        detail=f"sum {total} vs C^2 = {square}",
        residual=residual,
    )


def singularity_count_check(f: FoliatedScenario) -> CheckResult:
    """Pass iff sum of multiplicities equals c2(S) + N_F.K_F exactly."""
    declared = f.singularity_count
    expected = chi_top(f.surface) + f.kf_dot_nf
    residual = Fraction(declared) - expected
    return CheckResult(
        name="count.singularities",
        passed=residual == 0,
        detail=f"declared {declared} vs c2(S) + N.K = {expected}",
        residual=residual,
    )


def _cs_branches(s: SingularityRecord) -> Optional[Tuple[Fraction, Fraction]]:
    """The {lam, 1/lam} index pair at a non-degenerate rational singularity."""
    ev = s.eigenvalue
    if ev is None or ev.value is None:
        return None
    return (ev.value, 1 / ev.value)


def _linked_components(
    f: FoliatedScenario, curves: List[CurveRecord]
) -> List[List[CurveRecord]]:
    """The given curves split into classes linked by shared singularities,
    each in declaration order and listed in the order of its first curve."""
    names = {c.name for c in curves}
    seen = set()
    components = []
    for c in curves:
        if c.name in seen:
            continue
        seen.add(c.name)
        members = [c.name]
        for name in members:  # grows while it is walked: a breadth-first search
            for s in f.singularities_on(name):
                for other in s.incident_curves:
                    if other in names and other not in seen:
                        seen.add(other)
                        members.append(other)
        components.append([f.curve(n) for n in sorted(members, key=f._positions.__getitem__)])
    return components


def _component_balances(
    steps: List[Tuple[Tuple[str, ...], List[Tuple[Fraction, ...]]]],
    squares: Dict[str, Fraction],
    budget: int,
) -> Tuple[bool, Optional[int]]:
    """Whether one branch choice per step balances every curve of a component,
    and the work budget left (None when the sweep ran out of it).

    A step is a singularity: the curves it lies on, and its branch choices
    with one value per curve.  The sweep keeps the distinct vectors of
    partial sums over the curves met but not yet finished, as integers over
    one common denominator; after a curve's last singularity it keeps the
    vectors where that curve balances, without its entry.  Each candidate
    vector costs its length plus one.
    """
    values = [q for _, choices in steps for choice in choices for q in choice]
    scale = lcm(*{q.denominator for q in values + list(squares.values())})
    last = {name: k for k, (here, _) in enumerate(steps) for name in here}
    # a curve without singularities balances only with square zero
    if any(squares[name] and name not in last for name in squares):
        return False, budget
    met: List[str] = []  # the open curves, one vector entry each
    vectors = {()}
    for k, (here, choices) in enumerate(steps):
        for name in here:
            if name not in met:
                met.append(name)
                vectors = {v + (0,) for v in vectors}
        cost = len(vectors) * len(choices) * (len(met) + 1)
        if cost > budget:
            return False, None
        budget -= cost
        positions = [met.index(name) for name in here]
        scaled = [[q.numerator * (scale // q.denominator) for q in c] for c in choices]
        grown = set()
        for v in vectors:
            for choice in scaled:
                w = list(v)
                for i, x in zip(positions, choice):
                    w[i] += x
                grown.add(tuple(w))
        vectors = grown
        for name in here:
            if last[name] == k:
                i = met.index(name)
                del met[i]
                target = int(squares[name] * scale)
                vectors = {v[:i] + v[i + 1 :] for v in vectors if v[i] == target}
        if not vectors:
            return False, budget
    return True, budget


def resolve_camacho_sad(f: FoliatedScenario) -> Iterator[CheckResult]:
    """Decide the Camacho-Sad balance of every invariant curve, one check each.

    A singularity on one invariant curve contributes either element of its
    {lam, 1/lam} pair; on two invariant curves it contributes the pair in one
    of the two orders.  A curve is eligible when every incident singularity
    has a rational branch pair; the others are skipped.  Eligible curves that
    share a singularity are linked, and each connected component is decided
    exactly by one sweep (``_component_balances``), so a curve takes its
    component's verdict: pass when some branch choice balances every curve
    of the component, else fail.  There is no heuristic repair.  The
    components share one work budget, in order: the component it cuts off,
    and every later one, is "skipped (search budget exhausted)".
    """
    # each singularity's {lam, 1/lam} pair, once however many curves it is on
    branches: Dict[str, Optional[Tuple[Fraction, Fraction]]] = {}
    eligible: List[CurveRecord] = []
    for c in f.curves:
        if not c.f_invariant:
            continue
        sings = f.singularities_on(c.name)
        for s in sings:
            if s.id not in branches:
                branches[s.id] = _cs_branches(s)
        if any(branches[s.id] is None for s in sings):
            skipped = "skipped (non-rational or saddle-node index present)"
            yield CheckResult(f"camacho-sad.{c.name}", passed=None, detail=skipped)
        else:
            eligible.append(c)

    names = {c.name for c in eligible}
    budget: Optional[int] = CAMACHO_SAD_WORK_BUDGET
    for component in _linked_components(f, eligible):
        squares = {c.name: f.curve_numbers(c)[0] for c in component}
        if budget is not None:
            steps = []
            for s in {s.id: s for c in component for s in f.singularities_on(c.name)}.values():
                here = tuple(dict.fromkeys(n for n in s.incident_curves if n in names))
                lam, inv = branches[s.id]
                orders = [(lam, inv), (inv, lam)] if lam != inv else [(lam, inv)]
                # on more than two curves the point is outside the
                # transverse-crossing model, and no choice balances it
                steps.append((here, [o[: len(here)] for o in orders] if len(here) <= 2 else []))
            found, budget = _component_balances(steps, squares, budget)
        for c in component:
            name, square = f"camacho-sad.{c.name}", squares[c.name]
            if budget is None:
                yield CheckResult(name, passed=None, detail="skipped (search budget exhausted)")
            elif found:
                yield CheckResult(name, True, f"sum {square} vs C^2 = {square}", Fraction(0))
            else:
                yield CheckResult(name, False, "no branch assignment balances the curve")


def adjunction_genus(f: FoliatedScenario, c: CurveRecord) -> Fraction:
    square, _, ks = f.curve_numbers(c)
    return (square + ks) / 2 + 1


def validate(f: FoliatedScenario) -> ValidationReport:
    """Run every structural and arithmetic consistency check on a scenario."""
    checks: List[CheckResult] = []

    dangling = sorted(set(f._incidence) - set(f._positions))
    checks.append(
        CheckResult(
            "structure.singularity-references",
            passed=not dangling,
            detail="" if not dangling else f"unknown curves {dangling}",
        )
    )

    nonintegral = [c.name for c in f.curves if not c.cls.is_integral]
    checks.append(
        CheckResult(
            "structure.curve-classes",
            passed=not nonintegral,
            detail="" if not nonintegral else f"non-integral classes {nonintegral}",
        )
    )

    bad_genus = []
    for c in f.curves:
        pa = adjunction_genus(f, c)
        if pa.denominator != 1 or pa < 0:
            bad_genus.append(f"{c.name}: p_a = {pa}")
        elif c.arithmetic_genus_hint is not None and pa != c.arithmetic_genus_hint:
            bad_genus.append(
                f"{c.name}: p_a = {pa} but hint says {c.arithmetic_genus_hint}"
            )
    checks.append(
        CheckResult(
            "structure.adjunction",
            passed=not bad_genus,
            detail="; ".join(bad_genus),
        )
    )

    eps_problems = []
    for s in f.singularities:
        ev = s.eigenvalue
        if ev is None or ev.value is None or ev.value <= 0:
            continue
        lam = ev.value
        needs_eps = lam.denominator == 1
        if needs_eps and s.epsilon is None:
            eps_problems.append(f"{s.id}: epsilon required for eigenvalue {lam}")
        if f.metadata.algebraically_integral == "yes" and s.epsilon == 1:
            eps_problems.append(
                f"{s.id}: epsilon=1 creates a saddle-node, impossible for an "
                "algebraically integral foliation"
            )
    checks.append(
        CheckResult(
            "structure.epsilon-declarations",
            passed=not eps_problems,
            detail="; ".join(eps_problems),
        )
    )

    checks.append(singularity_count_check(f))

    for c in f.curves:
        if c.f_invariant:
            continue
        try:
            t = tangency(f, c)
            checks.append(
                CheckResult(f"tangency.{c.name}", passed=True, detail=f"tang = {t}")
            )
        except InconsistentScenario as exc:
            checks.append(CheckResult(f"tangency.{c.name}", passed=False, detail=str(exc)))

    if f.is_reduced:
        for c in f.curves:
            if not c.f_invariant:
                continue
            z = z_total(f, c)
            checks.append(
                CheckResult(
                    f"z-index.{c.name}",
                    passed=z >= 0,
                    detail=f"Z = {z}",
                    residual=None if z >= 0 else z,
                )
            )

    checks.extend(sorted(resolve_camacho_sad(f), key=lambda c: c.name))

    return ValidationReport(checks=tuple(checks), warnings=(TRUST_BOUNDARY_WARNING,))
