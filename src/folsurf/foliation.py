"""The foliated-scenario aggregate and its pointwise/curvewise identities.

A scenario bundles a surface model, the canonical class of a foliation,
named curves, singularities, and metadata.  The identities implemented here
are all class-level: the tangency count of a non-invariant curve, the total
Z-index of an invariant curve, the Camacho-Sad balance, and the global
singularity count.  Per-point indices are never inferred from local
equations; they are declared or derived by exact branch matching.  A
scenario pairs its curves with each other and with K_F and K_S once, on
first use (``FoliatedScenario.pairings``), and every curvewise identity
reads that table; K_F.N_F is paired once too (``kf_dot_nf``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import DomainError, InconsistentScenario
from .local_invariants import SingularityRecord
from .surface import (
    DivisorClass,
    Pairings,
    SurfaceModel,
    canonical_class,
    chi_top,
    intersect,
    pairing_table,
)

KODAIRA_VALUES = ("-inf", "0", "1", "2")
INTEGRALITY_VALUES = ("yes", "no", "unknown")

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
        """The curves paired with each other and with [K_F, K_S], built once."""
        return pairing_table(
            [c.cls for c in self.curves], [self.k_foliation, canonical_class(self.surface)]
        )

    @cached_property
    def kf_dot_nf(self) -> Fraction:
        """K_F.N_F, paired once; the singularity count and the direct chi
        formula read it."""
        return intersect(normal_class(self), self.k_foliation)

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

    @property
    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.failed)


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
    declared = sum(s.multiplicity for s in f.singularities)
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


def resolve_camacho_sad(
    f: FoliatedScenario,
) -> Tuple[Dict[str, Dict[str, Fraction]], Dict[str, str]]:
    """Choose index branches so that every eligible invariant curve balances.

    A singularity on one invariant curve contributes either element of its
    {lam, 1/lam} pair; on two invariant curves it contributes the pair in one
    of the two orders.  A curve is eligible when every incident singularity
    has a rational branch pair.  Returns per-curve assignments and a status
    map: "pass", "fail", or "skipped (...)" per invariant curve.  There is no
    heuristic repair: if no branch choice balances, the curves involved fail.
    A search that runs out of its node budget decides nothing, and the
    eligible curves are "skipped (search budget exhausted)".
    """
    invariant = [c for c in f.curves if c.f_invariant]
    # each singularity's {lam, 1/lam} pair, once however many curves it is on
    branches: Dict[str, Optional[Tuple[Fraction, Fraction]]] = {}
    status: Dict[str, str] = {}
    eligible: List[CurveRecord] = []
    for c in invariant:
        sings = f.singularities_on(c.name)
        for s in sings:
            if s.id not in branches:
                branches[s.id] = _cs_branches(s)
        if any(branches[s.id] is None for s in sings):
            status[c.name] = "skipped (non-rational or saddle-node index present)"
        else:
            eligible.append(c)

    eligible_names = {c.name for c in eligible}
    variables = list({s.id: s for c in eligible for s in f.singularities_on(c.name)}.values())

    # choice per singularity: map from touched eligible curve -> index value
    def options(s: SingularityRecord) -> List[Dict[str, Fraction]]:
        lam, inv = branches[s.id]
        curves_here = [n for n in s.incident_curves if n in eligible_names]
        if len(curves_here) == 1:
            opts = [{curves_here[0]: lam}, {curves_here[0]: inv}]
        elif len(curves_here) == 2:
            a, b = curves_here
            opts = [{a: lam, b: inv}, {a: inv, b: lam}]
        else:
            # incident to >2 declared invariant curves: outside the
            # transverse-crossing model, cannot be resolved here
            return []
        return opts if opts[0] != opts[1] else opts[:1]

    # built once, before the search; every node reads its variable's list
    choices = [options(s) for s in variables]
    squares = {c.name: f.curve_numbers(c)[0] for c in eligible}
    remaining = {
        c.name: {s.id for s in f.singularities_on(c.name)} for c in eligible
    }
    sums: Dict[str, Fraction] = {c.name: Fraction(0) for c in eligible}
    assignment: Dict[str, Dict[str, Fraction]] = {c.name: {} for c in eligible}

    if not all(choices):
        for c in eligible:
            status[c.name] = "fail"
        return {}, status

    budget = 200_000
    exhausted = False

    def backtrack(idx: int) -> bool:
        nonlocal budget, exhausted
        if budget <= 0:
            exhausted = True
            return False
        budget -= 1
        if idx == len(variables):
            return True
        s = variables[idx]
        for opt in choices[idx]:
            ok = True
            touched = []
            for curve_name, value in opt.items():
                sums[curve_name] += value
                remaining[curve_name].discard(s.id)
                assignment[curve_name][s.id] = value
                touched.append(curve_name)
                if not remaining[curve_name] and sums[curve_name] != squares[curve_name]:
                    ok = False
            if ok and backtrack(idx + 1):
                return True
            for curve_name in touched:
                sums[curve_name] -= opt[curve_name]
                remaining[curve_name].add(s.id)
                del assignment[curve_name][s.id]
        return False

    if backtrack(0):
        for c in eligible:
            if not f.singularities_on(c.name):
                # a singularity-free curve balances only with square zero
                status[c.name] = "pass" if squares[c.name] == 0 else "fail"
            else:
                status[c.name] = "pass"
        return assignment, status
    # a search cut off by its budget has not shown that no choice balances
    verdict = "skipped (search budget exhausted)" if exhausted else "fail"
    for c in eligible:
        status[c.name] = verdict
    return {}, status


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
        needs_eps = lam.denominator == 1 or lam.numerator == 1
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

    assignments, statuses = resolve_camacho_sad(f)
    for name in sorted(statuses):
        st = statuses[name]
        if st.startswith("skipped"):
            checks.append(CheckResult(f"camacho-sad.{name}", passed=None, detail=st))
        elif st == "pass":
            curve = f.curve(name)
            checks.append(camacho_sad_check(f, curve, assignments.get(name, {})))
        else:
            checks.append(
                CheckResult(
                    f"camacho-sad.{name}",
                    passed=False,
                    detail="no branch assignment balances the curve",
                )
            )

    return ValidationReport(checks=tuple(checks), warnings=(TRUST_BOUNDARY_WARNING,))
