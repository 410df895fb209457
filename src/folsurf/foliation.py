"""The foliated-scenario aggregate and its pointwise/curvewise identities.

A scenario bundles a surface model, the canonical class of a foliation,
named curves, singularities, and metadata.  The identities implemented here
are all class-level: the tangency count of a non-invariant curve, the total
Z-index of an invariant curve, the Camacho-Sad balance, and the global
singularity count.  Per-point indices are never inferred from local
equations; they are declared or derived by exact branch matching.  A
scenario pairs its curves with each other and with K_F and K_S, and K_F
with itself and K_S, once (``FoliatedScenario.pairings``, whose class D is
K_F).  Validation works on the table's integers, which are ``scale**2``
times the pairings: the curvewise checks read its ``squares``, ``d_dot`` and
``ks_dot``, the singularity count its ``d_square`` and ``d_dot_ks``, and a
passing check builds no Fraction; a detail string prints a quotient of two
integers as the Fraction would (``surface.fraction_text``).  The
Camacho-Sad balance is decided exactly, in integers, by one iterative sweep
per connected component of the invariant curves, under one work budget for
the scenario.
Facts of a singularity's kind (multiplicity, reducedness, the {lam, 1/lam}
branch pair, the local Chern terms) are read once per kind object, through
``FoliatedScenario.by_kind``.  One walk over the singularities
(``index_singularities``) groups them by kind and by curve: the parser makes
it while it checks the singularities, and a scenario built otherwise makes
it on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Container, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from .errors import DomainError, InconsistentScenario
from .local_invariants import SingularityRecord
from .surface import (
    DivisorClass,
    Pairings,
    SurfaceModel,
    canonical_class,
    chi_top,
    fraction_text,
    pairing_table,
)

KODAIRA_VALUES = ("-inf", "0", "1", "2")
INTEGRALITY_VALUES = ("yes", "no", "unknown")

_ZERO = Fraction(0)

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
        if self.p_g is not None and (type(self.p_g) is not int or self.p_g < 0):
            raise DomainError("p_g must be an integer >= 0")


class SingularityIndex(NamedTuple):
    """The singularities grouped by kind object, the groups in the order of
    their first members; and each curve name some point gives, with its
    points, each listed once.  Both keep declared order."""

    by_kind: Tuple[Tuple[SingularityRecord, ...], ...]
    incidence: Dict[str, Tuple[SingularityRecord, ...]]


class SingularityRefused(DomainError):
    """A singularity that ``index_singularities`` refuses.  ``where`` is its
    position in the list, followed by "on_curves" when a curve it names is at
    fault."""

    def __init__(self, reason: str, *where):
        super().__init__(reason)
        self.where = where


def index_singularities(
    singularities: Iterable[SingularityRecord], curve_names: Optional[Container[str]] = None
) -> SingularityIndex:
    """Group the singularities by kind object and by curve in one walk.

    The walk refuses the first bad singularity in list order, and checks each
    one's id for a repeat before its curves; a curve outside ``curve_names``,
    when that is given, is refused too.  Without it every name is indexed,
    and ``validate`` reports the names no curve declares.  Groups go by
    identity, not equality: hashing a kind that holds Fractions costs more
    than it saves.
    """
    groups: Dict[int, List[SingularityRecord]] = {}
    on: Dict[str, List[SingularityRecord]] = {}
    ids = set()
    kind = group = None
    for k, s in enumerate(singularities):
        sid = s.id
        if sid in ids:
            raise SingularityRefused(f"duplicate singularity id {sid!r}", k)
        ids.add(sid)
        if s.kind is not kind:  # points of one kind often come in a row
            kind = s.kind
            group = groups.get(id(kind))
            if group is None:
                group = groups[id(kind)] = []
        group.append(s)
        for name in s.incident_curves:
            points = on.get(name)
            if points is None:  # a name met for the first time is checked once
                if curve_names is not None and name not in curve_names:
                    reason = f"singularity references undeclared curve {name!r}"
                    raise SingularityRefused(reason, k, "on_curves")
                on[name] = [s]
            elif points[-1] is not s:  # a name the point repeats counts once
                points.append(s)
    return SingularityIndex(
        tuple(map(tuple, groups.values())), {name: tuple(points) for name, points in on.items()}
    )


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
        """The curves paired with each other, K_F and K_S, and K_F with itself
        and K_S, built once: the table's class D is K_F."""
        return pairing_table([c.cls for c in self.curves], self.k_foliation)

    @property
    def kf_square(self) -> Fraction:
        """K_F^2, the table's ``d_square``; the first Chern number reads it."""
        t = self.pairings
        return Fraction(t.d_square, t.scale * t.scale)

    @cached_property
    def kf_dot_nf(self) -> Fraction:
        """K_F.N_F = K_F^2 - K_F.K_S, the table's ``d_square - d_dot_ks``; the
        singularity count and the direct chi formula read it."""
        t = self.pairings
        return Fraction(t.d_square - t.d_dot_ks, t.scale * t.scale)

    @cached_property
    def singularity_index(self) -> SingularityIndex:
        """The singularities grouped by kind and by curve.  A parsed scenario
        is handed the index its parse built in the walk that checked the
        singularities; any other scenario makes that walk on first use."""
        return index_singularities(self.singularities)

    @property
    def by_kind(self) -> Tuple[Tuple[SingularityRecord, ...], ...]:
        """The singularities grouped by kind object (``SingularityIndex``).

        A local fact that depends only on the kind, such as the multiplicity
        or beta_p, is read once per group.  Equal kinds of one parsed
        document are one object; a kind built per singularity makes a group of
        one, which changes no sum."""
        return self.singularity_index.by_kind

    @cached_property
    def singularity_count(self) -> int:
        """The number of singularities counted with multiplicity, summed once;
        the count check and the report read it."""
        return sum(group[0].multiplicity * len(group) for group in self.by_kind)

    @cached_property
    def _positions(self) -> Dict[str, int]:
        return {c.name: i for i, c in enumerate(self.curves)}

    def curve(self, name: str) -> CurveRecord:
        if name not in self._positions:
            raise DomainError(f"no curve named {name!r}")
        return self.curves[self._positions[name]]

    def singularities_on(self, curve_name: str) -> Tuple[SingularityRecord, ...]:
        return self.singularity_index.incidence.get(curve_name, ())

    def _index(self, c: CurveRecord) -> int:
        """The position of a declared curve, its row in the pairing table."""
        i = self._positions.get(c.name)
        if i is None or self.curves[i] != c:
            raise DomainError(f"{c.name} is not a curve of this scenario")
        return i

    def curve_numbers(self, c: CurveRecord) -> Tuple[Fraction, Fraction, Fraction]:
        """C^2, K_F.C and K_S.C of a declared curve, from the pairing table."""
        i = self._index(c)
        t = self.pairings
        unit = t.scale * t.scale
        return Fraction(t.squares[i], unit), Fraction(t.d_dot[i], unit), Fraction(t.ks_dot[i], unit)

    @cached_property
    def is_reduced(self) -> bool:
        """Whether every singularity is reduced.  A scenario that holds its
        ``singularity_index`` already (a parsed one is handed it) reads one
        point per kind group; any other reads its points' kinds and builds
        no index, so a decomposition that asks only this pays for no id set
        or curve incidence."""
        index = self.__dict__.get("singularity_index")
        if index is None:
            return all(s.is_reduced for s in self.singularities)
        return all(group[0].is_reduced for group in index.by_kind)

    @property
    def non_reduced(self) -> Tuple[SingularityRecord, ...]:
        """The singularities that are not reduced, in declared order."""
        if self.is_reduced:
            return ()
        kinds = {id(group[0].kind) for group in self.by_kind if not group[0].is_reduced}
        return tuple(s for s in self.singularities if id(s.kind) in kinds)


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
    return _tangency_count(f.pairings, f._index(c), c.name)


def _tangency_count(t: Pairings, i: int, name: str) -> int:
    """K_F.C + C^2 of the table's curve ``i``, refused unless an integer >= 0."""
    unit = t.scale * t.scale
    total = t.d_dot[i] + t.squares[i]
    value, rest = divmod(total, unit)
    if rest:
        text = fraction_text(total, unit)
        raise InconsistentScenario(f"{name}: tangency count {text} is not an integer")
    if value < 0:
        raise InconsistentScenario(f"{name}: tangency count {value} is negative")
    return value


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
    """Pass iff sum of multiplicities equals c2(S) + N_F.K_F exactly, with
    N_F.K_F = K_F^2 - K_F.K_S read from the pairing table."""
    declared = f.singularity_count
    t = f.pairings
    unit = t.scale * t.scale
    expected = chi_top(f.surface) * unit + t.d_square - t.d_dot_ks
    residual = declared * unit - expected
    return CheckResult(
        name="count.singularities",
        passed=not residual,
        detail=f"declared {declared} vs c2(S) + N.K = {fraction_text(expected, unit)}",
        residual=Fraction(residual, unit) if residual else _ZERO,
    )


def connected_components(adjacency: Mapping[str, Iterable[str]]) -> List[List[str]]:
    """The components of a graph by breadth-first search, given each node's
    neighbours: listed in the order of their first node in ``adjacency``,
    each with its nodes in the order reached.  Camacho-Sad and chain
    detection both split their curves with it."""
    seen = set()
    components = []
    for start in adjacency:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for node in component:  # grows while it is walked
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    component.append(other)
        components.append(component)
    return components


def _component_balances(
    steps: List[Tuple[Tuple[str, ...], List[Tuple[int, ...]]]],
    targets: Dict[str, int],
    budget: int,
) -> Tuple[bool, Optional[int]]:
    """Whether one branch choice per step balances every curve of a component,
    and the work budget left (None when the sweep ran out of it).

    A step is a singularity: the curves it lies on, and its branch choices
    with one value per curve.  The values and each curve's target, its
    square, are integers over one common denominator.  The sweep keeps the
    distinct vectors of partial sums over the curves met but not yet
    finished; after a curve's last singularity it keeps the vectors where
    that curve meets its target, without its entry.  Each candidate vector
    costs its length plus one.
    """
    last = {name: k for k, (here, _) in enumerate(steps) for name in here}
    # a curve without singularities balances only with square zero
    if any(targets[name] and name not in last for name in targets):
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
        grown = set()
        for v in vectors:
            for choice in choices:
                w = list(v)
                for i, x in zip(positions, choice):
                    w[i] += x
                grown.add(tuple(w))
        vectors = grown
        for name in here:
            if last[name] == k:
                i = met.index(name)
                del met[i]
                target = targets[name]
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

    All of it is integer work.  Each kind's pair is read once, as (numerator,
    denominator) pairs; a component's branches and squares are scaled once,
    by the lcm of the table's ``scale**2`` and the branch denominators.
    """
    pairs: Dict[int, Optional[Tuple[Tuple[int, int], Tuple[int, int]]]] = {}
    for group in f.by_kind:
        ev = group[0].eigenvalue
        lam = None if ev is None else ev.value
        pair = None
        if lam is not None:
            n, d = lam.numerator, lam.denominator
            pair = ((n, d), (d, n) if n > 0 else (-d, -n))
        pairs[id(group[0].kind)] = pair
    eligible: List[CurveRecord] = []
    for c in f.curves:
        if not c.f_invariant:
            continue
        if any(pairs[id(s.kind)] is None for s in f.singularities_on(c.name)):
            skipped = "skipped (non-rational or saddle-node index present)"
            yield CheckResult(f"camacho-sad.{c.name}", passed=None, detail=skipped)
        else:
            eligible.append(c)

    t = f.pairings
    unit = t.scale * t.scale
    names = {c.name for c in eligible}
    budget: Optional[int] = CAMACHO_SAD_WORK_BUDGET
    linked = {
        c.name: [x for s in f.singularities_on(c.name) for x in s.incident_curves if x in names]
        for c in eligible
    }
    for members in connected_components(linked):
        component = [f.curve(n) for n in sorted(members, key=f._positions.__getitem__)]
        squares = {c.name: t.squares[f._positions[c.name]] for c in component}
        if budget is not None:
            points = {s.id: s for c in component for s in f.singularities_on(c.name)}.values()
            branches = [pairs[id(s.kind)] for s in points]
            scale = lcm(unit, *(d for pair in branches for _, d in pair))
            steps = []
            for s, ((n, d), (m, e)) in zip(points, branches):
                here = tuple(dict.fromkeys(x for x in s.incident_curves if x in names))
                lam, inv = n * (scale // d), m * (scale // e)
                orders = [(lam, inv), (inv, lam)] if lam != inv else [(lam, inv)]
                # on more than two curves the point is outside the
                # transverse-crossing model, and no choice balances it
                steps.append((here, [o[: len(here)] for o in orders] if len(here) <= 2 else []))
            targets = {name: sq * (scale // unit) for name, sq in squares.items()}
            found, budget = _component_balances(steps, targets, budget)
        for c in component:
            name = f"camacho-sad.{c.name}"
            if budget is None:
                yield CheckResult(name, passed=None, detail="skipped (search budget exhausted)")
            elif found:
                square = fraction_text(squares[c.name], unit)
                yield CheckResult(name, True, f"sum {square} vs C^2 = {square}", _ZERO)
            else:
                yield CheckResult(name, False, "no branch assignment balances the curve")


def validate(f: FoliatedScenario) -> ValidationReport:
    """Run every structural and arithmetic consistency check on a scenario."""
    checks: List[CheckResult] = []

    dangling = sorted(set(f.singularity_index.incidence) - set(f._positions))
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

    t = f.pairings
    unit = t.scale * t.scale
    bad_genus = []
    for c, square, ks in zip(f.curves, t.squares, t.ks_dot):
        twice = square + ks + 2 * unit  # p_a = (C^2 + K_S.C)/2 + 1, times 2 unit
        pa, rest = divmod(twice, 2 * unit)
        if rest or pa < 0:
            bad_genus.append(f"{c.name}: p_a = {fraction_text(twice, 2 * unit)}")
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

    # epsilon matters only at a positive rational eigenvalue: a point that is
    # not reduced
    eps_problems = []
    for s in f.non_reduced:
        lam = s.kind.eigenvalue.value
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

    for i, c in enumerate(f.curves):
        if c.f_invariant:
            continue
        try:
            tang = _tangency_count(t, i, c.name)
            checks.append(
                CheckResult(f"tangency.{c.name}", passed=True, detail=f"tang = {tang}")
            )
        except InconsistentScenario as exc:
            checks.append(CheckResult(f"tangency.{c.name}", passed=False, detail=str(exc)))

    if f.is_reduced:
        for c, square, kf, ks in zip(f.curves, t.squares, t.d_dot, t.ks_dot):
            if not c.f_invariant:
                continue
            z = kf - ks - square  # unit * z_total
            checks.append(
                CheckResult(
                    f"z-index.{c.name}",
                    passed=z >= 0,
                    detail=f"Z = {fraction_text(z, unit)}",
                    residual=None if z >= 0 else Fraction(z, unit),
                )
            )

    checks.extend(sorted(resolve_camacho_sad(f), key=lambda c: c.name))

    return ValidationReport(checks=tuple(checks), warnings=(TRUST_BOUNDARY_WARNING,))
