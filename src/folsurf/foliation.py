"""The foliated-scenario aggregate and its pointwise/curvewise identities.

A scenario bundles a surface model, the canonical class of a foliation,
named curves, singularities, and metadata.  The identities checked here are
all class-level, and the rows of ``validate`` are their one definition:
``tangency.*`` (the tangency count of a non-invariant curve), ``z-index.*``
(the total Z-index of an invariant curve), ``camacho-sad.*`` (the
Camacho-Sad balance) and ``count.singularities`` (the global singularity
count).  Per-point indices are never inferred from local equations; they are
declared or derived by exact branch matching.  A scenario pairs its curves
with each other and with K_F and K_S, and K_F with itself and K_S, once
(``FoliatedScenario.pairings``, whose class D is K_F).  Validation works on
the table's integers, which are ``scale**2`` times the pairings: the
curvewise checks read its ``squares``, ``d_dot`` and ``ks_dot``, the
singularity count its ``d_square`` and ``d_dot_ks``, and a passing check
builds no Fraction; a detail string prints a quotient of two integers as the
Fraction would (``surface.fraction_text``).  The Camacho-Sad balance is
decided exactly, in integers, per connected component of the invariant
curves, each scaled by its own denominators: first the branches that are
forced (a curve with one open point left fixes it), which decide a tree of
crossings outright, then one iterative sweep of the points left open.  Only
the sweeps spend the scenario's one work budget.
Facts of a singularity's kind (multiplicity, reducedness, the {lam, 1/lam}
branch pair, the local Chern terms) are read once per kind object, through
``FoliatedScenario.by_kind``.  A record off every curve may stand for
several equal points (its ``count``): the global sums read each group's
point total, which the index keeps, and a record is never expanded.  A
scenario has one construction path, its constructor, which the parser calls
too: it refuses a repeated curve name, and one walk over the singularities
(``index_singularities``) refuses a repeated id, a count above 1 on curves
or a point on an undeclared curve while it groups them by kind and by curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import (
    Callable, Container, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple,
)

from .errors import DomainError
from .local_invariants import COUNTED_ON_CURVES, SingularityRecord
from .surface import (
    DivisorClass,
    Pairings,
    SurfaceModel,
    chi_top,
    fraction_text,
    pairing_table,
)

KODAIRA_VALUES = ("-inf", "0", "1", "2")
INTEGRALITY_VALUES = ("yes", "no", "unknown")

_ZERO = Fraction(0)

# work that the sweeps of ``resolve_camacho_sad`` may spend over all
# components: each candidate vector of partial sums costs its length plus
# one.  The forced branches, decided first, spend none; each component keeps
# its own scale
CAMACHO_SAD_WORK_BUDGET = 200_000

# a kind's branches, lam and 1/lam, each as (numerator, denominator)
_Pair = Tuple[Tuple[int, int], Tuple[int, int]]

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
    their first members, with the number of points each group stands for
    (its records' counts summed); and each curve name some point gives, with
    its points, each listed once.  Both keep declared order."""

    by_kind: Tuple[Tuple[SingularityRecord, ...], ...]
    points: Tuple[int, ...]
    incidence: Dict[str, Tuple[SingularityRecord, ...]]


class ScenarioRefused(DomainError):
    """A scenario that ``FoliatedScenario`` refuses.  ``where`` is the path of
    the offender: ("curves", k) for a repeated curve name, or
    ("singularities", k), followed by "on_curves" when a curve the point
    names is at fault, or by "count" for a count above 1 on curves."""

    def __init__(self, reason: str, *where):
        super().__init__(reason)
        self.where = where


def index_singularities(
    singularities: Iterable[SingularityRecord], curve_names: Container[str]
) -> SingularityIndex:
    """Group the singularities by kind object and by curve in one walk.

    The walk refuses the first bad singularity in list order, and checks each
    one's id for a repeat, then a count above 1 on curves, then its curves,
    each of which must be in ``curve_names``.  Groups go by identity, not
    equality: hashing a kind that holds Fractions costs more than it saves.
    A group's point total is its length plus what its counted records add
    beyond 1 each, so a record of count 1 adds nothing but its read.
    """
    groups: Dict[int, List[SingularityRecord]] = {}
    extra: Dict[int, int] = {}  # kind id -> points beyond one per record
    on: Dict[str, List[SingularityRecord]] = {}
    ids = set()
    kind = group = None
    for k, s in enumerate(singularities):
        sid = s.id
        if sid in ids:
            raise ScenarioRefused(f"duplicate singularity id {sid!r}", "singularities", k)
        ids.add(sid)
        if s.kind is not kind:  # points of one kind often come in a row
            kind = s.kind
            group = groups.get(id(kind))
            if group is None:
                group = groups[id(kind)] = []
        group.append(s)
        if s.count != 1:
            if s.incident_curves:
                raise ScenarioRefused(COUNTED_ON_CURVES, "singularities", k, "count")
            extra[id(kind)] = extra.get(id(kind), 0) + s.count - 1
        for name in s.incident_curves:
            points = on.get(name)
            if points is None:  # a name met for the first time is checked once
                if name not in curve_names:
                    reason = f"singularity references undeclared curve {name!r}"
                    raise ScenarioRefused(reason, "singularities", k, "on_curves")
                on[name] = [s]
            elif points[-1] is not s:  # a name the point repeats counts once
                points.append(s)
    return SingularityIndex(
        tuple(map(tuple, groups.values())),
        tuple(len(group) + extra.get(key, 0) for key, group in groups.items()),
        {name: tuple(points) for name, points in on.items()},
    )


@dataclass(frozen=True)
class FoliatedScenario:
    """A scenario, checked and indexed once by its constructor, the one way to
    build it: curve names and singularity ids are unique, and every curve a
    point names is declared (``ScenarioRefused`` names the first offender)."""

    name: str
    surface: SurfaceModel
    k_foliation: DivisorClass
    curves: Tuple[CurveRecord, ...]
    singularities: Tuple[SingularityRecord, ...]
    metadata: ScenarioMetadata
    _positions: Dict[str, int] = field(init=False, repr=False, compare=False)
    singularity_index: SingularityIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "singularities", tuple(self.singularities))
        positions: Dict[str, int] = {}
        for k, c in enumerate(self.curves):
            if positions.setdefault(c.name, k) != k:
                raise ScenarioRefused(f"duplicate curve name {c.name!r}", "curves", k)
        object.__setattr__(self, "_positions", positions)
        index = index_singularities(self.singularities, positions)
        object.__setattr__(self, "singularity_index", index)

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

    @property
    def by_kind(self) -> Tuple[Tuple[SingularityRecord, ...], ...]:
        """The singularities grouped by kind object (``SingularityIndex``).

        A local fact that depends only on the kind, such as the multiplicity
        or beta_p, is read once per group.  Equal kinds of one parsed
        document are one object; a kind built per singularity makes a group of
        one, which changes no sum."""
        return self.singularity_index.by_kind

    @property
    def points_by_kind(self) -> Tuple[int, ...]:
        """The number of points each group of ``by_kind`` stands for: its
        records' counts summed.  The global sums read it, never a group's
        length."""
        return self.singularity_index.points

    @cached_property
    def singularity_count(self) -> int:
        """The number of singularities counted with multiplicity, summed once;
        the count check and the report read it."""
        return sum(
            group[0].multiplicity * points
            for group, points in zip(self.by_kind, self.points_by_kind)
        )

    def curve(self, name: str) -> CurveRecord:
        if name not in self._positions:
            raise DomainError(f"no curve named {name!r}")
        return self.curves[self._positions[name]]

    def singularities_on(self, curve_name: str) -> Tuple[SingularityRecord, ...]:
        return self.singularity_index.incidence.get(curve_name, ())

    @cached_property
    def is_reduced(self) -> bool:
        """Whether every singularity is reduced, read from one point per kind
        group."""
        return all(group[0].is_reduced for group in self.by_kind)

    @property
    def non_reduced(self) -> Tuple[SingularityRecord, ...]:
        """The singularity records that are not reduced, in declared order;
        a refusal names each by ``point_label``."""
        if self.is_reduced:
            return ()
        kinds = {id(group[0].kind) for group in self.by_kind if not group[0].is_reduced}
        return tuple(s for s in self.singularities if id(s.kind) in kinds)


def point_label(s: SingularityRecord, name: Callable[[str], str] = str) -> str:
    """How a refusal names a record: its id as ``name`` writes it, and for a
    record that stands for several points, their number after it, as in
    ``'q' (5 points)``.  A record of count 1 reads as its id alone."""
    label = name(s.id)
    return label if s.count == 1 else f"{label} ({s.count} points)"


class CheckResult(NamedTuple):
    """One check row: a named tuple, since a scenario's validation builds
    one per curve and per identity."""

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

    @cached_property
    def passed(self) -> bool:
        """No check failed; computed on first read."""
        return not any(c.failed for c in self.checks)


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
    points: List[Tuple[Tuple[str, ...], int, int]],
    targets: Dict[str, int],
    budget: int,
) -> Tuple[bool, Optional[int]]:
    """Whether one branch choice per point balances every curve of a component,
    and the work budget left (None when the sweep ran out of it).

    A point is the curves it lies on and its two branch values, lam and
    1/lam: on one curve it gives either, on two it gives one to each, in
    either order.  The values and each curve's target, its square, are
    integers over one common denominator.

    First the forced branches, which spend no budget: while some curve has
    one open point left, that point must give the curve what remains of its
    target.  If neither branch does, no choice balances the component; else
    the point is fixed (at lam = +-1 both orders give the same) and its
    other value is charged to its second curve.  A curve whose last point is
    fixed must meet its target.  On a tree of crossings every point is
    forced.  Then the sweep of the points left open, in order, keeps the
    distinct vectors of partial sums over the curves met but not finished;
    after a curve's last open point it keeps the vectors where that curve
    meets what remains of its target, without its entry.  Each candidate
    vector costs its length plus one.
    """
    rest = dict(targets)  # each target less the values fixed on its curve
    left = dict.fromkeys(targets, 0)  # each curve's open points
    # the sum of the indices of a curve's open points: the index of its
    # last one when one is left
    last = dict.fromkeys(targets, 0)
    for k, (here, _, _) in enumerate(points):
        # a point on more than two curves is outside the transverse-crossing
        # model, and no choice balances it
        if len(here) > 2:
            return False, budget
        for name in here:
            left[name] += 1
            last[name] += k
    # a curve without singularities balances only with square zero
    if any(rest[name] and not n for name, n in left.items()):
        return False, budget
    fixed = [False] * len(points)
    forced = [name for name, n in left.items() if n == 1]
    while forced:
        name = forced.pop()
        if left[name] != 1:  # its last point was fixed from its other curve
            continue
        k = last[name]
        here, lam, inv = points[k]
        value = rest[name]
        if value != lam and value != inv:
            return False, budget
        fixed[k] = True
        left[name] = 0  # balanced: its remaining target is met
        for x in here:
            if x != name:  # the point's second curve takes the other value
                rest[x] -= lam + inv - value
                left[x] -= 1
                last[x] -= k
                if left[x] == 1:
                    forced.append(x)
                elif not left[x] and rest[x]:
                    return False, budget

    met: List[str] = []  # the open curves, one vector entry each
    vectors = {()}
    for k, (here, lam, inv) in enumerate(points):
        if fixed[k]:
            continue
        for name in here:
            if name not in met:
                met.append(name)
                vectors = {v + (0,) for v in vectors}
        choices = [(lam, inv), (inv, lam)] if lam != inv else [(lam, inv)]
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
            left[name] -= 1
            if not left[name]:  # the curve's last point is placed: close it
                i = met.index(name)
                del met[i]
                target = rest[name]
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
    exactly (``_component_balances``: the forced branches, then a sweep of
    the points left open), so a curve takes its component's verdict: pass
    when some branch choice balances every curve of the component, else
    fail.  There is no heuristic repair.  The sweeps share one work budget,
    in component order: the component it cuts off, and every later one, is
    "skipped (search budget exhausted)".

    All of it is integer work.  Each kind's pair is read once, as (numerator,
    denominator) pairs.  A component's branches and squares are scaled once,
    by the lcm of the table's ``scale**2`` and that component's branch
    denominators, so one component's denominators never grow another's
    integers.
    """
    pairs: Dict[int, _Pair] = {}
    irrational = set()  # the curves through a point without a rational pair
    for group in f.by_kind:
        ev = group[0].eigenvalue
        lam = None if ev is None else ev.value
        if lam is None:
            irrational.update(x for s in group for x in s.incident_curves)
        else:
            n, d = lam.numerator, lam.denominator
            pairs[id(group[0].kind)] = ((n, d), (d, n) if n > 0 else (-d, -n))
    eligible: List[str] = []
    for c in f.curves:
        if not c.f_invariant:
            continue
        if c.name in irrational:
            skipped = "skipped (non-rational or saddle-node index present)"
            yield CheckResult(f"camacho-sad.{c.name}", passed=None, detail=skipped)
        else:
            eligible.append(c.name)

    # each point on an eligible curve, once, with its eligible curves, each
    # once, and its branch pair; in the order of the curves, then of each
    # curve's points
    names = set(eligible)
    on: Dict[int, Tuple[Tuple[str, ...], _Pair]] = {}
    linked: Dict[str, List[str]] = {name: [] for name in eligible}
    for name in eligible:
        for s in f.singularities_on(name):
            if id(s) in on:
                continue
            here = s.incident_curves
            # most points name distinct eligible curves, and keep their tuple
            if not names.issuperset(here) or len(here) > 1 and len(set(here)) < len(here):
                here = tuple([x for x in dict.fromkeys(here) if x in names])
            on[id(s)] = here, pairs[id(s.kind)]
            for x in here:
                linked[x] += here
    components = connected_components(linked)
    # a point joins the component of its curves, keeping the order of ``on``
    which = {name: k for k, members in enumerate(components) for name in members}
    points: List[List[Tuple[Tuple[str, ...], _Pair]]] = [[] for _ in components]
    for entry in on.values():
        points[which[entry[0][0]]].append(entry)

    t = f.pairings
    unit = t.scale * t.scale
    positions = f._positions
    budget: Optional[int] = CAMACHO_SAD_WORK_BUDGET
    for members, branches in zip(components, points):
        members.sort(key=positions.__getitem__)
        if budget is not None:
            scale = lcm(unit, *{d for _, pair in branches for _, d in pair})
            scaled = [
                (here, n * (scale // d), m * (scale // e)) for here, ((n, d), (m, e)) in branches
            ]
            up = scale // unit
            targets = {name: t.squares[positions[name]] * up for name in members}
            found, budget = _component_balances(scaled, targets, budget)
        for name in members:
            row = f"camacho-sad.{name}"
            if budget is None:
                yield CheckResult(row, passed=None, detail="skipped (search budget exhausted)")
            elif found:
                square = fraction_text(t.squares[positions[name]], unit)
                yield CheckResult(row, True, f"sum {square} vs C^2 = {square}", _ZERO)
            else:
                yield CheckResult(row, False, "no branch assignment balances the curve")


def validate(f: FoliatedScenario) -> ValidationReport:
    """Run every structural and arithmetic consistency check on a scenario.

    The rows are the one definition of each class-level identity:
    ``tangency.C`` of each curve C that is not invariant, ``z-index.C`` of
    each invariant one when every point is reduced, ``camacho-sad.C`` of
    each invariant one (``resolve_camacho_sad``) and ``count.singularities``
    (``singularity_count_check``).  Five ``structure.*`` rows come first.
    """
    checks: List[CheckResult] = []

    def structure(name: str, problems: List[str], label: str = "") -> None:
        """A row that passes iff ``problems`` is empty; its detail is the
        list after ``label`` when one is given, else the problems joined."""
        detail = f"{label} {problems}" if label and problems else "; ".join(problems)
        checks.append(CheckResult(f"structure.{name}", passed=not problems, detail=detail))

    # the constructor refuses a point on an undeclared curve, so this row passes
    structure("singularity-references", [])
    # K_F is the class of a line bundle, as every curve's is
    nonintegral = [] if f.k_foliation.is_integral else ["K_F"]
    nonintegral += [c.name for c in f.curves if not c.cls.is_integral]
    structure("curve-classes", nonintegral, "non-integral classes")

    # two distinct irreducible curves meet in a non-negative number of points
    t = f.pairings
    unit = t.scale * t.scale
    negative_meets = [
        f"{f.curves[i].name}.{f.curves[j].name} = {fraction_text(g, unit)}"
        for i, row in enumerate(t.meets)
        for j, g in sorted(row.items())
        if g < 0 and j > i
    ]
    structure("curve-meets", negative_meets)

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
    structure("adjunction", bad_genus)

    # epsilon matters only at a positive rational eigenvalue: a point that is
    # not reduced
    eps_problems = []
    for s in f.non_reduced:
        lam = s.kind.eigenvalue.value
        needs_eps = lam.denominator == 1
        if needs_eps and s.epsilon is None:
            eps_problems.append(f"{point_label(s)}: epsilon required for eigenvalue {lam}")
        if f.metadata.algebraically_integral == "yes" and s.epsilon == 1:
            eps_problems.append(
                f"{point_label(s)}: epsilon=1 creates a saddle-node, impossible for an "
                "algebraically integral foliation"
            )
    structure("epsilon-declarations", eps_problems)

    checks.append(singularity_count_check(f))

    # tang = K_F.C + C^2, an integer >= 0 for a curve that is not invariant
    for c, square, kf in zip(f.curves, t.squares, t.d_dot):
        if c.f_invariant:
            continue
        total = kf + square
        tang, rest = divmod(total, unit)
        if rest:
            detail = f"{c.name}: tangency count {fraction_text(total, unit)} is not an integer"
        elif tang < 0:
            detail = f"{c.name}: tangency count {tang} is negative"
        else:
            detail = f"tang = {tang}"
        checks.append(CheckResult(f"tangency.{c.name}", not rest and tang >= 0, detail))

    # Z = K_F.C + chi(C) with chi(C) = -K_S.C - C^2, >= 0 for an invariant
    # curve of a reduced foliation
    if f.is_reduced:
        for c, square, kf, ks in zip(f.curves, t.squares, t.d_dot, t.ks_dot):
            if not c.f_invariant:
                continue
            z = kf - ks - square  # unit * Z
            residual = None if z >= 0 else Fraction(z, unit)
            checks.append(
                CheckResult(f"z-index.{c.name}", z >= 0, f"Z = {fraction_text(z, unit)}", residual)
            )

    checks.extend(sorted(resolve_camacho_sad(f)))  # by name: the names are unique

    return ValidationReport(checks=tuple(checks), warnings=(TRUST_BOUNDARY_WARNING,))
