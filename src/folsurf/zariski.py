"""Chain detection, continued-fraction coefficients, and exact Zariski
decomposition of the canonical class of a foliation.

The closed-form coefficient recursion for a Hirzebruch-Jung chain and the
general iterative decomposition are kept as two independent routes; tests
pin them against each other.  All linear algebra is exact and runs over
Python integers: the classes are scaled by one common denominator and paired
sparsely through shared basis indices, and the support Gram matrix grows by
one bordered row per violating curve under fraction-free (Bareiss)
elimination.  Its pivots are the leading principal minors, so negative
definiteness is certified by their signs alternating starting negative.
Chain detection reads its pairings from the same kind of table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import DomainError, InconsistentScenario
from .foliation import CheckResult, CurveRecord, FoliatedScenario
from .local_invariants import EigenvalueClass
from .surface import DivisorClass, canonical_class, intersect


@dataclass(frozen=True)
class FChain:
    """A Hirzebruch-Jung string of invariant curves, oriented so that the
    canonical class meets the first curve with degree -1."""

    curves: Tuple[str, ...]
    self_intersections: Tuple[int, ...]  # e_j = -C_j^2, each >= 2


@dataclass(frozen=True)
class ZariskiDecomposition:
    nef_part: DivisorClass
    negative_part: Tuple[Tuple[str, Fraction], ...]

    def coefficient(self, curve_name: str) -> Fraction:
        for name, value in self.negative_part:
            if name == curve_name:
                return value
        return Fraction(0)

    @property
    def support(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.negative_part)


def chain_coefficients(e: Sequence[int]) -> Tuple[int, int, List[Fraction]]:
    """Run the backward recursion xi_{j-1} = e_j xi_j - xi_{j+1}.

    Starting from xi_{r+1} = 0, xi_r = 1 this yields xi_0 = n and xi_1 = q of
    the cyclic-quotient type A_{n,q}; the negative-part coefficients are
    b_j = xi_j / n.
    """
    if any(ej <= 1 for ej in e):
        raise DomainError("chain self-intersection data requires every e_j >= 2")
    r = len(e)
    xi = [0] * (r + 2)
    xi[r + 1] = 0
    xi[r] = 1
    for j in range(r, 0, -1):
        xi[j - 1] = e[j - 1] * xi[j] - xi[j + 1]
    n, q = xi[0], xi[1]
    return n, q, [Fraction(xi[j], n) for j in range(1, r + 1)]


def chain_negative_square(e: Sequence[int]) -> Fraction:
    """N_Q^2 = -q/n for the chain contracted to an A_{n,q} point."""
    n, q, _ = chain_coefficients(e)
    return Fraction(-q, n)


def chain_eigenvalues(e: Sequence[int]) -> List[EigenvalueClass]:
    """Eigenvalue classes along a chain via the forward recursion
    mu_{k+1} = e_k mu_k - mu_{k-1}; the k-th singularity carries
    -mu_{k+1}/mu_k.  Consecutive mu are coprime."""
    if any(ej <= 1 for ej in e):
        raise DomainError("chain self-intersection data requires every e_j >= 2")
    mu = [0, 1]
    for ek in e:
        mu.append(ek * mu[-1] - mu[-2])
    return [
        EigenvalueClass.rational(Fraction(-mu[k + 1], mu[k]))
        for k in range(1, len(e) + 1)
    ]


def chain_xi_sequence(e: Sequence[int]) -> List[int]:
    """The full xi_0 .. xi_{r+1} sequence (strictly decreasing up to the end)."""
    n, q, b = chain_coefficients(e)
    return [n] + [int(x * n) for x in b] + [0]


def chain_mu_sequence(e: Sequence[int]) -> List[int]:
    mu = [0, 1]
    for ek in e:
        mu.append(ek * mu[-1] - mu[-2])
    return mu


def coefficient_bounds_check(chain: FChain) -> CheckResult:
    """Strict upper bounds on the negative-part coefficients:
    b_1 < 1/(e_1 - 1) and b_j < 1/(2 e_j - 3) for j >= 2."""
    e = chain.self_intersections
    _, _, b = chain_coefficients(e)
    violations = []
    for j, (bj, ej) in enumerate(zip(b, e), start=1):
        bound = Fraction(1, ej - 1) if j == 1 else Fraction(1, 2 * ej - 3)
        if not bj < bound:
            violations.append(f"b_{j} = {bj} !< {bound}")
    return CheckResult(
        name="chain.coefficient-bounds",
        passed=not violations,
        detail="; ".join(violations),
    )


class _Pairings(NamedTuple):
    """Every pairing one call needs, from one pass over shared basis indices.

    All classes are multiplied by the LCM of their denominators, so the
    entries are integers; the solution of G x = D.C does not change under
    that common scale.
    """

    scale: int  # the common denominator; entries are scale**2 times the pairing
    rows: List[Dict[int, int]]  # scaled curve classes, {basis index: int}
    class_rows: List[Dict[int, int]]  # the scaled extra classes
    against: List[List[int]]  # against[c][i] = (extra class c).C_i
    squares: List[int]  # C_i^2
    meets: List[Dict[int, int]]  # the nonzero C_i.C_j for j != i


def _pairing_table(
    curves: Sequence[CurveRecord], classes: Sequence[DivisorClass]
) -> _Pairings:
    """Pair the curves with each other and with ``classes`` through the basis
    indices they share.

    Exceptional classes are orthogonal to everything but themselves; the
    base block pairs as in ``SurfaceModel.gram``.
    """
    s = classes[0].surface
    dense = [c.cls.coefficients for c in curves] + [d.coefficients for d in classes]
    sparse = [{i: v for i, v in enumerate(coeffs) if v} for coeffs in dense]
    scale = lcm(*{v.denominator for row in sparse for v in row.values()})
    scaled = [
        {i: v.numerator * (scale // v.denominator) for i, v in row.items()}
        for row in sparse
    ]
    rows, class_rows = scaled[: len(curves)], scaled[len(curves) :]
    holders: Dict[int, List[Tuple[int, int]]] = {}
    for j, row in enumerate(rows):
        for a, v in row.items():
            holders.setdefault(a, []).append((j, v))
    br = s.base_rank
    base_partners = [
        [(b, s.gram(a, b)) for b in range(br) if s.gram(a, b)] for a in range(br)
    ]

    def pair_with_curves(u: Dict[int, int]) -> Dict[int, int]:
        acc: Dict[int, int] = {}
        for a, x in u.items():
            partners = base_partners[a] if a < br else ((a, -1),)
            for b, g in partners:
                for j, v in holders.get(b, ()):
                    acc[j] = acc.get(j, 0) + g * x * v
        return acc

    against = []
    for u in class_rows:
        acc = pair_with_curves(u)
        against.append([acc.get(j, 0) for j in range(len(rows))])
    squares: List[int] = []
    meets: List[Dict[int, int]] = []
    for i, row in enumerate(rows):
        acc = pair_with_curves(row)
        squares.append(acc.pop(i, 0))
        meets.append({j: v for j, v in acc.items() if v})
    return _Pairings(scale, rows, class_rows, against, squares, meets)


def detect_chains_with_flags(f: FoliatedScenario) -> Tuple[List[FChain], List[str]]:
    """All maximal strings of declared invariant rational curves matching the
    chain pattern, and the flags of ambiguous components.

    The pattern: self-intersections <= -2, consecutive curves meeting once,
    K_F degree -1 on the first curve and 0 on the rest.  Components failing
    the pattern are not chains and are omitted.  When a one-curve component
    leaves the orientation formally free, declaration order fixes it (the
    coefficients do not depend on the choice).  A path whose two ends both
    satisfy the head condition has no unambiguous orientation and violates the
    interior-degree pattern; such components are flagged by name instead of
    guessed at.  C^2, K_F.C, K_S.C (for the adjunction genus) and C.C' are
    read from one pairing table.
    """
    invariant = [c for c in f.curves if c.f_invariant]
    table = _pairing_table(invariant, [f.k_foliation, canonical_class(f.surface)])
    unit = table.scale * table.scale
    kf_pairings, ks_pairings = table.against
    square: Dict[str, int] = {}
    degree: Dict[str, int] = {}
    candidates: Dict[int, str] = {}
    for i, c in enumerate(invariant):
        sq, rest = divmod(table.squares[i], unit)
        deg = kf_pairings[i]
        if rest or sq > -2 or deg not in (-unit, 0):
            continue
        if table.squares[i] + ks_pairings[i] != -2 * unit:
            continue  # arithmetic genus (C^2 + K_S.C)/2 + 1 is not 0
        candidates[i] = c.name
        square[c.name] = sq
        degree[c.name] = deg // unit

    adjacency: Dict[str, List[str]] = {name: [] for name in candidates.values()}
    names = list(adjacency)
    bad_components = set()
    for i, name in candidates.items():
        for j, meet in table.meets[i].items():
            other = candidates.get(j)
            if other is None or j < i:
                continue
            if meet == unit:
                adjacency[name].append(other)
                adjacency[other].append(name)
            else:
                bad_components.update((name, other))

    seen = set()
    chains: List[FChain] = []
    flagged: List[str] = []
    for start in names:
        if start in seen:
            continue
        # breadth-first collection of the component
        component = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt = []
            for n in frontier:
                for m in adjacency[n]:
                    if m not in seen:
                        seen.add(m)
                        component.append(m)
                        nxt.append(m)
            frontier = nxt
        if bad_components.intersection(component):
            continue
        degrees = {n: len(adjacency[n]) for n in component}
        if any(d > 2 for d in degrees.values()):
            continue
        ends = [n for n in component if degrees[n] <= 1]
        if len(component) == 1:
            ordered = component
        else:
            if len(ends) != 2:
                continue  # cycle
            heads = [n for n in ends if degree[n] == -1]
            if len(heads) == 2:
                flagged.append(
                    "ambiguous orientation: both ends of "
                    f"[{', '.join(sorted(component))}] satisfy the head condition"
                )
                continue
            if len(heads) != 1:
                continue  # no -1 end: not a chain of the required shape
            ordered = [heads[0]]
            prev = None
            while len(ordered) < len(component):
                here = ordered[-1]
                nxt = [m for m in adjacency[here] if m != prev]
                prev = here
                ordered.append(nxt[0])
        kf_values = [degree[n] for n in ordered]
        if kf_values[0] != -1 or any(v != 0 for v in kf_values[1:]):
            continue
        chains.append(
            FChain(
                curves=tuple(ordered),
                self_intersections=tuple(-square[n] for n in ordered),
            )
        )
    chains.sort(key=lambda ch: ch.curves)
    return chains, flagged


class _BorderedFactor:
    """Fraction-free (Bareiss) elimination of a symmetric integer matrix that
    grows by one bordered row and column at a time.

    Row k is kept at level k, the Bareiss stage after k elimination steps:
    its entries are minors, and its diagonal is the leading principal minor
    of order k + 1.  A new row is eliminated against the existing pivot rows
    and nothing already factored is redone; pivot row k receives the new
    column by symmetry, since at level k the entry in row k, column r equals
    the entry in row r, column k.  Rows are sparse.  An entry a step leaves
    untouched is carried at the level it was written at and rescaled on
    reading, from level t to level k by minors[k] / minors[t], which is exact
    by Sylvester's identity.
    """

    def __init__(self) -> None:
        self.minors = [1]  # leading principal minors of order 0, 1, ...
        self.upper: List[Dict[int, int]] = []  # row k at level k, columns > k
        self.upper_rhs: List[int] = []  # right-hand side of row k at level k

    def append(self, entries: Dict[int, int], rhs: int) -> None:
        """Border the matrix with row r = current size: ``entries`` maps each
        column <= r to its nonzero entry and must hold the diagonal r."""
        minors, upper = self.minors, self.upper
        r = len(upper)
        row = {j: (v, 0) for j, v in entries.items()}  # column -> (value, level)
        rhs_level = 0
        pending = [j for j in row if j < r]
        heapify(pending)
        while pending:
            k = heappop(pending)
            v, t = row.pop(k)
            h = v if t == k else v * minors[k] // minors[t]
            if not h:
                continue
            pivot_row = upper[k]
            pivot_row[r] = h
            dk, dk1 = minors[k], minors[k + 1]
            for j, u in pivot_row.items():
                if j in row:
                    v, t = row[j]
                    current = v if t == k else v * dk // minors[t]
                else:
                    current = 0
                    if j < r:
                        heappush(pending, j)  # fill-in
                row[j] = ((dk1 * current - h * u) // dk, k + 1)
            if rhs_level != k:
                rhs = rhs * dk // minors[rhs_level]
            rhs, rhs_level = (dk1 * rhs - h * self.upper_rhs[k]) // dk, k + 1
        v, t = row.pop(r)
        pivot = v if t == r else v * minors[r] // minors[t]
        if pivot == 0 or (pivot < 0) != (r % 2 == 0):
            raise InconsistentScenario(
                "support intersection matrix is not negative definite"
            )
        if rhs_level != r:
            rhs = rhs * minors[r] // minors[rhs_level]
        minors.append(pivot)
        upper.append({})
        self.upper_rhs.append(rhs)

    def solve(self) -> List[int]:
        """Integer numerators y of the solution x = y / det by back
        substitution; every division is exact, y being Cramer's numerators."""
        minors, upper, rhs = self.minors, self.upper, self.upper_rhs
        det = minors[-1]
        y = [0] * len(upper)
        for k in range(len(upper) - 1, -1, -1):
            acc = det * rhs[k]
            for j, u in upper[k].items():
                acc -= u * y[j]
            y[k] = acc // minors[k + 1]
        return y


def decompose_against_curves(
    d: DivisorClass, curves: Sequence[CurveRecord]
) -> ZariskiDecomposition:
    """Exact Zariski decomposition of ``d`` against the declared curves.

    Iteratively collects every curve the current candidate meets negatively,
    solves for the negative part supported there, and repeats until the
    remainder is non-negative against all declared curves.  Only declared
    curves are visible; this is the documented trust boundary.  Each
    violating curve is bordered once onto a fraction-free factorization of
    the support Gram matrix, and the violator test runs on the integer
    numerators of the solution; Fractions are built only for the result.
    """
    table = _pairing_table(curves, [d])
    (d_pairings,), squares, meets = table.against, table.squares, table.meets
    factor = _BorderedFactor()
    position: Dict[int, int] = {}  # curve index -> place in the support
    support: List[int] = []
    y: List[int] = []
    # A curve meeting no support curve pairs with the candidate as with d,
    # which the first round found non-negative; so after that round only the
    # curves meeting the support are tested.
    neighbours = set()
    tested: Sequence[int] = range(len(curves))
    while True:
        det = factor.minors[-1]
        sign = 1 if det > 0 else -1
        violators = []
        for i in tested:
            pairing = det * d_pairings[i]
            for j, g in meets[i].items():
                k = position.get(j)
                if k is not None:
                    pairing -= y[k] * g
            if pairing * sign < 0:
                violators.append(i)
        if not violators:
            break
        for i in violators:
            entries = {position[j]: g for j, g in meets[i].items() if j in position}
            entries[len(support)] = squares[i]
            factor.append(entries, d_pairings[i])
            position[i] = len(support)
            support.append(i)
            neighbours.update(meets[i])
        neighbours.difference_update(position)
        tested = sorted(neighbours)
        y = factor.solve()

    if any(v * sign < 0 for v in y):
        raise InconsistentScenario(
            "negative part received a negative coefficient; the declared data "
            "does not describe a pseudo-effective decomposition"
        )

    nef = {idx: det * v for idx, v in table.class_rows[0].items()}
    parts: List[Tuple[str, Fraction]] = []
    for k in sorted(range(len(support)), key=support.__getitem__):
        if not y[k]:
            continue
        i = support[k]
        parts.append((curves[i].name, Fraction(y[k], det)))
        for idx, v in table.rows[i].items():
            nef[idx] = nef.get(idx, 0) - y[k] * v
    coefficients = list(d.coefficients)
    for idx, v in nef.items():
        coefficients[idx] = Fraction(v, det * table.scale)
    return ZariskiDecomposition(
        nef_part=DivisorClass(d.surface, tuple(coefficients)),
        negative_part=tuple(parts),
    )


def zariski_decompose(f: FoliatedScenario) -> ZariskiDecomposition:
    """Zariski decomposition K_F = P + N over the declared curves.

    For a relatively minimal reduced scenario every negative-part coefficient
    must be strictly below 1 (the decomposition has trivial integral part);
    a violation means the declared data contradicts the structure theory.
    """
    if not f.metadata.k_pseudo_effective:
        raise DomainError(
            "the canonical class is declared non-pseudo-effective; "
            "no Zariski decomposition exists"
        )
    dec = decompose_against_curves(f.k_foliation, f.curves)
    if f.metadata.relatively_minimal and f.is_reduced:
        for name, value in dec.negative_part:
            if value >= 1:
                raise InconsistentScenario(
                    f"negative-part coefficient of {name} is {value} >= 1 on a "
                    "relatively minimal scenario"
                )
    return dec


def volume(f: FoliatedScenario) -> Fraction:
    """vol = P^2; positive exactly for foliations of general type."""
    dec = zariski_decompose(f)
    return intersect(dec.nef_part, dec.nef_part)
