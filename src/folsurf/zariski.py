"""Chain detection, continued-fraction coefficients, and exact Zariski
decomposition of the canonical class of a foliation.

The closed-form coefficient recursion for a Hirzebruch-Jung chain and the
general decomposition are kept as two independent routes; tests pin them
against each other.  All linear algebra is exact and runs over Python
integers: the pairings come from ``surface.pairing_table``, which reads the
classes' numerators over their common denominator, and a support Gram
matrix grows by one bordered row per curve under fraction-free (Bareiss)
elimination.  Its pivots are the leading principal minors, so negative
definiteness is certified by their signs alternating starting negative, and
a curve that would break it is refused with the factor left as it was.
The decomposition is one violator loop (Bauer 2009) started from a guessed
support: border every curve C with C^2 < 0 and D.C <= 0, solve once, then
border the curves the candidate meets negatively, round by round, until no
curve is met negatively.  When distinct curves meet non-negatively the
loop only adds curves and its coefficients only grow, so the seed changes
no answer and no refusal, only the number of rounds; on the bundled corpus
and the double-cover family the first round is the last, one factorization
and one back substitution.  A negative meet seeds nothing.
A scenario's decomposition and its chain detection both read the scenario's
own table (``FoliatedScenario.pairings``, whose class D is K_F): the solve
reads ``d_dot``, ``squares``, ``meets``, ``d_row`` and ``d_square``, and
chain detection ``d_dot`` and ``ks_dot``.  ``decompose_against_curves``
builds a table for its class and curves and runs the same solve.  The solve
also returns P^2 = D^2 - D.N, exact because P.C = 0 on every support curve.
Classes are sparse end to end: the table's rows are each class's integer
numerators over the table's common denominator, and the nef part P = D - N
is assembled from those rows as numerators over det * scale, so no step
walks the full rank of the surface.  P is stored in that integer form,
reduced to lowest terms by one gcd; no Fraction is built for its terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import DomainError, InconsistentScenario
from .foliation import CheckResult, CurveRecord, FoliatedScenario, connected_components
from .local_invariants import EigenvalueClass, _trusted, fraction
from .surface import DivisorClass, Pairings, pairing_table


@dataclass(frozen=True)
class FChain:
    """A Hirzebruch-Jung string of invariant curves, oriented so that the
    canonical class meets the first curve with degree -1."""

    curves: Tuple[str, ...]
    self_intersections: Tuple[int, ...]  # e_j = -C_j^2, each >= 2


@dataclass(frozen=True)
class ZariskiDecomposition:
    """K_F = P + N: the nef part P, the negative part N as (curve, coefficient)
    pairs, and P^2.  A curve named twice in N is refused."""

    nef_part: DivisorClass
    negative_part: Tuple[Tuple[str, Fraction], ...]
    nef_square: Fraction  # P^2, the volume of the decomposed class

    def __post_init__(self):
        if len(dict(self.negative_part)) < len(self.negative_part):
            names = [name for name, _ in self.negative_part]
            name = next(n for n in names if names.count(n) > 1)
            raise DomainError(f"the negative part names curve {name!r} twice")

    @property
    def support(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.negative_part)


def _require_chain(e: Sequence[int]) -> None:
    if any(ej <= 1 for ej in e):
        raise DomainError("chain self-intersection data requires every e_j >= 2")


def chain_xi_sequence(e: Sequence[int]) -> List[int]:
    """The backward recursion xi_{j-1} = e_j xi_j - xi_{j+1} from
    xi_{r+1} = 0, xi_r = 1: the full xi_0 .. xi_{r+1} sequence (strictly
    decreasing up to the end).  It is ``chain_mu_sequence`` of the reversed
    chain, read backwards."""
    _require_chain(e)
    return chain_mu_sequence(reversed(e))[::-1]


def chain_coefficients(e: Sequence[int]) -> Tuple[int, int, List[Fraction]]:
    """xi_0 = n and xi_1 = q of the cyclic-quotient type A_{n,q}, and the
    negative-part coefficients b_j = xi_j / n, from ``chain_xi_sequence``."""
    xi = chain_xi_sequence(e)
    n = xi[0]
    return n, xi[1], [fraction(x, n) for x in xi[1:-1]]


def chain_negative_square(e: Sequence[int]) -> Fraction:
    """N_Q^2 = -q/n = -xi_1/xi_0 for the chain contracted to an A_{n,q}
    point, from ``chain_xi_sequence``."""
    xi = chain_xi_sequence(e)
    return fraction(-xi[1], xi[0])


def chain_eigenvalues(e: Sequence[int]) -> List[EigenvalueClass]:
    """Eigenvalue classes along a chain, from ``chain_mu_sequence``: the k-th
    singularity carries -mu_{k+1}/mu_k.  Consecutive mu are coprime and
    0 < mu_k < mu_{k+1}: the value is canonical, so no constructor checks it."""
    _require_chain(e)
    mu = chain_mu_sequence(e)
    return [_trusted(EigenvalueClass, {"value": fraction(-b, a)}) for a, b in zip(mu[1:], mu[2:])]


def chain_mu_sequence(e: Iterable[int]) -> List[int]:
    """The forward recursion mu_{k+1} = e_k mu_k - mu_{k-1} from mu_0 = 0,
    mu_1 = 1."""
    mu = [0, 1]
    for ek in e:
        mu.append(ek * mu[-1] - mu[-2])
    return mu


def coefficient_bounds_check(chain: FChain) -> CheckResult:
    """Strict upper bounds on the negative-part coefficients:
    b_1 < 1/(e_1 - 1) and b_j < 1/(2 e_j - 3) for j >= 2.

    With b_j = xi_j / n these are the integer tests xi_1 (e_1 - 1) < n and
    xi_j (2 e_j - 3) < n on ``chain_xi_sequence``; a Fraction is built only
    for the text of a violation.

    No chain that ``_require_chain`` accepts (every e_j >= 2) fails it.  xi
    strictly decreases: xi_{j-1} - xi_j = (e_j - 2) xi_j + (xi_j - xi_{j+1})
    and xi_r - xi_{r+1} = 1.  So n - (e_1 - 1) xi_1 = xi_1 - xi_2 > 0, and
    for j >= 2, as e_{j-1} >= 2, n >= xi_{j-2} >= 2 xi_{j-1} - xi_j =
    (2 e_j - 3) xi_j + 2 (xi_j - xi_{j+1}) > (2 e_j - 3) xi_j.  It stays a
    public check that the chain oracles run on every chain they build; only
    a forged xi reaches its violation text."""
    e = chain.self_intersections
    xi = chain_xi_sequence(e)
    n = xi[0]
    violations = []
    for j, ej in enumerate(e, start=1):
        width = ej - 1 if j == 1 else 2 * ej - 3
        if xi[j] * width >= n:
            violations.append(f"b_{j} = {fraction(xi[j], n)} !< {fraction(1, width)}")
    return CheckResult(
        name="chain.coefficient-bounds",
        passed=not violations,
        detail="; ".join(violations),
    )


def detect_chains_with_flags(f: FoliatedScenario) -> Tuple[List[FChain], List[str]]:
    """All maximal strings of declared invariant rational curves matching the
    chain pattern, and the flags of ambiguous components.

    The pattern: self-intersections <= -2, consecutive curves meeting once,
    K_F degree -1 on the first curve and 0 on the rest.  One rule reads every
    component of candidates, one curve or many.  It is omitted if a curve has
    three or more neighbours or two curves meet other than once.  Its heads
    are its ends (curves with at most one neighbour) of K_F degree -1, so a
    cycle has none.  With no head it is omitted; with one, the walk from the
    head is a chain when every later curve has K_F degree 0; with two, the
    orientation is ambiguous, so it is flagged by name instead of guessed at.
    C^2, K_F.C, K_S.C (for the adjunction genus) and C.C' are read from the
    scenario's pairing table: ``squares``, ``d_dot``, ``ks_dot``, ``meets``.
    """
    table = f.pairings
    unit = table.scale * table.scale
    kf_pairings, ks_pairings = table.d_dot, table.ks_dot
    square: Dict[str, int] = {}
    degree: Dict[str, int] = {}
    candidates: Dict[int, str] = {}
    for i, c in enumerate(f.curves):
        sq, rest = divmod(table.squares[i], unit)
        deg = kf_pairings[i]
        if not c.f_invariant or rest or sq > -2 or deg not in (-unit, 0):
            continue
        if table.squares[i] + ks_pairings[i] != -2 * unit:
            continue  # arithmetic genus (C^2 + K_S.C)/2 + 1 is not 0
        candidates[i] = c.name
        square[c.name] = sq
        degree[c.name] = deg // unit

    adjacency: Dict[str, List[str]] = {name: [] for name in candidates.values()}
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

    chains: List[FChain] = []
    flagged: List[str] = []
    for component in connected_components(adjacency):
        branched = any(len(adjacency[n]) > 2 for n in component)
        if branched or bad_components.intersection(component):
            continue  # a branch point, or two curves meeting other than once
        # a head is an end (at most one neighbour): a cycle has none
        heads = [n for n in component if len(adjacency[n]) <= 1 and degree[n] == -1]
        if len(heads) == 2:
            flagged.append(
                "ambiguous orientation: both ends of "
                f"[{', '.join(sorted(component))}] satisfy the head condition"
            )
        if len(heads) != 1:
            continue
        ordered, prev = heads, None
        while len(ordered) < len(component):
            here = ordered[-1]
            ordered.append(next(m for m in adjacency[here] if m != prev))
            prev = here
        if not any(degree[n] for n in ordered[1:]):
            e = tuple(-square[n] for n in ordered)
            chains.append(FChain(curves=tuple(ordered), self_intersections=e))
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

    def append(self, entries: Dict[int, int], rhs: int) -> bool:
        """Border the matrix with row r = current size: ``entries`` maps each
        column <= r to its nonzero entry and must hold the diagonal r.

        Returns False, and leaves the factor as it was, when the bordered
        matrix is not negative definite: the new column reaches the pivot
        rows only once the new pivot has the sign negative definiteness
        asks for."""
        minors, upper = self.minors, self.upper
        r = len(upper)
        row = {j: (v, 0) for j, v in entries.items()}  # column -> (value, level)
        column: List[Tuple[int, int]] = []  # (k, entry of pivot row k in column r)
        rhs_level = 0
        pending = [j for j in row if j < r]
        heapify(pending)
        while pending:
            k = heappop(pending)
            v, t = row.pop(k)
            h = v if t == k else v * minors[k] // minors[t]
            if not h:
                continue
            column.append((k, h))
            dk, dk1 = minors[k], minors[k + 1]
            for j, u in upper[k].items():
                if j in row:
                    v, t = row[j]
                    current = v if t == k else v * dk // minors[t]
                else:
                    current = 0
                    if j < r:
                        heappush(pending, j)  # fill-in
                row[j] = ((dk1 * current - h * u) // dk, k + 1)
            v, t = row[r]  # the diagonal, against h in column r of pivot row k
            current = v if t == k else v * dk // minors[t]
            row[r] = ((dk1 * current - h * h) // dk, k + 1)
            if rhs_level != k:
                rhs = rhs * dk // minors[rhs_level]
            rhs, rhs_level = (dk1 * rhs - h * self.upper_rhs[k]) // dk, k + 1
        v, t = row.pop(r)
        pivot = v if t == r else v * minors[r] // minors[t]
        if pivot == 0 or (pivot < 0) != (r % 2 == 0):
            return False
        for k, h in column:
            upper[k][r] = h
        if rhs_level != r:
            rhs = rhs * minors[r] // minors[rhs_level]
        minors.append(pivot)
        upper.append({})
        self.upper_rhs.append(rhs)
        return True

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

    The negative part N is supported on a negative definite set of curves,
    and P = d - N meets every declared curve non-negatively and every
    support curve in 0.  Only declared curves are visible; this is the
    documented trust boundary.  The solve borders a guessed support, then
    collects the curves the candidate meets negatively, round by round
    (``_solve``), whose refusals name what the data lacks.
    Each support curve is bordered once onto a fraction-free factorization of
    the support Gram matrix, every test runs on the integer numerators of
    the solution, and Fractions are built only for the result.
    """
    return _decompose(d, curves, pairing_table([c.cls for c in curves], d))


_Solved = Tuple[List[int], List[int], int]  # support curves, numerators y, det


def _border(
    factor: _BorderedFactor, table: Pairings, i: int, position: Dict[int, int]
) -> bool:
    """Border curve ``i`` onto ``factor``, whose rows are the curves of
    ``position`` (curve index -> row); False, with nothing changed, if the
    support would no longer be negative definite."""
    entries = {position[j]: g for j, g in table.meets[i].items() if j in position}
    r = len(position)
    entries[r] = table.squares[i]
    if not factor.append(entries, table.d_dot[i]):
        return False
    position[i] = r
    return True


def _violators(
    table: Pairings, tested: Iterable[int], position: Dict[int, int], y: List[int], det: int
) -> List[int]:
    """The curves of ``tested`` that P = D - N meets negatively, N having the
    numerators ``y`` over ``det`` on the rows of ``position``."""
    d_dot, meets = table.d_dot, table.meets
    sign = 1 if det > 0 else -1
    violators = []
    for i in tested:
        pairing = det * d_dot[i]
        for j, g in meets[i].items():
            k = position.get(j)
            if k is not None:
                pairing -= y[k] * g
        if pairing * sign < 0:
            violators.append(i)
    return violators


def _guess(table: Pairings) -> Sequence[int]:
    """The seed of ``_solve``: every curve C with C^2 < 0 and D.C <= 0, in
    declared order."""
    # A negative meet seeds nothing on purpose: the argument that the seeded
    # loop refuses and answers as the unseeded one does needs distinct curves
    # to meet non-negatively, so such a table keeps the unseeded loop's
    # answers and messages.
    if any(g < 0 for row in table.meets for g in row.values()):
        return ()
    d_dot = table.d_dot
    return [i for i, sq in enumerate(table.squares) if sq < 0 and d_dot[i] <= 0]


def _solve(table: Pairings, seed: Iterable[int]) -> _Solved:
    """The decomposition by rounds from a seeded support.

    The seed curves are bordered first, each skipped if it would break
    negative definiteness, and the first solve tests every curve outside the
    factor.  Each round then borders every curve the candidate meets
    negatively and re-solves, until no curve is met negatively.  Raises
    ``InconsistentScenario`` if a bordered violator breaks negative
    definiteness or a coefficient comes out negative.
    """
    factor = _BorderedFactor()
    position: Dict[int, int] = {}  # curve index -> place in the support
    for i in seed:
        _border(factor, table, i, position)
    y = factor.solve()
    # A curve meeting no support curve pairs with the candidate as with d,
    # which the first round found non-negative; so after that round only the
    # curves meeting the support are tested.  The set is built only once a
    # round finds violators, so a one-round solve never pays for it.
    neighbours: Optional[Set[int]] = None
    tested: Iterable[int] = (i for i in range(len(table.squares)) if i not in position)
    while True:
        det = factor.minors[-1]
        violators = _violators(table, tested, position, y, det)
        if not violators:
            break
        if neighbours is None:
            neighbours = {j for i in position for j in table.meets[i]}
        for i in violators:
            if not _border(factor, table, i, position):
                raise InconsistentScenario(
                    "support intersection matrix is not negative definite"
                )
            neighbours.update(table.meets[i])
        neighbours.difference_update(position)
        tested = sorted(neighbours)
        y = factor.solve()

    if any(v * det < 0 for v in y):
        raise InconsistentScenario(
            "negative part received a negative coefficient; the declared data "
            "does not describe a pseudo-effective decomposition"
        )
    return list(position), y, det


def _decompose(
    d: DivisorClass, curves: Sequence[CurveRecord], table: Pairings
) -> ZariskiDecomposition:
    """The solve of ``decompose_against_curves`` on ``table``, which pairs
    ``curves`` with each other and with ``d`` as its class D: one
    ``_solve`` from the ``_guess`` seed."""
    support, y, det = _solve(table, _guess(table))
    d_pairings = table.d_dot
    nef = {idx: det * v for idx, v in table.d_row.items()}
    # P.C = 0 on the support, so P^2 = P.D = D^2 - D.N; det * scale^2 * D.N
    # is the sum of y_k times the scaled D.C_k
    d_dot_n = 0
    parts: List[Tuple[str, Fraction]] = []
    for k in sorted(range(len(support)), key=support.__getitem__):
        if not y[k]:
            continue
        i = support[k]
        parts.append((curves[i].name, fraction(y[k], det)))
        d_dot_n += y[k] * d_pairings[i]
        for idx, v in table.rows[i].items():
            nef[idx] = nef.get(idx, 0) - y[k] * v
    unit = det * table.scale
    nef_square = fraction(det * table.d_square - d_dot_n, unit * table.scale)
    # P's numerators over det * scale, brought to lowest terms by one gcd
    nef_part = DivisorClass.from_numerators(d.surface, nef, unit)
    return ZariskiDecomposition(nef_part, tuple(parts), nef_square)


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
    dec = _decompose(f.k_foliation, f.curves, f.pairings)
    if f.metadata.relatively_minimal and f.is_reduced:
        for name, value in dec.negative_part:
            if value.numerator >= value.denominator:  # value >= 1, on its ints
                raise InconsistentScenario(
                    f"negative-part coefficient of {name} is {value} >= 1 on a "
                    "relatively minimal scenario"
                )
    return dec
