"""Chain detection, continued-fraction coefficients, and exact Zariski
decomposition of the canonical class of a foliation.

The closed-form coefficient recursion for a Hirzebruch-Jung chain and the
general iterative decomposition are kept as two independent routes; tests
pin them against each other.  All linear algebra is exact: the support Gram
matrix is solved by Gaussian elimination over Fractions, and negative
definiteness is certified by the signs of the elimination pivots (all pivots
negative iff the leading principal minors alternate in sign starting
negative).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, InconsistentScenario
from .foliation import CheckResult, CurveRecord, FoliatedScenario, adjunction_genus
from .local_invariants import EigenvalueClass
from .surface import DivisorClass, intersect


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
    guessed at.
    """
    kf = f.k_foliation
    candidates = []
    for c in f.curves:
        if not c.f_invariant:
            continue
        sq = intersect(c.cls, c.cls)
        if sq > -2 or sq.denominator != 1:
            continue
        if adjunction_genus(f, c) != 0:
            continue
        deg = intersect(kf, c.cls)
        if deg not in (-1, 0):
            continue
        candidates.append((c, int(sq), deg))

    index = {c.name: k for k, (c, _, _) in enumerate(candidates)}
    adjacency: Dict[str, List[str]] = {c.name: [] for c, _, _ in candidates}
    names = list(adjacency)
    bad_components = set()
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            ci, cj = candidates[i][0], candidates[j][0]
            meet = intersect(ci.cls, cj.cls)
            if meet == 0:
                continue
            if meet == 1:
                adjacency[ci.name].append(cj.name)
                adjacency[cj.name].append(ci.name)
            else:
                bad_components.update((ci.name, cj.name))

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
            heads = [
                n for n in ends if candidates[index[n]][2] == -1
            ]
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
        kf_values = [candidates[index[n]][2] for n in ordered]
        if kf_values[0] != -1 or any(v != 0 for v in kf_values[1:]):
            continue
        chains.append(
            FChain(
                curves=tuple(ordered),
                self_intersections=tuple(-candidates[index[n]][1] for n in ordered),
            )
        )
    chains.sort(key=lambda ch: ch.curves)
    return chains, flagged


def _solve_negative_definite(
    gram: List[List[Fraction]], rhs: List[Fraction]
) -> List[Fraction]:
    """Solve G x = rhs for a symmetric matrix certified negative definite.

    Elimination without pivoting; every pivot must be negative, which is
    equivalent to the leading principal minors alternating in sign starting
    with a negative 1x1 minor.
    """
    k = len(gram)
    a = [row[:] + [rhs[i]] for i, row in enumerate(gram)]
    for col in range(k):
        acol = a[col]
        pivot = acol[col]
        if pivot >= 0:
            raise InconsistentScenario(
                "support intersection matrix is not negative definite"
            )
        for row in range(col + 1, k):
            arow = a[row]
            head = arow[col]
            if not head:
                continue
            factor = head / pivot
            for c in range(col, k + 1):
                v = acol[c]
                if v:
                    arow[c] -= factor * v
    x = [Fraction(0)] * k
    for row in range(k - 1, -1, -1):
        arow = a[row]
        acc = arow[k]
        for c in range(row + 1, k):
            v = arow[c]
            if v and x[c]:
                acc -= v * x[c]
        x[row] = acc / arow[row]
    return x


def _solve_negative_definite_int(
    gram: List[List[int]], rhs: List[int]
) -> List[Fraction]:
    """Fraction-free elimination for integer data.

    The working pivots are the leading principal minors, so negative
    definiteness is certified by their signs alternating starting negative;
    all intermediate divisions are exact.
    """
    k = len(gram)
    a = [list(row) + [rhs[i]] for i, row in enumerate(gram)]
    prev = 1
    for col in range(k):
        acol = a[col]
        pivot = acol[col]
        expected_negative = col % 2 == 0
        if pivot == 0 or (pivot < 0) != expected_negative:
            raise InconsistentScenario(
                "support intersection matrix is not negative definite"
            )
        for row in range(col + 1, k):
            arow = a[row]
            head = arow[col]
            for c in range(col + 1, k + 1):
                arow[c] = (arow[c] * pivot - head * acol[c]) // prev
            arow[col] = 0
        prev = pivot
    x = [Fraction(0)] * k
    for row in range(k - 1, -1, -1):
        arow = a[row]
        acc = Fraction(arow[k])
        for c in range(row + 1, k):
            v = arow[c]
            if v and x[c]:
                acc -= v * x[c]
        x[row] = acc / arow[row]
    return x


def _int_pairing(surface, u: List[int], v: List[int]) -> int:
    if surface.base == "P2":
        total = u[0] * v[0]
    else:
        total = u[0] * v[1] + u[1] * v[0] - surface.hirzebruch_e * u[0] * v[0]
    for i in range(surface.base_rank, surface.rank):
        ui = u[i]
        if ui:
            vi = v[i]
            if vi:
                total -= ui * vi
    return total


def decompose_against_curves(
    d: DivisorClass, curves: Sequence[CurveRecord]
) -> ZariskiDecomposition:
    """Exact Zariski decomposition of ``d`` against the declared curves.

    Iteratively collects every curve the current candidate meets negatively,
    solves for the negative part supported there, and repeats until the
    remainder is non-negative against all declared curves.  Only declared
    curves are visible; this is the documented trust boundary.  Integral
    input (the usual case) is solved fraction-free over the integers.
    """
    m = len(curves)
    integral = d.is_integral and all(c.cls.is_integral for c in curves)
    if integral:
        rows = [[int(v) for v in c.cls.coefficients] for c in curves]
        dl = [int(v) for v in d.coefficients]
        gram = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                v = _int_pairing(d.surface, rows[i], rows[j])
                gram[i][j] = v
                gram[j][i] = v
        dvals = [_int_pairing(d.surface, dl, rows[i]) for i in range(m)]
        solver = _solve_negative_definite_int
    else:
        gram = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                v = intersect(curves[i].cls, curves[j].cls)
                gram[i][j] = v
                gram[j][i] = v
        dvals = [intersect(d, c.cls) for c in curves]
        solver = _solve_negative_definite

    support: List[int] = []
    coeffs: List[Fraction] = []
    while True:
        in_support = set(support)
        violators = []
        for i in range(m):
            if i in in_support:
                continue
            pairing = dvals[i]
            for k in range(len(support)):
                g = gram[support[k]][i]
                if g and coeffs[k]:
                    pairing -= coeffs[k] * g
            if pairing < 0:
                violators.append(i)
        if not violators:
            break
        support.extend(violators)
        sub = [[gram[i][j] for j in support] for i in support]
        coeffs = solver(sub, [dvals[i] for i in support])

    if any(c < 0 for c in coeffs):
        raise InconsistentScenario(
            "negative part received a negative coefficient; the declared data "
            "does not describe a pseudo-effective decomposition"
        )

    rank = d.surface.rank
    accumulated = [Fraction(0)] * rank
    parts: List[Tuple[str, Fraction]] = []
    order = sorted(range(len(support)), key=lambda k: support[k])
    for k in order:
        if coeffs[k] == 0:
            continue
        i = support[k]
        parts.append((curves[i].name, coeffs[k]))
        weight = coeffs[k]
        for idx, v in enumerate(curves[i].cls.coefficients):
            if v:
                accumulated[idx] += weight * v
    nef = DivisorClass(
        d.surface,
        tuple(a - b for a, b in zip(d.coefficients, accumulated)),
    )
    return ZariskiDecomposition(nef_part=nef, negative_part=tuple(parts))


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
