"""Picard-lattice models of rational surfaces with exact intersection pairing.

A surface is either the projective plane or a Hirzebruch surface, plus an
ordered tower of blow-ups.  The basis is the total-transform basis: every
exceptional class is orthogonal to all earlier basis classes, so the Gram
matrix is block diagonal and blowing up is trivially incremental.  Blow-up
centers are not geometric points; only the lattice effect is modeled.

A divisor class stores only its nonzero (basis index, coefficient) pairs, in
increasing index order; a curve class on a large blow-up tower meets a
handful of basis classes.  Pairing, sums, integrality and printing walk
those pairs, so their cost follows the support, not the rank.  The dense
coefficient vector, one entry per basis class, is a derived view; it is the
form scenario documents are written in.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DomainError, ShapeError
from .local_invariants import as_rational

P2 = "P2"
HIRZEBRUCH = "hirzebruch"
_ZERO = Fraction(0)


@dataclass(frozen=True)
class SurfaceModel:
    base: str
    hirzebruch_e: int = 0
    blowups: int = 0  # length of the tower; exceptional classes follow the base

    def __post_init__(self):
        if self.base not in (P2, HIRZEBRUCH):
            raise DomainError(f"unknown base surface {self.base!r}")
        if self.base == HIRZEBRUCH and self.hirzebruch_e < 0:
            raise DomainError("Hirzebruch parameter e must be >= 0")
        if self.base == P2 and self.hirzebruch_e != 0:
            raise DomainError("P2 takes no Hirzebruch parameter")
        if self.blowups < 0:
            raise DomainError("the number of blow-ups must be >= 0")

    @classmethod
    def p2(cls, n_blowups: int = 0) -> "SurfaceModel":
        return cls(P2, 0, n_blowups)

    @classmethod
    def hirzebruch(cls, e: int, n_blowups: int = 0) -> "SurfaceModel":
        return cls(HIRZEBRUCH, e, n_blowups)

    @property
    def base_rank(self) -> int:
        return 1 if self.base == P2 else 2

    @property
    def rank(self) -> int:
        return self.base_rank + self.blowups

    def label(self, index: int) -> str:
        """The name of a basis class: L, or C0 and F, then E1, E2, ..."""
        if index < self.base_rank:
            return "L" if self.base == P2 else ("C0", "F")[index]
        return f"E{index - self.base_rank + 1}"

    def check_length(self, n: int) -> None:
        """Refuse a dense class of ``n`` coefficients unless n is the rank."""
        if n != self.rank:
            raise ShapeError(f"class has {n} coefficients, surface rank is {self.rank}")

    @cached_property
    def base_partners(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """The base Gram block, the only place it is written: per base class,
        its nonzero pairings as (index, value).  L^2 = 1 on P2; C0^2 = -e,
        C0.F = 1 and F^2 = 0 on Hirzebruch(e).  Exceptional classes meet only
        themselves, with -1; ``gram``, ``intersect`` and ``pairing_table``
        read this block."""
        if self.base == P2:
            return (((0, 1),),)
        e = self.hirzebruch_e
        return (((0, -e), (1, 1)) if e else ((1, 1),), ((0, 1),))

    @property
    def canonical_base(self) -> Tuple[Tuple[int, int], ...]:
        """K_S on the base, the only place it is written, as (index,
        coefficient): -3L on P2, -2C0 - (e+2)F on Hirzebruch(e).  Each blow-up
        adds its exceptional class with coefficient 1.  ``canonical_class``
        and ``canonical_degrees`` read it."""
        if self.base == P2:
            return ((0, -3),)
        return ((0, -2), (1, -(self.hirzebruch_e + 2)))

    @property
    def canonical_degrees(self) -> Tuple[int, ...]:
        """K_S.B for each base class B, from ``canonical_base`` and the base
        Gram block: -3 on L; e - 2 on C0 and -2 on F.  An exceptional class
        meets only its own term of K_S, so K_S.E_i = 1 * E_i^2 = -1."""
        coefficient = dict(self.canonical_base)
        return tuple(
            sum(g * coefficient.get(j, 0) for j, g in partners) for partners in self.base_partners
        )

    def gram(self, i: int, j: int) -> int:
        """Intersection number of the i-th and j-th basis classes."""
        if i < self.base_rank:
            return dict(self.base_partners[i]).get(j, 0)
        return -1 if i == j else 0

    def divisor(self, coefficients: Iterable[Union[Fraction, int]]) -> "DivisorClass":
        """The class with the dense coefficient vector ``coefficients``, one
        entry per basis class in basis order."""
        dense = tuple(coefficients)
        self.check_length(len(dense))
        return DivisorClass(self, tuple(enumerate(dense)))

    def basis_divisor(self, index: int) -> "DivisorClass":
        return DivisorClass(self, ((index, Fraction(1)),))


@dataclass(frozen=True)
class DivisorClass:
    """A class over the Picard basis of a surface model, held as its nonzero
    (basis index, coefficient) pairs in increasing index order.

    The constructor puts ``terms`` in that canonical form: it coerces each
    coefficient to a Fraction and drops zeros, and it refuses an index
    outside the rank or out of increasing order.  Equal classes therefore
    have equal ``terms``, equality and hashing read them, and the zero class
    has none.
    """

    surface: SurfaceModel
    terms: Tuple[Tuple[int, Fraction], ...]

    def __post_init__(self):
        rank = self.surface.rank
        terms = []
        last = -1
        for i, c in self.terms:
            if type(i) is not int or not 0 <= i < rank:
                raise ShapeError(f"basis index {i!r} is outside the surface rank {rank}")
            if i <= last:
                raise ShapeError("class terms must have increasing basis indices")
            last = i
            if c.__class__ is not Fraction:
                c = as_rational(c)
            if c:
                terms.append((i, c))
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def coefficients(self) -> Tuple[Fraction, ...]:
        """The dense view: one coefficient per basis class, zeros included."""
        dense = [_ZERO] * self.surface.rank
        for i, c in self.terms:
            dense[i] = c
        return tuple(dense)

    def _require_same_surface(self, other: "DivisorClass") -> None:
        if self.surface is not other.surface and self.surface != other.surface:
            raise ShapeError("divisor classes live on different surfaces")

    def _combine(self, other: "DivisorClass", op: Callable[..., Fraction]) -> "DivisorClass":
        self._require_same_surface(other)
        acc = dict(self.terms)
        for i, c in other.terms:
            acc[i] = op(acc.get(i, _ZERO), c)
        return DivisorClass(self.surface, tuple(sorted(acc.items())))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, operator.add)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, operator.sub)

    def scale(self, factor: Union[Fraction, int]) -> "DivisorClass":
        f = as_rational(factor)
        return DivisorClass(self.surface, tuple((i, f * c) for i, c in self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self.terms)

    def __str__(self) -> str:
        label = self.surface.label
        parts = []
        for i, c in self.terms:
            mag = abs(c)
            term = label(i) if mag == 1 else f"{mag}*{label(i)}"
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


def intersect(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Exact bilinear symmetric pairing under the basis Gram matrix, walking
    the terms of the class with fewer of them."""
    a._require_same_surface(b)
    if len(a.terms) > len(b.terms):
        a, b = b, a
    s = a.surface
    br, base = s.base_rank, s.base_partners
    other = dict(b.terms)
    total = _ZERO
    for i, x in a.terms:
        if i < br:
            for j, g in base[i]:
                y = other.get(j)
                if y:
                    total = total + g * (x * y)
        else:
            y = other.get(i)
            if y:
                total = total - x * y
    return total


class Pairings(NamedTuple):
    """Every pairing of some curve classes with each other and with a few
    extra classes, and of the given extra classes with each other, from one
    pass over shared basis indices.  The canonical class K_S is always the
    last extra class; it enters by its degree on each basis class
    (``SurfaceModel.canonical_degrees``), never as a dense class, and has no
    row of ``class_rows`` or ``among``.

    All classes are multiplied by the LCM of their denominators, so the
    entries are integers; the solution of G x = D.C does not change under
    that common scale.
    """

    scale: int  # the common denominator; entries are scale**2 times the pairing
    rows: List[Dict[int, int]]  # scaled curve classes, {basis index: int}
    class_rows: List[Dict[int, int]]  # the scaled extra classes, K_S excluded
    against: List[List[int]]  # against[c][i] = (extra class c).C_i, K_S last
    among: List[List[int]]  # among[c][c'] = (extra class c).(extra class c'), K_S last
    squares: List[int]  # C_i^2
    meets: List[Dict[int, int]]  # the nonzero C_i.C_j for j != i


def pairing_table(curves: Sequence[DivisorClass], classes: Sequence[DivisorClass]) -> Pairings:
    """Pair the curve classes with each other, with ``classes`` and with K_S
    through the basis indices they share, reading
    ``SurfaceModel.base_partners`` and ``SurfaceModel.canonical_degrees``.

    Every class must live on the surface of ``classes[0]``.
    """
    s = classes[0].surface
    everything = (*curves, *classes)
    for d in everything:
        d._require_same_surface(classes[0])
    scale = lcm(*{v.denominator for d in everything for _, v in d.terms})
    scaled = [{i: v.numerator * (scale // v.denominator) for i, v in d.terms} for d in everything]
    rows, class_rows = scaled[: len(curves)], scaled[len(curves) :]
    holders: Dict[int, List[Tuple[int, int]]] = {}
    for j, row in enumerate(rows):
        for a, v in row.items():
            holders.setdefault(a, []).append((j, v))
    br, base, degrees = s.base_rank, s.base_partners, s.canonical_degrees

    def pair_with_curves(u: Dict[int, int]) -> Dict[int, int]:
        acc: Dict[int, int] = {}
        for a, x in u.items():
            if a < br:
                for b, g in base[a]:
                    for j, v in holders.get(b, ()):
                        acc[j] = acc.get(j, 0) + g * x * v
            else:  # an exceptional class meets only itself, with -1
                for j, v in holders.get(a, ()):
                    acc[j] = acc.get(j, 0) - x * v
        return acc

    def pair(u: Dict[int, int], w: Dict[int, int]) -> int:
        total = 0
        for a, x in u.items():
            for b, g in base[a] if a < br else ((a, -1),):
                total += g * x * w.get(b, 0)
        return total

    # K_S.u for the curves, then for the extra classes: K_S has degree -1 on
    # every exceptional class, so K_S.u is -sum(u) plus (degree + 1) times
    # each base term; K_S is integral, so it takes one factor of the scale
    canonical: List[int] = []
    for u in scaled:
        total = -sum(u.values())
        for a, degree in enumerate(degrees):
            x = u.get(a)
            if x:
                total += (degree + 1) * x
        canonical.append(scale * total)

    against = [
        [acc.get(j, 0) for j in range(len(rows))] for acc in map(pair_with_curves, class_rows)
    ]
    against.append(canonical[: len(rows)])
    among = [
        [pair(u, w) for w in class_rows] + [k_s] for u, k_s in zip(class_rows, canonical[len(rows) :])
    ]
    squares: List[int] = []
    meets: List[Dict[int, int]] = []
    for i, row in enumerate(rows):
        acc = pair_with_curves(row)
        squares.append(acc.pop(i, 0))
        meets.append({j: v for j, v in acc.items() if v})
    return Pairings(scale, rows, class_rows, against, among, squares, meets)


def canonical_class(s: SurfaceModel) -> DivisorClass:
    """K_S as a class, from ``SurfaceModel.canonical_base`` plus +E_i per
    blow-up: it meets every basis class, so it has one term per basis class."""
    one = Fraction(1)
    return DivisorClass(
        s, s.canonical_base + tuple((i, one) for i in range(s.base_rank, s.rank))
    )


def chi_top(s: SurfaceModel) -> int:
    """Topological Euler characteristic; +1 per blow-up."""
    base = 3 if s.base == P2 else 4
    return base + s.blowups


def chi_structure(s: SurfaceModel) -> int:
    """chi(O_S) = 1 for every modeled (rational) surface."""
    return 1


def h0_line_bundle(s: SurfaceModel, d: DivisorClass) -> Optional[int]:
    """Global sections of O(d) where a closed form exists.

    Supported only on un-blown-up P2 and Hirzebruch surfaces; returns None
    ("unavailable") on blow-ups.  Coefficients must be integers.
    """
    if d.surface != s:
        raise ShapeError("divisor class lives on a different surface")
    if not d.is_integral:
        raise DomainError("h0 requires integer coefficients")
    if s.blowups:
        return None
    a = int(d.coefficients[0])
    if s.base == P2:
        return (a + 1) * (a + 2) // 2 if a >= 0 else 0
    b, e = int(d.coefficients[1]), s.hirzebruch_e
    if a < 0 or b < 0:
        return 0
    # sum over k = 0..top of (b - k e + 1), the terms with k > top being <= 0
    top = a if e == 0 else min(a, b // e)
    return (top + 1) * (b + 1) - e * top * (top + 1) // 2
