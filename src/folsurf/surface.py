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
Two classes are paired by one walk, ``_pair``, which ``intersect`` and a
pairing table's D^2 and K_S pairings use; the table pairs many curves with
each other and with one class D at once, into the named fields of
``Pairings``.  K_S is a class like any other, written once as
``SurfaceModel.canonical_terms``.
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
_EXACT = (int, Fraction)


@dataclass(frozen=True)
class SurfaceModel:
    base: str
    hirzebruch_e: int = 0
    blowups: int = 0  # length of the tower; exceptional classes follow the base

    def __post_init__(self):
        if self.base not in (P2, HIRZEBRUCH):
            raise DomainError(f"unknown base surface {self.base!r}")
        e = self.hirzebruch_e
        if type(e) is not int or (self.base == HIRZEBRUCH and e < 0):
            raise DomainError("Hirzebruch parameter e must be an integer >= 0")
        if self.base == P2 and e != 0:
            raise DomainError("P2 takes no Hirzebruch parameter")
        if type(self.blowups) is not int or self.blowups < 0:
            raise DomainError("the number of blow-ups must be an integer >= 0")

    @classmethod
    def p2(cls, n_blowups: int = 0) -> "SurfaceModel":
        return cls(P2, 0, n_blowups)

    @classmethod
    def hirzebruch(cls, e: int, n_blowups: int = 0) -> "SurfaceModel":
        return cls(HIRZEBRUCH, e, n_blowups)

    @property
    def base_rank(self) -> int:
        return 1 if self.base == P2 else 2

    @cached_property
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
        themselves, with -1.  Two walks read this block: ``_pair``, one class
        against another (K_S included), and the table's batched
        ``pair_with_curves``, many curves against one class."""
        if self.base == P2:
            return (((0, 1),),)
        e = self.hirzebruch_e
        return (((0, -e), (1, 1)) if e else ((1, 1),), ((0, 1),))

    @property
    def canonical_terms(self) -> Tuple[Tuple[int, int], ...]:
        """K_S as (basis index, coefficient), the only place it is written:
        -3L on P2, -2C0 - (e+2)F on Hirzebruch(e), and +E_i for every
        blow-up, so it has one term per basis class.  ``canonical_class`` and
        the pairing table read it."""
        if self.base == P2:
            base = ((0, -3),)
        else:
            base = ((0, -2), (1, -(self.hirzebruch_e + 2)))
        return base + tuple((i, 1) for i in range(self.base_rank, self.rank))

    def divisor(self, coefficients: Iterable[Union[Fraction, int]]) -> "DivisorClass":
        """The class with the dense coefficient vector ``coefficients``, one
        entry per basis class in basis order."""
        dense = tuple(coefficients)
        self.check_length(len(dense))
        # an exact zero (an int or Fraction equal to 0) is no term; any other
        # entry, a float or bool zero included, reaches the per-entry checks
        return DivisorClass(
            self, tuple((i, c) for i, c in enumerate(dense) if c or c.__class__ not in _EXACT)
        )

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

    @classmethod
    def trusted(
        cls, surface: SurfaceModel, terms: Tuple[Tuple[int, Fraction], ...]
    ) -> "DivisorClass":
        """The class of ``terms`` already in canonical form: nonzero Fractions
        at increasing basis indices below the rank, as a solve writes them.
        The public constructor brings any terms to that form."""
        d = object.__new__(cls)
        object.__setattr__(d, "__dict__", {"surface": surface, "terms": terms})
        return d

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


def _pair(s: SurfaceModel, terms: Iterable[Tuple[int, int]], other: Dict[int, int]) -> int:
    """The one walk of the Gram rule for two classes: ``terms`` as (basis
    index, coefficient) pairs against ``other`` as {basis index:
    coefficient}.  A base class meets its ``SurfaceModel.base_partners``; an
    exceptional class meets only itself, with -1.  Its callers pass classes
    scaled to integers over one common denominator; 0 when no term meets."""
    br, base = s.base_rank, s.base_partners
    total = 0
    for i, x in terms:
        if i < br:
            for j, g in base[i]:
                y = other.get(j)
                if y:
                    total += g * (x * y)
        else:
            y = other.get(i)
            if y:
                total -= x * y
    return total


def intersect(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Exact bilinear symmetric pairing by ``_pair``; a Fraction, zero
    included.  Both classes are scaled to one common denominator, so the walk
    pairs integers and one Fraction is built at the end."""
    a._require_same_surface(b)
    scale = lcm(*{c.denominator for _, c in a.terms}, *{c.denominator for _, c in b.terms})
    total = _pair(
        a.surface,
        [(i, c.numerator * (scale // c.denominator)) for i, c in a.terms],
        {i: c.numerator * (scale // c.denominator) for i, c in b.terms},
    )
    return Fraction(total, scale * scale) if total else _ZERO


class Pairings(NamedTuple):
    """Every pairing of some curve classes C_i with each other, with one
    class D and with K_S, and of D with itself and K_S, from two walks: the
    batched walk pairs the curves with each other and with D through their
    shared basis indices, and ``_pair`` makes every pairing with a single
    class, K_S (``SurfaceModel.canonical_terms``) or D itself.

    All classes are multiplied by the LCM of their denominators, so the
    entries are integers; the solution of G x = D.C does not change under
    that common scale.
    """

    scale: int  # the common denominator; entries are scale**2 times the pairing
    rows: List[Dict[int, int]]  # scaled curve classes, {basis index: int}
    d_row: Dict[int, int]  # the scaled class D
    d_dot: List[int]  # D.C_i
    ks_dot: List[int]  # K_S.C_i
    d_square: int  # D^2
    d_dot_ks: int  # D.K_S
    squares: List[int]  # C_i^2
    meets: List[Dict[int, int]]  # the nonzero C_i.C_j for j != i


def pairing_table(curves: Sequence[DivisorClass], d: DivisorClass) -> Pairings:
    """Pair the curve classes with each other, with ``d`` and with K_S, and
    ``d`` with itself and K_S, reading ``SurfaceModel.base_partners`` and
    ``SurfaceModel.canonical_terms``.

    Every curve must live on the surface of ``d``.
    """
    s = d.surface
    for c in curves:
        c._require_same_surface(d)
    scale = lcm(*{v.denominator for c in (*curves, d) for _, v in c.terms})
    rows = [{i: v.numerator * (scale // v.denominator) for i, v in c.terms} for c in curves]
    d_row = {i: v.numerator * (scale // v.denominator) for i, v in d.terms}
    holders: Dict[int, List[Tuple[int, int]]] = {}
    for j, row in enumerate(rows):
        for a, v in row.items():
            holders.setdefault(a, []).append((j, v))
    br, base = s.base_rank, s.base_partners

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

    d_acc = pair_with_curves(d_row)
    d_dot = [d_acc.get(j, 0) for j in range(len(rows))]
    squares: List[int] = []
    meets: List[Dict[int, int]] = []
    for i, row in enumerate(rows):
        acc = pair_with_curves(row)
        squares.append(acc.pop(i, 0))
        meets.append({j: v for j, v in acc.items() if v})
    ks_row = {i: scale * k for i, k in s.canonical_terms}  # K_S is integral
    ks_dot = [_pair(s, row.items(), ks_row) for row in rows]
    d_square = _pair(s, d_row.items(), d_row)
    d_dot_ks = _pair(s, d_row.items(), ks_row)
    return Pairings(scale, rows, d_row, d_dot, ks_dot, d_square, d_dot_ks, squares, meets)


def canonical_class(s: SurfaceModel) -> DivisorClass:
    """K_S as a class, from ``SurfaceModel.canonical_terms``."""
    return DivisorClass(s, s.canonical_terms)


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
