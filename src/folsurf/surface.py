"""Picard-lattice models of rational surfaces with exact intersection pairing.

A surface is either the projective plane or a Hirzebruch surface, plus an
ordered tower of blow-ups.  The basis is the total-transform basis: every
exceptional class is orthogonal to all earlier basis classes, so the Gram
matrix is block diagonal and blowing up is trivially incremental.  Blow-up
centers are not geometric points; only the lattice effect is modeled.

A divisor class is stored as integer numerators over one positive
denominator, in lowest terms: ``numerators`` maps each basis index whose
coefficient is nonzero to that coefficient times ``denominator``, in
increasing index order.  That is its only stored form, and equality and
hashing read it.  One function, ``_integer_form``, turns (basis index,
coefficient) pairs into it: the constructor, ``SurfaceModel.divisor`` and
the scenario decoder all call it.  It reads a Fraction's numerator and
denominator from the slots ``local_invariants.fraction`` writes, so
dropping a zero or splitting a value calls no Python-level Fraction method,
and every Fraction a class gives back is built by ``fraction``.
``DivisorClass`` is a frozen dataclass with its hash written by hand, as
``numerators`` is a dict.
A curve class on a large blow-up tower meets a handful of
basis classes, so sums, scaling, integrality and pairing walk a few
integers, and their cost follows the support, not the rank.  The
(basis index, Fraction) ``terms`` and the dense ``coefficients`` (one entry
per basis class, the form scenario documents are written in) are views,
built when first read and kept (``local_invariants.cached``); the printed
form is formatted from the integers.
Two classes are paired by one walk, ``_pair``, over their numerators, which
``intersect`` and a pairing table's D^2 use; the table pairs many curves
with each other and with one class D at once, into the named fields of
``Pairings``, over the classes' common denominator.  K_S has one term per
basis class, written once as ``SurfaceModel.canonical_terms`` for
``canonical_class``; the table never writes it out, but pairs it over each
class's support: a base class by its K_S value
(``SurfaceModel.canonical_degrees``, from the base terms of K_S and the base
Gram block), an exceptional entry by -1.  So nothing a table computes for a
surface walks the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DomainError, ShapeError
from .local_invariants import as_rational, cached, fraction

P2 = "P2"
HIRZEBRUCH = "hirzebruch"
_ZERO = Fraction(0)


def fraction_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _integer_form(
    pairs: Iterable[Tuple[int, Union[int, Fraction]]]
) -> Tuple[Dict[int, int], int]:
    """(basis index, value) pairs in increasing index order, as the stored
    form of their class: the integer numerators of the nonzero values over
    the lcm of their denominators, and that lcm.  That is in lowest terms:
    for each prime power dividing the lcm, a value whose denominator holds
    it keeps a numerator prime to it.  A value that is not an int or a
    Fraction is refused (``as_rational``).  A Fraction is read through the
    slots ``local_invariants.fraction`` writes, ``_numerator`` and
    ``_denominator``: its properties and its truth test are Python calls."""
    values: Dict[int, Union[int, Fraction]] = {}
    fractional = False
    for i, c in pairs:
        if c.__class__ is not int:
            if c.__class__ is not Fraction:
                c = as_rational(c)
            if c._denominator != 1:
                values[i] = c
                fractional = True
                continue
            c = c._numerator
        if c:
            values[i] = c
    if not fractional:
        return values, 1
    den = lcm(*[c._denominator for c in values.values() if c.__class__ is not int])
    return {
        i: c * den if c.__class__ is int else c._numerator * (den // c._denominator)
        for i, c in values.items()
    }, den


@dataclass(frozen=True)
class SurfaceModel:
    """A rational surface: P2 or a Hirzebruch surface F_e, blown up
    ``blowups`` times."""

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

    @cached
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

    @cached
    def base_partners(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """The base Gram block, the only place it is written: per base class,
        its nonzero pairings as (index, value).  L^2 = 1 on P2; C0^2 = -e,
        C0.F = 1 and F^2 = 0 on Hirzebruch(e).  Exceptional classes meet only
        themselves, with -1.  Two walks read this block: ``_pair``, one class
        against another (K_S included, in ``intersect``), and the table's
        batched ``pair_with_curves``, many curves against one class; and
        ``canonical_degrees`` reads it once per surface."""
        if self.base == P2:
            return (((0, 1),),)
        e = self.hirzebruch_e
        return (((0, -e), (1, 1)) if e else ((1, 1),), ((0, 1),))

    @property
    def canonical_base(self) -> Tuple[Tuple[int, int], ...]:
        """The base terms of K_S as (basis index, coefficient), the only
        place they are written: -3L on P2, -2C0 - (e+2)F on Hirzebruch(e)."""
        if self.base == P2:
            return ((0, -3),)
        return ((0, -2), (1, -(self.hirzebruch_e + 2)))

    @property
    def canonical_terms(self) -> Tuple[Tuple[int, int], ...]:
        """K_S as (basis index, coefficient): its base terms and +E_i for
        every blow-up, so it has one term per basis class.
        ``canonical_class`` reads it."""
        return self.canonical_base + tuple((i, 1) for i in range(self.base_rank, self.rank))

    @cached
    def canonical_degrees(self) -> Tuple[int, ...]:
        """K_S.B for each base class B, from ``canonical_base`` and
        ``base_partners``: -3 on P2; e - 2 and -2 on Hirzebruch(e).  Every
        exceptional class has K_S.E_i = -1, as E_i meets only itself, so the
        pairing table pairs K_S with a class over the class's support and
        never walks the rank."""
        k = dict(self.canonical_base)
        return tuple(sum(g * k.get(j, 0) for j, g in partners) for partners in self.base_partners)

    def divisor(self, coefficients: Iterable[Union[Fraction, int]]) -> "DivisorClass":
        """The class with the dense coefficient vector ``coefficients``, one
        entry per basis class in basis order, checked and converted in one
        walk."""
        dense = tuple(coefficients)
        self.check_length(len(dense))
        # every entry is visited, so the first inexact one (a float or bool
        # zero included) is refused; a zero Fraction is dropped by its
        # numerator, with no Python-level truth test
        return DivisorClass.trusted(self, *_integer_form(enumerate(dense)))

    def basis_divisor(self, index: int) -> "DivisorClass":
        return DivisorClass(self, ((index, 1),))


@dataclass(frozen=True, init=False, repr=False)
class DivisorClass:
    """A class over the Picard basis of a surface model, held as integer
    numerators over one positive denominator in lowest terms.

    ``numerators`` maps each basis index with a nonzero coefficient to the
    coefficient times ``denominator``, in increasing index order; the zero
    class has none, over 1.  The constructor takes (basis index,
    coefficient) pairs, ints or Fractions, in increasing index order: it
    refuses an index outside the rank or out of order and an inexact
    coefficient, and drops zeros.  Equal classes therefore have equal
    numerators and denominators, which equality and hashing read.  A class
    is immutable, and ``numerators`` is lent, never copied, so no reader may
    change it.
    """

    surface: SurfaceModel
    numerators: Dict[int, int]
    denominator: int

    def __init__(
        self, surface: SurfaceModel, terms: Iterable[Tuple[int, Union[Fraction, int]]]
    ) -> None:
        _store(self, surface, *_integer_form(_checked_indices(terms, surface.rank)))

    @classmethod
    def trusted(
        cls, surface: SurfaceModel, numerators: Dict[int, int], denominator: int
    ) -> "DivisorClass":
        """The class already in its stored form: nonzero int numerators at
        increasing basis indices below the rank, over a positive denominator
        that shares no factor with all of them."""
        d = object.__new__(cls)
        _store(d, surface, numerators, denominator)
        return d

    @classmethod
    def from_numerators(
        cls, surface: SurfaceModel, numerators: Dict[int, int], denominator: int
    ) -> "DivisorClass":
        """The class whose coefficient at basis index i is numerators[i] /
        denominator, for int numerators at indices below the rank in any
        order, zeros allowed, over a nonzero denominator of either sign.
        One sort of the indices and one gcd bring it to the stored form."""
        nums = {i: numerators[i] for i in sorted(numerators) if numerators[i]}
        g = gcd(denominator, *nums.values())
        if denominator < 0:
            g = -g
        if g != 1:
            nums = {i: v // g for i, v in nums.items()}
            denominator //= g
        return cls.trusted(surface, nums, denominator)

    def __hash__(self):  # kept by the decorator: ``numerators`` is a dict
        return hash((self.surface, self.denominator, tuple(self.numerators.items())))

    def __repr__(self):
        return f"DivisorClass(surface={self.surface!r}, terms={self.terms!r})"

    @cached
    def terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        """The nonzero (basis index, coefficient) pairs in increasing index
        order, each coefficient a Fraction."""
        den = self.denominator
        return tuple((i, fraction(v, den)) for i, v in self.numerators.items())

    @cached
    def coefficients(self) -> Tuple[Fraction, ...]:
        """The dense view: one coefficient per basis class, zeros included."""
        dense = [_ZERO] * self.surface.rank
        for i, c in self.terms:
            dense[i] = c
        return tuple(dense)

    def _require_same_surface(self, other: "DivisorClass") -> None:
        if self.surface is not other.surface and self.surface != other.surface:
            raise ShapeError("divisor classes live on different surfaces")

    def _combine(self, other: "DivisorClass", sign: int) -> "DivisorClass":
        """self + sign * other, on the numerators over the lcm of the two
        denominators."""
        self._require_same_surface(other)
        da, db = self.denominator, other.denominator
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        acc = dict(self.numerators) if fa == 1 else {i: v * fa for i, v in self.numerators.items()}
        for i, v in other.numerators.items():
            acc[i] = acc.get(i, 0) + v * fb
        return DivisorClass.from_numerators(self.surface, acc, den)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, 1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, -1)

    def scale(self, factor: Union[Fraction, int]) -> "DivisorClass":
        if factor.__class__ is not int:
            factor = as_rational(factor)
        p, q = factor.numerator, factor.denominator
        nums = {i: v * p for i, v in self.numerators.items()}
        return DivisorClass.from_numerators(self.surface, nums, self.denominator * q)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1

    def __str__(self) -> str:
        label, den = self.surface.label, self.denominator
        parts = []
        for i, v in self.numerators.items():
            mag = fraction_text(abs(v), den)
            term = label(i) if mag == "1" else f"{mag}*{label(i)}"
            parts.append(("- " if v < 0 else "+ ") + term)
        if not parts:
            return "0"
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


def _checked_indices(
    terms: Iterable[Tuple[int, Union[Fraction, int]]], rank: int
) -> Iterator[Tuple[int, Union[Fraction, int]]]:
    """The pairs of ``terms``, each passed on once its index is an int below
    ``rank`` and above the one before, so the first bad term is refused,
    whether its index or its value is at fault."""
    last = -1
    for i, c in terms:
        if type(i) is not int or not 0 <= i < rank:
            raise ShapeError(f"basis index {i!r} is outside the surface rank {rank}")
        if i <= last:
            raise ShapeError("class terms must have increasing basis indices")
        last = i
        yield i, c


def _store(d: DivisorClass, surface: SurfaceModel, numerators: Dict[int, int], denominator: int):
    object.__setattr__(d, "__dict__", {
        "surface": surface, "numerators": numerators, "denominator": denominator,
    })


def _pair(s: SurfaceModel, terms: Iterable[Tuple[int, int]], other: Dict[int, int]) -> int:
    """The one walk of the Gram rule for two classes: ``terms`` as (basis
    index, numerator) pairs against ``other`` as {basis index: numerator}.
    A base class meets its ``SurfaceModel.base_partners``; an exceptional
    class meets only itself, with -1.  Its callers pass integer numerators,
    so the result is the pairing times the product of the two denominators;
    0 when no term meets."""
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
    """Exact bilinear symmetric pairing by ``_pair`` on the two classes'
    numerators, over the product of their denominators; a Fraction, zero
    included, and the only one built."""
    a._require_same_surface(b)
    total = _pair(a.surface, a.numerators.items(), b.numerators)
    return fraction(total, a.denominator * b.denominator) if total else _ZERO


class Pairings(NamedTuple):
    """Every pairing of some curve classes C_i with each other, with one
    class D and with K_S, and of D with itself and K_S: the batched walk
    pairs the curves with each other and with D through their shared basis
    indices, ``_pair`` makes D^2, and each class meets K_S over its own
    support (``SurfaceModel.canonical_degrees``).

    All classes are written over ``scale``, the LCM of their denominators,
    so the entries are integers; the solution of G x = D.C does not change
    under that common scale.  A class whose denominator is ``scale`` lends
    its own numerators as its row, so the rows are read, never changed.
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
    ``SurfaceModel.canonical_degrees``.

    Every curve must live on the surface of ``d``.
    """
    s = d.surface
    for c in curves:
        c._require_same_surface(d)
    scale = lcm(*{c.denominator for c in curves}, d.denominator)

    def over_scale(c: DivisorClass) -> Dict[int, int]:
        f = scale // c.denominator
        return c.numerators if f == 1 else {i: v * f for i, v in c.numerators.items()}

    rows = [over_scale(c) for c in curves]
    d_row = over_scale(d)
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
    degrees = s.canonical_degrees

    def pair_with_ks(u: Dict[int, int]) -> int:
        # over the support of u: K_S is integral, so a row over ``scale``
        # pairs with it to ``scale`` times its K_S degrees summed
        total = 0
        for a, x in u.items():
            total += degrees[a] * x if a < br else -x
        return scale * total

    ks_dot = [pair_with_ks(row) for row in rows]
    d_square = _pair(s, d_row.items(), d_row)
    d_dot_ks = pair_with_ks(d_row)
    return Pairings(scale, rows, d_row, d_dot, ks_dot, d_square, d_dot_ks, squares, meets)


def canonical_class(s: SurfaceModel) -> DivisorClass:
    """K_S as a class, from ``SurfaceModel.canonical_terms``."""
    return DivisorClass.trusted(s, dict(s.canonical_terms), 1)


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
    a = d.numerators.get(0, 0)
    if s.base == P2:
        return (a + 1) * (a + 2) // 2 if a >= 0 else 0
    b, e = d.numerators.get(1, 0), s.hirzebruch_e
    if a < 0 or b < 0:
        return 0
    # sum over k = 0..top of (b - k e + 1), the terms with k > top being <= 0
    top = a if e == 0 else min(a, b // e)
    return (top + 1) * (b + 1) - e * top * (top + 1) // 2
