"""Picard-lattice models of rational surfaces with exact intersection pairing.

A surface is either the projective plane or a Hirzebruch surface, plus an
ordered tower of blow-ups.  The basis is the total-transform basis: every
exceptional class is orthogonal to all earlier basis classes, so the Gram
matrix is block diagonal and blowing up is trivially incremental.  Blow-up
centers are not geometric points; only the lattice effect is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .errors import DomainError, ShapeError
from .local_invariants import as_rational

P2 = "P2"
HIRZEBRUCH = "hirzebruch"


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

    @property
    def labels(self) -> Tuple[str, ...]:
        base = ("L",) if self.base == P2 else ("C0", "F")
        return base + tuple(f"E{k + 1}" for k in range(self.blowups))

    def gram(self, i: int, j: int) -> int:
        """Intersection number of the i-th and j-th basis classes."""
        br = self.base_rank
        if i >= br or j >= br:
            return -1 if i == j else 0
        if self.base == P2:
            return 1
        if i == j:
            return -self.hirzebruch_e if i == 0 else 0
        return 1

    def divisor(self, coefficients: Iterable[Union[Fraction, int]]) -> "DivisorClass":
        return DivisorClass(self, tuple(as_rational(c) for c in coefficients))

    def basis_divisor(self, index: int) -> "DivisorClass":
        coeffs = [Fraction(0)] * self.rank
        coeffs[index] = Fraction(1)
        return DivisorClass(self, tuple(coeffs))

    def zero_divisor(self) -> "DivisorClass":
        return DivisorClass(self, (Fraction(0),) * self.rank)


@dataclass(frozen=True)
class DivisorClass:
    """Coefficient vector over the Picard basis of a surface model."""

    surface: SurfaceModel
    coefficients: Tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(as_rational(c) for c in self.coefficients)
        if len(coeffs) != self.surface.rank:
            raise ShapeError(
                f"class has {len(coeffs)} coefficients, surface rank is {self.surface.rank}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    def _require_same_surface(self, other: "DivisorClass") -> None:
        if self.surface != other.surface:
            raise ShapeError("divisor classes live on different surfaces")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return DivisorClass(
            self.surface,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_surface(other)
        return DivisorClass(
            self.surface,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(-a for a in self.coefficients))

    def scale(self, factor: Union[Fraction, int]) -> "DivisorClass":
        f = as_rational(factor)
        return DivisorClass(self.surface, tuple(f * a for a in self.coefficients))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coefficients)

    def __str__(self) -> str:
        labels = self.surface.labels
        parts = []
        for c, label in zip(self.coefficients, labels):
            if c == 0:
                continue
            mag = abs(c)
            term = label if mag == 1 else f"{mag}*{label}"
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


_ZERO = Fraction(0)


def intersect(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Exact bilinear symmetric pairing under the basis Gram matrix.

    Zero coefficients are skipped; chain scenarios produce very sparse
    classes and the pairing sits in the solver's inner loop.
    """
    a._require_same_surface(b)
    s = a.surface
    ac, bc = a.coefficients, b.coefficients
    total = _ZERO
    if s.base == P2:
        if ac[0] and bc[0]:
            total = ac[0] * bc[0]
    else:
        if ac[0] and bc[1]:
            total = total + ac[0] * bc[1]
        if ac[1] and bc[0]:
            total = total + ac[1] * bc[0]
        if s.hirzebruch_e and ac[0] and bc[0]:
            total = total - s.hirzebruch_e * ac[0] * bc[0]
    for i in range(s.base_rank, s.rank):
        ai = ac[i]
        if ai:
            bi = bc[i]
            if bi:
                total = total - ai * bi
    return total


def canonical_class(s: SurfaceModel) -> DivisorClass:
    """-3L on P2, -2C0 - (e+2)F on Hirzebruch(e), plus +E_i per blow-up."""
    if s.base == P2:
        coeffs = [Fraction(-3)]
    else:
        coeffs = [Fraction(-2), Fraction(-(s.hirzebruch_e + 2))]
    coeffs.extend([Fraction(1)] * s.blowups)
    return DivisorClass(s, tuple(coeffs))


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
    if s.base == P2:
        a = int(d.coefficients[0])
        return (a + 1) * (a + 2) // 2 if a >= 0 else 0
    a = int(d.coefficients[0])
    b = int(d.coefficients[1])
    if a < 0:
        return 0
    return sum(max(0, b - k * s.hirzebruch_e + 1) for k in range(a + 1))
