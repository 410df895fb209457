"""Local invariants of foliation singularities, in exact rational arithmetic.

The two basic functions ``beta`` and ``chi_local`` act on nonzero rationals;
their singularity-level counterparts ``beta_p`` / ``chi_p`` act on
:class:`SingularityRecord` values, with saddle-nodes handled by the
``beta(0) = 0`` convention.  Everything here is a pure function of immutable
data, so values can be shared and evaluated concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import DomainError

RationalLike = Union[Fraction, int]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class EigenvalueClass:
    """The unordered pair {lam, 1/lam} of a nonzero eigenvalue ratio.

    ``value`` stores the canonical representative (the one with
    |numerator| >= denominator; positive preferred on the +-1 tie, which is
    automatic since both ties are self-inverse).  ``value is None`` encodes a
    ratio known not to be a rational number.  Two classes are equal iff their
    canonical representatives are equal.
    """

    value: Optional[Fraction]

    def __post_init__(self):
        if self.value is not None:
            q = as_rational(self.value)
            if q == 0:
                raise DomainError("eigenvalue ratio must be nonzero")
            if abs(q.numerator) < q.denominator:
                q = 1 / q
            object.__setattr__(self, "value", q)

    @classmethod
    def rational(cls, value: RationalLike) -> "EigenvalueClass":
        return cls(as_rational(value))

    @classmethod
    def nonrational(cls) -> "EigenvalueClass":
        return cls(None)

    @property
    def is_positive_rational(self) -> bool:
        return self.value is not None and self.value > 0

    def negated(self) -> "EigenvalueClass":
        """The class of -lam (equivalently of -1/lam)."""
        if self.value is None:
            return EigenvalueClass(None)
        return EigenvalueClass(-self.value)

    def __str__(self) -> str:
        return "nonrational" if self.value is None else str(self.value)


@dataclass(frozen=True)
class NonDegenerate:
    """Both eigenvalues of the linear part are nonzero."""

    eigenvalue: EigenvalueClass


@dataclass(frozen=True)
class SaddleNode:
    """Exactly one eigenvalue is nonzero; the ratio is 0 by convention.

    The Baum-Bott index of a saddle-node is analytic data that cannot be
    recovered from the multiplicity alone, so it is caller-supplied and
    optional.
    """

    multiplicity: int
    bb_index: Optional[Fraction] = None

    def __post_init__(self):
        if self.multiplicity < 2:
            raise DomainError("saddle-node multiplicity must be >= 2")
        if self.bb_index is not None:
            object.__setattr__(self, "bb_index", as_rational(self.bb_index))


SingularityKind = Union[NonDegenerate, SaddleNode]


@dataclass(frozen=True)
class SingularityRecord:
    """One singularity of a foliation: kind, vanishing order, curve incidences.

    ``epsilon`` is the formal normal-form flag required to resolve a
    non-reduced singularity whose eigenvalue is a positive integer or unit
    fraction; it is analytic data invisible to the eigenvalue combinatorics
    and must be declared where it matters.
    """

    id: str
    kind: SingularityKind
    vanishing_order: int = 1
    incident_curves: Tuple[str, ...] = ()
    epsilon: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "incident_curves", tuple(self.incident_curves))
        if self.vanishing_order < 1:
            raise DomainError(f"{self.id}: vanishing order must be >= 1")
        if self.multiplicity < self.vanishing_order**2:
            raise DomainError(
                f"{self.id}: multiplicity {self.multiplicity} is below "
                f"vanishing_order^2 = {self.vanishing_order ** 2}"
            )
        if self.epsilon is not None and self.epsilon not in (0, 1):
            raise DomainError(f"{self.id}: epsilon must be 0 or 1")

    @property
    def multiplicity(self) -> int:
        # non-degenerate singularities always have m_p = 1
        if isinstance(self.kind, NonDegenerate):
            return 1
        return self.kind.multiplicity

    @property
    def eigenvalue(self) -> Optional[EigenvalueClass]:
        """Eigenvalue class for non-degenerate singularities, None otherwise."""
        if isinstance(self.kind, NonDegenerate):
            return self.kind.eigenvalue
        return None

    @property
    def is_reduced(self) -> bool:
        """Reduced means the eigenvalue ratio is not a positive rational."""
        if isinstance(self.kind, SaddleNode):
            return True
        return not self.kind.eigenvalue.is_positive_rational


def beta(u: Union[RationalLike, EigenvalueClass]) -> Fraction:
    """gcd(a, b)^2 / (a b) for u = a/b rational nonzero; 0 otherwise.

    The value does not depend on the chosen representation a/b, so it is
    evaluated on the lowest-terms form, where the gcd is 1.  Zero and
    non-rational inputs fall into the defining "otherwise" branch.
    """
    if isinstance(u, EigenvalueClass):
        if u.value is None:
            return Fraction(0)
        u = u.value
    u = as_rational(u)
    if u == 0:
        return Fraction(0)
    return Fraction(1, u.numerator * u.denominator)


def chi_local(u: RationalLike) -> Fraction:
    """(1/12) (u + 1/u + beta(u) - 3) for a nonzero rational u."""
    u = as_rational(u)
    if u == 0:
        raise DomainError("chi_local is undefined at 0")
    return (u + 1 / u + beta(u) - 3) / 12


def beta_p(s: SingularityRecord) -> Fraction:
    """beta(-lam_p); saddle-nodes carry eigenvalue 0 and contribute 0."""
    if isinstance(s.kind, SaddleNode):
        return Fraction(0)
    return beta(s.kind.eigenvalue.negated())


def baum_bott(s: SingularityRecord) -> Optional[Fraction]:
    """lam + 1/lam + 2 at a non-degenerate rational singularity.

    Saddle-nodes return their declared index; returns None ("unavailable")
    when no rational value exists.
    """
    if isinstance(s.kind, SaddleNode):
        return s.kind.bb_index
    lam = s.kind.eigenvalue.value
    if lam is None:
        return None
    return lam + 1 / lam + 2


def chi_p(s: SingularityRecord) -> Optional[Fraction]:
    """-(1/12) (BB_p + m_p - beta(-lam_p)), or None when BB_p is unavailable.

    For a non-degenerate singularity with rational eigenvalue this equals
    ``chi_local(-lam_p)``.
    """
    bb = baum_bott(s)
    if bb is None:
        return None
    return -Fraction(bb + s.multiplicity - beta_p(s)) / 12
