"""Local invariants of foliation singularities, in exact rational arithmetic.

The two basic functions ``beta`` and ``chi_local`` act on nonzero rationals;
their singularity-level counterparts ``beta_p`` / ``chi_p`` / ``baum_bott``
act on :class:`SingularityRecord` values.  Each is one integer formula in the
canonical eigenvalue lam = n/d (|n| >= d), which one function chooses,
``canonical_ratio``, on integers: the class constructor reaches it through
``canonical_eigenvalue``, and the scenario decoder from a text's integers:

    beta_p = beta(-lam)          = -1 / (n d),
    BB_p   = lam + 1/lam + 2     = (n + d)^2 / (n d),
    chi_p  = -(BB_p + 1 - beta_p) / 12 = -((n + d)^2 + n d + 1) / (12 n d),

with beta(a/b) = gcd(a, b)^2 / (a b) (``beta_ratio``) in any representation.
``local_terms`` writes beta_p and 12 chi_p once, for a kind, as integer
numerators over |n d|: ``beta_p`` and ``chi_p`` build one Fraction from
them, and ``chern.chern_numbers`` adds the integers to its sums directly.
A saddle-node has beta_p = 0 and chi_p = -(BB_p + m_p) / 12, unavailable
when its Baum-Bott index is not declared; a non-rational eigenvalue has
beta_p = 0 and no chi_p.  Everything here is a pure function of immutable
data, so values can be shared and evaluated concurrently without coordination.

``beta_p``, ``chi_p``, ``baum_bott``, ``multiplicity`` and ``is_reduced``
read only a record's kind, and a record off every curve may stand for
several equal points (``count``), so one evaluation per record serves all
of them.  A record built by its constructor checks every field; one built
by ``SingularityRecord.trusted``, from fields a decoder has checked one by
one, checks only the bound m_p >= vanishing_order^2 that spans two fields.
``_trusted`` builds other frozen values whose fields are known good: the
decoder's eigenvalue classes and ``zariski.chain_eigenvalues``'s classes.

Two helpers here serve the whole package.  ``fraction(n, d)`` is the one
builder of a Fraction from two ints: it sets the slots of a bare Fraction
after one gcd, where ``Fraction(n, d)`` runs its type tests in Python.
``cached`` makes a lock-free attribute computed once per instance and kept
in its ``__dict__``; every value computed once per object is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Dict, Optional, Tuple, Union

from .errors import DomainError

RationalLike = Union[Fraction, int]

_new = object.__new__


def fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for ints n and d != 0: one gcd, the sign moved to
    the numerator, and the two slots ``_numerator`` and ``_denominator`` of a
    bare Fraction set, as CPython 3.12's ``Fraction._from_coprime_ints``
    does (the slots are the same from 3.10 on).  ``Fraction(n, d)`` gives the
    same value, but runs its type tests in Python; every Fraction built from
    two ints in this package is built here.  Two readers take the slots
    back, where the properties and dunders would be Python calls:
    ``surface._integer_form`` and ``scenario_io._differ``."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n //= g
        d //= g
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


class cached:
    """A value computed from an instance on first read and stored in its
    ``__dict__`` under the same name, which later reads find first, as the
    standard library's ``cached_property`` does, but without its lock: the
    values cached here are pure, so two threads computing one at once store
    equal values.  It writes the dict directly, so it works on frozen
    dataclasses."""

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"expected an exact rational, got {value!r}")


def _trusted(kind: type, fields: Dict[str, Any]) -> Any:
    """An instance of the frozen dataclass ``kind`` whose attributes are the
    new dict ``fields``, built without ``__init__`` or ``__post_init__``: the
    one way to build a value whose fields the caller has checked, or built
    canonical.  Checks that span fields stay with the caller."""
    obj = object.__new__(kind)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def canonical_eigenvalue(q: Fraction) -> Fraction:
    """The representative n/d of {q, 1/q} with |n| >= d, for a nonzero
    Fraction q: q itself, or its reciprocal when |n| < d.  The +-1 ties are
    self-inverse, so each class has exactly one representative."""
    n, d = q.numerator, q.denominator
    return canonical_ratio(n, d) if abs(n) < d else q


def canonical_ratio(n: int, d: int) -> Fraction:
    """``canonical_eigenvalue(Fraction(n, d))`` for integers n != 0 and
    d >= 1, not necessarily coprime: the swap and the sign fix are made on
    the integers (|n| < d holds for n/d reduced iff it holds for n, d), and
    one Fraction is built."""
    if abs(n) < d:
        n, d = (d, n) if n > 0 else (-d, -n)
    return fraction(n, d)


@dataclass(frozen=True)
class EigenvalueClass:
    """The unordered pair {lam, 1/lam} of a nonzero eigenvalue ratio.

    ``value`` stores the canonical representative (``canonical_eigenvalue``).
    ``value is None`` encodes a ratio known not to be a rational number.  Two
    classes are equal iff their canonical representatives are equal.
    """

    value: Optional[Fraction]

    def __post_init__(self):
        if self.value is not None:
            q = as_rational(self.value)
            if not q.numerator:
                raise DomainError("eigenvalue ratio must be nonzero")
            object.__setattr__(self, "value", canonical_eigenvalue(q))

    @classmethod
    def rational(cls, value: RationalLike) -> "EigenvalueClass":
        # coerced here too, so that None is refused, not read as nonrational
        return cls(as_rational(value))

    @classmethod
    def nonrational(cls) -> "EigenvalueClass":
        return cls(None)

    @property
    def is_positive_rational(self) -> bool:
        # a Fraction carries its sign on the numerator
        return self.value is not None and self.value.numerator > 0

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
        if type(self.multiplicity) is not int or self.multiplicity < 2:
            raise DomainError("saddle-node multiplicity must be an integer >= 2")
        if self.bb_index is not None:
            object.__setattr__(self, "bb_index", as_rational(self.bb_index))


SingularityKind = Union[NonDegenerate, SaddleNode]

# the refusal of a record on curves that stands for several points
COUNTED_ON_CURVES = "a count above 1 needs a point off every curve"


@dataclass(frozen=True)
class SingularityRecord:
    """One singularity of a foliation: kind, vanishing order, curve incidences.

    ``epsilon`` is the formal normal-form flag required to resolve a
    non-reduced singularity whose eigenvalue is a positive integer or unit
    fraction; it is analytic data invisible to the eigenvalue combinatorics
    and must be declared where it matters.

    ``count`` is the number of equal points the record stands for.  A point
    off every curve adds to the global sums (the singularity count, c2 and
    chi) only through its kind, so one record may stand for several such
    points; a record on curves stands for one, since the per-curve rows read
    each of its incidences.
    """

    id: str
    kind: SingularityKind
    vanishing_order: int = 1
    incident_curves: Tuple[str, ...] = ()
    epsilon: Optional[int] = None
    count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "incident_curves", tuple(self.incident_curves))
        if type(self.vanishing_order) is not int or self.vanishing_order < 1:
            raise DomainError(f"{self.id}: vanishing order must be an integer >= 1")
        self._check_multiplicity()
        epsilon = self.epsilon
        if epsilon is not None and (type(epsilon) is not int or epsilon not in (0, 1)):
            raise DomainError(f"{self.id}: epsilon must be 0 or 1")
        count = self.count
        if type(count) is not int or count < 1:
            raise DomainError(f"{self.id}: count must be an integer >= 1")
        if count > 1 and self.incident_curves:
            raise DomainError(f"{self.id}: {COUNTED_ON_CURVES}")

    @classmethod
    def trusted(
        cls, id, kind, vanishing_order, incident_curves, epsilon, count
    ) -> "SingularityRecord":
        """A record from fields the scenario decoder has checked one by one.
        Only the bound m_p >= vanishing_order^2, which spans two fields and
        holds at vanishing order 1, is checked again; a count above 1 on
        curves is refused by the scenario's index walk, which reads every
        count anyway.  The public constructor checks every field."""
        s = object.__new__(cls)
        fields = s.__dict__  # filled directly: item stores beat keyword packing
        fields["id"] = id
        fields["kind"] = kind
        fields["vanishing_order"] = vanishing_order
        fields["incident_curves"] = tuple(incident_curves)
        fields["epsilon"] = epsilon
        fields["count"] = count
        if vanishing_order > 1:
            s._check_multiplicity()
        return s

    def _check_multiplicity(self) -> None:
        if self.multiplicity < self.vanishing_order**2:
            raise DomainError(
                f"{self.id}: multiplicity {self.multiplicity} is below "
                f"vanishing_order^2 = {self.vanishing_order ** 2}"
            )

    @property
    def multiplicity(self) -> int:
        # non-degenerate singularities always have m_p = 1
        kind = self.kind
        return 1 if type(kind) is NonDegenerate else kind.multiplicity

    @property
    def eigenvalue(self) -> Optional[EigenvalueClass]:
        """Eigenvalue class for non-degenerate singularities, None otherwise."""
        if isinstance(self.kind, NonDegenerate):
            return self.kind.eigenvalue
        return None

    @property
    def is_reduced(self) -> bool:
        """Reduced means the eigenvalue ratio is not a positive rational."""
        kind = self.kind
        return type(kind) is SaddleNode or not kind.eigenvalue.is_positive_rational


_ZERO = Fraction(0)


def beta_ratio(a: int, b: int) -> Fraction:
    """gcd(a, b)^2 / (a b): beta(a/b) for nonzero integers a, b, in any
    representation; ``beta`` uses it, and a fiber node where branches of
    multiplicities a and b meet has this beta."""
    g = gcd(a, b)
    return fraction(g * g, a * b)


def beta(u: Union[RationalLike, EigenvalueClass]) -> Fraction:
    """gcd(a, b)^2 / (a b) for u = a/b rational nonzero; 0 otherwise.

    Zero and non-rational inputs fall into the defining "otherwise" branch.
    """
    if isinstance(u, EigenvalueClass):
        if u.value is None:
            return _ZERO
        u = u.value
    u = as_rational(u)
    if not u.numerator:
        return _ZERO
    return beta_ratio(u.numerator, u.denominator)


def chi_local(u: RationalLike) -> Fraction:
    """(1/12) (u + 1/u + beta(u) - 3) for a nonzero rational u."""
    u = as_rational(u)
    if not u.numerator:
        raise DomainError("chi_local is undefined at 0")
    return (u + 1 / u + beta(u) - 3) / 12


def local_terms(kind: SingularityKind) -> Optional[Tuple[int, int, int]]:
    """beta_p and 12 chi_p of a non-degenerate kind with canonical eigenvalue
    n/d, as integer numerators over |n d|: (-1, -((n + d)^2 + n d + 1), n d),
    with both numerators negated when n d < 0 so the denominator is positive.
    None for a saddle-node or a non-rational eigenvalue, whose beta_p is 0.
    The one place both closed forms are written; ``beta_p``, ``chi_p`` and
    ``chern.chern_numbers`` read them here."""
    if type(kind) is SaddleNode:
        return None
    lam = kind.eigenvalue.value
    if lam is None:
        return None
    n, d = lam.numerator, lam.denominator
    nd = n * d
    chi12 = -((n + d) ** 2 + nd + 1)
    return (-1, chi12, nd) if nd > 0 else (1, -chi12, -nd)


def beta_p(s: SingularityRecord) -> Fraction:
    """beta(-lam_p) = -1/(n d) for the canonical eigenvalue lam_p = n/d
    (``local_terms``).

    Saddle-nodes carry eigenvalue 0 and, like non-rational eigenvalues,
    contribute 0.
    """
    terms = local_terms(s.kind)
    return _ZERO if terms is None else fraction(terms[0], terms[2])


def baum_bott(s: SingularityRecord) -> Optional[Fraction]:
    """lam + 1/lam + 2 = (n + d)^2 / (n d) at a non-degenerate singularity
    with rational eigenvalue lam = n/d.

    Saddle-nodes return their declared index; returns None ("unavailable")
    when no rational value exists.
    """
    kind = s.kind
    if type(kind) is SaddleNode:
        return kind.bb_index
    lam = kind.eigenvalue.value
    if lam is None:
        return None
    n, d = lam.numerator, lam.denominator
    return fraction((n + d) ** 2, n * d)


def chi_p(s: SingularityRecord) -> Optional[Fraction]:
    """-(1/12) (BB_p + m_p - beta(-lam_p)), or None when BB_p is unavailable.

    For a non-degenerate singularity with rational eigenvalue lam = n/d this
    is -((n + d)^2 + n d + 1) / (12 n d) (``local_terms``), which equals
    ``chi_local(-lam)``; for a saddle-node (beta = 0) it is -(BB_p + m_p) / 12.
    """
    kind = s.kind
    if type(kind) is SaddleNode:
        bb = kind.bb_index
        return None if bb is None else -(bb + kind.multiplicity) / 12
    terms = local_terms(kind)
    return None if terms is None else fraction(terms[1], 12 * terms[2])
