"""Blow-up transformation rules for singularities and Seidenberg reduction.

``blow_up_singularity`` is the one-step rule of Seidenberg (1968): its four
cases are a regular point, a non-degenerate eigenvalue distinct from 1,
eigenvalue 1 with its formal normal-form flag, and a saddle-node, and
``transform_canonical`` gives its canonical-class bookkeeping.
``seidenberg_reduce`` iterates that rule down the Euclidean descent until
every singularity over the center is reduced, recording the ending type, the
canonical-class correction count of the last step, and (where the procedure
determines it) the Hirzebruch-Jung chain of exceptional self-intersections.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DomainError
from .local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    SaddleNode,
    SingularityRecord,
    as_rational,
)

DICRITICAL = "dicritical"
SADDLE_NODE_ENDING = "saddle_node"


@dataclass(frozen=True)
class BlowupOutcome:
    """One blow-up of a singular point: whether the exceptional curve is
    invariant, the singularities on it, and the drop of the canonical class."""

    exceptional_invariant: bool
    children: Tuple[SingularityRecord, ...]
    k_drop: int  # the multiple of E subtracted from the pulled-back canonical class


@dataclass(frozen=True)
class ResolutionResult:
    """A Seidenberg reduction: the reduced singularities it ends with, its
    step count, canonical-class corrections, ending and any exceptional chain."""

    resolved: Tuple[SingularityRecord, ...]
    steps: int
    k_corrections: int
    ending: str
    chain_self_intersections: Optional[Tuple[int, ...]]


def transform_canonical(a_p: int, exceptional_invariant: bool) -> int:
    """Coefficient of E subtracted from the pulled-back canonical class.

    The drop is l - 1 with l = a_p when the exceptional curve is invariant
    and l = a_p + 1 otherwise; a regular point (a_p = 0) therefore *adds* E.
    """
    if a_p < 0:
        raise DomainError("vanishing order must be >= 0")
    ell = a_p if exceptional_invariant else a_p + 1
    return ell - 1


def _child(parent_id: str, n: int, kind) -> SingularityRecord:
    return SingularityRecord(id=f"{parent_id}.q{n}", kind=kind)


def blow_up_singularity(
    s: Optional[SingularityRecord], epsilon: Optional[int] = None
) -> BlowupOutcome:
    """One blow-up step; ``s is None`` blows up a regular point.

    ``epsilon`` is required exactly when the eigenvalue class is 1; it selects
    between the dicritical branch (0) and the saddle-node branch (1) of the
    formal normal form.  Children inherit vanishing order 1.
    """
    if s is None:
        child = _child("regular", 1, NonDegenerate(EigenvalueClass.rational(-1)))
        return BlowupOutcome(True, (child,), transform_canonical(0, True))

    if isinstance(s.kind, SaddleNode):
        bb = s.kind.bb_index
        kept = SaddleNode(
            s.kind.multiplicity, None if bb is None else bb - 1
        )
        children = (
            _child(s.id, 1, kept),
            _child(s.id, 2, NonDegenerate(EigenvalueClass.rational(-1))),
        )
        return BlowupOutcome(
            True, children, transform_canonical(s.vanishing_order, True)
        )

    ev = s.kind.eigenvalue
    if ev.value == 1:
        eps = epsilon if epsilon is not None else s.epsilon
        if eps is None:
            raise DomainError(
                f"{s.id}: eigenvalue 1 requires the formal normal-form flag epsilon"
            )
        if eps == 0:
            return BlowupOutcome(False, (), transform_canonical(1, False))
        sn = _child(s.id, 1, SaddleNode(2, Fraction(3)))
        return BlowupOutcome(True, (sn,), transform_canonical(1, True))

    if ev.value is None:
        kinds = [
            NonDegenerate(EigenvalueClass.nonrational()),
            NonDegenerate(EigenvalueClass.nonrational()),
        ]
    else:
        lam = ev.value
        kinds = [
            NonDegenerate(EigenvalueClass.rational(lam - 1)),
            NonDegenerate(EigenvalueClass.rational(1 / lam - 1)),
        ]
    children = tuple(_child(s.id, n + 1, k) for n, k in enumerate(kinds))
    return BlowupOutcome(True, children, transform_canonical(1, True))


def reduction_step_bound(lam: Fraction) -> int:
    """Sum of the continued-fraction partial quotients of lam = m1/m2 > 0.

    Upper bound (in fact the exact count) for the number of blow-ups the
    reduction of a non-reduced eigenvalue needs; certifies termination.
    """
    lam = as_rational(lam)
    if lam <= 0:
        raise DomainError("the bound applies to positive rational eigenvalues")
    a, b = lam.numerator, lam.denominator
    total = 0
    while b:
        total += a // b
        a, b = b, a % b
    return total


def seidenberg_reduce(lam: Fraction, epsilon: int) -> ResolutionResult:
    """Resolve a non-reduced eigenvalue by iterating ``blow_up_singularity``.

    ``lam`` must be a positive rational.  Each step blows up the one
    non-reduced point: its reduced child is resolved, and its other child,
    of eigenvalue lam - 1 or lam / (1 - lam), is the next point, until the
    eigenvalue-1 stage, where ``epsilon`` selects the dicritical or the
    saddle-node ending.

    The exceptional chain is a list of self-intersections between two
    ``None`` ends, the separatrices; the centre lies between ``chain[gap -
    1]`` (the eigenvalue-lam branch) and ``chain[gap]``.  A blow-up takes one
    from both and inserts a (-1)-curve between them; the next centre is right
    of the new curve while the running eigenvalue exceeds 1, left otherwise.
    """
    lam = as_rational(lam)
    if lam <= 0:
        raise DomainError("seidenberg_reduce applies to positive rational eigenvalues")
    if epsilon not in (0, 1):
        raise DomainError("epsilon must be 0 or 1")

    point = SingularityRecord("p", NonDegenerate(EigenvalueClass.rational(lam)))
    above_one = lam > 1  # the running eigenvalue, read along the lam branch, exceeds 1
    chain: List[Optional[int]] = [None, None]
    gap = 1
    resolved: List[SingularityRecord] = []
    while True:
        outcome = blow_up_singularity(point, epsilon)
        for k in (gap - 1, gap):
            if chain[k] is not None:
                chain[k] -= 1
        chain.insert(gap, -1)
        following = None
        for child in outcome.children:
            if child.is_reduced:
                resolved.append(replace(child, id=f"q{len(resolved) + 1}"))
            else:
                following = child
        if following is None:
            break
        if above_one:
            gap += 1
        # with the class mu of this point, the running eigenvalue is mu or
        # 1/mu and the next one, alike, mu - 1 or 1/(mu - 1): on the other
        # side of 1 exactly when mu < 2
        above_one ^= point.eigenvalue.value < 2
        point = following

    emit_chain = not (lam.denominator == 1 or lam.numerator == 1)
    return ResolutionResult(
        resolved=tuple(resolved),
        steps=len(chain) - 2,  # one exceptional curve per blow-up
        k_corrections=outcome.k_drop,
        ending=SADDLE_NODE_ENDING if epsilon else DICRITICAL,
        chain_self_intersections=tuple(chain[1:-1]) if emit_chain else None,
    )
