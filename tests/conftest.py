import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from folsurf.foliation import CurveRecord, FoliatedScenario, ScenarioMetadata
from folsurf.local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    SingularityRecord,
)
from folsurf.surface import SurfaceModel
from folsurf.zariski import chain_mu_sequence


def build_chain_scenario(e_list, nef_multiple=0, extra_singularities=(), name="chain"):
    """A scenario whose declared curves form one Hirzebruch-Jung chain.

    Curves are embedded in a blown-up plane: curve j uses one head
    exceptional class and e_j - 1 tail classes, with consecutive curves
    sharing one index so they meet once.  The canonical class is
    nef_multiple * L plus the head class of the first curve, which meets the
    chain in the required (-1, 0, ..., 0) pattern.
    """
    total_exc = 1 + sum(ej - 1 for ej in e_list)
    surface = SurfaceModel.p2(total_exc)
    rank = surface.rank

    def vector(entries):
        coeffs = [Fraction(0)] * rank
        for idx, val in entries.items():
            coeffs[idx] = Fraction(val)
        return surface.divisor(coeffs)

    curves = []
    head = 1  # exceptional basis positions start at 1 (0 is L)
    next_free = 2
    heads = []
    for j, ej in enumerate(e_list):
        tail = list(range(next_free, next_free + ej - 1))
        next_free += ej - 1
        entries = {head: 1}
        for idx in tail:
            entries[idx] = -1
        curves.append(
            CurveRecord(name=f"C{j + 1}", cls=vector(entries), f_invariant=True)
        )
        heads.append(head)
        head = tail[0] if tail else None

    k_entries = {heads[0]: 1}
    if nef_multiple:
        k_entries[0] = nef_multiple
    k_foliation = vector(k_entries)

    mu = chain_mu_sequence(e_list)
    singularities = []
    r = len(e_list)
    for k in range(1, r + 1):
        incident = [f"C{k}"] if k == r else [f"C{k}", f"C{k + 1}"]
        singularities.append(
            SingularityRecord(
                id=f"p{k}",
                kind=NonDegenerate(
                    EigenvalueClass.rational(Fraction(-mu[k + 1], mu[k]))
                ),
                incident_curves=tuple(incident),
            )
        )
    singularities.extend(extra_singularities)

    return FoliatedScenario(
        name=name,
        surface=surface,
        k_foliation=k_foliation,
        curves=tuple(curves),
        singularities=tuple(singularities),
        metadata=ScenarioMetadata(
            k_pseudo_effective=True,
            relatively_minimal=True,
            algebraically_integral="unknown",
        ),
    )


@pytest.fixture
def chain_scenario():
    return build_chain_scenario


def count_calls(monkeypatch, names):
    """Count the calls to each function in ``names`` through every folsurf
    module that binds it, so a call counts wherever it is made from."""
    calls = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "folsurf"]
    for name in names:
        holders = [m for m in modules if hasattr(m, name)]
        assert holders, f"no folsurf module binds {name}"
        for module in holders:

            def wrapper(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
    return calls
