import copy
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
from folsurf.surface import DivisorClass, SurfaceModel
from folsurf.zariski import chain_mu_sequence

ONE, MINUS_ONE = Fraction(1), Fraction(-1)


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

    def vector(entries):
        # sparse terms in increasing index order, never the dense vector
        return DivisorClass(surface, tuple(sorted(entries.items())))

    curves = []
    head = 1  # exceptional basis positions start at 1 (0 is L)
    next_free = 2
    heads = []
    for j, ej in enumerate(e_list):
        tail = list(range(next_free, next_free + ej - 1))
        next_free += ej - 1
        entries = {head: ONE}
        for idx in tail:
            entries[idx] = MINUS_ONE
        curves.append(
            CurveRecord(name=f"C{j + 1}", cls=vector(entries), f_invariant=True)
        )
        heads.append(head)
        head = tail[0] if tail else None

    k_entries = {heads[0]: ONE}
    if nef_multiple:
        k_entries[0] = Fraction(nef_multiple)
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


def expand_points(doc):
    """A copy of the document ``doc`` with each counted singularity entry
    listed point by point: the entry with id q and count n becomes n entries
    q1, ..., qn, each without ``count``.  Both forms declare one scenario, so
    a test may change one point of a family whose builder groups them."""
    out = copy.deepcopy(doc)
    if "singularities" in out:
        listed = []
        for entry in out["singularities"]:
            if "count" not in entry:
                listed.append(entry)
                continue
            point = {k: v for k, v in entry.items() if k != "count"}
            for i in range(1, entry["count"] + 1):
                listed.append({**copy.deepcopy(point), "id": f"{entry['id']}{i}"})
        out["singularities"] = listed
    return out


def dense_form(doc):
    """A copy of the document ``doc`` in the dense form: each class written
    as a list of one rational per basis class, and each counted fiber listed
    one by one, without ``count``.  Both forms declare one scenario and one
    fibration, so the dense form keeps the refusals of a list's length and
    of a single fiber within reach."""
    out = copy.deepcopy(doc)
    surface = out.get("surface")
    if isinstance(surface, dict):
        base_rank = 1 if surface.get("base") == "P2" else 2
        rank = base_rank + surface.get("blowups", 0)
        index = {"L": 0, "C0": 0, "F": 1}

        def dense(cls):
            coefficients = ["0"] * rank
            for label, value in cls.items():
                i = index[label] if label in index else base_rank - 1 + int(label[1:])
                coefficients[i] = value
            return coefficients

        if isinstance(out.get("k_foliation"), dict):
            out["k_foliation"] = dense(out["k_foliation"])
        for curve in out.get("curves", ()):
            if isinstance(curve.get("class"), dict):
                curve["class"] = dense(curve["class"])
    fibration = out.get("fibration")
    if fibration is not None:
        listed = []
        for fiber in fibration["fibers"]:
            one = {k: v for k, v in fiber.items() if k != "count"}
            listed += [copy.deepcopy(one) for _ in range(fiber.get("count", 1))]
        fibration["fibers"] = listed
    return out


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
