"""Bundled scenario fixtures.

Each builder returns a scenario document as a plain dict in the wire format,
with an ``expect`` block freezing the golden invariant values.  The builders
are parametric; the JSON files shipped under ``data/fixtures`` are snapshots
of representative parameters and a test keeps them in sync with the builders.

Blocks that several builders share are written once: ``_metadata``,
``_cls`` (a divisor class, by basis label), ``_invariant_curve``, ``_on`` (a
singularity on named curves), ``_points`` (equal singularities off every
curve, as one counted entry), ``_nodal_fibers`` (equal fibers, as one
counted entry) and ``_fibration``; ``_ruled`` is the document that both
ruled families fill in.
The ``expect`` values stay closed forms in the parameters, never counts of
the lists a builder has just made.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import Any, Dict, List, Tuple

from .document import fmt_rational, write_json


def _q(value) -> str:
    # an int is its own text; anything else is brought to a Fraction first
    return str(value) if type(value) is int else fmt_rational(Fraction(value))


def _metadata(integral: str = "unknown", kodaira: str = "2", **p_g: int) -> Dict[str, Any]:
    """The metadata block of a relatively minimal foliation with
    pseudo-effective canonical class; a declared ``p_g`` comes last."""
    return {
        "k_pseudo_effective": True,
        "relatively_minimal": True,
        "algebraically_integral": integral,
        "kodaira": kodaira,
        **p_g,
    }


def _cls(**terms) -> Dict[str, str]:
    """A divisor class in its written form: basis label -> rational for each
    nonzero coefficient, such as ``_cls(C0=1, F=2)``."""
    return {label: _q(value) for label, value in terms.items() if value}


def _invariant_curve(name: str, cls: Dict[str, str]) -> Dict[str, Any]:
    return {"name": name, "class": cls, "f_invariant": True}


def _on(sing_id: str, eigenvalue: str, *curves: str) -> Dict[str, Any]:
    """A reduced singularity with the given eigenvalue on the named curves."""
    return {"id": sing_id, "kind": {"eigenvalue": eigenvalue}, "on_curves": list(curves)}


def _points(prefix: str, count: int, eigenvalue: str) -> List[Dict[str, Any]]:
    """``count`` reduced singularities off every declared curve, written as
    one entry with id ``prefix`` and that ``count``: such points add to the
    global sums only by their kind, so the document grows with its distinct
    data, not with ``count``.  Listed one by one they would be numbered from
    1 after ``prefix``."""
    return [{"id": prefix, "kind": {"eigenvalue": eigenvalue}, "count": count}]


def _nodal_fibers(count: int, pa_reduced: int) -> List[Dict[str, Any]]:
    """``count`` fibers with a single node each, off the negative part,
    written as one entry with that ``count``."""
    return [
        {
            "pa_reduced": pa_reduced,
            "f_red_sq": 0,
            "alpha": 0,
            "nodes": [{"a": 1, "b": 1, "in_negative_part": False}],
            "count": count,
        }
    ]


def _fibration(genus: int, k_f_sq: str, e_f: str, chi_f: str, fibers) -> Dict[str, Any]:
    return {"genus": genus, "k_f_sq": k_f_sq, "e_f": e_f, "chi_f": chi_f, "fibers": fibers}


def slope_12_7() -> Dict[str, Any]:
    """General-type foliation with nef canonical class, slope 12/7.

    Double-cover model: K^2 = 2, twelve eigenvalue -1 singularities and two
    saddle-nodes of multiplicity 2 (index 3 from the blow-up bookkeeping of
    the covered vector field).  The slope lands strictly below 2, so the
    slope rule alone settles transcendence.
    """
    k_f = _cls(C0=2, F=2, **{f"E{i}": -1 for i in range(1, 7)})
    sings = [_on(f"t{i}", "-1", "Dbranch") for i in range(1, 5)] + _points("m", 8, "-1")
    for tag in ("sn0", "sn_inf"):
        sings.append({"id": tag, "kind": {"saddle_node": 2, "bb": "3"}})
    return {
        "name": "slope-12-7",
        "surface": {"base": {"hirzebruch": 0}, "blowups": 8},
        "k_foliation": k_f,
        "curves": [{"name": "Dbranch", "class": dict(k_f), "f_invariant": False}],
        "singularities": sings,
        "metadata": _metadata(),
        "expect": {
            "c1_sq": "2",
            "c2": "12",
            "chi": "7/6",
            "vol": "2",
            "slope": "12/7",
            "singularity_count": 16,
            "negative_part": {},
            "verdict": "Transcendental",
            "fired_rules": ["R3-slope-below-two"],
        },
    }


def degree_two_p2() -> Dict[str, Any]:
    """Degree-2 foliation on the plane with only non-rational eigenvalues.

    Seven singularities, two invariant lines through one common point; on the
    first Noether line vol = p_g - 2.
    """
    return {
        "name": "degree-2-on-P2",
        "surface": {"base": "P2", "blowups": 0},
        "k_foliation": _cls(L=1),
        "curves": [_invariant_curve("L0", _cls(L=1)), _invariant_curve("Linf", _cls(L=1))],
        "singularities": [
            _on("s1", "nonrational", "L0", "Linf"),
            _on("s2", "nonrational", "L0"),
            _on("s3", "nonrational", "L0"),
            _on("s4", "nonrational", "Linf"),
            _on("s5", "nonrational", "Linf"),
            {"id": "s6", "kind": {"eigenvalue": "nonrational"}},
            {"id": "s7", "kind": {"eigenvalue": "nonrational"}},
        ],
        "metadata": _metadata(),
        "expect": {
            "c1_sq": "1",
            "c2": "0",
            "chi": "1/12",
            "vol": "1",
            "slope": "12",
            "p_g": 3,
            "singularity_count": 7,
            "negative_part": {},
            "verdict": "Transcendental",
            "fired_rules": ["R5-noether-gap"],
            "noether_equality": "first",
        },
    }


def _ruled(
    line: str,
    n: int,
    k_fiber: int,
    fibers: Tuple[str, ...],
    sings: List[Dict[str, Any]],
    vol: Fraction,
    p_g: int,
    singularity_count: int,
    negative_part: Dict[str, str],
) -> Dict[str, Any]:
    """A document on the ``line`` Noether line over the n-th Hirzebruch
    surface: canonical class C0 + k_fiber F, the invariant negative section C0
    and the named invariant fibers."""
    return {
        "name": f"{line}-noether-n{n}",
        "surface": {"base": {"hirzebruch": n}, "blowups": 0},
        "k_foliation": _cls(C0=1, F=k_fiber),
        "curves": [_invariant_curve("C0", _cls(C0=1))]
        + [_invariant_curve(fiber, _cls(F=1)) for fiber in fibers],
        "singularities": sings,
        "metadata": _metadata(),
        "expect": {
            "c1_sq": _q(vol),
            "c2": "0",
            "chi": _q(vol / 12),
            "vol": _q(vol),
            "slope": "12",
            "p_g": p_g,
            "singularity_count": singularity_count,
            "negative_part": negative_part,
            "verdict": "Transcendental",
            "fired_rules": ["R5-noether-gap"],
            "noether_equality": line,
        },
    }


def first_noether_ruled(n: int) -> Dict[str, Any]:
    """Ruled-surface family on the first Noether line: vol = n, p_g = n + 2.

    Canonical class C0 + nF on the n-th Hirzebruch surface is nef; all 2n + 6
    singularities carry non-rational eigenvalues.
    """
    if n < 1:
        raise ValueError("n >= 1")
    sings = [
        _on("a0", "nonrational", "C0", "F0"),
        _on("a_inf", "nonrational", "C0", "Finf"),
        _on("b1", "nonrational", "F0"),
        _on("b2", "nonrational", "F0"),
        _on("c1", "nonrational", "Finf"),
        _on("c2", "nonrational", "Finf"),
    ] + _points("d", 2 * n, "nonrational")
    return _ruled(
        "first", n, n, ("F0", "Finf"), sings,
        vol=Fraction(n), p_g=n + 2, singularity_count=2 * n + 6, negative_part={},
    )


def second_noether_ruled(n: int) -> Dict[str, Any]:
    """Ruled-surface family on the second Noether line: vol = n - 2 + 1/n.

    The negative section C0 carries the single rational eigenvalue -n and is
    the whole negative part, with coefficient 1/n.
    """
    if n < 2:
        raise ValueError("n >= 2")
    sings = [
        _on("p_neg", _q(-n), "C0", "Finf"),
        _on("p2", "nonrational", "Finf"),
        _on("p3", "nonrational", "Finf"),
    ] + _points("u", 2 * n - 1, "nonrational")
    return _ruled(
        "second", n, n - 1, ("Finf",), sings,
        vol=Fraction(n) - 2 + Fraction(1, n), p_g=n, singularity_count=2 * n + 2,
        negative_part={"C0": _q(Fraction(1, n))},
    )


def third_noether_double_cover(g: int) -> Dict[str, Any]:
    """Double-cover family on the third Noether line: vol = 2g(g-1)/(2g+1).

    One big normal-crossing fiber whose reduced components form three chains
    around an excluded central curve, plus 2g nodal fibers.  The fibration
    block carries the matching modular data; the slope lands exactly on
    4(g-1)/g.
    """
    if g < 2:
        raise ValueError("g >= 2")
    n_exc = 4 * g + 4

    def e(k: int, j: int) -> Dict[str, str]:
        # the class of E_k - E_j, basis labels of exceptional classes
        return _cls(**{f"E{k}": 1, f"E{j}": -1})

    classes = [
        ("Gamma0", _cls(C0=1)),
        (f"E{4 * g + 3}", _cls(F=1, E1=-1, E2=-1)),
        (f"E{4 * g + 4}", e(1, 2)),
        (f"E{4 * g + 2}", e(2, 3)),
    ]
    classes += [(f"E{i}", e(4 * g + 4 - i, 4 * g + 5 - i)) for i in range(1, 4 * g + 2)]
    curves = [_invariant_curve(name, cls) for name, cls in classes]

    k_f = _cls(C0=1, F=g, E2=-1, **{f"E{n_exc}": -1})

    # fiber multiplicities: E_i carries i (i <= 4g+2), then 2g+2, 2g+1, and
    # Gamma0 2; where components of multiplicities a and b cross sits a
    # singularity of eigenvalue -a/b and a node of the big fiber
    crossings = [(f"n{i}", i, i + 1, f"E{i}", f"E{i + 1}") for i in range(1, 4 * g + 2)]
    crossings += [
        ("n_top", 4 * g + 2, 2 * g + 2, f"E{4 * g + 2}", f"E{4 * g + 3}"),
        ("n_side", 4 * g + 2, 2 * g + 1, f"E{4 * g + 2}", f"E{4 * g + 4}"),
        ("n_gamma", 2 * g + 2, 2, f"E{4 * g + 3}", "Gamma0"),
    ]
    sings: List[Dict[str, Any]] = []
    nodes: List[Dict[str, Any]] = []
    for sing_id, a, b, *on_curves in crossings:
        sings.append(_on(sing_id, _q(Fraction(-a, b)), *on_curves))
        nodes.append({"a": a, "b": b, "in_negative_part": True})
    sings += _points("m", 2 * g, "-1")

    fibers = [{"pa_reduced": 0, "f_red_sq": -(g + 1), "alpha": 0, "nodes": nodes}]
    fibers += _nodal_fibers(2 * g, g)

    vol = Fraction(2 * g * (g - 1), 2 * g + 1)
    chi = Fraction(g * g, 2 * (2 * g + 1))
    negative = {
        f"E{i}": _q(Fraction(4 * g + 2 - i, 4 * g + 2)) for i in range(1, 4 * g + 2)
    }
    negative["Gamma0"] = _q(Fraction(2, 2 * g + 1))
    negative[f"E{4 * g + 3}"] = _q(Fraction(1, 2 * g + 1))
    negative[f"E{4 * g + 4}"] = _q(Fraction(1, 2))

    return {
        "name": f"third-noether-g{g}",
        "surface": {"base": {"hirzebruch": g + 1}, "blowups": n_exc},
        "k_foliation": k_f,
        "curves": curves,
        "singularities": sings,
        "metadata": _metadata("yes", p_g=g),
        "fibration": _fibration(g, _q(4 * g - 4), _q(8 * g + 4), _q(g), fibers),
        "expect": {
            "c1_sq": _q(vol),
            "c2": _q(2 * g),
            "chi": _q(chi),
            "vol": _q(vol),
            "slope": _q(Fraction(4 * (g - 1), g)),
            "p_g": g,
            "singularity_count": 6 * g + 4,
            "negative_part": negative,
            "modular": {"kappa": _q(vol), "delta": _q(2 * g), "chi": _q(chi)},
            "verdict": "AlgebraicallyIntegral",
            "genus_bound": g,
            "noether_equality": "third",
        },
    }


def elliptic_pencil() -> Dict[str, Any]:
    """Non-isotrivial genus-1 pencil: the one case off general type with
    positive Chern numbers (c2 = 12 chi = 12)."""
    return {
        "name": "elliptic-pencil-genus1",
        "surface": {"base": "P2", "blowups": 9},
        "k_foliation": _cls(L=3, **{f"E{i}": -1 for i in range(1, 10)}),
        "curves": [],
        "singularities": _points("v", 12, "-1"),
        "metadata": _metadata("yes", "1"),
        "fibration": _fibration(1, "0", "12", "1", _nodal_fibers(12, 1)),
        "expect": {
            "c1_sq": "0",
            "c2": "12",
            "chi": "1",
            "vol": "0",
            "slope": "0",
            "singularity_count": 12,
            "negative_part": {},
            "modular": {"kappa": "0", "delta": "12", "chi": "1"},
            "verdict": "AlgebraicallyIntegral",
            "fired_rules": ["R2-nongeneral-positive-chern", "R0-declared-integrability"],
        },
    }


def isotrivial_vector_field() -> Dict[str, Any]:
    """Foliation generated by a global vector field on a quadric: canonical
    class zero, two saddle-nodes, all Chern numbers zero."""
    return {
        "name": "isotrivial-vector-field",
        "surface": {"base": {"hirzebruch": 0}, "blowups": 0},
        "k_foliation": _cls(),
        "curves": [_invariant_curve("F0", _cls(F=1))],
        "singularities": [
            {"id": "sn0", "kind": {"saddle_node": 2, "bb": "4"}, "on_curves": ["F0"]},
            {"id": "sn_inf", "kind": {"saddle_node": 2, "bb": "4"}, "on_curves": ["F0"]},
        ],
        "metadata": _metadata(kodaira="0"),
        "expect": {
            "c1_sq": "0",
            "c2": "0",
            "chi": "0",
            "vol": "0",
            "singularity_count": 4,
            "negative_part": {},
            "verdict": "Undetermined",
            "fired_rules": [],
        },
    }


def semistable_genus2() -> Dict[str, Any]:
    """Semistable genus-2 pencil of bidegree (2,3) curves: twenty nodal
    fibers, modular invariants equal the plain fibration numbers, slope
    exactly 2."""
    return {
        "name": "semistable-genus2",
        "surface": {"base": {"hirzebruch": 0}, "blowups": 12},
        "k_foliation": _cls(C0=2, F=4, **{f"E{i}": -1 for i in range(1, 13)}),
        "curves": [],
        "singularities": _points("v", 20, "-1"),
        "metadata": _metadata("yes"),
        "fibration": _fibration(2, "4", "20", "2", _nodal_fibers(20, 2)),
        "expect": {
            "c1_sq": "4",
            "c2": "20",
            "chi": "2",
            "vol": "4",
            "slope": "2",
            "singularity_count": 20,
            "negative_part": {},
            "modular": {"kappa": "4", "delta": "20", "chi": "2"},
            "verdict": "AlgebraicallyIntegral",
            "genus_bound": 2,
        },
    }


def i0star_elliptic() -> Dict[str, Any]:
    """Isotrivial elliptic fibration whose only degenerate fiber is a star of
    five rational curves; all local corrections cancel the global numbers."""
    star = [{"a": 2, "b": 1, "in_negative_part": True} for _ in range(4)]
    return {
        "name": "elliptic-i0star",
        "fibration": _fibration(
            1, "0", "6", "1/2", [{"pa_reduced": 0, "f_red_sq": -2, "alpha": 0, "nodes": star}]
        ),
        "expect": {"modular": {"kappa": "0", "delta": "0", "chi": "0"}},
    }


def genus1_nonisotrivial_fibration() -> Dict[str, Any]:
    """Fibration-only document for a non-isotrivial genus-1 family: twelve
    nodal fibers, no local corrections, delta = 12 chi."""
    return {
        "name": "genus1-nonisotrivial-fibration",
        "fibration": _fibration(1, "0", "12", "1", _nodal_fibers(12, 1)),
        "expect": {"modular": {"kappa": "0", "delta": "12", "chi": "1"}},
    }


def bundled_documents() -> Dict[str, Dict[str, Any]]:
    """The fixture corpus shipped with the package, keyed by file stem."""
    return {
        "slope_12_7": slope_12_7(),
        "degree2_p2": degree_two_p2(),
        "first_noether_n1": first_noether_ruled(1),
        "first_noether_n3": first_noether_ruled(3),
        "first_noether_n7": first_noether_ruled(7),
        "second_noether_n2": second_noether_ruled(2),
        "second_noether_n4": second_noether_ruled(4),
        "second_noether_n5": second_noether_ruled(5),
        "third_noether_g2": third_noether_double_cover(2),
        "third_noether_g3": third_noether_double_cover(3),
        "elliptic_pencil": elliptic_pencil(),
        "isotrivial_vector_field": isotrivial_vector_field(),
        "semistable_genus2": semistable_genus2(),
        "i0star_elliptic": i0star_elliptic(),
        "genus1_nonisotrivial": genus1_nonisotrivial_fibration(),
    }


def render_fixture(doc: Dict[str, Any]) -> str:
    return write_json(doc) + "\n"


def load_bundled_files() -> List[Tuple[str, str]]:
    """(name, raw text) for every shipped fixture file, sorted by name."""
    out = []
    root = resources.files("folsurf").joinpath("data/fixtures")
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        if entry.name.endswith(".json"):
            out.append((entry.name, entry.read_text(encoding="utf-8")))
    return out
