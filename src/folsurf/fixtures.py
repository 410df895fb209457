"""Bundled scenario fixtures.

Each builder returns a scenario document as a plain dict in the wire format,
with an ``expect`` block freezing the golden invariant values.  The builders
are parametric; the JSON files shipped under ``data/fixtures`` are snapshots
of representative parameters and a test keeps them in sync with the builders.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Any, Dict, List, Tuple

from .scenario_io import fmt_rational


def _q(value) -> str:
    return fmt_rational(Fraction(value))


def slope_12_7() -> Dict[str, Any]:
    """General-type foliation with nef canonical class, slope 12/7.

    Double-cover model: K^2 = 2, twelve eigenvalue -1 singularities and two
    saddle-nodes of multiplicity 2 (index 3 from the blow-up bookkeeping of
    the covered vector field).  The slope lands strictly below 2, so the
    slope rule alone settles transcendence.
    """
    rank = 10
    k_f = [2, 2, -1, -1, -1, -1, -1, -1, 0, 0]
    sings: List[Dict[str, Any]] = []
    for i in range(1, 5):
        sings.append(
            {"id": f"t{i}", "kind": {"eigenvalue": "-1"}, "on_curves": ["Dbranch"]}
        )
    for i in range(1, 9):
        sings.append({"id": f"m{i}", "kind": {"eigenvalue": "-1"}})
    for tag in ("sn0", "sn_inf"):
        sings.append({"id": tag, "kind": {"saddle_node": 2, "bb": "3"}})
    return {
        "name": "slope-12-7",
        "surface": {"base": {"hirzebruch": 0}, "blowups": 8},
        "k_foliation": [_q(c) for c in k_f],
        "curves": [
            {
                "name": "Dbranch",
                "class": [_q(c) for c in k_f],
                "f_invariant": False,
            }
        ],
        "singularities": sings,
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "unknown",
            "kodaira": "2",
        },
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
    sings: List[Dict[str, Any]] = [
        {"id": "s1", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["L0", "Linf"]},
        {"id": "s2", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["L0"]},
        {"id": "s3", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["L0"]},
        {"id": "s4", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["Linf"]},
        {"id": "s5", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["Linf"]},
        {"id": "s6", "kind": {"eigenvalue": "nonrational"}},
        {"id": "s7", "kind": {"eigenvalue": "nonrational"}},
    ]
    return {
        "name": "degree-2-on-P2",
        "surface": {"base": "P2", "blowups": 0},
        "k_foliation": ["1"],
        "curves": [
            {"name": "L0", "class": ["1"], "f_invariant": True},
            {"name": "Linf", "class": ["1"], "f_invariant": True},
        ],
        "singularities": sings,
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "unknown",
            "kodaira": "2",
        },
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


def first_noether_ruled(n: int) -> Dict[str, Any]:
    """Ruled-surface family on the first Noether line: vol = n, p_g = n + 2.

    Canonical class C0 + nF on the n-th Hirzebruch surface is nef; all 2n + 6
    singularities carry non-rational eigenvalues.
    """
    if n < 1:
        raise ValueError("n >= 1")
    sings: List[Dict[str, Any]] = [
        {"id": "a0", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["C0", "F0"]},
        {"id": "a_inf", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["C0", "Finf"]},
        {"id": "b1", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["F0"]},
        {"id": "b2", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["F0"]},
        {"id": "c1", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["Finf"]},
        {"id": "c2", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["Finf"]},
    ]
    for i in range(1, 2 * n + 1):
        sings.append({"id": f"d{i}", "kind": {"eigenvalue": "nonrational"}})
    return {
        "name": f"first-noether-n{n}",
        "surface": {"base": {"hirzebruch": n}, "blowups": 0},
        "k_foliation": ["1", _q(n)],
        "curves": [
            {"name": "C0", "class": ["1", "0"], "f_invariant": True},
            {"name": "F0", "class": ["0", "1"], "f_invariant": True},
            {"name": "Finf", "class": ["0", "1"], "f_invariant": True},
        ],
        "singularities": sings,
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "unknown",
            "kodaira": "2",
        },
        "expect": {
            "c1_sq": _q(n),
            "c2": "0",
            "chi": _q(Fraction(n, 12)),
            "vol": _q(n),
            "slope": "12",
            "p_g": n + 2,
            "singularity_count": 2 * n + 6,
            "negative_part": {},
            "verdict": "Transcendental",
            "fired_rules": ["R5-noether-gap"],
            "noether_equality": "first",
        },
    }


def second_noether_ruled(n: int) -> Dict[str, Any]:
    """Ruled-surface family on the second Noether line: vol = n - 2 + 1/n.

    The negative section C0 carries the single rational eigenvalue -n and is
    the whole negative part, with coefficient 1/n.
    """
    if n < 2:
        raise ValueError("n >= 2")
    sings: List[Dict[str, Any]] = [
        {"id": "p_neg", "kind": {"eigenvalue": _q(-n)}, "on_curves": ["C0", "Finf"]},
        {"id": "p2", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["Finf"]},
        {"id": "p3", "kind": {"eigenvalue": "nonrational"}, "on_curves": ["Finf"]},
    ]
    for i in range(1, 2 * n):
        sings.append({"id": f"u{i}", "kind": {"eigenvalue": "nonrational"}})
    vol = Fraction(n) - 2 + Fraction(1, n)
    return {
        "name": f"second-noether-n{n}",
        "surface": {"base": {"hirzebruch": n}, "blowups": 0},
        "k_foliation": ["1", _q(n - 1)],
        "curves": [
            {"name": "C0", "class": ["1", "0"], "f_invariant": True},
            {"name": "Finf", "class": ["0", "1"], "f_invariant": True},
        ],
        "singularities": sings,
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "unknown",
            "kodaira": "2",
        },
        "expect": {
            "c1_sq": _q(vol),
            "c2": "0",
            "chi": _q(vol / 12),
            "vol": _q(vol),
            "slope": "12",
            "p_g": n,
            "singularity_count": 2 * n + 2,
            "negative_part": {"C0": _q(Fraction(1, n))},
            "verdict": "Transcendental",
            "fired_rules": ["R5-noether-gap"],
            "noether_equality": "second",
        },
    }


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
    rank = 2 + n_exc

    def vec(entries: Dict[int, int]) -> List[str]:
        coeffs = [0] * rank
        for idx, val in entries.items():
            coeffs[idx] = val
        return [_q(c) for c in coeffs]

    def e(k: int) -> int:
        # basis position of the k-th exceptional class (1-based)
        return 1 + k

    curves: List[Dict[str, Any]] = [
        {"name": "Gamma0", "class": vec({0: 1}), "f_invariant": True},
        {"name": f"E{4 * g + 3}", "class": vec({1: 1, e(1): -1, e(2): -1}), "f_invariant": True},
        {"name": f"E{4 * g + 4}", "class": vec({e(1): 1, e(2): -1}), "f_invariant": True},
        {"name": f"E{4 * g + 2}", "class": vec({e(2): 1, e(3): -1}), "f_invariant": True},
    ]
    for i in range(1, 4 * g + 2):
        curves.append(
            {
                "name": f"E{i}",
                "class": vec({e(4 * g + 4 - i): 1, e(4 * g + 5 - i): -1}),
                "f_invariant": True,
            }
        )

    k_f = vec({0: 1, 1: g, e(2): -1, e(n_exc): -1})

    # fiber multiplicities: E_i carries i (i <= 4g+2), then 2g+2, 2g+1, and 2
    sings: List[Dict[str, Any]] = []
    nodes: List[Dict[str, Any]] = []
    for i in range(1, 4 * g + 2):
        sings.append(
            {
                "id": f"n{i}",
                "kind": {"eigenvalue": _q(Fraction(-i, i + 1))},
                "on_curves": [f"E{i}", f"E{i + 1}"],
            }
        )
        nodes.append({"a": i, "b": i + 1, "in_negative_part": True})
    sings.append(
        {
            "id": "n_top",
            "kind": {"eigenvalue": _q(Fraction(-(4 * g + 2), 2 * g + 2))},
            "on_curves": [f"E{4 * g + 2}", f"E{4 * g + 3}"],
        }
    )
    nodes.append({"a": 4 * g + 2, "b": 2 * g + 2, "in_negative_part": True})
    sings.append(
        {
            "id": "n_side",
            "kind": {"eigenvalue": _q(Fraction(-(4 * g + 2), 2 * g + 1))},
            "on_curves": [f"E{4 * g + 2}", f"E{4 * g + 4}"],
        }
    )
    nodes.append({"a": 4 * g + 2, "b": 2 * g + 1, "in_negative_part": True})
    sings.append(
        {
            "id": "n_gamma",
            "kind": {"eigenvalue": _q(-(g + 1))},
            "on_curves": [f"E{4 * g + 3}", "Gamma0"],
        }
    )
    nodes.append({"a": 2 * g + 2, "b": 2, "in_negative_part": True})
    for j in range(1, 2 * g + 1):
        sings.append({"id": f"m{j}", "kind": {"eigenvalue": "-1"}})

    fibers: List[Dict[str, Any]] = [
        {"pa_reduced": 0, "f_red_sq": -(g + 1), "alpha": 0, "nodes": nodes}
    ]
    for _ in range(2 * g):
        fibers.append(
            {
                "pa_reduced": g,
                "f_red_sq": 0,
                "alpha": 0,
                "nodes": [{"a": 1, "b": 1, "in_negative_part": False}],
            }
        )

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
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "yes",
            "kodaira": "2",
            "p_g": g,
        },
        "fibration": {
            "genus": g,
            "k_f_sq": _q(4 * g - 4),
            "e_f": _q(8 * g + 4),
            "chi_f": _q(g),
            "fibers": fibers,
        },
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
    sings = [{"id": f"v{i}", "kind": {"eigenvalue": "-1"}} for i in range(1, 13)]
    fibers = [
        {
            "pa_reduced": 1,
            "f_red_sq": 0,
            "alpha": 0,
            "nodes": [{"a": 1, "b": 1, "in_negative_part": False}],
        }
        for _ in range(12)
    ]
    return {
        "name": "elliptic-pencil-genus1",
        "surface": {"base": "P2", "blowups": 9},
        "k_foliation": ["3"] + ["-1"] * 9,
        "curves": [],
        "singularities": sings,
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "yes",
            "kodaira": "1",
        },
        "fibration": {
            "genus": 1,
            "k_f_sq": "0",
            "e_f": "12",
            "chi_f": "1",
            "fibers": fibers,
        },
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
        "k_foliation": ["0", "0"],
        "curves": [{"name": "F0", "class": ["0", "1"], "f_invariant": True}],
        "singularities": [
            {"id": "sn0", "kind": {"saddle_node": 2, "bb": "4"}, "on_curves": ["F0"]},
            {"id": "sn_inf", "kind": {"saddle_node": 2, "bb": "4"}, "on_curves": ["F0"]},
        ],
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "unknown",
            "kodaira": "0",
        },
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
    sings = [{"id": f"v{i}", "kind": {"eigenvalue": "-1"}} for i in range(1, 21)]
    fibers = [
        {
            "pa_reduced": 2,
            "f_red_sq": 0,
            "alpha": 0,
            "nodes": [{"a": 1, "b": 1, "in_negative_part": False}],
        }
        for _ in range(20)
    ]
    return {
        "name": "semistable-genus2",
        "surface": {"base": {"hirzebruch": 0}, "blowups": 12},
        "k_foliation": ["2", "4"] + ["-1"] * 12,
        "curves": [],
        "singularities": sings,
        "metadata": {
            "k_pseudo_effective": True,
            "relatively_minimal": True,
            "algebraically_integral": "yes",
            "kodaira": "2",
        },
        "fibration": {
            "genus": 2,
            "k_f_sq": "4",
            "e_f": "20",
            "chi_f": "2",
            "fibers": fibers,
        },
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
    return {
        "name": "elliptic-i0star",
        "fibration": {
            "genus": 1,
            "k_f_sq": "0",
            "e_f": "6",
            "chi_f": "1/2",
            "fibers": [
                {
                    "pa_reduced": 0,
                    "f_red_sq": -2,
                    "alpha": 0,
                    "nodes": [
                        {"a": 2, "b": 1, "in_negative_part": True},
                        {"a": 2, "b": 1, "in_negative_part": True},
                        {"a": 2, "b": 1, "in_negative_part": True},
                        {"a": 2, "b": 1, "in_negative_part": True},
                    ],
                }
            ],
        },
        "expect": {"modular": {"kappa": "0", "delta": "0", "chi": "0"}},
    }


def genus1_nonisotrivial_fibration() -> Dict[str, Any]:
    """Fibration-only document for a non-isotrivial genus-1 family: twelve
    nodal fibers, no local corrections, delta = 12 chi."""
    fibers = [
        {
            "pa_reduced": 1,
            "f_red_sq": 0,
            "alpha": 0,
            "nodes": [{"a": 1, "b": 1, "in_negative_part": False}],
        }
        for _ in range(12)
    ]
    return {
        "name": "genus1-nonisotrivial-fibration",
        "fibration": {
            "genus": 1,
            "k_f_sq": "0",
            "e_f": "12",
            "chi_f": "1",
            "fibers": fibers,
        },
        "expect": {"modular": {"kappa": "0", "delta": "12", "chi": "1"}},
    }


def bundled_documents() -> Dict[str, Dict[str, Any]]:
    """The fixture corpus shipped with the package, keyed by file stem."""
    docs = {
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
    return docs


def render_fixture(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_bundled_files() -> List[Tuple[str, str]]:
    """(name, raw text) for every shipped fixture file, sorted by name."""
    out = []
    root = resources.files("folsurf").joinpath("data/fixtures")
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        if entry.name.endswith(".json"):
            out.append((entry.name, entry.read_text(encoding="utf-8")))
    return out
