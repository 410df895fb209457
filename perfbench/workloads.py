"""The four benchmark workloads: inputs, one operation, and an exact oracle.

Every workload is a deck of inputs built from the seed.  The timed loop runs
whole decks, each in a fresh seeded order, so every run sees the same mix of
input sizes whatever the seed; the seed decides the order (and, for
``chain_oracle``, the chains themselves).

An operation returns what it produced, keyed per input (``output_bytes``
turns it into the bytes the determinism digest hashes).  ``check`` then
compares the outputs with an oracle written here, from the closed forms of
the theory and the golden ``expect`` blocks, never from the code under
test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from typing import Any, Dict, List, Sequence

# --------------------------------------------------------------------------
# The benchmark's call table.  Calls the benchmark makes into the package go
# through it, so that tracing can wrap them without touching the package.


def make_api(pkg) -> SimpleNamespace:
    sio, zar, loc, sur = pkg.scenario_io, pkg.zariski, pkg.local_invariants, pkg.surface
    return SimpleNamespace(
        parse_scenario=sio.parse_scenario,
        run_pipeline=sio.run_pipeline,
        zariski_decompose=zar.zariski_decompose,
        chain_coefficients=zar.chain_coefficients,
        chain_eigenvalues=zar.chain_eigenvalues,
        chain_xi_sequence=zar.chain_xi_sequence,
        chain_mu_sequence=zar.chain_mu_sequence,
        chain_negative_square=zar.chain_negative_square,
        coefficient_bounds_check=zar.coefficient_bounds_check,
        beta_p=loc.beta_p,
        intersect=sur.intersect,
    )


# --------------------------------------------------------------------------
# Independent exact oracles for Hirzebruch-Jung chains.


def continued_fraction(e: Sequence[int]) -> Fraction:
    """n/q = e_1 - 1/(e_2 - 1/(... - 1/e_r))."""
    x = Fraction(e[-1])
    for ej in reversed(e[:-1]):
        x = ej - 1 / x
    return x


def chain_solve(e: Sequence[int]) -> List[Fraction]:
    """Solve the chain's tridiagonal Gram system G b = (-1, 0, ..., 0).

    G has -e_j on the diagonal and 1 beside it: the negative part of a
    canonical class meeting the chain in the (-1, 0, ..., 0) pattern.
    """
    r = len(e)
    diag = [Fraction(-ej) for ej in e]
    rhs = [Fraction(-1)] + [Fraction(0)] * (r - 1)
    for j in range(1, r):
        factor = 1 / diag[j - 1]
        diag[j] -= factor
        rhs[j] -= factor * rhs[j - 1]
    b = [Fraction(0)] * r
    b[r - 1] = rhs[r - 1] / diag[r - 1]
    for j in range(r - 2, -1, -1):
        b[j] = (rhs[j] - b[j + 1]) / diag[j]
    return b


def chain_bounds_hold(e: Sequence[int], b: Sequence[Fraction]) -> bool:
    """b_1 < 1/(e_1 - 1) and b_j < 1/(2 e_j - 3) for j >= 2."""
    return all(
        bj < (Fraction(1, ej - 1) if j == 0 else Fraction(1, 2 * ej - 3))
        for j, (bj, ej) in enumerate(zip(b, e))
    )


def check_chain(e: Sequence[int], n: int, q: int, b: Sequence[Fraction], bounds_passed) -> List[str]:
    out = []
    nq = continued_fraction(e)
    want_b = chain_solve(e)
    if (n, q) != (nq.numerator, nq.denominator):
        out.append(f"chain {list(e)}: n/q = {n}/{q}, oracle {nq}")
    if list(b) != want_b:
        out.append(f"chain {list(e)}: closed form {list(map(str, b))} != oracle")
    if bounds_passed != chain_bounds_hold(e, want_b):
        out.append(f"chain {list(e)}: coefficient-bounds check says {bounds_passed}")
    return out


# --------------------------------------------------------------------------
# Documents: corpus, double_cover, ruled_scaling.


def _q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def double_cover_oracle(g: int) -> Dict[str, Any]:
    """Closed forms of the third-Noether-line double-cover family."""
    vol = Fraction(2 * g * (g - 1), 2 * g + 1)
    chi = Fraction(g * g, 2 * (2 * g + 1))
    negative = {f"E{i}": _q(Fraction(4 * g + 2 - i, 4 * g + 2)) for i in range(1, 4 * g + 2)}
    negative["Gamma0"] = _q(Fraction(2, 2 * g + 1))
    negative[f"E{4 * g + 3}"] = _q(Fraction(1, 2 * g + 1))
    negative[f"E{4 * g + 4}"] = _q(Fraction(1, 2))
    return {
        "c1_sq": _q(vol), "c2": _q(2 * g), "chi": _q(chi), "vol": _q(vol),
        "slope": _q(Fraction(4 * (g - 1), g)), "p_g": g,
        "singularity_count": 6 * g + 4, "negative_part": negative,
        "modular": {"kappa": _q(vol), "delta": _q(2 * g), "chi": _q(chi)},
        "verdict": "AlgebraicallyIntegral", "genus_bound": g,
        "noether_equality": "third",
    }


def ruled_oracle(family: str, n: int) -> Dict[str, Any]:
    """Closed forms of the ruled families on the first and second Noether lines."""
    if family == "first":
        vol, p_g, count, negative = Fraction(n), n + 2, 2 * n + 6, {}
    else:
        vol, p_g, count = Fraction(n) - 2 + Fraction(1, n), n, 2 * n + 2
        negative = {"C0": _q(Fraction(1, n))}
    return {
        "c1_sq": _q(vol), "c2": "0", "chi": _q(vol / 12), "vol": _q(vol),
        "slope": "12", "p_g": p_g, "singularity_count": count,
        "negative_part": negative, "verdict": "Transcendental",
        "fired_rules": ["R5-noether-gap"], "noether_equality": family,
    }


def _rationals(d) -> Dict[str, Fraction]:
    return {k: Fraction(v) for k, v in d.items()}


def check_report(rep: Dict[str, Any], expect: Dict[str, Any]) -> List[str]:
    """Compare a report (parsed from its JSON bytes) with golden values."""
    out = []
    if rep.get("ok") is not True:
        out.append(f"report not ok: {rep.get('inconsistency') or rep.get('expectation_failures')}")
    inv = rep.get("invariants") or {}
    verdict = rep.get("verdict") or {}
    for key, wanted in expect.items():
        if key in ("c1_sq", "c2", "chi", "vol", "slope"):
            got = inv.get(key)
            ok = got is not None and Fraction(got) == Fraction(wanted)
        elif key in ("p_g", "singularity_count"):
            got = rep.get(key)
            ok = got == wanted
        elif key == "negative_part":
            got = (rep.get("zariski") or {}).get("negative_part", {})
            ok = _rationals(got) == _rationals(wanted)
        elif key == "modular":
            got = rep.get("modular")
            ok = got is not None and _rationals(got) == _rationals(wanted)
        elif key == "verdict":
            got = verdict.get("status")
            ok = got == wanted
        elif key == "genus_bound":
            got = verdict.get("genus_bound")
            ok = got == wanted
        elif key == "fired_rules":
            got = [r["id"] for r in verdict.get("fired_rules", [])]
            ok = got == wanted
        elif key == "noether_equality":
            got = ",".join((rep.get("noether_bounds") or {}).get("equalities", [])) or None
            ok = got == wanted
        else:
            got, ok = None, False
        if not ok:
            out.append(f"{rep.get('name')}: {key} = {got!r}, oracle {wanted!r}")
    return out


def run_documents(api, docs) -> Dict[str, tuple]:
    """raw text -> parse_scenario -> run_pipeline -> to_json, then the
    closed-form recursion on every chain the report names."""
    outputs: Dict[str, tuple] = {}
    for key, raw, _ in docs:
        report = api.run_pipeline(api.parse_scenario(raw))
        closed = [
            (ch.self_intersections, *api.chain_coefficients(ch.self_intersections),
             api.coefficient_bounds_check(ch).passed)
            for ch in report.chains
        ]
        outputs[key] = (report.to_json(), closed)
    return outputs


def check_documents(docs, outputs) -> List[str]:
    out = []
    for key, _, expect in docs:
        text, closed = outputs[key]
        out += check_report(json.loads(text), expect)
        for e, n, q, b, passed in closed:
            out += check_chain(e, n, q, b, passed)
    return out


class DocumentWorkload:
    """A deck whose items are tuples of (key, raw JSON text, oracle) documents."""

    def op(self, pkg, api, item):
        return run_documents(api, item)

    def check(self, item, outputs):
        return check_documents(item, outputs)

    @staticmethod
    def output_bytes(outputs) -> Dict[str, bytes]:
        return {k: (text + repr(closed)).encode("utf-8") for k, (text, closed) in outputs.items()}


class Corpus(DocumentWorkload):
    """One item is one pass over the bundled fixture files in a seeded order."""

    name = "corpus"
    PASSES_PER_DECK = 8

    def items(self, pkg, rng: random.Random):
        files = []
        for fname, raw in pkg.fixtures.load_bundled_files():
            files.append((fname, raw, json.loads(raw).get("expect", {})))
        return [tuple(rng.sample(files, len(files))) for _ in range(self.PASSES_PER_DECK)]


def _document(pkg, doc: Dict[str, Any], oracle: Dict[str, Any]):
    return (doc["name"], pkg.fixtures.render_fixture(doc), oracle)


class DoubleCover(DocumentWorkload):
    """One item is one third_noether_double_cover(g) document; a deck holds
    every g in the range once."""

    name = "double_cover"
    GENERA = range(6, 17)

    def items(self, pkg, rng: random.Random):
        gen = pkg.fixtures.third_noether_double_cover
        return [(_document(pkg, gen(g), double_cover_oracle(g)),) for g in self.GENERA]


class RuledScaling(DocumentWorkload):
    """One item is one first_noether_ruled(n) or second_noether_ruled(n)
    document; a deck holds every n in the range once for each family."""

    name = "ruled_scaling"
    SIZES = range(50, 201)

    def items(self, pkg, rng: random.Random):
        out = []
        for n in self.SIZES:
            out.append((_document(pkg, pkg.fixtures.first_noether_ruled(n), ruled_oracle("first", n)),))
            out.append((_document(pkg, pkg.fixtures.second_noether_ruled(n), ruled_oracle("second", n)),))
        return out


# --------------------------------------------------------------------------
# chain_oracle


def build_chain_scenario(pkg, api, e_list):
    """A scenario whose declared curves form one Hirzebruch-Jung chain.

    Curves live in a blown-up plane: curve j uses one head exceptional class
    and e_j - 1 tail classes, consecutive curves sharing one index so they
    meet once.  The canonical class is the head class of the first curve,
    which meets the chain in the (-1, 0, ..., 0) pattern.  (The same
    construction as the test suite's chain fixture, kept separate so the
    benchmark does not import the tests.)
    """
    fol, loc = pkg.foliation, pkg.local_invariants
    total_exc = 1 + sum(ej - 1 for ej in e_list)
    surface = pkg.surface.SurfaceModel.p2(total_exc)
    rank = surface.rank

    def vector(entries):
        coeffs = [Fraction(0)] * rank
        for idx, val in entries.items():
            coeffs[idx] = Fraction(val)
        return surface.divisor(coeffs)

    curves = []
    head = 1
    next_free = 2
    heads = []
    for j, ej in enumerate(e_list):
        tail = list(range(next_free, next_free + ej - 1))
        next_free += ej - 1
        entries = {head: 1}
        for idx in tail:
            entries[idx] = -1
        curves.append(fol.CurveRecord(name=f"C{j + 1}", cls=vector(entries), f_invariant=True))
        heads.append(head)
        head = tail[0] if tail else None

    mu = api.chain_mu_sequence(e_list)
    r = len(e_list)
    singularities = []
    for k in range(1, r + 1):
        incident = [f"C{k}"] if k == r else [f"C{k}", f"C{k + 1}"]
        singularities.append(
            loc.SingularityRecord(
                id=f"p{k}",
                kind=loc.NonDegenerate(loc.EigenvalueClass.rational(Fraction(-mu[k + 1], mu[k]))),
                incident_curves=tuple(incident),
            )
        )
    scenario = fol.FoliatedScenario(
        name="chain",
        surface=surface,
        k_foliation=vector({heads[0]: 1}),
        curves=tuple(curves),
        singularities=tuple(singularities),
        metadata=fol.ScenarioMetadata(
            k_pseudo_effective=True, relatively_minimal=True, algebraically_integral="unknown"
        ),
    )
    return scenario, mu


class ChainOracle:
    """One item is one random chain, r in 1..8 and e_j in 2..7.  A deck holds
    the same number of chains of every length r."""

    name = "chain_oracle"
    CHAINS_PER_LENGTH = 50

    def items(self, pkg, rng: random.Random):
        out = []
        for r in range(1, 9):
            for _ in range(self.CHAINS_PER_LENGTH):
                out.append(tuple(rng.randint(2, 7) for _ in range(r)))
        return out

    def op(self, pkg, api, e):
        scenario, mu = build_chain_scenario(pkg, api, e)
        n, q, b = api.chain_coefficients(e)
        eigen = [ev.value for ev in api.chain_eigenvalues(e)]
        beta_sum = sum((api.beta_p(s) for s in scenario.singularities), Fraction(0))
        xi = api.chain_xi_sequence(e)
        neg_sq = api.chain_negative_square(e)
        curves = tuple(c.name for c in scenario.curves)
        passed = api.coefficient_bounds_check(pkg.zariski.FChain(curves, e)).passed
        dec = api.zariski_decompose(scenario)
        n_class = scenario.k_foliation - dec.nef_part
        n_sq = api.intersect(n_class, n_class)
        return {repr(e): (n, q, b, eigen, beta_sum, xi, mu, neg_sq, passed, dec.negative_part, n_sq)}

    def check(self, e, outputs):
        n, q, b, eigen, beta_sum, xi, mu, neg_sq, passed, negative, n_sq = outputs[repr(e)]
        out = check_chain(e, n, q, b, passed)
        nq = continued_fraction(e)
        want_b = chain_solve(e)
        r = len(e)
        # mu: forward continuants, mu_{r+1} = n; consecutive terms coprime
        want_mu = [0, 1]
        for ek in e:
            want_mu.append(ek * want_mu[-1] - want_mu[-2])
        if (
            list(mu) != want_mu
            or want_mu[-1] != nq.numerator
            or any(gcd(want_mu[k], want_mu[k + 1]) != 1 for k in range(r + 1))
        ):
            out.append(f"chain {list(e)}: mu = {mu}")
        want_eigen = [Fraction(-want_mu[k + 1], want_mu[k]) for k in range(1, r + 1)]
        if eigen != want_eigen:
            out.append(f"chain {list(e)}: eigenvalues {eigen}")
        # the beta-sum over the chain's singularities equals q/n = -N^2
        if beta_sum != 1 / nq:
            out.append(f"chain {list(e)}: beta-sum {beta_sum} != q/n")
        if neg_sq != -1 / nq or n_sq != -1 / nq:
            out.append(f"chain {list(e)}: N^2 = {neg_sq} / {n_sq}, oracle {-1 / nq}")
        want_xi = [nq.numerator] + [bj * nq.numerator for bj in want_b] + [0]
        if list(xi) != want_xi or any(xi[j] <= xi[j + 1] for j in range(r + 1)):
            out.append(f"chain {list(e)}: xi = {xi}")
        if negative != tuple((f"C{j + 1}", bj) for j, bj in enumerate(want_b)):
            out.append(f"chain {list(e)}: negative part {negative}")
        return out

    @staticmethod
    def output_bytes(outputs) -> Dict[str, bytes]:
        return {k: repr(v).encode("utf-8") for k, v in outputs.items()}


WORKLOADS = {w.name: w for w in (Corpus, DoubleCover, RuledScaling, ChainOracle)}
