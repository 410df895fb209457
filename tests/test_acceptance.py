"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact rational arithmetic (tolerance zero).  Run with
``pytest -s tests/test_acceptance.py -v`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction
from math import gcd

from folsurf.blowup import DICRITICAL, reduction_step_bound, seidenberg_reduce
from folsurf.chern import chern_numbers
from folsurf.cli import cli_main
from folsurf.document import parse_document_dict
from folsurf.fixtures import (
    bundled_documents,
    degree_two_p2,
    first_noether_ruled,
    second_noether_ruled,
    third_noether_double_cover,
)
from folsurf.fibration import FiberModel, FiberNode, FibrationModel, modular_invariants, slope_inequality_check
from folsurf.local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    SaddleNode,
    SingularityRecord,
    beta,
    beta_p,
    chi_local,
    chi_p,
)
from folsurf.blowup import blow_up_singularity
from folsurf.scenario_io import run_pipeline
from folsurf.surface import intersect
from folsurf.zariski import (
    chain_coefficients,
    chain_eigenvalues,
    chain_mu_sequence,
    chain_negative_square,
    chain_xi_sequence,
    coefficient_bounds_check,
    zariski_decompose,
)

from conftest import build_chain_scenario


def report(number, label, elapsed=None):
    suffix = f"  ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:>2}: PASS  {label}{suffix}")


def test_criterion_01_slope_example():
    start = time.time()
    doc = parse_document_dict(bundled_documents()["slope_12_7"])
    result = run_pipeline(doc)
    assert result.ok
    assert (result.chern.c1_sq, result.chern.c2, result.chern.chi) == (
        2,
        12,
        Fraction(7, 6),
    )
    assert result.slope_value == Fraction(12, 7)
    assert result.verdict.status == "Transcendental"
    assert [r.rule_id for r in result.verdict.fired_rules] == ["R3-slope-below-two"]
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, "slope-12/7 fixture: (2, 12, 7/6), slope 12/7, Transcendental via slope<2", elapsed)


def test_criterion_02_second_noether_ruled_family():
    start = time.time()
    for n in range(2, 51):
        result = run_pipeline(parse_document_dict(second_noether_ruled(n)))
        assert result.ok, (n, result.inconsistency, result.expectation_failures)
        vol = Fraction(n) - 2 + Fraction(1, n)
        assert dict(result.decomposition.negative_part) == {"C0": Fraction(1, n)}
        assert result.vol == vol
        assert result.chern.c1_sq == vol
        assert result.chern.c2 == 0
        assert result.slope_value == 12
        assert result.p_g == n
        assert "second" in result.bound_equalities
        assert result.singularity_count == 2 * n + 2
        count_check = next(
            c for c in result.validation.checks if c.name == "count.singularities"
        )
        assert count_check.passed
    elapsed = time.time() - start
    assert elapsed < 2.0
    report(2, "second-Noether family n=2..50: N = (1/n)C0, vol = n-2+1/n, count 2n+2", elapsed)


def test_criterion_03_first_noether_ruled_family_and_degree_two():
    start = time.time()
    for n in range(1, 51):
        result = run_pipeline(parse_document_dict(first_noether_ruled(n)))
        assert result.ok, (n, result.inconsistency, result.expectation_failures)
        assert result.vol == n
        assert result.p_g == n + 2  # via the section-count closed form
        assert result.vol == result.p_g - 2
        assert "first" in result.bound_equalities
    deg2 = run_pipeline(parse_document_dict(degree_two_p2()))
    assert deg2.ok
    assert deg2.singularity_count == 7
    elapsed = time.time() - start
    report(3, "first-Noether family n=1..50: vol = n, p_g = n+2; plane sub-fixture has 7 singularities", elapsed)


def test_criterion_04_third_noether_double_cover_family():
    start = time.time()
    for g in range(2, 7):
        result = run_pipeline(parse_document_dict(third_noether_double_cover(g)))
        assert result.ok, (g, result.inconsistency, result.expectation_failures)
        coeffs = dict(result.decomposition.negative_part)
        for i in range(1, 4 * g + 2):
            assert coeffs[f"E{i}"] == Fraction(4 * g + 2 - i, 4 * g + 2)
        assert coeffs["Gamma0"] == Fraction(2, 2 * g + 1)
        assert coeffs[f"E{4 * g + 3}"] == Fraction(1, 2 * g + 1)
        assert coeffs[f"E{4 * g + 4}"] == Fraction(1, 2)
        vol = Fraction(2 * g * (g - 1), 2 * g + 1)
        assert result.vol == vol
        assert result.bounds[2] == vol
        assert "third" in result.bound_equalities
        ids = [r.rule_id for r in result.verdict.fired_rules]
        assert "R3-slope-below-two" not in ids and "R5-noether-gap" not in ids
    elapsed = time.time() - start
    report(4, "third-Noether family g=2..6: displayed N coefficients, vol = 2g(g-1)/(2g+1), no transcendence rule", elapsed)


def test_criterion_05_chain_oracle_property():
    start = time.time()
    rng = random.Random(1812)
    for _ in range(10_000):
        r = rng.randint(1, 8)
        e = [rng.randint(2, 7) for _ in range(r)]
        n, q, b = chain_coefficients(e)
        eigen = chain_eigenvalues(e)
        assert sum(beta(ev.negated()) for ev in eigen) == Fraction(q, n)
        assert chain_negative_square(e) == Fraction(-q, n)
        xi = chain_xi_sequence(e)
        assert all(xi[j] > xi[j + 1] for j in range(r + 1))
        mu = chain_mu_sequence(e)
        assert all(gcd(mu[k], mu[k + 1]) == 1 for k in range(len(mu) - 1))
        chain_check = coefficient_bounds_check(
            type("C", (), {"self_intersections": tuple(e)})()
        )
        assert chain_check.passed
        scenario = build_chain_scenario(e)
        dec = zariski_decompose(scenario)
        assert dec.negative_part == tuple((f"C{j + 1}", b[j]) for j in range(r))
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(5, "10^4 random chains: beta-sum = q/n = -N^2, solver = closed form, bounds, xi, mu", elapsed)


def test_criterion_06_local_identities_and_blowup_cases():
    start = time.time()
    rng = random.Random(2718)
    for _ in range(10_000):
        num = rng.randint(-70, 70)
        den = rng.randint(1, 50)
        if num == 0:
            continue
        u = Fraction(num, den)
        assert beta(u) == beta(1 / u)
        assert chi_local(u) == chi_local(1 / u)
        if u not in (1, -1):
            assert beta(u) == beta(u + 1) + beta(1 / u + 1)
            assert chi_local(u) == chi_local(u + 1) + chi_local(1 / u + 1)
    for _ in range(2_000):
        num = rng.randint(-40, 40)
        den = rng.randint(1, 30)
        if num == 0 or Fraction(num, den) == 1:
            continue
        parent = SingularityRecord(
            "p", NonDegenerate(EigenvalueClass.rational(Fraction(num, den)))
        )
        out = blow_up_singularity(parent)
        assert beta_p(parent) == sum(beta_p(c) for c in out.children)
        assert chi_p(parent) == sum(chi_p(c) for c in out.children)
        sn = SingularityRecord(
            "s", SaddleNode(rng.randint(2, 9), Fraction(rng.randint(-9, 9)))
        )
        out_sn = blow_up_singularity(sn)
        assert beta_p(sn) == sum(beta_p(c) for c in out_sn.children) - 1
        assert chi_p(sn) == sum(chi_p(c) for c in out_sn.children) - Fraction(1, 12)
    one = SingularityRecord("q", NonDegenerate(EigenvalueClass.rational(1)))
    branch = blow_up_singularity(one, epsilon=1)
    assert beta_p(one) == beta_p(branch.children[0]) - 1
    assert chi_p(one) == chi_p(branch.children[0]) - Fraction(1, 12)
    elapsed = time.time() - start
    report(6, "10^4 random rationals: inversion + shift identities; all blow-up cases additive", elapsed)


def test_criterion_07_seidenberg_exhaustive():
    start = time.time()
    for m1 in range(1, 61):
        for m2 in range(1, 61):
            if gcd(m1, m2) != 1:
                continue
            lam = Fraction(m1, m2)
            for eps in (0, 1):
                result = seidenberg_reduce(lam, eps)
                assert result.steps <= reduction_step_bound(lam)
                assert all(s.is_reduced for s in result.resolved)
                if result.ending == DICRITICAL:
                    assert sum(beta_p(s) for s in result.resolved) == beta(-lam) + 1
                else:
                    saddles = [
                        s for s in result.resolved if isinstance(s.kind, SaddleNode)
                    ]
                    assert len(saddles) == 1 and saddles[0].kind.multiplicity == 2
    elapsed = time.time() - start
    report(7, "reduction for all coprime pairs <= 60: bounded, reduced, beta-sum/saddle-node contracts", elapsed)


def test_criterion_08_fibration_suite():
    start = time.time()
    semistable = FibrationModel(
        genus=2,
        k_f_sq=Fraction(4),
        e_f=Fraction(20),
        chi_f=Fraction(2),
        singular_fibers=tuple(
            FiberModel(2, 2, 0, (FiberNode(1, 1, False),)) for _ in range(20)
        ),
    )
    assert modular_invariants(semistable) == (4, 20, 2)
    i0star = FibrationModel(
        genus=1,
        k_f_sq=Fraction(0),
        e_f=Fraction(6),
        chi_f=Fraction(1, 2),
        singular_fibers=(
            FiberModel(1, 0, -2, tuple(FiberNode(2, 1, True) for _ in range(4))),
        ),
    )
    assert modular_invariants(i0star) == (0, 0, 0)
    for fb in (semistable, i0star):
        kappa, delta, chi = modular_invariants(fb)
        assert kappa + delta == 12 * chi
    assert slope_inequality_check(2, Fraction(2), Fraction(1)).passed
    assert slope_inequality_check(2, Fraction(2), Fraction(1)).residual == 0
    assert slope_inequality_check(3, Fraction(8, 3), Fraction(1)).passed
    assert slope_inequality_check(3, Fraction(8, 3), Fraction(1)).residual == 0
    elapsed = time.time() - start
    report(8, "fibration suite: semistable passthrough, I0* cancellation, slope equalities at g=2,3", elapsed)


def test_criterion_09_noether_identity_everywhere():
    start = time.time()
    for stem, doc in bundled_documents().items():
        parsed = parse_document_dict(doc)
        result = run_pipeline(parsed)
        assert result.ok, stem
        if result.chern is not None:
            c = result.chern
            assert c.c1_sq + c.c2 == 12 * c.chi
        if parsed.scenario is not None and all(
            chi_p(s) is not None for s in parsed.scenario.singularities
        ):
            # the direct chi formula was evaluable, so chern_numbers asserted it
            chern_numbers(parsed.scenario)
    rng = random.Random(31415)
    for _ in range(1_000):
        r = rng.randint(1, 6)
        e = [rng.randint(2, 5) for _ in range(r)]
        t = rng.randint(1, 3)
        extras = [
            SingularityRecord(
                f"x{k}",
                NonDegenerate(
                    EigenvalueClass.rational(Fraction(-rng.randint(1, 9), rng.randint(1, 9)))
                ),
            )
            for k in range(rng.randint(1, 4))
        ]
        extras.append(
            SingularityRecord("free", NonDegenerate(EigenvalueClass.nonrational()))
        )
        scenario = build_chain_scenario(e, nef_multiple=t, extra_singularities=extras)
        c = chern_numbers(scenario)
        n, q, _ = chain_coefficients(e)
        assert c.c1_sq == t * t - 1 + Fraction(q, n)
        assert c.c1_sq + c.c2 == 12 * c.chi
        dec = zariski_decompose(scenario)
        assert c.c1_sq == intersect(dec.nef_part, dec.nef_part)
    elapsed = time.time() - start
    report(9, "Noether identity on every fixture and 10^3 random scenarios; direct-chi cross-checks", elapsed)


def test_criterion_10_cli_corpus_determinism(capsys):
    start = time.time()
    assert cli_main(["fixtures", "run"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["fixtures", "run"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "[FAIL]" not in first
    assert first.count("[PASS]") == len(bundled_documents())
    elapsed = time.time() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report(10, "bundled corpus passes byte-deterministically via the CLI", elapsed)
