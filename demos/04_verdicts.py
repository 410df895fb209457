"""Running the full pipeline on the bundled corpus.

Each fixture file carries its own golden expectations; the pipeline
validates the scenario, decomposes the canonical class, computes the Chern
numbers and slope, and applies the decision rules.  This script prints a
one-line summary per fixture plus the fired rules.
"""

from folsurf import parse_scenario, run_pipeline
from folsurf.document import fmt_rational
from folsurf.fixtures import load_bundled_files


def q(value):
    return "-" if value is None else fmt_rational(value)


for name, raw in load_bundled_files():
    report = run_pipeline(parse_scenario(raw))
    verdict = report.verdict.status if report.verdict else "-"
    chern = (
        f"c1^2 = {q(report.chern.c1_sq)}, c2 = {q(report.chern.c2)}, chi = {q(report.chern.chi)}"
        if report.chern
        else "fibration-only"
    )
    print(f"{report.name:32s} {verdict:22s} {chern}")
    if report.verdict:
        for rule in report.verdict.fired_rules:
            print(f"    {rule.rule_id}: {rule.comparison}")
    if report.modular:
        kappa, delta, chi = report.modular
        print(f"    modular invariants: kappa = {q(kappa)}, delta = {q(delta)}, chi = {q(chi)}")
