"""The invariant pipeline and its report.

``run_pipeline`` takes a parsed document (see :mod:`folsurf.document`)
through validate -> zariski -> chern -> decide and the fibration block, and
``InvariantReport`` renders the result as text or JSON.  Reports are
deterministic; identical input bytes produce identical report bytes.  Both
forms are walks over one table of sections (``InvariantReport._sections``).
The JSON form has the bytes ``document.write_json`` would give a dict of the
sections, and is written in one walk, in key order, with no such dict: the
check rows straight from their tuples, every other section by the
document writer's generic walk.

The functions each stage calls are imported by name into this module and
called through its globals: the benchmark's tracer (``perfbench/tracing.py``)
times a layer by rebinding those names here, so a stage that reached one
another way would go untimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable, Collection, Dict, Iterator, List, Mapping, Optional, Tuple

from .chern import ChernNumbers, Verdict, chern_numbers, decide, noether_bounds, slope
from .document import EXPECTATIONS, MODULAR_KEYS, ScenarioDocument, _escape, _write, fmt_rational
from .document import parse_scenario  # noqa: F401  (perfbench/workloads.py::make_api reads it here)
from .errors import DomainError, InconsistentScenario
from .fibration import (
    FibrationModel,
    crosscheck_with_chern,
    modular_invariants,
    slope_inequality_check,
)
from .foliation import CheckResult, FoliatedScenario, ValidationReport, validate
from .surface import DivisorClass, fraction_text, h0_line_bundle
from .surface import intersect  # noqa: F401  (perfbench/tracing.py wraps this name)
from .zariski import (
    FChain,
    ZariskiDecomposition,
    detect_chains_with_flags,
    zariski_decompose,
)


def check_line(c: CheckResult) -> str:
    """The text form of one check, ``[tag] name  (detail)``; a failure is FAIL."""
    detail = f"  ({c.detail})" if c.detail else ""
    return f"[{'FAIL' if c.failed else c.status}] {c.name}{detail}"


def listing(labels: Tuple[str, ...], values) -> str:
    """``label = value, ...`` over rationals, with ``-`` for one not computed."""
    return ", ".join(
        f"{label} = {'-' if v is None else fmt_rational(v)}" for label, v in zip(labels, values)
    )


def _rationals(keys: Tuple[str, ...], values) -> Dict[str, Optional[str]]:
    return {k: None if v is None else fmt_rational(v) for k, v in zip(keys, values)}


def _class_texts(cls: DivisorClass) -> List[str]:
    """The dense list of a class, one rational per basis class, as a report
    writes the nef part, formatted from the class's numerators."""
    out = ["0"] * cls.surface.rank
    for i, v in cls.numerators.items():
        out[i] = fraction_text(v, cls.denominator)
    return out


_BOUND_NAMES = ("first", "second", "third")

_Emit = Callable[[str], None]


def _rows_writer(indent: str) -> Callable[[Tuple[CheckResult, ...], _Emit], None]:
    """The writer of a list of check rows, as ``write_json`` would write
    their ``detail``, ``name`` and ``status`` dicts, for a list whose key
    sits at ``indent``.  The layout and its constant pieces are fixed here,
    once, so a row costs its two escapes and one string."""
    inner = "\n" + indent + "  "
    field = inner + "  "
    row = inner + "{" + field + '"detail": '
    first, then = "[" + row, "," + row
    name = "," + field + '"name": '
    skip, passed, failed = (
        f',{field}"status": "{word}"{inner}}}' for word in ("skip", "pass", "fail")
    )
    end = "\n" + indent + "]"

    def write(rows: Tuple[CheckResult, ...], emit: _Emit) -> None:
        if not rows:
            emit("[]")
            return
        emit(first)
        emit(then.join([
            f"{_escape(d)}{name}{_escape(n)}{skip if ok is None else passed if ok else failed}"
            for n, ok, d, _ in rows
        ]))
        emit(end)

    return write


_CHECK_ROWS = _rows_writer("    ")


def _write_validation(v: ValidationReport, emit: _Emit) -> None:
    emit('{\n    "checks": ')
    _CHECK_ROWS(v.checks, emit)
    emit(',\n    "passed": true\n  }' if v.passed else ',\n    "passed": false\n  }')


# the sections whose values ``to_json`` writes by these, from the records
# themselves; every other value is a JSON value for the generic writer
_WRITERS: Dict[str, Callable[[Any, _Emit], None]] = {
    "validation": _write_validation,
    "fibration_checks": _rows_writer("  "),
}
_KEY = itemgetter(0)


@dataclass(frozen=True)
class InvariantReport:
    name: str
    validation: Optional[ValidationReport] = None
    inconsistency: Optional[str] = None
    decomposition: Optional[ZariskiDecomposition] = None
    chains: Tuple[FChain, ...] = ()
    chern: Optional[ChernNumbers] = None
    vol: Optional[Fraction] = None
    slope_value: Optional[Fraction] = None
    singularity_count: Optional[int] = None
    p_g: Optional[int] = None
    bounds: Optional[Tuple[Fraction, Fraction, Fraction]] = None
    bound_equalities: Tuple[str, ...] = ()
    verdict: Optional[Verdict] = None
    modular: Optional[Tuple[Fraction, Fraction, Fraction]] = None
    fibration_checks: Tuple[CheckResult, ...] = ()
    expectation_failures: Tuple[str, ...] = ()
    warnings: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        if self.inconsistency is not None:
            return False
        if self.validation is not None and not self.validation.passed:
            return False
        if any(c.failed for c in self.fibration_checks):
            return False
        return not self.expectation_failures

    def _sections(self) -> Iterator[Tuple[str, Any, Callable[[], List[str]]]]:
        """Each section of the report in text order, as its JSON key, its JSON
        value and a function giving its text lines (which ``to_json`` does not
        pay for).  The value of a section in ``_WRITERS`` is the record its
        writer reads: the validation report, or the fibration check rows.  A
        section with no value is left out, except the expectation failures
        and warnings, which the JSON always lists."""
        yield "name", self.name, lambda: [f"scenario: {self.name}"]
        v = self.validation
        if v is not None:
            yield "validation", v, (
                lambda: [f"validation: {'PASS' if v.passed else 'FAIL'}"]
                + [f"  {check_line(c)}" for c in v.checks]
            )
        why = self.inconsistency
        if why is not None:
            yield "inconsistency", why, lambda: [f"inconsistent: {why}"]
        dec = self.decomposition
        if dec is not None:
            value = {
                "nef_part": _class_texts(dec.nef_part),
                "negative_part": {name: fmt_rational(c) for name, c in dec.negative_part},
            }
            yield "zariski", value, lambda: [f"P = {dec.nef_part}"] + (
                [f"N[{n}] = {fmt_rational(c)}" for n, c in dec.negative_part] or ["N = 0"]
            )
        chains = self.chains
        if chains:
            value = [{"curves": list(c.curves), "e": list(c.self_intersections)} for c in chains]
            yield "chains", value, lambda: [
                f"chain: [{', '.join(c.curves)}]  e = {list(c.self_intersections)}" for c in chains
            ]
        if self.chern is not None:
            c = self.chern
            values = (c.c1_sq, c.c2, c.chi, self.vol, self.slope_value)
            yield "invariants", _rationals(("c1_sq", "c2", "chi", "vol", "slope"), values), (
                lambda: ["invariants: " + listing(("c1^2", "c2", "chi", "vol", "slope"), values)]
            )
        n = self.singularity_count
        if n is not None:
            yield "singularity_count", n, lambda: [f"singularities (with multiplicity): {n}"]
        if self.p_g is not None:
            yield "p_g", self.p_g, lambda: [f"p_g = {self.p_g}"]
        bounds, equalities = self.bounds, self.bound_equalities
        if bounds is not None:
            value = {**_rationals(_BOUND_NAMES, bounds), "equalities": list(equalities)}
            eq = f"  equality: {', '.join(equalities)}" if equalities else ""
            yield "noether_bounds", value, lambda: [
                f"noether bounds: {listing(_BOUND_NAMES, bounds)}{eq}"
            ]
        verdict = self.verdict
        if verdict is not None:
            value = {
                "status": verdict.status,
                "fired_rules": [
                    {"id": r.rule_id, "citation": r.citation, "comparison": r.comparison}
                    for r in verdict.fired_rules
                ],
                "genus_bound": verdict.genus_bound,
                "informational": list(verdict.sanity_failures),
            }
            bound = verdict.genus_bound
            yield "verdict", value, lambda: [
                f"verdict: {verdict.status}",
                *(f"  {r.rule_id}: {r.comparison}  [{r.citation}]" for r in verdict.fired_rules),
                *([] if bound is None else [f"  genus bound: {bound}"]),
                *(f"  note: {note}" for note in verdict.sanity_failures),
            ]
        modular = self.modular
        if modular is not None:
            yield "modular", _rationals(MODULAR_KEYS, modular), lambda: [
                f"modular invariants: {listing(MODULAR_KEYS, modular)}"
            ]
        checks = self.fibration_checks
        if checks:
            yield "fibration_checks", checks, lambda: list(map(check_line, checks))
        failures = self.expectation_failures
        yield "expectation_failures", list(failures), lambda: [
            f"expectation mismatch: {f}" for f in failures
        ]
        yield "warnings", list(self.warnings), lambda: [f"warning: {w}" for w in self.warnings]
        ok = self.ok
        yield "ok", ok, lambda: [f"result: {'ok' if ok else 'FAILED'}"]

    def to_json(self) -> str:
        """The report as ``write_json`` writes a dict of its sections, plus a
        newline, written in one walk over the sections in key order: a
        section in ``_WRITERS`` by its writer, any other by the generic
        writer, and no dict of the whole report is built."""
        out: List[str] = []
        emit = out.append
        sep = "{\n  "
        for key, value, _ in sorted(self._sections(), key=_KEY):
            emit(f'{sep}"{key}": ')
            write = _WRITERS.get(key)
            if write is None:
                _write(value, "\n  ", emit)
            else:
                write(value, emit)
            sep = ",\n  "
        emit("\n}\n")
        return "".join(out)

    def to_text(self, sections: Optional[Collection[str]] = None) -> str:
        """The text lines of the named sections (all when None), in walk order;
        a named section the report does not hold prints nothing."""
        return "".join(
            f"{line}\n"
            for key, _, lines in self._sections()
            if sections is None or key in sections
            for line in lines()
        )


class _Fields:
    """A report's fields as the pipeline computes them, in ``__dict__``.  An
    attribute reads a field, or the report's default for one not computed,
    so the ``EXPECTATIONS`` getters read it as they would the report."""

    def __getattr__(self, name: str) -> Any:  # reached only for a field not computed
        return getattr(InvariantReport, name)


def _differ(a: Any, b: Any) -> bool:
    """``a != b``, with no Python-level ``Fraction.__eq__``: two Fractions
    compare by the slots ``local_invariants.fraction`` writes (equal values
    in lowest terms have equal slots), and two dicts key by key."""
    if a.__class__ is Fraction and b.__class__ is Fraction:
        return a._numerator != b._numerator or a._denominator != b._denominator
    if a.__class__ is dict and b.__class__ is dict:
        return a.keys() != b.keys() or any(_differ(v, b[k]) for k, v in a.items())
    return a != b


def _compare_expectations(report: _Fields, expect: Mapping[str, Any]) -> Tuple[str, ...]:
    """One line per differing ``expect`` key, both values in its wire format."""
    failures = []
    for key, (_, encode), actual_value in EXPECTATIONS:
        if key in expect:
            wanted, actual = expect[key], actual_value(report)
            if _differ(actual, wanted):
                shown = None if actual is None else encode(actual)
                failures.append(f"{key}: expected {encode(wanted)}, got {shown}")
    return tuple(failures)


def _surface_stages(s: FoliatedScenario, genus: Optional[int], out: Dict[str, Any]) -> None:
    validation = out["validation"] = validate(s)
    out["warnings"] = validation.warnings
    out["singularity_count"] = s.singularity_count
    if not validation.passed:
        return
    dec = None  # no decomposition when K_F is not pseudo-effective
    if s.metadata.k_pseudo_effective:
        dec = out["decomposition"] = zariski_decompose(s)
        if s.metadata.relatively_minimal and s.is_reduced:
            chains, flags = detect_chains_with_flags(s)
            out["chains"] = tuple(chains)
            out["warnings"] += tuple(flags)
            # the negative-part support of a relatively minimal reduced
            # scenario must split into maximal chains
            chain_curves = {name for ch in chains for name in ch.curves}
            stray = sorted(set(dec.support) - chain_curves)
            if stray:
                raise InconsistentScenario(
                    f"negative-part support is not a disjoint union of chains; stray curves {stray}"
                )
    # chern_numbers checked that c1^2 is P^2, and it is 0 without a decomposition
    chern = out["chern"] = chern_numbers(s, dec)
    vol = out["vol"] = chern.c1_sq
    if chern.chi.numerator > 0:
        out["slope_value"] = slope(chern)
    declared = s.metadata.p_g
    p_g = h0_line_bundle(s.surface, s.k_foliation)
    if p_g is None:
        p_g = declared
    elif declared is not None and p_g != declared:
        raise InconsistentScenario(f"declared p_g = {declared} but sections give {p_g}")
    out["p_g"] = p_g
    if p_g is not None and p_g >= 2:
        bounds = out["bounds"] = noether_bounds(p_g)
        out["bound_equalities"] = tuple(n for n, b in zip(_BOUND_NAMES, bounds) if vol == b)
    out["verdict"] = decide(s, chern, genus=genus, p_g=p_g)


def _fibration_stage(fb: FibrationModel, chern: Optional[ChernNumbers], out: Dict[str, Any]):
    kappa, delta, chi_f = out["modular"] = modular_invariants(fb)
    checks: List[CheckResult] = []
    if fb.genus >= 2 and chi_f.numerator > 0 and kappa.numerator > 0:
        checks.append(slope_inequality_check(fb.genus, kappa, chi_f))
    if chern is not None:
        checks.append(crosscheck_with_chern(fb, chern))
    out["fibration_checks"] = tuple(checks)


def run_pipeline(doc: ScenarioDocument) -> InvariantReport:
    """validate -> zariski -> chern -> decide, plus the fibration block.

    An InconsistentScenario or DomainError raised by a surface stage ends the
    surface stages: the report stores its message as ``inconsistency``,
    without naming the stage or check that raised it, and keeps everything
    computed before it.  The fibration block does not depend on the surface
    and still runs, cross-checked against the Chern numbers only if they
    were computed; if it raises too, the first message is kept.
    """
    fields = _Fields()
    out: Dict[str, Any] = fields.__dict__
    fb = doc.fibration
    try:
        if doc.scenario is not None:
            _surface_stages(doc.scenario, None if fb is None else fb.genus, out)
    except (InconsistentScenario, DomainError) as exc:
        out["inconsistency"] = str(exc)
    try:
        if fb is not None:
            _fibration_stage(fb, out.get("chern"), out)
    except (InconsistentScenario, DomainError) as exc:
        out.setdefault("inconsistency", str(exc))
    failures = _compare_expectations(fields, doc.expect)
    return InvariantReport(name=doc.name, expectation_failures=failures, **out)
