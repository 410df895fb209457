"""The invariant pipeline and its report.

``run_pipeline`` takes a parsed document (see :mod:`folsurf.document`)
through validate -> zariski -> chern -> decide and the fibration block, and
``InvariantReport`` renders the result as text or JSON.  Reports are
deterministic; identical input bytes produce identical report bytes.  Both
forms are walks over one table of sections, ``_SECTIONS``, in text order:
each entry holds a section's key, the writer of its JSON value and the
writer of its text lines, and each form calls only its own writers.  The
JSON form has the bytes ``document.write_json`` would give a dict of the
sections.  It walks the table in key order, sorted once at import, and
builds no such dict: each JSON writer has its section's fixed layout, with
its key, indent and separator pieces built at import, and formats only the
report's own values (rationals by ``fmt_rational``, the nef part from its
numerators by ``fraction_text``, free text by ``_escape``); a map with free
keys, the negative part, is written sorted by name, as ``sort_keys`` sorts
it.

The functions each stage calls are imported by name into this module and
called through its globals: the benchmark's tracer (``perfbench/tracing.py``)
times a layer by rebinding those names here, so a stage that reached one
another way would go untimed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter
from typing import (
    Any, Callable, Collection, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from .chern import ChernNumbers, FiredRule, Verdict, chern_numbers, decide, noether_bounds, slope
from .document import EXPECTATIONS, MODULAR_KEYS, ScenarioDocument, _escape, fmt_rational
from .document import parse_scenario  # noqa: F401  (perfbench/workloads.py::make_api reads it here)
from .errors import DomainError, InconsistentScenario
from .fibration import (
    FibrationModel,
    crosscheck_with_chern,
    modular_invariants,
    slope_inequality_check,
)
from .foliation import CheckResult, FoliatedScenario, ValidationReport, validate
from .surface import fraction_text, h0_line_bundle
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


_BOUND_NAMES = ("first", "second", "third")


def _quoted(q: Optional[Fraction]) -> str:
    """A rational as a JSON value: its quoted text, or null for one not computed."""
    return "null" if q is None else f'"{fmt_rational(q)}"'


def _list_writer(indent: str) -> Callable[[Sequence[Any], Callable[[Any], str]], str]:
    """The writer of a JSON list whose key sits at ``indent``, from its items
    and the function writing each item's JSON text (``_escape`` for free
    text, ``str`` for an int); the indent and separator pieces are fixed here."""
    inner = "\n" + indent + "  "
    first, comma, end = "[" + inner, "," + inner, "\n" + indent + "]"

    def write(items: Sequence[Any], item: Callable[[Any], str]) -> str:
        return first + comma.join(map(item, items)) + end if items else "[]"

    return write


_LIST2, _LIST4, _LIST6 = _list_writer("  "), _list_writer("    "), _list_writer("      ")


def _rows_writer(indent: str) -> Callable[[Tuple[CheckResult, ...]], str]:
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

    def write(rows: Tuple[CheckResult, ...]) -> str:
        if not rows:
            return "[]"
        return first + then.join([
            f"{_escape(d)}{name}{_escape(n)}{skip if ok is None else passed if ok else failed}"
            for n, ok, d, _ in rows
        ]) + end

    return write


_CHECK_ROWS, _FIBRATION_ROWS = _rows_writer("    "), _rows_writer("  ")

# The sections of a report, one writer each for its JSON value and its text
# lines.  A JSON writer returns None for a section the report does not hold,
# a text writer no lines; the expectation failures, the warnings, the name
# and ``ok`` are always held.  Each JSON writer writes its section's value at
# the report's first level, with its keys in sorted order, as ``write_json``
# writes a dict of the sections.


def _validation_json(r: InvariantReport) -> Optional[str]:
    v = r.validation
    if v is None:
        return None
    passed = "true" if v.passed else "false"
    return f'{{\n    "checks": {_CHECK_ROWS(v.checks)},\n    "passed": {passed}\n  }}'


def _validation_text(r: InvariantReport) -> List[str]:
    v = r.validation
    if v is None:
        return []
    head = f"validation: {'PASS' if v.passed else 'FAIL'}"
    return [head] + [f"  {check_line(c)}" for c in v.checks]


def _zariski_json(r: InvariantReport) -> Optional[str]:
    dec = r.decomposition
    if dec is None:
        return None
    # the dense nef part, one rational per basis class, formatted from the
    # class's numerators
    nef, den = dec.nef_part, dec.nef_part.denominator
    texts = ["0"] * nef.surface.rank
    for i, v in nef.numerators.items():
        texts[i] = fraction_text(v, den)
    dense = '",\n      "'.join(texts)
    negative = ",".join([
        f'\n      {_escape(name)}: "{fmt_rational(c)}"' for name, c in sorted(dec.negative_part)
    ])
    negative = f"{{{negative}\n    }}" if negative else "{}"
    return f'{{\n    "nef_part": [\n      "{dense}"\n    ],\n    "negative_part": {negative}\n  }}'


def _zariski_text(r: InvariantReport) -> List[str]:
    dec = r.decomposition
    if dec is None:
        return []
    return [f"P = {dec.nef_part}"] + (
        [f"N[{n}] = {fmt_rational(c)}" for n, c in dec.negative_part] or ["N = 0"]
    )


def _chain_json(c: FChain) -> str:
    return (
        f'{{\n      "curves": {_LIST6(c.curves, _escape)},'
        f'\n      "e": {_LIST6(c.self_intersections, str)}\n    }}'
    )


def _invariants_json(r: InvariantReport) -> Optional[str]:
    c = r.chern
    if c is None:
        return None
    return (
        f'{{\n    "c1_sq": "{fmt_rational(c.c1_sq)}",\n    "c2": "{fmt_rational(c.c2)}",'
        f'\n    "chi": "{fmt_rational(c.chi)}",\n    "slope": {_quoted(r.slope_value)},'
        f'\n    "vol": {_quoted(r.vol)}\n  }}'
    )


def _invariants_text(r: InvariantReport) -> List[str]:
    c = r.chern
    if c is None:
        return []
    values = (c.c1_sq, c.c2, c.chi, r.vol, r.slope_value)
    return ["invariants: " + listing(("c1^2", "c2", "chi", "vol", "slope"), values)]


def _bounds_json(r: InvariantReport) -> Optional[str]:
    if r.bounds is None:
        return None
    first, second, third = r.bounds
    return (
        f'{{\n    "equalities": {_LIST4(r.bound_equalities, _escape)},'
        f'\n    "first": "{fmt_rational(first)}",\n    "second": "{fmt_rational(second)}",'
        f'\n    "third": "{fmt_rational(third)}"\n  }}'
    )


def _bounds_text(r: InvariantReport) -> List[str]:
    if r.bounds is None:
        return []
    equalities = r.bound_equalities
    eq = f"  equality: {', '.join(equalities)}" if equalities else ""
    return [f"noether bounds: {listing(_BOUND_NAMES, r.bounds)}{eq}"]


def _rule_json(rule: FiredRule) -> str:
    return (
        f'{{\n        "citation": {_escape(rule.citation)},'
        f'\n        "comparison": {_escape(rule.comparison)},'
        f'\n        "id": {_escape(rule.rule_id)}\n      }}'
    )


def _verdict_json(r: InvariantReport) -> Optional[str]:
    v = r.verdict
    if v is None:
        return None
    bound = "null" if v.genus_bound is None else str(v.genus_bound)
    return (
        f'{{\n    "fired_rules": {_LIST4(v.fired_rules, _rule_json)},'
        f'\n    "genus_bound": {bound},'
        f'\n    "informational": {_LIST4(v.sanity_failures, _escape)},'
        f'\n    "status": {_escape(v.status)}\n  }}'
    )


def _verdict_text(r: InvariantReport) -> List[str]:
    v = r.verdict
    if v is None:
        return []
    return [
        f"verdict: {v.status}",
        *(f"  {rule.rule_id}: {rule.comparison}  [{rule.citation}]" for rule in v.fired_rules),
        *([] if v.genus_bound is None else [f"  genus bound: {v.genus_bound}"]),
        *(f"  note: {note}" for note in v.sanity_failures),
    ]


def _modular_json(r: InvariantReport) -> Optional[str]:
    if r.modular is None:
        return None
    kappa, delta, chi = r.modular
    return (
        f'{{\n    "chi": "{fmt_rational(chi)}",\n    "delta": "{fmt_rational(delta)}",'
        f'\n    "kappa": "{fmt_rational(kappa)}"\n  }}'
    )


class _Section(NamedTuple):
    key: str
    json: Callable[[InvariantReport], Optional[str]]
    text: Callable[[InvariantReport], List[str]]


# in text order
_SECTIONS: Tuple[_Section, ...] = (
    _Section("name", lambda r: _escape(r.name), lambda r: [f"scenario: {r.name}"]),
    _Section("validation", _validation_json, _validation_text),
    _Section(
        "inconsistency",
        lambda r: None if r.inconsistency is None else _escape(r.inconsistency),
        lambda r: [] if r.inconsistency is None else [f"inconsistent: {r.inconsistency}"],
    ),
    _Section("zariski", _zariski_json, _zariski_text),
    _Section(
        "chains",
        lambda r: _LIST2(r.chains, _chain_json) if r.chains else None,
        lambda r: [
            f"chain: [{', '.join(c.curves)}]  e = {list(c.self_intersections)}" for c in r.chains
        ],
    ),
    _Section("invariants", _invariants_json, _invariants_text),
    _Section(
        "singularity_count",
        lambda r: None if r.singularity_count is None else str(r.singularity_count),
        lambda r: [] if r.singularity_count is None else [
            f"singularities (with multiplicity): {r.singularity_count}"
        ],
    ),
    _Section(
        "p_g",
        lambda r: None if r.p_g is None else str(r.p_g),
        lambda r: [] if r.p_g is None else [f"p_g = {r.p_g}"],
    ),
    _Section("noether_bounds", _bounds_json, _bounds_text),
    _Section("verdict", _verdict_json, _verdict_text),
    _Section(
        "modular",
        _modular_json,
        lambda r: [] if r.modular is None else [
            f"modular invariants: {listing(MODULAR_KEYS, r.modular)}"
        ],
    ),
    _Section(
        "fibration_checks",
        lambda r: _FIBRATION_ROWS(r.fibration_checks) if r.fibration_checks else None,
        lambda r: list(map(check_line, r.fibration_checks)),
    ),
    _Section(
        "expectation_failures",
        lambda r: _LIST2(r.expectation_failures, _escape),
        lambda r: [f"expectation mismatch: {f}" for f in r.expectation_failures],
    ),
    _Section(
        "warnings",
        lambda r: _LIST2(r.warnings, _escape),
        lambda r: [f"warning: {w}" for w in r.warnings],
    ),
    _Section(
        "ok",
        lambda r: "true" if r.ok else "false",
        lambda r: [f"result: {'ok' if r.ok else 'FAILED'}"],
    ),
)
# in key order, each JSON writer with its key's piece
_JSON_ORDER = tuple((f'"{s.key}": ', s.json) for s in sorted(_SECTIONS, key=itemgetter(0)))


@dataclass(frozen=True)
class InvariantReport:
    """Everything the pipeline computed for one document, and its renderings."""

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

    def to_json(self) -> str:
        """The report as ``write_json`` writes a dict of its sections, plus a
        newline: the JSON writer of each section the report holds, in key
        order, joined; no dict of the report or of a section is built."""
        return "{\n  " + ",\n  ".join([
            head + value for head, write in _JSON_ORDER if (value := write(self)) is not None
        ]) + "\n}\n"

    def to_text(self, sections: Optional[Collection[str]] = None) -> str:
        """The text lines of the named sections (all when None), in text
        order; a named section the report does not hold prints nothing."""
        return "".join(
            f"{line}\n"
            for key, _, text in _SECTIONS
            if sections is None or key in sections
            for line in text(self)
        )


def _differ(a: Any, b: Any) -> bool:
    """``a != b``, with no Python-level ``Fraction.__eq__``: two Fractions
    compare by the slots ``local_invariants.fraction`` writes (equal values
    in lowest terms have equal slots), and two dicts key by key."""
    if a.__class__ is Fraction and b.__class__ is Fraction:
        return a._numerator != b._numerator or a._denominator != b._denominator
    if a.__class__ is dict and b.__class__ is dict:
        return a.keys() != b.keys() or any(_differ(v, b[k]) for k, v in a.items())
    return a != b


def _compare_expectations(report: InvariantReport, expect: Mapping[str, Any]) -> Tuple[str, ...]:
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

    The stages fill one dict and the report is built from it once, then
    compared with ``expect``; only a differing key rebuilds it with the failures.
    """
    out: Dict[str, Any] = {}
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
    report = InvariantReport(name=doc.name, **out)
    failures = _compare_expectations(report, doc.expect)
    return replace(report, expectation_failures=failures) if failures else report
