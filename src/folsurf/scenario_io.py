"""Declarative scenario documents, the invariant pipeline, and reports.

Scenario files are UTF-8 JSON with a strict schema: unknown keys are
rejected, every rational is a "p/q" (or "p") string, and no floating point
appears anywhere in the format.  Parsing is total: any malformed element
raises :class:`ParseError` annotated with the JSON path of the offender.
Reports are deterministic; identical input bytes produce identical report
bytes.

The format is defined once, by the record table (``DOCUMENT`` and the
records it nests) that :func:`decode` and :func:`encode` walk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from .chern import ChernNumbers, Verdict, chern_numbers, decide, noether_bounds, slope
from .errors import DomainError, InconsistentScenario, ParseError, ShapeError
from .fibration import (
    FiberModel,
    FiberNode,
    FibrationModel,
    crosscheck_with_chern,
    modular_invariants,
    slope_inequality_check,
)
from .foliation import (
    CheckResult,
    CurveRecord,
    FoliatedScenario,
    ScenarioMetadata,
    ValidationReport,
    validate,
)
from .local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    SaddleNode,
    SingularityRecord,
)
from .surface import P2, DivisorClass, SurfaceModel, h0_line_bundle, intersect
from .zariski import (
    FChain,
    ZariskiDecomposition,
    detect_chains_with_flags,
    zariski_decompose,
)


def fmt_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class _Reject(Exception):
    """A malformed element.  The walkers add the key or index leading to it as
    it propagates, so a JSON path is only formatted for a failing document."""

    def __init__(self, reason: str, *where):
        super().__init__(reason)
        self.reason = reason
        self.where = list(reversed(where))  # innermost segment first


def _rational(text: Any) -> Fraction:
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise _Reject(f"expected a rational string, got {text!r}")
    num, slash, den = text.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise _Reject(f"malformed rational {text!r}") from None
    if den == 0:
        raise _Reject("rational with denominator 0")
    return Fraction(num, den)


def parse_rational(text: Any, path: str) -> Fraction:
    try:
        return _rational(text)
    except _Reject as exc:
        raise ParseError(exc.reason, path) from None


class Codec(NamedTuple):
    """Converts one JSON value to its domain value and back."""

    decode: Callable[[Any], Any]
    encode: Callable[[Any], Any]


def _same(value: Any) -> Any:
    return value


def _typed(kind: type, expected: str, minimum: Optional[int] = None) -> Codec:
    def decode(raw):
        if type(raw) is not kind:
            raise _Reject(f"expected {expected}, got {raw!r}")
        if minimum is not None and raw < minimum:
            raise _Reject(f"expected {expected} >= {minimum}, got {raw}")
        return raw

    return Codec(decode, _same)


def integer(minimum: Optional[int] = None) -> Codec:
    return _typed(int, "an integer", minimum)


def list_of(item: Codec) -> Codec:
    def decode(raw):
        if not isinstance(raw, list):
            raise _Reject("expected a list")
        out = []
        try:
            for value in raw:
                out.append(item.decode(value))
        except _Reject as exc:
            exc.where.append(len(out))  # the index of the failing element
            raise
        return out

    return Codec(decode, lambda values: [item.encode(v) for v in values])


def map_of(item: Codec) -> Codec:
    """A JSON object with free keys, such as curve name -> coefficient."""

    def decode(raw):
        if not isinstance(raw, dict):
            raise _Reject("expected an object")
        out = {}
        try:
            for key, value in raw.items():
                out[key] = item.decode(value)
        except _Reject as exc:
            exc.where.append(key)
            raise
        return out

    return Codec(decode, lambda values: {k: item.encode(v) for k, v in values.items()})


def record(spec: "Record") -> Codec:
    return Codec(partial(_decode, spec), partial(encode, spec))


RATIONAL = Codec(_rational, fmt_rational)
BOOL = _typed(bool, "a boolean")
STRING = _typed(str, "a string")
# A divisor class decodes to its coefficient tuple: only the enclosing
# document knows the surface, whose rank the scenario builder checks.
_COEFFICIENTS = list_of(RATIONAL)
CLASS = Codec(
    lambda raw: tuple(_COEFFICIENTS.decode(raw)),
    lambda cls: _COEFFICIENTS.encode(cls.coefficients),
)

REQUIRED = object()  # default of a key that must be present
ABSENT = object()  # default of a key whose absence leaves its attribute unset


@dataclass(frozen=True)
class Field:
    """One key of a JSON object: the domain attribute (and builder keyword)
    it maps to, which defaults to the key, its codec and its default.  A value
    equal to the default is not serialized unless ``emit_default`` is set."""

    key: str
    codec: Codec
    default: Any = REQUIRED
    attr: str = ""
    emit_default: bool = False


@dataclass(frozen=True)
class Record:
    """One JSON object: its fields, the builder of a domain value from the
    decoded attributes, and the reader of a domain value's attributes."""

    build: Callable[..., Any]
    fields: Tuple[Field, ...]
    attrs: Callable[[Any], Mapping[str, Any]] = vars
    keys: FrozenSet[str] = field(init=False, repr=False)
    plan: Tuple[tuple, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "keys", frozenset(f.key for f in self.fields))
        # unpacked once, so that the walkers' per-element loops do no attribute
        # lookups; the last entry is the value serializing leaves out
        plan = tuple(
            (f.key, f.attr or f.key, *f.codec, f.default, ABSENT if f.emit_default else f.default)
            for f in self.fields
        )
        object.__setattr__(self, "plan", plan)


def _decode(spec: Record, obj: Any) -> Any:
    if not isinstance(obj, dict):
        raise _Reject("expected an object")
    if not spec.keys.issuperset(obj):
        key = next(k for k in obj if k not in spec.keys)
        raise _Reject(f"unknown key {key!r}", key)
    values = {}
    try:
        for key, attr, decode_value, _, default, _ in spec.plan:
            raw = obj.get(key, ABSENT)
            if raw is not ABSENT:
                try:
                    values[attr] = decode_value(raw)
                except _Reject as exc:
                    exc.where.append(key)
                    raise
            elif default is REQUIRED:
                raise _Reject(f"missing required key {key!r}")
            elif default is not ABSENT:
                values[attr] = default
        return spec.build(**values)
    except (DomainError, InconsistentScenario) as exc:
        raise _Reject(str(exc)) from None


def decode(spec: Record, obj: Any, path: str = "$") -> Any:
    """Decode the JSON object ``obj`` against ``spec``; malformed input
    raises :class:`ParseError` at its JSON path below ``path``."""
    try:
        return _decode(spec, obj)
    except _Reject as exc:
        where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in reversed(exc.where))
        raise ParseError(exc.reason, path + where) from None


def encode(spec: Record, value: Any) -> Dict[str, Any]:
    """The JSON object of a domain value under ``spec``."""
    attrs = spec.attrs(value)
    out: Dict[str, Any] = {}
    for key, attr, _, encode_value, _, omitted in spec.plan:
        v = attrs.get(attr, ABSENT)
        if v is not ABSENT and v != omitted:
            out[key] = encode_value(v)
    return out


# Unions and checks that are not field by field.


def _decode_eigenvalue(raw: Any) -> EigenvalueClass:
    if raw == "nonrational":
        return _NONRATIONAL
    value = _rational(raw)
    if value == 0:
        raise _Reject("eigenvalue must be nonzero")
    return EigenvalueClass.rational(value)


_NONRATIONAL = EigenvalueClass.nonrational()  # immutable: one instance serves all
EIGENVALUE = Codec(
    _decode_eigenvalue, lambda ev: "nonrational" if ev.value is None else fmt_rational(ev.value)
)
NON_DEGENERATE = Record(NonDegenerate, (Field("eigenvalue", EIGENVALUE),))
SADDLE_NODE = Record(
    SaddleNode,
    (
        Field("saddle_node", integer(2), attr="multiplicity"),
        Field("bb", RATIONAL, default=None, attr="bb_index"),
    ),
)
_KINDS = {spec.build: spec for spec in (NON_DEGENERATE, SADDLE_NODE)}


def _decode_kind(raw: Any):
    if isinstance(raw, dict):
        for spec in _KINDS.values():
            if spec.fields[0].key in raw:
                return _decode(spec, raw)
    keys = " or ".join(repr(spec.fields[0].key) for spec in _KINDS.values())
    raise _Reject(f"kind must declare {keys}")


KIND = Codec(_decode_kind, lambda kind: encode(_KINDS[type(kind)], kind))


def _decode_epsilon(raw: Any) -> int:
    if type(raw) is not int or raw not in (0, 1):
        raise _Reject("epsilon must be 0 or 1")
    return raw


# The base is "P2" or {"hirzebruch": e}; it decodes to e, or to None on the plane.
_HIRZEBRUCH = Record(dict, (Field("hirzebruch", integer(0), attr="e"),), attrs=dict)


def _decode_base(raw: Any) -> Optional[int]:
    if raw == P2:
        return None
    if isinstance(raw, dict):
        return _decode(_HIRZEBRUCH, raw)["e"]
    raise _Reject(f"unknown base surface {raw!r}")


BASE = Codec(_decode_base, lambda e: P2 if e is None else encode(_HIRZEBRUCH, {"e": e}))
KODAIRA = Codec(lambda raw: None if STRING.decode(raw) == "unknown" else raw, _same)


def _build_surface(hirzebruch_e: Optional[int], blowups: int) -> SurfaceModel:
    e = hirzebruch_e
    return SurfaceModel.p2(blowups) if e is None else SurfaceModel.hirzebruch(e, blowups)


def _surface_attrs(s: SurfaceModel) -> Dict[str, Any]:
    return {"hirzebruch_e": None if s.base == P2 else s.hirzebruch_e, "blowups": s.blowups}


def _build_fibration(genus, k_f_sq, e_f, chi_f, singular_fibers) -> FibrationModel:
    fibers = []
    for k, attrs in enumerate(singular_fibers):
        try:
            fibers.append(FiberModel(genus_of_fibration=genus, **attrs))
        except DomainError as exc:
            raise _Reject(str(exc), "fibers", k) from None
    return FibrationModel(genus, k_f_sq, e_f, chi_f, tuple(fibers))


def _lattice_class(surface: SurfaceModel, coefficients, *where) -> DivisorClass:
    try:
        return DivisorClass(surface, coefficients)
    except ShapeError as exc:  # the class length does not match the surface rank
        raise _Reject(str(exc), *where) from None


def _build_scenario(name, surface, k_foliation, curves, singularities, metadata):
    for key, value in (("k_foliation", k_foliation), ("metadata", metadata)):
        if value is None:
            raise _Reject(f"missing required key {key!r} for a surface scenario")
    k_foliation = _lattice_class(surface, k_foliation, "k_foliation")
    records = []
    curve_names = set()
    for k, attrs in enumerate(curves):
        if attrs["name"] in curve_names:
            raise _Reject(f"duplicate curve name {attrs['name']!r}", "curves", k)
        curve_names.add(attrs["name"])
        cls = _lattice_class(surface, attrs.pop("cls"), "curves", k, "class")
        records.append(CurveRecord(cls=cls, **attrs))
    sing_ids = set()
    for k, sing in enumerate(singularities):
        if sing.id in sing_ids:
            raise _Reject(f"duplicate singularity id {sing.id!r}", "singularities", k)
        sing_ids.add(sing.id)
        for cn in sing.incident_curves:
            if cn not in curve_names:
                reason = f"singularity references undeclared curve {cn!r}"
                raise _Reject(reason, "singularities", k, "on_curves")
    return FoliatedScenario(name, surface, k_foliation, records, singularities, metadata)


@dataclass(frozen=True)
class ScenarioDocument:
    name: str
    scenario: Optional[FoliatedScenario]
    fibration: Optional[FibrationModel]
    expect: Dict[str, Any] = field(default_factory=dict)


def _build_document(name, surface, k_foliation, curves, singularities, metadata, fibration, expect):
    scenario = None
    if surface is not None:
        scenario = _build_scenario(name, surface, k_foliation, curves, singularities, metadata)
    elif fibration is None:
        raise _Reject("a document needs a surface scenario or a fibration")
    return ScenarioDocument(name, scenario, fibration, expect)


def _document_attrs(doc: ScenarioDocument) -> Dict[str, Any]:
    attrs = {} if doc.scenario is None else dict(vars(doc.scenario))
    attrs.update(name=doc.name, fibration=doc.fibration, expect=doc.expect)
    return attrs


# The record table: every key, default and codec of the format.

SURFACE = Record(
    _build_surface,
    (
        Field("base", BASE, attr="hirzebruch_e"),
        Field("blowups", integer(0), default=0, emit_default=True),
    ),
    attrs=_surface_attrs,
)
CURVE = Record(
    dict,
    (
        Field("name", STRING),
        Field("class", CLASS, attr="cls"),
        Field("f_invariant", BOOL),
        Field("arithmetic_genus_hint", integer(0), default=None),
    ),
)
SINGULARITY = Record(
    SingularityRecord,
    (
        Field("id", STRING),
        Field("kind", KIND),
        Field("vanishing_order", integer(1), default=1),
        Field("on_curves", list_of(STRING), default=(), attr="incident_curves"),
        Field("epsilon", Codec(_decode_epsilon, _same), default=None),
    ),
)
METADATA = Record(
    ScenarioMetadata,
    (
        Field("k_pseudo_effective", BOOL),
        Field("relatively_minimal", BOOL),
        Field("algebraically_integral", STRING),
        Field("kodaira", KODAIRA, default=None),
        Field("p_g", integer(0), default=None),
    ),
)
FIBER_NODE = Record(
    FiberNode, (Field("a", integer(1)), Field("b", integer(1)), Field("in_negative_part", BOOL))
)
FIBER = Record(
    dict,
    (
        Field("pa_reduced", integer()),
        Field("f_red_sq", integer()),
        Field("alpha", integer(), default=0, emit_default=True),
        Field("nodes", list_of(record(FIBER_NODE))),
    ),
)
FIBRATION = Record(
    _build_fibration,
    (
        Field("genus", integer(1)),
        Field("k_f_sq", RATIONAL),
        Field("e_f", RATIONAL),
        Field("chi_f", RATIONAL),
        Field("fibers", list_of(record(FIBER)), attr="singular_fibers"),
    ),
)
MODULAR = Record(dict, tuple(Field(k, RATIONAL) for k in ("kappa", "delta", "chi")), attrs=dict)
EXPECT = Record(
    dict,
    tuple(Field(k, RATIONAL, default=ABSENT) for k in ("c1_sq", "c2", "chi", "vol", "slope"))
    + tuple(
        Field(k, integer(), default=ABSENT) for k in ("p_g", "singularity_count", "genus_bound")
    )
    + tuple(Field(k, STRING, default=ABSENT) for k in ("verdict", "noether_equality"))
    + (
        Field("negative_part", map_of(RATIONAL), default=ABSENT),
        Field("modular", record(MODULAR), default=ABSENT),
        Field("fired_rules", list_of(STRING), default=ABSENT),
    ),
    attrs=dict,
)
DOCUMENT = Record(
    _build_document,
    (
        Field("name", STRING),
        Field("surface", record(SURFACE), default=None),
        Field("k_foliation", CLASS, default=None),
        Field("curves", list_of(record(CURVE)), default=(), emit_default=True),
        Field("singularities", list_of(record(SINGULARITY)), default=(), emit_default=True),
        Field("metadata", record(METADATA), default=None),
        Field("fibration", record(FIBRATION), default=None),
        Field("expect", record(EXPECT), default=MappingProxyType({})),
    ),
    attrs=_document_attrs,
)


def parse_document_dict(data: Any, path: str = "$") -> ScenarioDocument:
    return decode(DOCUMENT, data, path)


def parse_scenario(data) -> ScenarioDocument:
    """Parse bytes or text into a structured document (strict schema)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            obj = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", "$")
    else:
        obj = data
    return parse_document_dict(obj)


def document_to_dict(doc: ScenarioDocument) -> Dict[str, Any]:
    """Canonical dictionary form of a document (used for serialization)."""
    return encode(DOCUMENT, doc)


def serialize_document(doc: ScenarioDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2, sort_keys=True) + "\n"


def _check_json(c: CheckResult) -> Dict[str, Any]:
    return {"name": c.name, "status": c.status, "detail": c.detail}


def check_line(c: CheckResult) -> str:
    """The text form of one check, ``[tag] name  (detail)``; a failure is FAIL."""
    detail = f"  ({c.detail})" if c.detail else ""
    return f"[{'FAIL' if c.failed else c.status}] {c.name}{detail}"


@dataclass
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

    def to_json_dict(self) -> Dict[str, Any]:
        def q(v):
            return None if v is None else fmt_rational(v)

        out: Dict[str, Any] = {"name": self.name, "ok": self.ok}
        if self.inconsistency is not None:
            out["inconsistency"] = self.inconsistency
        if self.validation is not None:
            out["validation"] = {
                "passed": self.validation.passed,
                "checks": [_check_json(c) for c in self.validation.checks],
            }
        if self.decomposition is not None:
            out["zariski"] = {
                "nef_part": [fmt_rational(c) for c in self.decomposition.nef_part.coefficients],
                "negative_part": {
                    name: fmt_rational(v) for name, v in self.decomposition.negative_part
                },
            }
        if self.chains:
            out["chains"] = [
                {"curves": list(ch.curves), "e": list(ch.self_intersections)}
                for ch in self.chains
            ]
        if self.chern is not None:
            out["invariants"] = {
                "c1_sq": q(self.chern.c1_sq),
                "c2": q(self.chern.c2),
                "chi": q(self.chern.chi),
                "vol": q(self.vol),
                "slope": q(self.slope_value),
            }
        if self.singularity_count is not None:
            out["singularity_count"] = self.singularity_count
        if self.p_g is not None:
            out["p_g"] = self.p_g
        if self.bounds is not None:
            out["noether_bounds"] = {
                "first": q(self.bounds[0]),
                "second": q(self.bounds[1]),
                "third": q(self.bounds[2]),
                "equalities": list(self.bound_equalities),
            }
        if self.verdict is not None:
            out["verdict"] = {
                "status": self.verdict.status,
                "fired_rules": [
                    {"id": r.rule_id, "citation": r.citation, "comparison": r.comparison}
                    for r in self.verdict.fired_rules
                ],
                "genus_bound": self.verdict.genus_bound,
                "informational": list(self.verdict.sanity_failures),
            }
        if self.modular is not None:
            out["modular"] = {
                "kappa": q(self.modular[0]),
                "delta": q(self.modular[1]),
                "chi": q(self.modular[2]),
            }
        if self.fibration_checks:
            out["fibration_checks"] = [_check_json(c) for c in self.fibration_checks]
        out["expectation_failures"] = list(self.expectation_failures)
        out["warnings"] = list(self.warnings)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        def q(v):
            return "-" if v is None else fmt_rational(v)

        lines = [f"scenario: {self.name}"]
        if self.validation is not None:
            lines.append(
                f"validation: {'PASS' if self.validation.passed else 'FAIL'}"
            )
            lines.extend(f"  {check_line(c)}" for c in self.validation.checks)
        if self.inconsistency is not None:
            lines.append(f"inconsistent: {self.inconsistency}")
        if self.decomposition is not None:
            lines.append(f"P = {self.decomposition.nef_part}")
            if self.decomposition.negative_part:
                terms = " + ".join(
                    f"{fmt_rational(v)}*{name}"
                    for name, v in self.decomposition.negative_part
                )
                lines.append(f"N = {terms}")
            else:
                lines.append("N = 0")
        for ch in self.chains:
            lines.append(
                f"chain: [{', '.join(ch.curves)}]  e = {list(ch.self_intersections)}"
            )
        if self.chern is not None:
            lines.append(
                "invariants: "
                f"c1^2 = {q(self.chern.c1_sq)}, c2 = {q(self.chern.c2)}, "
                f"chi = {q(self.chern.chi)}, vol = {q(self.vol)}, "
                f"slope = {q(self.slope_value)}"
            )
        if self.singularity_count is not None:
            lines.append(f"singularities (with multiplicity): {self.singularity_count}")
        if self.p_g is not None:
            lines.append(f"p_g = {self.p_g}")
        if self.bounds is not None:
            eq = f"  equality: {', '.join(self.bound_equalities)}" if self.bound_equalities else ""
            lines.append(
                f"noether bounds: first = {q(self.bounds[0])}, "
                f"second = {q(self.bounds[1])}, third = {q(self.bounds[2])}{eq}"
            )
        if self.verdict is not None:
            lines.append(f"verdict: {self.verdict.status}")
            for r in self.verdict.fired_rules:
                lines.append(f"  {r.rule_id}: {r.comparison}  [{r.citation}]")
            if self.verdict.genus_bound is not None:
                lines.append(f"  genus bound: {self.verdict.genus_bound}")
            for note in self.verdict.sanity_failures:
                lines.append(f"  note: {note}")
        if self.modular is not None:
            lines.append(
                f"modular invariants: kappa = {q(self.modular[0])}, "
                f"delta = {q(self.modular[1])}, chi = {q(self.modular[2])}"
            )
        lines.extend(check_line(c) for c in self.fibration_checks)
        for failure in self.expectation_failures:
            lines.append(f"expectation mismatch: {failure}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.append(f"result: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines) + "\n"


def _compare_expectations(report: InvariantReport, expect: Mapping[str, Any]) -> List[str]:
    failures: List[str] = []

    def check(key: str, actual) -> None:
        if key not in expect:
            return
        wanted = expect[key]
        if actual != wanted:
            failures.append(f"{key}: expected {wanted}, got {actual}")

    if report.chern is not None:
        check("c1_sq", report.chern.c1_sq)
        check("c2", report.chern.c2)
        check("chi", report.chern.chi)
    elif any(k in expect for k in ("c1_sq", "c2", "chi")):
        failures.append("chern numbers expected but not computed")
    check("vol", report.vol)
    check("slope", report.slope_value)
    check("p_g", report.p_g)
    if "verdict" in expect:
        check("verdict", None if report.verdict is None else report.verdict.status)
    if "genus_bound" in expect:
        check("genus_bound", None if report.verdict is None else report.verdict.genus_bound)
    if "fired_rules" in expect:
        actual_rules = (
            [] if report.verdict is None else [r.rule_id for r in report.verdict.fired_rules]
        )
        check("fired_rules", actual_rules)
    check("singularity_count", report.singularity_count)
    if "negative_part" in expect:
        actual = (
            {}
            if report.decomposition is None
            else {name: v for name, v in report.decomposition.negative_part}
        )
        check("negative_part", actual)
    if "modular" in expect:
        actual_mod = (
            None
            if report.modular is None
            else {
                "kappa": report.modular[0],
                "delta": report.modular[1],
                "chi": report.modular[2],
            }
        )
        check("modular", actual_mod)
    if "noether_equality" in expect:
        check("noether_equality", ",".join(report.bound_equalities) or None)
    return failures


def run_pipeline(doc: ScenarioDocument) -> InvariantReport:
    """validate -> zariski -> chern -> decide, plus the fibration block.

    Any InconsistentScenario raised along the way is surfaced on the report
    with the failing check named, never swallowed.
    """
    report = InvariantReport(name=doc.name)
    s = doc.scenario
    genus = doc.fibration.genus if doc.fibration is not None else None
    try:
        if s is not None:
            report.validation = validate(s)
            report.warnings = report.validation.warnings
            report.singularity_count = sum(x.multiplicity for x in s.singularities)
            if report.validation.passed:
                if s.metadata.k_pseudo_effective:
                    dec = zariski_decompose(s)
                    report.decomposition = dec
                    if s.metadata.relatively_minimal and s.is_reduced:
                        chains, flags = detect_chains_with_flags(s)
                        report.chains = tuple(chains)
                        report.warnings += tuple(flags)
                        # the negative-part support of a relatively minimal
                        # reduced scenario must split into maximal chains
                        chain_curves = {
                            name for ch in chains for name in ch.curves
                        }
                        stray = sorted(set(dec.support) - chain_curves)
                        if stray:
                            raise InconsistentScenario(
                                "negative-part support is not a disjoint union "
                                f"of chains; stray curves {stray}"
                            )
                    report.chern = chern_numbers(s, dec)
                    report.vol = intersect(dec.nef_part, dec.nef_part)
                else:
                    report.chern = chern_numbers(s)
                    report.vol = Fraction(0)
                if report.chern.chi > 0:
                    report.slope_value = slope(report.chern)
                computed_pg = None
                if s.k_foliation.is_integral:
                    computed_pg = h0_line_bundle(s.surface, s.k_foliation)
                if computed_pg is not None and s.metadata.p_g is not None:
                    if computed_pg != s.metadata.p_g:
                        raise InconsistentScenario(
                            f"declared p_g = {s.metadata.p_g} but sections give {computed_pg}"
                        )
                report.p_g = computed_pg if computed_pg is not None else s.metadata.p_g
                if report.p_g is not None and report.p_g >= 2:
                    bounds = noether_bounds(report.p_g)
                    report.bounds = bounds
                    names = ("first", "second", "third")
                    report.bound_equalities = tuple(
                        n for n, b in zip(names, bounds) if report.vol == b
                    )
                report.verdict = decide(
                    s, report.chern, report.vol, genus=genus, p_g=report.p_g
                )
        if doc.fibration is not None:
            fb = doc.fibration
            kappa, delta, chi_f = modular_invariants(fb)
            report.modular = (kappa, delta, chi_f)
            checks: List[CheckResult] = []
            if fb.genus >= 2 and chi_f > 0 and kappa > 0:
                checks.append(slope_inequality_check(fb.genus, kappa, chi_f))
            if report.chern is not None:
                checks.append(crosscheck_with_chern(fb, report.chern))
            report.fibration_checks = tuple(checks)
    except (InconsistentScenario, DomainError) as exc:
        report.inconsistency = str(exc)
    report.expectation_failures += tuple(_compare_expectations(report, doc.expect))
    return report
