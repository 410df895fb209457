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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import (
    Any, Callable, Collection, Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional,
    Tuple,
)

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
from .surface import P2, DivisorClass, SurfaceModel, h0_line_bundle
from .surface import intersect  # noqa: F401  (perfbench/tracing.py wraps this name)
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
    """A JSON integer, or a string of an optional "-", ASCII digits, and
    optionally "/" and ASCII digits; ``int`` alone would also take signs,
    spaces, underscores and non-ASCII digits."""
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise _Reject(f"expected a rational string, got {text!r}")
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (text.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise _Reject(f"malformed rational {text!r}")
    try:  # int() also refuses more digits than sys.get_int_max_str_digits()
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


def _decode_class(raw: Any) -> Tuple[int, Tuple[Tuple[int, Fraction], ...]]:
    """A dense class list decodes to its length and its nonzero (index,
    coefficient) pairs: only the enclosing document knows the surface, whose
    rank the scenario builder checks.  A "0" entry builds no Fraction."""
    if not isinstance(raw, list):
        raise _Reject("expected a list")
    terms = []
    for i, text in enumerate(raw):
        if text != "0":
            try:
                value = _rational(text)
            except _Reject as exc:
                exc.where.append(i)
                raise
            if value:
                terms.append((i, value))
    return len(raw), tuple(terms)


CLASS = Codec(_decode_class, lambda cls: list(map(fmt_rational, cls.coefficients)))

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


def _lattice_class(surface: SurfaceModel, decoded, *where) -> DivisorClass:
    length, terms = decoded
    try:
        surface.check_length(length)
    except ShapeError as exc:
        raise _Reject(str(exc), *where) from None
    return DivisorClass(surface, terms)


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
    if surface is not None:
        scenario = _build_scenario(name, surface, k_foliation, curves, singularities, metadata)
        return ScenarioDocument(name, scenario, fibration, expect)
    # without a surface these keys would be dropped; an empty list holds nothing
    for key, value in (
        ("k_foliation", k_foliation),
        ("curves", curves or None),
        ("singularities", singularities or None),
        ("metadata", metadata),
    ):
        if value is not None:
            raise _Reject(f"{key!r} needs a 'surface'", key)
    if fibration is None:
        raise _Reject("a document needs a surface scenario or a fibration")
    return ScenarioDocument(name, None, fibration, expect)


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
MODULAR_KEYS = ("kappa", "delta", "chi")
MODULAR = Record(dict, tuple(Field(k, RATIONAL) for k in MODULAR_KEYS), attrs=dict)
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
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}", "$") from None
    if isinstance(data, str):
        try:
            obj = json.loads(data)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer literal past the int-to-str digit
            # limit (a bare ValueError), or nesting past the recursion limit
            raise ParseError(f"invalid JSON: {exc}", "$") from None
    else:
        obj = data
    return parse_document_dict(obj)


def document_to_dict(doc: ScenarioDocument) -> Dict[str, Any]:
    """Canonical dictionary form of a document (used for serialization)."""
    return encode(DOCUMENT, doc)


def serialize_document(doc: ScenarioDocument) -> str:
    # a freshly encoded document holds no cycle, so the check is skipped
    text = json.dumps(document_to_dict(doc), indent=2, sort_keys=True, check_circular=False)
    return text + "\n"


def _check_json(c: CheckResult) -> Dict[str, Any]:
    return {"name": c.name, "status": c.status, "detail": c.detail}


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


_BOUND_NAMES = ("first", "second", "third")


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
        pay for).  A section with no value is left out, except the expectation
        failures and warnings, which the JSON always lists."""
        yield "name", self.name, lambda: [f"scenario: {self.name}"]
        v = self.validation
        if v is not None:
            yield "validation", {"passed": v.passed, "checks": list(map(_check_json, v.checks))}, (
                lambda: [f"validation: {'PASS' if v.passed else 'FAIL'}"]
                + [f"  {check_line(c)}" for c in v.checks]
            )
        why = self.inconsistency
        if why is not None:
            yield "inconsistency", why, lambda: [f"inconsistent: {why}"]
        dec = self.decomposition
        if dec is not None:
            value = {
                "nef_part": [fmt_rational(c) for c in dec.nef_part.coefficients],
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
            yield "fibration_checks", list(map(_check_json, checks)), (
                lambda: list(map(check_line, checks))
            )
        failures = self.expectation_failures
        yield "expectation_failures", list(failures), lambda: [
            f"expectation mismatch: {f}" for f in failures
        ]
        yield "warnings", list(self.warnings), lambda: [f"warning: {w}" for w in self.warnings]
        ok = self.ok
        yield "ok", ok, lambda: [f"result: {'ok' if ok else 'FAILED'}"]

    def to_json_dict(self) -> Dict[str, Any]:
        return {key: value for key, value, _ in self._sections()}

    def to_json(self) -> str:
        # the report's dict is built fresh on each call and holds no cycle
        text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True, check_circular=False)
        return text + "\n"

    def to_text(self, sections: Optional[Collection[str]] = None) -> str:
        """The text lines of the named sections (all when None), in walk order;
        a named section the report does not hold prints nothing."""
        return "".join(
            f"{line}\n"
            for key, _, lines in self._sections()
            if sections is None or key in sections
            for line in lines()
        )


# The report value each ``expect`` key is compared with, in comparison order;
# a section that was not computed reads None (or an empty list or map).
EXPECTED_VALUES: Mapping[str, Callable[[InvariantReport], Any]] = MappingProxyType(
    {
        "c1_sq": lambda r: r.chern and r.chern.c1_sq,
        "c2": lambda r: r.chern and r.chern.c2,
        "chi": lambda r: r.chern and r.chern.chi,
        "vol": lambda r: r.vol,
        "slope": lambda r: r.slope_value,
        "p_g": lambda r: r.p_g,
        "verdict": lambda r: r.verdict and r.verdict.status,
        "genus_bound": lambda r: r.verdict and r.verdict.genus_bound,
        "fired_rules": lambda r: [x.rule_id for x in r.verdict.fired_rules] if r.verdict else [],
        "singularity_count": lambda r: r.singularity_count,
        "negative_part": lambda r: dict(r.decomposition.negative_part) if r.decomposition else {},
        "modular": lambda r: r.modular and dict(zip(MODULAR_KEYS, r.modular)),
        "noether_equality": lambda r: ",".join(r.bound_equalities) or None,
    }
)


def _compare_expectations(report: InvariantReport, expect: Mapping[str, Any]) -> Tuple[str, ...]:
    failures = []
    for key, actual_value in EXPECTED_VALUES.items():
        if key in expect:
            wanted, actual = expect[key], actual_value(report)
            if actual != wanted:
                failures.append(f"{key}: expected {wanted}, got {actual}")
    return tuple(failures)


def _surface_stages(s: FoliatedScenario, genus: Optional[int], out: Dict[str, Any]) -> None:
    validation = out["validation"] = validate(s)
    out["warnings"] = validation.warnings
    out["singularity_count"] = s.singularity_count
    if not validation.passed:
        return
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
        chern = out["chern"] = chern_numbers(s, dec)
        vol = out["vol"] = chern.c1_sq  # chern_numbers checked that it is P^2
    else:
        chern = out["chern"] = chern_numbers(s)
        vol = out["vol"] = Fraction(0)
    if chern.chi > 0:
        out["slope_value"] = slope(chern)
    declared = s.metadata.p_g
    p_g = h0_line_bundle(s.surface, s.k_foliation) if s.k_foliation.is_integral else None
    if p_g is None:
        p_g = declared
    elif declared is not None and p_g != declared:
        raise InconsistentScenario(f"declared p_g = {declared} but sections give {p_g}")
    out["p_g"] = p_g
    if p_g is not None and p_g >= 2:
        bounds = out["bounds"] = noether_bounds(p_g)
        out["bound_equalities"] = tuple(n for n, b in zip(_BOUND_NAMES, bounds) if vol == b)
    out["verdict"] = decide(s, chern, vol, genus=genus, p_g=p_g)


def _fibration_stage(fb: FibrationModel, chern: Optional[ChernNumbers], out: Dict[str, Any]):
    kappa, delta, chi_f = out["modular"] = modular_invariants(fb)
    checks: List[CheckResult] = []
    if fb.genus >= 2 and chi_f > 0 and kappa > 0:
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
    return replace(report, expectation_failures=_compare_expectations(report, doc.expect))
