"""The scenario document format: parse, serialize, and the JSON writer.

Scenario files are UTF-8 JSON with a strict schema: unknown keys are
rejected, every rational is a "p/q" (or "p") string, and no floating point
appears anywhere in the format.  Parsing is total: any malformed element
raises :class:`ParseError` annotated with the JSON path of the offender.

The format is defined once, by the record table (``DOCUMENT`` and the
records it nests): :func:`encode` walks it, and each record's decoder is
generated from it on first use, one plain block per field in field order.
A document grows with its distinct data: a divisor class is written as an
object from basis label to each nonzero rational (a dense list, one
rational per basis class, still parses in one loop that skips its "0"
entries), and equal points off every curve, or equal fibers, as one entry
with a ``count``.  The decoders of one document share one memo: a rational text
maps to the Fraction built where it first appears, and a basis label to its
slot.  A singularity kind is decoded where it appears, once per entry, as
every local fact is read once per record.  A check a decoder has made is not
made again, and no rule is copied here: an eigenvalue decodes straight from
its text's integers to its canonical form (``canonical_ratio``), a class to
the integer numerators that ``DivisorClass.trusted`` stores
(``surface._integer_form``; a class is printed from them), a singularity is
built by ``SingularityRecord.trusted``, and eigenvalue classes, fiber nodes
and curves by ``_trusted``; only checks that span fields run.  The
scenario is built by its constructor, as every other scenario is: it checks
the curve names, singularity ids and curve references, and its refusal's
path becomes the ``ParseError`` path.  Documents and fixtures are printed
by one writer, :func:`write_json`, so identical input bytes produce
identical output bytes; a report (``InvariantReport.to_json``) writes the
same layout by fixed-layout writers of its own sections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import (
    Any, Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple,
)

from .errors import DomainError, InconsistentScenario, ParseError, ShapeError
from .fibration import FiberModel, FiberNode, FibrationModel
from .foliation import (
    CurveRecord,
    FoliatedScenario,
    ScenarioMetadata,
    ScenarioRefused,
)
from .local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    RationalLike,
    SaddleNode,
    SingularityRecord,
    _trusted,
    as_rational,
    cached,
    canonical_ratio,
    fraction,
)
from .surface import P2, DivisorClass, SurfaceModel, _integer_form, fraction_text


def fmt_rational(q: RationalLike) -> str:
    """An int or Fraction as "p/q", or "p" when integral; anything inexact,
    a float or a bool, raises DomainError.  A Fraction is printed from its
    slots, as ``Fraction.__str__`` prints them, without that call."""
    if q.__class__ is Fraction:
        n, d = q._numerator, q._denominator
        return str(n) if d == 1 else f"{n}/{d}"
    return str(as_rational(q))


_escape = json.encoder.encode_basestring_ascii  # the C escaper of json.dumps


def write_json(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, written directly: the
    stdlib encoder runs in pure Python whenever ``indent`` is set.  Takes str,
    int, bool, None, lists and dicts with str keys; anything else, a float
    included, raises TypeError.  A cycle is not detected."""
    out: List[str] = []
    _write(value, "\n", out.append)
    return "".join(out)


def _write(value: Any, newline: str, emit: Callable[[str], None]) -> None:
    # separators are emitted as pieces, not joined to the keys and values:
    # the pieces are shared strings, so only the escaped text is allocated
    t = type(value)
    if t is str:
        emit(_escape(value))
    elif t is dict:
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        emit("{")
        sep = inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(sep)
            emit(_escape(key))
            emit(": ")
            item = value[key]
            if type(item) is str:  # the common leaf, written without a call
                emit(_escape(item))
            else:
                _write(item, inner, emit)
            sep = comma
        emit(newline)
        emit("}")
    elif t is list:
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        emit("[")
        sep = inner
        for item in value:
            emit(sep)
            if type(item) is str:
                emit(_escape(item))
            else:
                _write(item, inner, emit)
            sep = comma
        emit(newline)
        emit("]")
    elif t is int:
        emit(str(value))
    elif t is bool:
        emit("true" if value else "false")
    elif value is None:
        emit("null")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


class _Reject(Exception):
    """A malformed element.  The walkers add the key or index leading to it as
    it propagates, so a JSON path is only formatted for a failing document."""

    def __init__(self, reason: str, *where):
        super().__init__(reason)
        self.reason = reason
        self.where = list(reversed(where))  # innermost segment first


def _ratio(text: Any) -> Tuple[int, int]:
    """The integers (n, d), d >= 1, of a rational: a JSON integer, or a
    string of an optional "-", ASCII digits, and optionally "/" and ASCII
    digits; ``int`` alone would also take signs, spaces, underscores and
    non-ASCII digits.  n/d is not reduced."""
    if type(text) is int:
        return text, 1
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
    return num, den


def _rational(text: Any, memo: dict) -> Fraction:
    """The Fraction of a rational (``_ratio``).  As the decode function of
    ``RATIONAL`` it is passed the document's memo, where each string that
    decodes is kept with its Fraction: a text repeated in one document builds
    one Fraction.  Only strings are kept, so a look-alike such as 1, true or
    1.0 never reads a string's entry."""
    if type(text) is str:
        value = memo.get(text)
        if value is not None:
            return value
        num, den = _ratio(text)
        value = memo[text] = fraction(num, den)
        return value
    num, den = _ratio(text)  # a JSON integer, a str subclass, or a refusal
    return fraction(num, den)


def parse_rational(text: Any, path: str) -> Fraction:
    try:
        return _rational(text, {})
    except _Reject as exc:
        raise ParseError(exc.reason, path) from None


Decoder = Callable[[Any, dict], Any]


class Codec(NamedTuple):
    """Converts one JSON value to its domain value and back.

    A decode function takes the JSON value and the memo of the document being
    parsed (see ``_rational``).  ``make_decoder`` returns it; it is called
    when the decoder of the enclosing record is built, so a nested record's
    decoder is built then too, never at import."""

    make_decoder: Callable[[], Decoder]
    encode: Callable[[Any], Any]


def _same(value: Any) -> Any:
    return value


def codec(decode: Decoder, encode: Callable[[Any], Any] = _same) -> Codec:
    """The codec of a decode function that needs nothing built first."""
    return Codec(lambda: decode, encode)


def _typed(
    kind: type, expected: str, minimum: Optional[int] = None, maximum: Optional[int] = None
) -> Decoder:
    """A decoder that passes a value of exactly type ``kind``, at least
    ``minimum`` and at most ``maximum`` if they are given.  Its ``accepts``
    attribute lets a generated record decoder make the same test inline,
    calling it only to refuse."""

    def decode(raw, memo):
        if type(raw) is not kind:
            raise _Reject(f"expected {expected}, got {raw!r}")
        if minimum is not None and raw < minimum:
            raise _Reject(f"expected {expected} >= {minimum}, got {raw}")
        if maximum is not None and raw > maximum:
            raise _Reject(f"expected {expected} <= {maximum}, got {raw}")
        return raw

    decode.accepts = (kind, minimum, maximum)
    return decode


def integer(minimum: Optional[int] = None, maximum: Optional[int] = None) -> Codec:
    return codec(_typed(int, "an integer", minimum, maximum))


def list_of(item: Codec) -> Codec:
    def make_decoder():
        decode_item = item.make_decoder()

        def decode(raw, memo):
            if not isinstance(raw, list):
                raise _Reject("expected a list")
            out = []
            try:
                for value in raw:
                    out.append(decode_item(value, memo))
            except _Reject as exc:
                exc.where.append(len(out))  # the index of the failing element
                raise
            return out

        return decode

    return Codec(make_decoder, lambda values: [item.encode(v) for v in values])


def map_of(item: Codec) -> Codec:
    """A JSON object with free keys, such as curve name -> coefficient."""

    def make_decoder():
        decode_item = item.make_decoder()

        def decode(raw, memo):
            if not isinstance(raw, dict):
                raise _Reject("expected an object")
            out = {}
            try:
                for key, value in raw.items():
                    out[key] = decode_item(value, memo)
            except _Reject as exc:
                exc.where.append(key)
                raise
            return out

        return decode

    return Codec(make_decoder, lambda values: {k: item.encode(v) for k, v in values.items()})


def record(spec: "Record") -> Codec:
    return Codec(lambda: spec.decoder, partial(encode, spec))


_string = _typed(str, "a string")
RATIONAL = codec(_rational, fmt_rational)
BOOL = codec(_typed(bool, "a boolean"))
STRING = codec(_string)


# A basis label's slot, independent of the surface: C0 at 0, F at 1 and
# E<k> at k + 1, their basis indices on a Hirzebruch surface, and L at -1.
# On P2, L has index 0 and E<k> index k, one below its slot.
_BASE_SLOTS = {"L": -1, "C0": 0, "F": 1}
_BASE_LABELS = {slot: label for label, slot in _BASE_SLOTS.items()}
_LABELS = object()  # the memo key of the document's label -> slot map


def _label_slot(label: Any) -> int:
    """The slot of a label in canonical spelling: ``L``, ``C0``, ``F``, or
    ``E`` and a number >= 1 without leading zeros."""
    slot = _BASE_SLOTS.get(label)
    if slot is not None:
        return slot
    if type(label) is str and label[:1] == "E":
        digits = label[1:]
        if digits.isascii() and digits.isdigit() and digits[0] != "0":
            try:
                return int(digits) + 1
            except ValueError:  # past sys.get_int_max_str_digits()
                pass
    raise _Reject(
        f"unknown basis label {label!r}: labels are L, C0, F and E1, E2, ... "
        "in canonical spelling",
        label,
    )


def _label_text(slot: int) -> str:
    return _BASE_LABELS.get(slot) or f"E{slot - 1}"


def _decode_class(raw: Any, memo: dict) -> Tuple[Any, Dict[int, int], int]:
    """A class decodes to its shape and the integer numerators and
    denominator that ``DivisorClass`` stores, converted by the surface's one
    rule (``_integer_form``); only the enclosing document knows the surface,
    which ``_lattice_class`` then checks the shape against.

    A sparse class, an object from basis label to rational, has as its shape
    its (slot, value) pairs in slot order (``_label_slot``), zero entries
    included, and its numerators are keyed by slot.  Each label is looked up
    in the document's label map, kept in the memo, so a label is read once
    per document, and each text in the memo of rationals.  A dense list,
    one rational per basis class, has its length as its shape; one loop
    decodes its entries other than "0", and a "0" entry builds no Fraction."""
    if isinstance(raw, dict):
        labels = memo.get(_LABELS)
        if labels is None:
            labels = memo[_LABELS] = {}
        pairs = []
        for label, text in raw.items():
            slot = labels.get(label)
            if slot is None:
                slot = labels[label] = _label_slot(label)
            value = memo.get(text) if type(text) is str else None
            if value is None:  # a text this document has not decoded yet
                try:
                    value = _rational(text, memo)
                except _Reject as exc:
                    exc.where.append(label)
                    raise
            pairs.append((slot, value))
        pairs.sort()  # the slots differ, as canonical labels do
        return (pairs, *_integer_form(pairs))
    if not isinstance(raw, list):
        raise _Reject("expected an object of basis labels or a list")
    values = {}
    for i, text in enumerate(raw):
        if text != "0":
            try:
                values[i] = _rational(text, memo)
            except _Reject as exc:
                exc.where.append(i)
                raise
    return (len(raw), *_integer_form(values.items()))


def _class_labels(cls: DivisorClass) -> Dict[str, str]:
    """The sparse form of a class: its basis label -> rational for each
    nonzero coefficient, formatted from the class's numerators."""
    label, d = cls.surface.label, cls.denominator
    return {label(i): fraction_text(v, d) for i, v in cls.numerators.items()}


CLASS = codec(_decode_class, _class_labels)

REQUIRED = object()  # default of a key that must be present
ABSENT = object()  # a key missing from a JSON object or a mapping of attributes


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
        # unpacked once, so that the decoder's builder and the encoder's
        # per-element loop do no attribute lookups; the last entry is the
        # value serializing leaves out
        plan = tuple(
            (f.key, f.attr or f.key, *f.codec, f.default, ABSENT if f.emit_default else f.default)
            for f in self.fields
        )
        object.__setattr__(self, "plan", plan)

    @cached
    def decoder(self) -> Decoder:
        """The decode function of this record, built on first use."""
        return _compile(self)


def _unknown_key(obj: dict, keys: FrozenSet[str]) -> _Reject:
    key = next(k for k in obj if k not in keys)
    return _Reject(f"unknown key {key!r}", key)


def _compile(spec: Record) -> Decoder:
    """The source of one decode function for ``spec``, compiled the way
    ``dataclasses`` writes ``__init__``: one block per field, in field order,
    so the first bad field is the one refused.  A block refuses a missing
    required key or takes an optional key's default, passes a value of the
    field's exact JSON type (``accepts``) as its own decoding, and decodes
    anything else, adding the key to a refusal's path.  A record built by
    ``dict`` returns a dict display; any other builder is called with
    keywords, and its DomainError or InconsistentScenario is refused at the
    object's path."""
    env: Dict[str, Any] = {
        "ABSENT": ABSENT,
        "BUILD_ERRORS": (DomainError, InconsistentScenario),
        "_Reject": _Reject,
        "_unknown_key": _unknown_key,
        "build": spec.build,
        "keys": spec.keys,
    }
    body: List[str] = []
    for i, (key, _, make_decoder, _, default, _) in enumerate(spec.plan):
        decode_field = env[f"decode{i}"] = make_decoder()
        body += [f"raw{i} = obj.get({key!r}, ABSENT)", f"if raw{i} is ABSENT:"]
        if default is REQUIRED:
            body.append(f"    raise _Reject({f'missing required key {key!r}'!r})")
        else:
            env[f"default{i}"] = default
            body.append(f"    v{i} = default{i}")
        accepts = getattr(decode_field, "accepts", None)
        if accepts is not None:  # a value that passes is its own decoding
            env[f"kind{i}"], minimum, maximum = accepts
            bound = "" if minimum is None else f" and raw{i} >= {minimum}"
            bound += "" if maximum is None else f" and raw{i} <= {maximum}"
            body += [f"elif type(raw{i}) is kind{i}{bound}:", f"    v{i} = raw{i}"]
        body += [
            "else:",
            "    try:",
            f"        v{i} = decode{i}(raw{i}, memo)",
            "    except _Reject as exc:",
            f"        exc.where.append({key!r})",
            "        raise",
        ]
    attrs = [attr for _, attr, *_ in spec.plan]
    if spec.build is dict:
        items = ", ".join(f"{attr!r}: v{i}" for i, attr in enumerate(attrs))
        body.append(f"return {{{items}}}")
    else:
        body.append(f"return build({', '.join(f'{attr}=v{i}' for i, attr in enumerate(attrs))})")
    source = "\n".join(
        [
            "def decode(obj, memo):",
            "    if type(obj) is not dict:",
            "        if not isinstance(obj, dict):",
            "            raise _Reject('expected an object')",
            "        obj = dict(obj)  # a plain dict: no subclass's own get is called",
            "    if not keys.issuperset(obj):",
            "        raise _unknown_key(obj, keys)",
            "    try:",
            *(f"        {line}" for line in body),
            "    except BUILD_ERRORS as exc:",
            "        raise _Reject(str(exc)) from None",
        ]
    )
    # the file name tells the decoders apart in tracebacks and profiles
    name = f"<decoder of {spec.build.__qualname__}: {spec.fields[0].key}>"
    exec(compile(source, name, "exec"), env)
    return env["decode"]


def decode(spec: Record, obj: Any) -> Any:
    """Decode the JSON object ``obj`` against ``spec``; malformed input
    raises :class:`ParseError` at its JSON path.  The memo the decoders
    share lives for this call only."""
    try:
        return spec.decoder(obj, {})
    except _Reject as exc:
        where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in reversed(exc.where))
        raise ParseError(exc.reason, "$" + where) from None


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


def _decode_eigenvalue(raw: Any, memo: dict) -> EigenvalueClass:
    """The class of a nonzero rational, decoded straight from the text's
    integers to its canonical representative (``canonical_ratio``), one
    Fraction.  The text is not memoized: a document's eigenvalues are
    mostly distinct."""
    if raw == "nonrational":
        return _NONRATIONAL
    num, den = _ratio(raw)
    if not num:
        raise _Reject("eigenvalue must be nonzero")
    return _trusted(EigenvalueClass, {"value": canonical_ratio(num, den)})


_NONRATIONAL = EigenvalueClass.nonrational()  # immutable: one instance serves all
EIGENVALUE = codec(
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


def _kind_decoder() -> Decoder:
    """A kind is told apart by its first key."""
    kinds = tuple((spec.fields[0].key, spec.decoder) for spec in _KINDS.values())
    refusal = "kind must declare " + " or ".join(repr(key) for key, _ in kinds)

    def decode(raw, memo):
        if isinstance(raw, dict):
            for key, decode_kind in kinds:
                if key in raw:
                    return decode_kind(raw, memo)
        raise _Reject(refusal)

    return decode


KIND = Codec(_kind_decoder, lambda kind: encode(_KINDS[type(kind)], kind))


def _decode_epsilon(raw: Any, memo: dict) -> int:
    if type(raw) is not int or raw not in (0, 1):
        raise _Reject("epsilon must be 0 or 1")
    return raw


# The base is "P2" or {"hirzebruch": e}; it decodes to e, or to None on the plane.
_HIRZEBRUCH = Record(dict, (Field("hirzebruch", integer(0), attr="e"),), attrs=dict)


def _base_decoder() -> Decoder:
    decode_hirzebruch = _HIRZEBRUCH.decoder

    def decode(raw, memo):
        if raw == P2:
            return None
        if isinstance(raw, dict):
            return decode_hirzebruch(raw, memo)["e"]
        raise _Reject(f"unknown base surface {raw!r}")

    return decode


BASE = Codec(_base_decoder, lambda e: P2 if e is None else encode(_HIRZEBRUCH, {"e": e}))
KODAIRA = codec(lambda raw, memo: None if _string(raw, memo) == "unknown" else raw)


def _build_surface(hirzebruch_e: Optional[int], blowups: int) -> SurfaceModel:
    e = hirzebruch_e
    return SurfaceModel.p2(blowups) if e is None else SurfaceModel.hirzebruch(e, blowups)


def _surface_attrs(s: SurfaceModel) -> Dict[str, Any]:
    return {"hirzebruch_e": None if s.base == P2 else s.hirzebruch_e, "blowups": s.blowups}


def _build_fibration(genus, k_f_sq, e_f, chi_f, singular_fibers) -> FibrationModel:
    fibers = []
    for k, attrs in enumerate(singular_fibers):
        # each node field was checked by the node decoder; no node check spans fields
        attrs["nodes"] = [_trusted(FiberNode, node) for node in attrs["nodes"]]
        try:
            fibers.append(FiberModel(genus_of_fibration=genus, **attrs))
        except DomainError as exc:
            raise _Reject(str(exc), "fibers", k) from None
    return FibrationModel(genus, k_f_sq, e_f, chi_f, tuple(fibers))


def _refuse_label(surface: SurfaceModel, pairs: List[Tuple[int, Any]], where: tuple) -> _Reject:
    """The refusal of a sparse class, given as its (slot, value) pairs in
    slot order, with a label that names no basis class of ``surface``: the
    first label of the other base, or else the highest label, which is past
    the blow-ups."""
    slots = [slot for slot, _ in pairs]
    if surface.base == P2:
        bad = next((slot for slot in slots if 0 <= slot <= 1), None)
        names = "P2"
    else:
        bad = slots[0] if slots[0] < 0 else None
        names = "a Hirzebruch surface"
    if bad is not None:
        label = _label_text(bad)
        return _Reject(f"basis label {label!r} names no class of {names}", *where, label)
    label = _label_text(slots[-1])
    return _Reject(
        f"basis label {label!r} is past the surface's {surface.blowups} blow-ups", *where, label
    )


def _lattice_class(surface: SurfaceModel, decoded, *where) -> DivisorClass:
    """The class of a decoded class, whose numerators and denominator
    ``_decode_class`` wrote in stored form, once its shape fits the surface:
    a dense list's length is the rank, and a sparse class's labels name basis
    classes.  A sparse class's slots are its Hirzebruch indices; on P2 its
    numerators are keyed anew, L at 0 and E<k> at k."""
    shape, numerators, denominator = decoded
    if type(shape) is int:
        try:
            surface.check_length(shape)
        except ShapeError as exc:
            raise _Reject(str(exc), *where) from None
    elif shape:  # (slot, value) pairs in slot order
        low, high = shape[0][0], shape[-1][0]
        if surface.base == P2:
            if high > surface.blowups + 1 or any(0 <= slot <= 1 for slot, _ in shape):
                raise _refuse_label(surface, shape, where)
            numerators = {max(slot - 1, 0): n for slot, n in numerators.items()}
        elif low < 0 or high > surface.blowups + 1:
            raise _refuse_label(surface, shape, where)
    return DivisorClass.trusted(surface, numerators, denominator)


def _build_scenario(name, surface, k_foliation, curves, singularities, metadata):
    """The scenario of a document with a surface, once every class has the
    surface rank.  Its constructor refuses a repeated curve name, a repeated
    singularity id or an undeclared curve, at the offender's path."""
    for key, value in (("k_foliation", k_foliation), ("metadata", metadata)):
        if value is None:
            raise _Reject(f"missing required key {key!r} for a surface scenario")
    k_foliation = _lattice_class(surface, k_foliation, "k_foliation")
    records = []
    for k, attrs in enumerate(curves):
        attrs["cls"] = _lattice_class(surface, attrs["cls"], "curves", k, "class")
        records.append(_trusted(CurveRecord, attrs))
    try:
        return FoliatedScenario(name, surface, k_foliation, records, singularities, metadata)
    except ScenarioRefused as exc:
        raise _Reject(str(exc), *exc.where) from None


@dataclass(frozen=True)
class ScenarioDocument:
    """A parsed document: its name, its scenario and fibration (either may be
    absent), and the ``expect`` block its report is compared with."""

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

# The most blow-ups a document may declare.  A sparse class's size does not
# follow the rank, and K_S has a term per basis class, so this bounds the
# work and memory of a document that declares a huge tower.
MAX_BLOWUPS = 10_000

SURFACE = Record(
    _build_surface,
    (
        Field("base", BASE, attr="hirzebruch_e"),
        Field("blowups", integer(0, MAX_BLOWUPS), default=0, emit_default=True),
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
    SingularityRecord.trusted,
    (
        Field("id", STRING),
        Field("kind", KIND),
        Field("vanishing_order", integer(1), default=1),
        Field("on_curves", list_of(STRING), default=(), attr="incident_curves"),
        Field("epsilon", codec(_decode_epsilon), default=None),
        Field("count", integer(1), default=1),
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
    dict, (Field("a", integer(1)), Field("b", integer(1)), Field("in_negative_part", BOOL))
)
FIBER = Record(
    dict,
    (
        Field("pa_reduced", integer(0)),
        Field("f_red_sq", integer()),
        Field("alpha", integer(), default=0, emit_default=True),
        Field("nodes", list_of(record(FIBER_NODE))),
        Field("count", integer(1), default=1),
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


def _given(**values):
    """The keys of an ``expect`` block that it gives: no codec decodes null,
    so a value None is a key the block leaves out."""
    return {k: v for k, v in values.items() if v is not None}


# Each ``expect`` key in comparison order: its codec, and the report value
# it is compared with (an ``InvariantReport`` section that was not computed
# reads None, or an empty list or map).
EXPECTATIONS: Tuple[Tuple[str, Codec, Callable[[Any], Any]], ...] = (
    ("c1_sq", RATIONAL, lambda r: r.chern and r.chern.c1_sq),
    ("c2", RATIONAL, lambda r: r.chern and r.chern.c2),
    ("chi", RATIONAL, lambda r: r.chern and r.chern.chi),
    ("vol", RATIONAL, lambda r: r.vol),
    ("slope", RATIONAL, lambda r: r.slope_value),
    ("p_g", integer(), lambda r: r.p_g),
    ("verdict", STRING, lambda r: r.verdict and r.verdict.status),
    ("genus_bound", integer(), lambda r: r.verdict and r.verdict.genus_bound),
    (
        "fired_rules",
        list_of(STRING),
        lambda r: [x.rule_id for x in r.verdict.fired_rules] if r.verdict else [],
    ),
    ("singularity_count", integer(), lambda r: r.singularity_count),
    (
        "negative_part",
        map_of(RATIONAL),
        lambda r: dict(r.decomposition.negative_part) if r.decomposition else {},
    ),
    ("modular", record(MODULAR), lambda r: r.modular and dict(zip(MODULAR_KEYS, r.modular))),
    ("noether_equality", STRING, lambda r: ",".join(r.bound_equalities) or None),
)
EXPECT = Record(_given, tuple(Field(k, c, default=None) for k, c, _ in EXPECTATIONS), attrs=dict)
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


def parse_document_dict(data: Any) -> ScenarioDocument:
    return decode(DOCUMENT, data)


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
    return write_json(document_to_dict(doc)) + "\n"
