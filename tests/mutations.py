"""A seeded differential harness: mutated and hostile scenario documents.

Every bundled document and a few members of each parametric family are
mutated, each in the form its builder writes (sparse classes, counted
fibers) and in the dense form (``conftest.dense_form``), one change per
document, by a fixed-seed generator:

- a rational string replaced by another rational or by a malformed value;
- an integer replaced by a neighbour, a boundary value or a look-alike;
- a key deleted from an object, or an item deleted from a list;
- a basis label of a sparse class renamed, to another label of the surface
  or to one it lacks, such as ``E0``, ``E07``, ``e1`` or one past the rank;
- a singularity's ``on_curves`` re-linked to other curves, or to none;
- a singularity given a new kind;
- a fiber node given new branch multiplicities.

A few hostile shapes follow: deep nesting, a literal past the int-to-str
digit limit, bytes that are not UTF-8, an enormous blow-up count in the
dense and in the sparse form, and one singularity entry standing for 10**9
points.  The outcome of a document is
the path and reason of its ``ParseError``, or the JSON report
``run_pipeline(...).to_json()``.  ``digest`` is one sha256 over
the outcomes in order, and refuses any document whose parse and pipeline
take over ``DOCUMENT_SECONDS``.  ``validation_digest`` is one sha256 over
the ``validate`` rows of each mutated document that parses to a scenario,
residuals included, which the JSON report leaves out.
``tests/golden/outputs.json`` pins both (``tests/test_golden_outputs.py``).
``memory_peaks`` traces the allocations of each source document's and
hostile input's outcome and refuses one whose peak passes
``DOCUMENT_BYTES``.

Run ``PYTHONPATH=src python tests/mutations.py`` to print both digests and
their document counts, and the largest memory peak, or
``PYTHONPATH=src python tests/mutations.py OUT`` to write each outcome to
the file OUT, one JSON line per document (``write_outcomes``): ``diff``
between the files of two checkouts names each changed document.
"""

import hashlib
import json
import random
import re
import sys
import time
import tracemalloc
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Tuple

from conftest import dense_form
from folsurf.document import parse_document_dict, parse_scenario
from folsurf.errors import DomainError, InconsistentScenario, ParseError
from folsurf.fixtures import (
    bundled_documents,
    first_noether_ruled,
    second_noether_ruled,
    third_noether_double_cover,
)
from folsurf.foliation import FoliatedScenario, validate
from folsurf.scenario_io import run_pipeline

SEED = 20261019
MUTATIONS_PER_DOCUMENT = 300
# the bound on one document's parse and pipeline; the whole set of about
# 7 200 takes a few seconds
DOCUMENT_SECONDS = 2.0
# the bound on the memory one source or hostile document's parse and
# pipeline hold at their peak; the largest peak is about 0.6 MB, and a path
# that allocated per basis class of ``"blowups": 10**9`` would pass it
DOCUMENT_BYTES = 16 * 2**20

Path = Tuple[Any, ...]

_RATIONAL_TEXT = re.compile(r"-?\d+(/\d+)?")

# malformed or look-alike stand-ins for a rational string
BAD_RATIONALS = (
    "1/0", "-0/3", "+1", "1.5", " 1", "1 ", "x", "", "1/", "/2", "--1", "1/-2", "١",
    "1_0", 1, 0, -3, True, None, 1.5, [], {},
)
# stand-ins for an integer, beside its neighbours
BAD_INTEGERS = (-1, 0, 1, 2, 3, 10**9, True, False, "1", 1.0, None, [1])


def sources() -> List[Dict[str, Any]]:
    """The documents that are mutated: the bundled ones and family members,
    all in the dense form first, then each as its builder writes it.  The
    dense forms are the documents as they were written before sparse
    classes and counted fibers, so their mutations come first, as before."""
    docs = list(bundled_documents().values())
    docs += [third_noether_double_cover(g) for g in (2, 4, 6)]
    docs += [second_noether_ruled(n) for n in (2, 3, 7)]
    docs += [first_noether_ruled(n) for n in (1, 2, 5)]
    return [dense_form(doc) for doc in docs] + docs


def _walk(value: Any, path: Path = ()) -> Iterator[Tuple[Path, Any]]:
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _walk(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _walk(item, path + (i,))


def _at(doc: Any, path: Path) -> Any:
    for step in path:
        doc = doc[step]
    return doc


def _set(doc: Any, path: Path, value: Any) -> None:
    _at(doc, path[:-1])[path[-1]] = value


def _rational(rng: random.Random) -> Any:
    if rng.random() < 0.4:
        return rng.choice(BAD_RATIONALS)
    num, den = rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 5))
    return str(num) if den == 1 else f"{num}/{den}"


def _integer(rng: random.Random, value: int) -> Any:
    if rng.random() < 0.5:
        return value + rng.choice((-1, 1))
    return rng.choice(BAD_INTEGERS)


def _new_kind(rng: random.Random) -> Any:
    return rng.choice(
        (
            lambda: {"eigenvalue": _rational(rng)},
            lambda: {"eigenvalue": "nonrational"},
            lambda: {"saddle_node": _integer(rng, 2)},
            lambda: {"saddle_node": rng.randint(2, 4), "bb": _rational(rng)},
            lambda: {"saddle_node": 2, "eigenvalue": "1"},
            lambda: {"eigenvalue": "-1", "extra": 1},
            lambda: {},
            lambda: "nonrational",
        )
    )()


class _Shape:
    """The paths of one source document, grouped by what a mutation takes."""

    def __init__(self, doc: Dict[str, Any]) -> None:
        items = list(_walk(doc))
        self.rationals = [
            p for p, v in items if isinstance(v, str) and _RATIONAL_TEXT.fullmatch(v)
        ]
        self.integers = [p for p, v in items if type(v) is int]
        self.objects = [p for p, v in items if isinstance(v, dict) and v]
        self.lists = [p for p, v in items if isinstance(v, list) and v]
        sings = doc.get("singularities", ())
        self.singularities = [("singularities", i) for i in range(len(sings))]
        self.curves = [c["name"] for c in doc.get("curves", ())]
        # each sparse class: ("k_foliation",) or ("curves", k, "class")
        self.classes = [p for p, v in items if p[-1:] in (("k_foliation",), ("class",))
                        and isinstance(v, dict) and v]
        surface = doc.get("surface") or {}
        self.base_labels = ["L"] if surface.get("base") == "P2" else ["C0", "F"]
        self.blowups = surface.get("blowups", 0)
        # ("fibration", "fibers", k, "nodes", j)
        self.nodes = [p for p, _ in items if len(p) == 5 and p[3] == "nodes"]


def _mutators(shape: _Shape) -> List[Tuple[List[Path], Callable[..., None]]]:
    """(the paths a mutation picks from, the mutation) for each kind of
    mutation, in a fixed order."""

    def rational(doc, path, rng):
        _set(doc, path, _rational(rng))

    def integer(doc, path, rng):
        _set(doc, path, _integer(rng, _at(doc, path)))

    def delete_key(doc, path, rng):
        obj = _at(doc, path)
        del obj[rng.choice(sorted(obj))]

    def delete_item(doc, path, rng):
        del _at(doc, path)[rng.randrange(len(_at(doc, path)))]

    def relink(doc, path, rng):
        sing = _at(doc, path)
        names = shape.curves + ["undeclared"]
        sing["on_curves"] = rng.sample(names, rng.randint(0, min(3, len(names))))
        if sing["on_curves"] and rng.random() < 0.2:
            sing["on_curves"].append(sing["on_curves"][0])

    def new_kind(doc, path, rng):
        _at(doc, path)["kind"] = _new_kind(rng)

    def relabel(doc, path, rng):
        cls = _at(doc, path)
        old = rng.choice(sorted(cls))
        top = shape.blowups
        new = rng.choice((
            *shape.base_labels, f"E{rng.randint(1, top)}" if top else "E1", f"E{top + 1}",
            "L" if shape.base_labels != ["L"] else "C0", "E0", "E07", "e1", "F1", "",
        ))
        cls[new] = cls.pop(old)

    def node(doc, path, rng):
        obj = _at(doc, path)
        key = rng.choice(("a", "b"))
        obj[key] = rng.choice((rng.randint(1, 9), obj[key] + 1, *BAD_INTEGERS))

    return [
        (shape.rationals, rational),
        (shape.integers, integer),
        (shape.objects, delete_key),
        (shape.lists, delete_item),
        (shape.singularities, relink),
        (shape.singularities, new_kind),
        (shape.classes, relabel),
        (shape.nodes, node),
    ]


def mutated_documents(seed: int = SEED) -> Iterator[Dict[str, Any]]:
    """``MUTATIONS_PER_DOCUMENT`` mutated copies of each source, each with
    one change; a kind of mutation with nothing to act on is passed over."""
    rng = random.Random(seed)
    for source in sources():
        text = json.dumps(source)
        mutators = [(paths, m) for paths, m in _mutators(_Shape(source)) if paths]
        for k in range(MUTATIONS_PER_DOCUMENT):
            paths, mutate = mutators[k % len(mutators)]
            doc = json.loads(text)
            mutate(doc, rng.choice(paths), rng)
            yield doc


def hostile_inputs() -> List[Any]:
    """Texts, bytes and objects that a parser must refuse in bounded time."""
    huge = dense_form(third_noether_double_cover(2))
    huge["surface"]["blowups"] = 10**9
    # the sparse form: no class length bounds the rank
    sparse = third_noether_double_cover(2)
    sparse["surface"]["blowups"] = 10**9
    # one record standing for 10**9 points: a path that expanded it would
    # pass both bounds
    crowded = second_noether_ruled(2)
    del crowded["expect"]
    next(s for s in crowded["singularities"] if "count" in s)["count"] = 10**9
    return [
        "[" * 100_000 + "]" * 100_000,
        '{"name": "long", "surface": {"base": "P2", "blowups": ' + "9" * 4301 + "}}",
        b'{"name": "\xff\xfe"}',
        json.dumps(huge),
        huge,
        sparse,
        crowded,
    ]


def outcome(document: Any) -> str:
    """The ParseError path and reason of a document, or its JSON report."""
    try:
        if isinstance(document, dict):
            doc = parse_document_dict(document)
        else:
            doc = parse_scenario(document)
    except ParseError as exc:
        return f"ParseError {exc.path} {exc.reason}"
    return run_pipeline(doc).to_json()


class SlowDocument(Exception):
    """A document whose parse and pipeline took over ``DOCUMENT_SECONDS``."""


def outcomes(seed: int = SEED) -> Iterator[Tuple[int, str]]:
    """Each mutated and hostile document's position and outcome, in order.
    Each document is timed, and one over ``DOCUMENT_SECONDS`` raises
    SlowDocument."""
    for i, document in enumerate(chain(mutated_documents(seed), hostile_inputs())):
        start = time.perf_counter()
        result = outcome(document)
        seconds = time.perf_counter() - start
        if seconds > DOCUMENT_SECONDS:
            raise SlowDocument(f"document {i} took {seconds:.2f} s, over {DOCUMENT_SECONDS} s")
        yield i, result


def digest(seed: int = SEED, check: Callable[[str], None] = lambda result: None) -> Dict[str, Any]:
    """The pinned form of the outcomes: their count and one sha256.
    ``check`` sees each outcome as it is hashed."""
    h = hashlib.sha256()
    count = 0
    for i, result in outcomes(seed):
        check(result)
        h.update(f"{i}\t{result}\n".encode("utf-8"))
        count += 1
    return {"documents": count, "sha256": h.hexdigest()}


def write_outcomes(path: str, seed: int = SEED) -> None:
    """Each outcome as one JSON line, ``{"document": i, "outcome": ...}``, so
    that ``diff`` between the files of two checkouts names each document
    whose outcome differs, which the sha256 alone does not."""
    with open(path, "w", encoding="utf-8") as out:
        for i, result in outcomes(seed):
            out.write(json.dumps({"document": i, "outcome": result}) + "\n")


class LargeDocument(Exception):
    """A document whose parse and pipeline held over ``DOCUMENT_BYTES``."""


def memory_peaks() -> List[int]:
    """The peak bytes that each source document's and hostile input's
    outcome allocates (``tracemalloc``), in order; one over
    ``DOCUMENT_BYTES`` raises LargeDocument.  The mutated documents are left
    out: traced, they take about five times as long."""
    peaks = []
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for i, document in enumerate(chain(sources(), hostile_inputs())):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            outcome(document)
            peak = tracemalloc.get_traced_memory()[1] - before
            if peak > DOCUMENT_BYTES:
                raise LargeDocument(f"document {i} held {peak} bytes, over {DOCUMENT_BYTES}")
            peaks.append(peak)
    finally:
        if not tracing:
            tracemalloc.stop()
    return peaks


def parsed_scenarios(seed: int = SEED) -> Iterator[Tuple[int, FoliatedScenario]]:
    """The position and scenario of each mutated document that parses to one."""
    for i, document in enumerate(mutated_documents(seed)):
        try:
            scenario = parse_document_dict(document).scenario
        except ParseError:
            continue
        if scenario is not None:
            yield i, scenario


def validation_rows(scenario: FoliatedScenario) -> str:
    """Each ``validate`` check as name, status, detail and residual, one line
    each, or the error that ``validate`` raised."""
    try:
        checks = validate(scenario).checks
    except (DomainError, InconsistentScenario) as exc:
        return f"{type(exc).__name__} {exc}"
    return "\n".join(f"{c.name}\t{c.status}\t{c.detail}\t{c.residual}" for c in checks)


def validation_digest(seed: int = SEED) -> Dict[str, Any]:
    """The count of mutated documents that parse to a scenario, and one
    sha256 over their ``validation_rows``, each under its position."""
    h = hashlib.sha256()
    count = 0
    for i, scenario in parsed_scenarios(seed):
        h.update(f"{i}\t{validation_rows(scenario)}\n".encode("utf-8"))
        count += 1
    return {"documents": count, "sha256": h.hexdigest()}


if __name__ == "__main__":
    if len(sys.argv) > 1:
        write_outcomes(sys.argv[1])
        sys.exit()
    print(json.dumps({
        "outcomes": digest(),
        "validation": validation_digest(),
        "largest_memory_peak": max(memory_peaks()),
    }, indent=1))
