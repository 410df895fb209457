"""Span tracing of the folsurf pipeline, done from outside the package.

The tracer replaces the names through which the pipeline and the benchmark
reach each layer with timing wrappers: the functions ``scenario_io`` imports
(used by ``run_pipeline``), ``beta_p``/``chi_p`` as ``chern`` imports them,
a few class attributes (lattice construction and report rendering), and the
benchmark's own call table.  Nothing inside ``src/`` changes; uninstalling
puts every original back.

Spans are kept in memory as columns (name, parent, start, end) and written
once when the run ends.  A span's self time is its duration minus the
durations of its direct children; spans nest properly because the benchmark
runs one operation at a time on one thread.  All self times of one
operation are scaled by the host-speed factor of that operation (see
``calibration.py``).
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

ROOT_SPAN = "bench.op"

# Per-layer time metrics: metric name -> the span names whose self time it sums.
TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "scenario_io.parse_ms": ("scenario_io.parse",),
    "scenario_io.render_ms": ("scenario_io.render",),
    "scenario_io.pipeline_self_ms": ("scenario_io.pipeline",),
    "foliation.validate_ms": ("foliation.validate",),
    "zariski.decompose_ms": ("zariski.decompose",),
    "zariski.chains_ms": ("zariski.chains",),
    "zariski.closed_form_ms": ("zariski.closed_form",),
    "chern.numbers_ms": ("chern.numbers",),
    "chern.decide_ms": ("chern.decide",),
    "local_invariants.beta_ms": ("local_invariants.beta",),
    "local_invariants.chi_ms": ("local_invariants.chi",),
    "surface.build_ms": ("surface.build",),
    "surface.h0_ms": ("surface.h0",),
    "surface.intersect_ms": ("surface.intersect",),
    "fibration.modular_ms": ("fibration.modular",),
    "fibration.checks_ms": ("fibration.checks",),
}

LAYERS = (
    "scenario_io",
    "foliation",
    "zariski",
    "chern",
    "local_invariants",
    "surface",
    "fibration",
)

# Work counts read from the outputs (or inputs) of wrapped calls.
WORK_COUNTS = (
    "zariski.curves",
    "zariski.support",
    "zariski.chains_found",
    "foliation.checks",
    "local_invariants.singularities",
)

SPAN_NAMES: Tuple[str, ...] = (ROOT_SPAN,) + tuple(
    span for spans in TIME_METRICS.values() for span in spans
)


def _observe_decompose(args, result, work):
    work["zariski.curves"] += len(args[0].curves)
    work["zariski.support"] += len(result.negative_part)


def _observe_chains(args, result, work):
    work["zariski.chains_found"] += len(result[0])


def _observe_validate(args, result, work):
    work["foliation.checks"] += len(result.checks)


def _observe_beta(args, result, work):
    work["local_invariants.singularities"] += 1


OBSERVERS: Dict[str, Callable] = {
    "zariski.decompose": _observe_decompose,
    "zariski.chains": _observe_chains,
    "foliation.validate": _observe_validate,
    "local_invariants.beta": _observe_beta,
}

# Names the pipeline reaches inside the package: (module, attribute, span).
MODULE_TARGETS = (
    ("scenario_io", "validate", "foliation.validate"),
    ("scenario_io", "zariski_decompose", "zariski.decompose"),
    ("scenario_io", "detect_chains_with_flags", "zariski.chains"),
    ("scenario_io", "chern_numbers", "chern.numbers"),
    ("scenario_io", "decide", "chern.decide"),
    ("scenario_io", "h0_line_bundle", "surface.h0"),
    ("scenario_io", "intersect", "surface.intersect"),
    ("scenario_io", "modular_invariants", "fibration.modular"),
    ("scenario_io", "crosscheck_with_chern", "fibration.checks"),
    ("scenario_io", "slope_inequality_check", "fibration.checks"),
    ("chern", "beta_p", "local_invariants.beta"),
    ("chern", "chi_p", "local_invariants.chi"),
)

# Class attributes: (module, class, attribute, span).  Class methods are
# rewrapped as class methods.
CLASS_TARGETS = (
    ("scenario_io", "InvariantReport", "to_json", "scenario_io.render"),
    ("surface", "SurfaceModel", "p2", "surface.build"),
    ("surface", "SurfaceModel", "hirzebruch", "surface.build"),
    ("surface", "SurfaceModel", "divisor", "surface.build"),
)

# The benchmark's own call table (see ``workloads.make_api``): attribute -> span.
API_TARGETS = {
    "parse_scenario": "scenario_io.parse",
    "run_pipeline": "scenario_io.pipeline",
    "zariski_decompose": "zariski.decompose",
    "chain_coefficients": "zariski.closed_form",
    "chain_eigenvalues": "zariski.closed_form",
    "chain_xi_sequence": "zariski.closed_form",
    "chain_mu_sequence": "zariski.closed_form",
    "chain_negative_square": "zariski.closed_form",
    "coefficient_bounds_check": "zariski.closed_form",
    "beta_p": "local_invariants.beta",
    "intersect": "surface.intersect",
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, pkg, api, layer_errors: tuple):
        self._pkg = pkg
        self._api = api
        self._layer_errors = layer_errors
        self._name_ids = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.names = array("B")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: List[int] = [-1]
        self.errors = {layer: 0 for layer in LAYERS}
        self.work = {name: 0 for name in WORK_COUNTS}
        self.ops = 0
        self._op_idx = -1
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(perf_counter_ns())
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def begin_op(self) -> None:
        self._op_idx = self._open(self._name_ids[ROOT_SPAN])

    def end_op(self) -> None:
        self._close(self._op_idx)
        self.ops += 1

    def _wrap(self, func: Callable, span: str) -> Callable:
        name_id = self._name_ids[span]
        layer = span.split(".", 1)[0]
        observe = OBSERVERS.get(span)
        errors = self.errors
        work = self.work
        counted = self._layer_errors
        opened = self._open
        closed = self._close

        def traced(*args, **kwargs):
            idx = opened(name_id)
            try:
                result = func(*args, **kwargs)
            except counted:
                errors[layer] += 1
                raise
            finally:
                closed(idx)
            if observe is not None:
                observe(args, result, work)
            return result

        traced.__wrapped__ = func
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for module, attr, span in MODULE_TARGETS:
            owner = getattr(self._pkg, module)
            self._replace(owner, attr, self._wrap(getattr(owner, attr), span))
        for module, cls_name, attr, span in CLASS_TARGETS:
            owner = getattr(getattr(self._pkg, module), cls_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, span))
            else:
                wrapped = self._wrap(original, span)
            self._replace(owner, attr, wrapped)
        for attr, span in API_TARGETS.items():
            self._replace(self._api, attr, self._wrap(getattr(self._api, attr), span))

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self, scale: Callable[[int, int], float]) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self time (ns, scaled) and span count per span name.

        ``scale(start_ns, end_ns)`` of each operation's root span gives the
        factor applied to every span of that operation."""
        n = len(self.names)
        child = [0] * n
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        for i in range(n - 1, -1, -1):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_ns = {name: 0.0 for name in SPAN_NAMES}
        calls = {name: 0 for name in SPAN_NAMES}
        factor = 1.0
        for i in range(n):
            if parents[i] < 0:
                factor = scale(starts[i], ends[i])
            name = SPAN_NAMES[names[i]]
            self_ns[name] += (ends[i] - starts[i] - child[i]) * factor
            calls[name] += 1
        return self_ns, calls

    def per_layer_metrics(self, scale: Callable[[int, int], float]) -> Dict[str, float]:
        """Per-operation figures over every traced operation."""
        ops = max(self.ops, 1)
        self_ns, calls = self.self_times(scale)
        out: Dict[str, float] = {}
        for metric, spans in TIME_METRICS.items():
            out[metric] = sum(self_ns[s] for s in spans) / ops / 1e6
        for layer in LAYERS:
            out[f"{layer}.calls"] = (
                sum(c for name, c in calls.items() if name.startswith(layer + ".")) / ops
            )
            out[f"{layer}.errors"] = self.errors[layer] / ops
        for name in WORK_COUNTS:
            out[name] = self.work[name] / ops
        out["bench.self_ms"] = self_ns[ROOT_SPAN] / ops / 1e6
        out["bench.traced_op_ms"] = sum(self_ns.values()) / ops / 1e6
        return out

    def write(self, directory: Path, stem: str, meta: dict) -> Path:
        """Write every span once: a JSON header and a binary column file."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {"name_id": self.names, "parent": self.parents,
                   "start_ns": self.starts, "end_ns": self.ends}
        data_path = directory / f"{stem}.bin"
        with open(data_path, "wb") as fh:
            for column in columns.values():
                column.tofile(fh)
        header = {
            "span_names": list(SPAN_NAMES),
            "spans": len(self.names),
            "data": data_path.name,
            "columns": [
                {"name": name, "typecode": col.typecode, "itemsize": col.itemsize}
                for name, col in columns.items()
            ],
            "meta": meta,
        }
        header_path = directory / f"{stem}.json"
        header_path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")
        return header_path
