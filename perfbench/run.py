"""Benchmark of the folsurf invariant pipeline.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) in this process, on one thread, as
a closed loop with one caller: the next operation starts when the previous
one has finished and been checked against its oracle.  The loop runs whole
decks of inputs until ``--seconds`` have passed and at least ``MIN_OPS``
operations are done.

Times are calibrated for the host's speed (see ``calibration.py``); the raw
wall-clock figures are printed on the ``run`` line.  With ``--trace 0`` it
reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced decks and reports the per-layer metrics
(self time, calls, errors and work counts per operation) plus the tracing
overhead; the spans are written to ``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory and nowhere else; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from calibration import Calibration  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_api  # noqa: E402

SETUP_REPEATS = 5
WARMUP_ITEMS = 2
# p90 needs at least ten samples beyond it.
MIN_OPS = 110
MODULES = (
    "chern", "errors", "fibration", "fixtures", "foliation",
    "local_invariants", "scenario_io", "surface", "zariski",
)


class SetupError(Exception):
    pass


def load_package() -> SimpleNamespace:
    """Import folsurf afresh from ``src/`` next to the benchmark."""
    if not (SRC / "folsurf" / "__init__.py").is_file():
        raise SetupError(f"no folsurf sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "folsurf" or m.startswith("folsurf.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("folsurf")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"folsurf was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"folsurf.{m}") for m in MODULES})


def set_up(workload, seed: int, deck_limit=None):
    """Import, input generation and warm-up; returns (pkg, api, deck)."""
    pkg = load_package()
    api = make_api(pkg)
    deck = workload.items(pkg, random.Random(seed))
    if deck_limit is not None:
        deck = deck[:deck_limit]
    for item in deck[:WARMUP_ITEMS]:
        workload.check(item, workload.op(pkg, api, item))
    return pkg, api, deck


def provenance(seed: int, workload: str) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "folsurf").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            src_hash.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": src_hash.hexdigest(),
    }


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(workload, pkg, api, deck, seed: int, seconds: float, cal: Calibration,
            tracer=None, min_ops=MIN_OPS):
    """The closed loop.  Returns the (start, end) times of untraced and
    traced operations, failure messages, and the per-input output hashes.
    Calibration samples are taken between operations."""
    rng = random.Random(seed ^ 0x5EED)
    reference = {}
    failures = []
    failed = 0
    plain, traced = [], []
    decks = 0
    deadline = time.perf_counter() + seconds
    cal.maybe_sample()
    while True:
        tracing = tracer is not None and decks % 2 == 1
        if tracing:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        order = list(deck)
        rng.shuffle(order)
        for item in order:
            problems = []
            if tracing:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                outputs = workload.op(pkg, api, item)
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs = None
                problems = [f"{type(exc).__name__}: {exc}"]
            t1 = time.perf_counter()
            if tracing:
                tracer.end_op()
            (traced if tracing else plain).append((t0, t1))
            if outputs is not None:
                problems = workload.check(item, outputs)
                for key, data in workload.output_bytes(outputs).items():
                    h = hashlib.sha256(data).hexdigest()
                    if reference.setdefault(key, h) != h:
                        problems.append(f"{key}: output differs from the first pass")
            if problems:
                failed += 1
                failures.extend(problems)
            cal.maybe_sample()
        decks += 1
        done = len(plain) + len(traced)
        if time.perf_counter() >= deadline and done >= min_ops:
            if tracer is None or decks % 2 == 0:
                break
    if tracer is not None:
        tracer.uninstall()
    return SimpleNamespace(
        plain=plain, traced=traced, failed=failed, failures=failures,
        reference=reference, decks=decks,
    )


def digest(reference: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(reference):
        h.update(f"{key}\0{reference[key]}\n".encode())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, min_ops=MIN_OPS,
                 deck_limit=None, setup_repeats=SETUP_REPEATS, trace_dir=OUT) -> dict:
    workload = WORKLOADS[name]()
    cal = Calibration()
    setup_spans = []
    for _ in range(setup_repeats):
        for _ in range(3):
            cal.sample()
        t0 = time.perf_counter()
        pkg, api, deck = set_up(workload, seed, deck_limit)
        setup_spans.append((t0, time.perf_counter()))
    tracer = None
    if trace:
        tracer = Tracer(pkg, api, (pkg.errors.InconsistentScenario, pkg.errors.DomainError))
    res = measure(workload, pkg, api, deck, seed, seconds, cal, tracer, min_ops)
    for _ in range(3):
        cal.sample()
    attempted = len(res.plain) + len(res.traced)
    plain = sorted(cal.calibrated(a, b) for a, b in res.plain)
    raw = sorted(b - a for a, b in res.plain)
    info = {
        "provenance": provenance(seed, name),
        "digest": digest(res.reference),
        "inputs": len(res.reference),
        "decks": res.decks,
        "failed_frac": res.failed / attempted,
        "failures": res.failures[:20],
    }
    if trace:
        metrics = tracer.per_layer_metrics(lambda s, e: cal.factor(s / 1e9, e / 1e9))
        untraced_ms = 1e3 * statistics.fmean(plain)
        traced_ms = 1e3 * statistics.fmean(cal.calibrated(a, b) for a, b in res.traced)
        metrics["trace_overhead_frac"] = traced_ms / untraced_ms - 1
        info["untraced_op_ms"] = untraced_ms
        info["traced_op_ms"] = traced_ms
        info["traced_ops"] = len(res.traced)
        path = tracer.write(trace_dir, f"trace-{name}", info["provenance"])
        info["spans"] = path.relative_to(ROOT).as_posix() if path.is_relative_to(ROOT) else str(path)
    else:
        metrics = {
            "setup_s": statistics.median(cal.calibrated(a, b) for a, b in setup_spans),
            "ops_per_s": len(plain) / math.fsum(plain),
            "op_ms_p50": 1e3 * percentile(plain, 0.50),
            "op_ms_p90": 1e3 * percentile(plain, 0.90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info["samples"] = len(plain)
        info["samples_beyond_p90"] = len(plain) - math.ceil(0.9 * len(plain))
        info["raw_wall_clock"] = {
            "setup_s": statistics.median(b - a for a, b in setup_spans),
            "ops_per_s": len(raw) / math.fsum(raw),
            "op_ms_p50": 1e3 * percentile(raw, 0.50),
            "op_ms_p90": 1e3 * percentile(raw, 0.90),
        }
    info["calibration_ms_median"] = 1e3 * statistics.median(cal.durations)
    info["calibration_samples"] = len(cal.durations)
    return {
        "correct": res.failed == 0,
        "attempted": attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "info": info,
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "trace_overhead_frac": "frac"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric) or ("ms" if metric.endswith("_ms") or "_ms_" in metric else "1/op")


def print_layer_table(metrics: dict) -> None:
    print(f"{'per-layer metric (per operation)':<40}{'value':>14}")
    for key, m in metrics.items():
        print(f"{key:<40}{m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    info = result.pop("info")
    print("provenance " + json.dumps(info.pop("provenance"), sort_keys=True))
    for failure in info.pop("failures"):
        print(f"failure: {failure}", file=sys.stderr)
    print("run " + json.dumps(info, sort_keys=True))
    if args.trace:
        print_layer_table(result["metrics"])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
