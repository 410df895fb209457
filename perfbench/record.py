"""Run the benchmark over several seeds and record the results.

    python3 perfbench/record.py --label baseline --seeds 1-10
    python3 perfbench/record.py --label traced --seeds 1 --trace 1

Each run is ``run.py`` in its own process, one after another, with the
``run_seconds`` of ``BENCHMARK.json``.  For every metric the file keeps all
values, their median, and the spread (the distance between the first and
third quartile as a share of the median); each run keeps its provenance
(Python, nproc, platform, commit, seed), digest and sample counts.  The
result goes to ``perfbench/baseline/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("provenance "):
            out["provenance"] = json.loads(line[len("provenance "):])
        elif line.startswith("run "):
            out["run"] = json.loads(line[len("run "):])
    return out


def summarize(values):
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = {"label": args.label, "trace": args.trace, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.trace))
            r = runs[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} digest={r['run']['digest'][:16]}", flush=True)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        for name, s in metrics.items():
            print(f"  {workload:<14}{name:<34}median {s['median']:<14.6g}spread {s.get('spread')}", flush=True)
        result["workloads"][workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in runs),
            "digests": sorted({r["run"]["digest"] for r in runs}),
            "runs": runs,
        }
    out = HERE / "baseline" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
