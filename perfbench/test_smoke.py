"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, chain_solve, check_chain, check_report, continued_fraction, make_api,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def tiny(name, trace, tmp_path):
    return run.run_workload(
        name, seed=7, seconds=0, trace=trace, min_ops=1, deck_limit=2,
        setup_repeats=1, trace_dir=tmp_path,
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = tiny(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["info"]["failed_frac"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result = tiny(name, True, tmp_path)
    assert result["correct"] and result["info"]["failed_frac"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER
    # layer self times plus the benchmark's own time account for the
    # traced operation time
    layer_ms = sum(v for k, v in metrics.items() if k.endswith("_ms") and not k.startswith("bench."))
    assert math.isclose(layer_ms + metrics["bench.self_ms"], metrics["bench.traced_op_ms"], rel_tol=1e-9)
    assert metrics["zariski.decompose_ms"] > 0
    header = json.loads((tmp_path / f"trace-{name}.json").read_text())
    assert header["spans"] > 0
    assert (tmp_path / header["data"]).stat().st_size == header["spans"] * sum(
        c["itemsize"] for c in header["columns"]
    )


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert list(layer_map) == list(PER_LAYER)
    for entry in layer_map.values():
        assert set(entry["moves"]) <= set(END_TO_END)
        assert set(entry["on"]) | set(entry["unchanged_on"]) <= set(WORKLOADS)
        assert not set(entry["on"]) & set(entry["unchanged_on"])


def test_tracer_uninstall_restores_every_name():
    pkg = run.load_package()
    api = make_api(pkg)

    def snapshot():
        names = [getattr(pkg, m).__dict__[a] for m, a, _ in tracing.MODULE_TARGETS]
        names += [getattr(getattr(pkg, m), c).__dict__[a] for m, c, a, _ in tracing.CLASS_TARGETS]
        return names + [api.__dict__[a] for a in tracing.API_TARGETS]

    before = snapshot()
    tracer = tracing.Tracer(pkg, api, (pkg.errors.InconsistentScenario, pkg.errors.DomainError))
    tracer.install()
    assert all(a is not b for a, b in zip(snapshot(), before))
    tracer.uninstall()
    assert all(a is b for a, b in zip(snapshot(), before))


def test_chain_oracle_values():
    assert continued_fraction([2, 2]) == Fraction(3, 2)
    assert continued_fraction([3]) == Fraction(3)
    assert chain_solve([2, 2]) == [Fraction(2, 3), Fraction(1, 3)]
    assert check_chain([2, 2], 3, 2, [Fraction(2, 3), Fraction(1, 3)], True) == []
    assert check_chain([2, 2], 3, 2, [Fraction(1, 3), Fraction(2, 3)], True)
    assert check_chain([2, 2], 3, 1, [Fraction(2, 3), Fraction(1, 3)], True)


def test_report_oracle_catches_a_wrong_value():
    rep = {"name": "x", "ok": True, "invariants": {"vol": "3/2"}, "zariski": {"negative_part": {"C0": "1/2"}}}
    assert check_report(rep, {"vol": "3/2", "negative_part": {"C0": "1/2"}}) == []
    assert check_report(rep, {"vol": "2"})
    assert check_report(rep, {"negative_part": {}})
    assert check_report(rep, {"unknown_key": 1})
    assert check_report(dict(rep, ok=False), {})


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
