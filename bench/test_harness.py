"""Smoke test of the benchmark harness (not part of the library's test suite).

    python -m pytest -q bench/test_harness.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quantum_scan", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric_with_its_unit(trace, section):
    proc, lines = _result(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 13
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_failures_are_counted_not_raised():
    def boom():
        raise ZeroDivisionError("x")

    def check_boom(_):
        raise KeyError("y")

    ops = [
        workloads.Op("ok", lambda: 1, lambda r: None),
        workloads.Op("raises", boom, lambda r: None),
        workloads.Op("misses", lambda: 1, lambda r: "off by 1"),
        workloads.Op("unreadable", lambda: 1, check_boom),
    ]
    records, passes = run.run_passes(ops, seconds=0.0)
    assert passes == 1
    assert [r[2] is None for r in records] == [True, False, False, False]
    assert run.end_to_end(records, setup_s=1.0)["ok_ratio"] == (0.25, "ratio")


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        a, b = workloads.generate(w, 3), workloads.generate(w, 3)
        assert workloads.input_hash(a) == workloads.input_hash(b)
        assert workloads.input_hash(a) != workloads.input_hash(workloads.generate(w, 4))


def test_missing_target_is_recorded_absent(monkeypatch):
    dg = run.import_dualgeo()
    monkeypatch.delattr(dg.quantum, "schmidt")
    monkeypatch.setitem(tracing.COUNT_TARGETS, "gone.layer", "geometry:no_such_function")
    tracer = tracing.Tracer()
    tracer.install(dg)
    try:
        assert {"quantum.schmidt", "gone.layer"} <= set(tracer.absent)
        metrics = run.per_layer(tracer, [("op", 0.1, None)], 1, {"dualgeo": 0.1, "scipy": 0.2})
    finally:
        tracer.uninstall()
    assert "quantum.schmidt.self_ms" not in metrics
    assert "geometry.christoffel.calls" in metrics
    assert not hasattr(dg.geometry.christoffel, "__wrapped__")


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc, lines = _result(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
