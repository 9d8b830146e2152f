"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# one cheap op per workload, so every workload runs at minimal size
SMALL_OPS = {
    "fit": [("onbk", "legendre", 40, 80), ("onb", "chebyshev", 10, 15)],
    "constants": [("legendre", 10), ("equispaced", 5)],
    "ssr": [(1, "inner", 10, 1e-5), (5, "legendre", 10, 1e-8)],
}


def small(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    workload.ops = SMALL_OPS[name]
    return workload


@pytest.mark.parametrize("name", sorted(SMALL_OPS))
@pytest.mark.parametrize("trace_on", [False, True])
def test_workload_prints_every_metric_with_its_unit(name, trace_on, tmp_path):
    workload = small(name, tmp_path)
    lines, summary, record = run.benchmark(workload, 0, trace_on)
    expected = SPEC["per_layer"] if trace_on else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for metric in expected:
        assert any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']}  (" in line
                   for line in lines)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == record["passes"] * len(workload.ops)


def test_benchmark_json_lists_the_traced_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in tracing.metric_table()]
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def _scale_kappa(result):
    code, text = result
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[4] = repr(2 * float(row[4]))
    return code, "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def _shift_rate(result):
    code, text = result
    header, row = text.splitlines()
    fields = row.split(",")
    fields[3] = str(int(fields[3]) + 1)
    return code, f"{header}\n{','.join(fields)}\n"


@pytest.mark.parametrize("name, corrupt", [
    ("constants", _scale_kappa),
    ("ssr", _shift_rate),
    ("fit", lambda result: (float("inf"), result[1])),
    ("fit", lambda result: (result[0], 1e-6)),
])
def test_corrupted_result_counts_as_failed(name, corrupt, tmp_path):
    workload = small(name, tmp_path)
    workload.ops = workload.ops[:1]
    _, _, outcomes = run.run_passes(workload, 2)
    assert run.check_outcomes(workload, outcomes) == (0, [])

    class Corrupted(type(workload)):
        def result(self, op, ret):
            return corrupt(super().result(op, ret))

    bad = Corrupted(0, tmp_path)
    bad.ops = workload.ops
    _, _, outcomes = run.run_passes(bad, 2)
    failed, failures = run.check_outcomes(bad, outcomes)
    assert failed == 2 and len(failures) == 1


def test_absent_function_is_reported_not_fatal(monkeypatch, tmp_path):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("solver", "removed", "frameapprox.solver", "no_such_function")])
    tracer = tracing.Tracer()
    assert tracer.absent == ["frameapprox.solver.no_such_function"]
    workload = small("fit", tmp_path)
    run.run_passes(workload, 1, tracer)
    report = tracer.per_layer(0.0)
    assert report["solver.removed.calls"]["value"] == 0
    assert report["solver.approximate.calls"]["value"] == len(workload.ops)
    assert "solver.removed.calls" not in [m["name"] for m in SPEC["per_layer"]]


def test_without_the_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
