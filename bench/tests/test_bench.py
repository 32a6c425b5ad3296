"""Tests of the benchmark itself: inputs, hooks, gates and a smoke run.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    names = [op.name for op in workloads.generate(workload, 7)]
    assert len(names) == len(set(names))
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_gallery_all_covers_the_catalog():
    from hmin.gallery import gallery_names
    assert sorted(workloads.GALLERY) == sorted(gallery_names())
    ops = workloads.generate("gallery-all", 1)
    assert sorted(op.args[0] for op in ops) == sorted(workloads.GALLERY)


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_every_trace_hook_resolves():
    assert layers.missing_hooks() == []


def test_missing_hook_is_reported_missing_not_zero():
    assert layers._resolve("hmin.meshes", "no_such_function") is None
    delta = {"cli.main": {"calls": 1, "s": 1.0}}
    passes = run.Samples()
    passes.passes, passes.passes_raw = [2.0], [2.0]
    out = run.layer_metrics([delta], passes, 1.0)
    assert out["meshes.lint_obj.s"] is None
    assert out["expr.eval.calls"] is None
    assert out["cli.main.self_s"] == 1.0


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(30)]
    value, pct, beyond = run.tail(samples)
    assert (value, beyond) == (19.0, 10)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_gate_rejects_wrong_outcomes(tmp_path):
    op = workloads.Op("c", "classify", {"kind": "graph", "graph": {"h": "0"}},
                      expect=workloads.Expect(kind="class1"))
    report = {"checks": [{"name": "classified_class2", "pass": True}],
              "result": {"kind": "class2"}}
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert workloads.gate(op, 0, str(tmp_path)) == ["classified 'class2', expected 'class1'"]
    assert workloads.gate(op, 2, str(tmp_path)) == ["exit code 2, expected 0"]
    report["checks"][0]["pass"] = False
    report["result"]["kind"] = "class1"
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert workloads.gate(op, 0, str(tmp_path)) == ["check classified_class2 failed"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        *_, meta_line, result_line = proc.stdout.strip().splitlines()
        meta, result = json.loads(meta_line)["meta"], json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert meta["fail_ratio"]["value"] == 0
        metrics = result["metrics"]
        assert list(metrics) == [m["name"] for m in SPEC[section]]
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
