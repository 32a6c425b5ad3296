"""The format of tools/bench_record.py's ``BENCH_<N>.json``, on a canned
run record of ``bench/run.py`` (a real run takes too long for tier-1), and
of every committed record."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# the last stdout line of one `bench/run.py --workload gallery-all --seed 1` run
LINE = json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": {
    "setup_s": {"value": 0.1339, "unit": "s"}, "pass_s": {"value": 0.1895, "unit": "s"},
    "op_p50_s": {"value": 0.0157, "unit": "s"}, "op_tail_s": {"value": 0.0191, "unit": "s"},
    "peak_rss_mb": {"value": 36.7, "unit": "MB"}}})


def _doc():
    run = bench_record.run_of(1, LINE)
    side = {"revision": "0123abc", "runs": {"gallery-all": [run]}}
    return {"pr": 7, "meta": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
                               "bytecode_written": False, "seconds": 36, "seeds": [1]},
            "baseline": side, "change": copy.deepcopy(side)}


def test_a_run_record_keeps_the_five_end_to_end_metrics():
    assert bench_record.run_of(1, LINE) == {
        "seed": 1, "correct": True, "failed": 0,
        "metrics": {"setup_s": 0.1339, "pass_s": 0.1895, "op_p50_s": 0.0157,
                    "op_tail_s": 0.0191, "peak_rss_mb": 36.7}}
    bench_record.check_format(_doc())


@pytest.mark.parametrize("spoil", [
    lambda d: d["meta"].pop("numpy"),
    lambda d: d["change"].pop("revision"),
    lambda d: d["change"]["runs"]["gallery-all"][0]["metrics"].pop("pass_s"),
    lambda d: d["baseline"]["runs"]["gallery-all"].append(d["baseline"]["runs"]["gallery-all"][0]),
    lambda d: d["change"]["runs"].update({"cli-mix": d["change"]["runs"]["gallery-all"]}),
])
def test_a_record_without_a_field_is_refused(spoil):
    doc = _doc()
    spoil(doc)
    with pytest.raises(ValueError):
        bench_record.check_format(doc)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_records_have_the_format(path):
    doc = json.loads(path.read_text())
    bench_record.check_format(doc)
    assert path.name == f"BENCH_{doc['pr']}.json"
    assert set(doc["change"]["runs"]) == set(bench_record.workloads(ROOT))
