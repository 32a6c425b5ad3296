"""Record the benchmark's end-to-end metrics of a change and of its parent
in ``BENCH_<N>.json`` at the repository root.

    python3 tools/bench_record.py --pr N --baseline PARENT_DIR \\
        [--seeds 1 2 3] [--seconds 36] [--revision REV] [--baseline-revision REV]

``PARENT_DIR`` is a checkout of the parent commit (the baseline); the
change is this repository.  For every seed, and every workload of
``bench/workloads.py``, the tool runs ``bench/run.py --workload W --seed S
--seconds T`` unchanged in each checkout, the baseline first on odd seeds
and the change first on even ones, and reads the run's last stdout line.

The file holds::

    {"pr": N,
     "meta": {"nproc", "python", "numpy", "bytecode_written", "seconds", "seeds"},
     "baseline": {"revision", "runs": {workload: [run, ...]}},
     "change":   {"revision", "runs": {workload: [run, ...]}}}

where a run is ``{"seed", "correct", "failed", "metrics"}`` and
``metrics`` has the five end-to-end metrics (``setup_s``, ``pass_s``,
``op_p50_s``, ``op_tail_s``, ``peak_rss_mb``), each a number.  A revision
is ``git describe --always --dirty`` of its checkout (a commit hash, with
``-dirty`` for uncommitted edits), or the ``--revision`` /
``--baseline-revision`` given for a tree without ``.git``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "pass_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


def workloads(tree: Path) -> list[str]:
    """The workload names of the benchmark in ``tree``, in its order."""
    sys.path.insert(0, str(tree / "bench"))
    try:
        import workloads as module
        return list(module.WORKLOADS)
    finally:
        sys.path.pop(0)


def run_of(seed: int, line: str) -> dict:
    """The record of one run from the last stdout line of ``bench/run.py``."""
    result = json.loads(line)
    return {"seed": seed, "correct": bool(result["correct"]), "failed": int(result["failed"]),
            "metrics": {name: float(result["metrics"][name]["value"]) for name in METRICS}}


def check_format(doc: dict) -> None:
    """Raise ValueError where ``doc`` is not a ``BENCH_<N>.json`` record."""
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(what)

    need(isinstance(doc.get("pr"), int), "pr is not an integer")
    meta = doc.get("meta", {})
    for key in ("nproc", "python", "numpy", "bytecode_written", "seconds", "seeds"):
        need(key in meta, f"meta has no {key}")
    for side in ("baseline", "change"):
        need(isinstance(doc.get(side, {}).get("revision"), str), f"{side} has no revision")
        runs = doc[side].get("runs")
        need(isinstance(runs, dict) and runs, f"{side} has no runs")
        for workload, records in runs.items():
            need(sorted(r["seed"] for r in records) == sorted(meta["seeds"]),
                 f"{side} {workload}: not one run per seed")
            for r in records:
                need(isinstance(r["correct"], bool) and isinstance(r["failed"], int),
                     f"{side} {workload}: correct or failed missing")
                need(sorted(r["metrics"]) == sorted(METRICS)
                     and all(isinstance(v, float) for v in r["metrics"].values()),
                     f"{side} {workload}: not the five end-to-end metrics")
    need(doc["baseline"]["runs"].keys() == doc["change"]["runs"].keys(),
         "the two sides ran other workloads")


def revision(tree: Path, given: str | None) -> str:
    if given:
        return given
    done = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=40"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True, check=True)
    return run_of(seed, done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--baseline", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--revision")
    parser.add_argument("--baseline-revision")
    args = parser.parse_args(argv)

    trees = {"baseline": args.baseline.resolve(), "change": ROOT}
    names = workloads(ROOT)
    doc = {"pr": args.pr,
           "meta": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "bytecode_written": not (sys.dont_write_bytecode
                                             or bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))),
                    "seconds": args.seconds, "seeds": args.seeds},
           "baseline": {"revision": revision(trees["baseline"], args.baseline_revision),
                        "runs": {w: [] for w in names}},
           "change": {"revision": revision(ROOT, args.revision), "runs": {w: [] for w in names}}}
    for seed in args.seeds:
        sides = ("baseline", "change") if seed % 2 else ("change", "baseline")
        for workload in names:
            for side in sides:
                doc[side]["runs"][workload].append(bench(trees[side], workload, seed, args.seconds))
    check_format(doc)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
