"""The hmin benchmark: seeded, closed-loop workloads driven through hmin.cli.main.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; ``hmin`` is imported from ``src/`` next to this
directory, never from an installed copy.  One client, no threads, and
``HMIN_THREADS`` is removed from the environment.  A run:

1. times set-up ``SETUP_PROBES`` times, each in a fresh interpreter:
   import hmin, write the workload's spec files, run the warm-up op;
2. sets up once more in this process;
3. runs ``max(1, S // nominal pass time)`` passes, every op of the
   workload once per pass in seeded order, and gates every op's output.

Every time is taken with ``speed.Meter`` and reported scaled to the
reference machine speed; raw times are kept in the metadata.  With
``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1`` it
makes half the passes untraced and as many again with the per-module
wrappers of ``layers.py`` installed, and reports per-layer metrics per
pass.  The second-to-last stdout line is a JSON object of run metadata;
the last is the result.  The run record (and the spans of a traced run)
goes to ``.bench_out/`` at the repository root; inputs and hmin's outputs
live in ``.bench_work/`` while the run lasts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path

import layers
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB"}

# Per-layer metric -> (hook key, counter); values are per pass.
HOOK_METRICS = {
    "expr.parse.calls": ("expr.parse", "calls"),
    "expr.parse.s": ("expr.parse", "s"),
    "expr.differentiate.s": ("expr.differentiate", "s"),
    "expr.compile_fn.calls": ("expr.compile_fn", "calls"),
    "expr.compile_fn.s": ("expr.compile_fn", "s"),
    "expr.eval.calls": (layers.EVAL_KEY, "calls"),
    "expr.eval.points": (layers.EVAL_KEY, "points"),
    "expr.eval.s": (layers.EVAL_KEY, "s"),
    "fields.from_expr.s": ("fields.from_expr", "s"),
    "fields.value.calls": ("fields.value", "calls"),
    "fields.gradient.calls": ("fields.gradient", "calls"),
    "fields.gradient.s": ("fields.gradient", "s"),
    "fields.hessian.calls": ("fields.hessian", "calls"),
    "fields.hessian.s": ("fields.hessian", "s"),
    "fields.rk4_integrate.calls": ("fields.rk4_integrate", "calls"),
    "fields.rk4_integrate.field_evals": ("fields.rk4_integrate", "field_evals"),
    "fields.rk4_integrate.s": ("fields.rk4_integrate", "s"),
    "fields.cumulative_integral.s": ("fields.cumulative_integral", "s"),
    "surface.horizontal_data.calls": ("surface.horizontal_data", "calls"),
    "surface.horizontal_data.s": ("surface.horizontal_data", "s"),
    "surface.h_mean_curvature.calls": ("surface.h_mean_curvature", "calls"),
    "surface.h_mean_curvature.s": ("surface.h_mean_curvature", "s"),
    "surface.characteristic_scan.s": ("surface.characteristic_scan", "s"),
    "seed.extract_seed.calls": ("seed.extract_seed", "calls"),
    "seed.extract_seed.s": ("seed.extract_seed", "s"),
    "seed.curvature.calls": ("seed.curvature", "calls"),
    "seed.SeedCurve.lookups": ("seed.SeedCurve", "calls"),
    "seed.SeedCurve.s": ("seed.SeedCurve", "s"),
    "ruled.embed.calls": ("ruled.embed", "calls"),
    "ruled.embed.s": ("ruled.embed", "s"),
    "ruled.characteristic_locus.s": ("ruled.characteristic_locus", "s"),
    "ruled.invert_chart.calls": ("ruled.invert_chart", "calls"),
    "ruled.invert_chart.s": ("ruled.invert_chart", "s"),
    "ruled.classify_entire_graph.s": ("ruled.classify_entire_graph", "s"),
    "ruled.roundtrip.s": ("ruled.roundtrip", "s"),
    "ruled.curvature_on_patch.calls": ("ruled.curvature_on_patch", "calls"),
    "ruled.curvature_on_patch.s": ("ruled.curvature_on_patch", "s"),
    "ruled.w_direct.calls": ("ruled.w_direct", "calls"),
    "ruled.w_direct.s": ("ruled.w_direct", "s"),
    "meshes.mesh_ruled.s": ("meshes.mesh_ruled", "s"),
    "meshes.mesh_graph.s": ("meshes.mesh_graph", "s"),
    "meshes.write_obj.s": ("meshes.write_obj", "s"),
    "meshes.write_obj.bytes": ("meshes.write_obj", "bytes"),
    "meshes.lint_obj.s": ("meshes.lint_obj", "s"),
    "meshes.lint_obj.faces": ("meshes.lint_obj", "faces"),
    "gallery.gallery_get.s": ("gallery.gallery_get", "s"),
    "gallery.max_curvature_deviation.nodes": ("gallery.max_curvature_deviation", "nodes"),
    "gallery.max_curvature_deviation.s": ("gallery.max_curvature_deviation", "s"),
    "cli.load_spec.calls": ("cli.load_spec", "calls"),
    "cli.load_spec.s": ("cli.load_spec", "s"),
    "cli.main.self_s": ("cli.main", "s"),
}

# Derived per-layer metrics, reported after the hook metrics.
DERIVED_UNITS = {"surface.eval_ratio": "ratio",
                 **{f"layer.{name}.self_s": "s" for name in layers.LAYERS},
                 "share.expr_fields_surface": "ratio",
                 "share.meshes_seed_ruled": "ratio",
                 "traced_pass_s": "s",
                 "trace_overhead_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, (_, counter) in HOOK_METRICS.items():
        units[name] = "s" if counter == "s" else "count"
    return {**units, **DERIVED_UNITS}


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


class Session:
    """Inputs and scratch space of one workload in this process."""

    def __init__(self, workload: str, seed: int, work: Path):
        import hmin.cli
        self.cli = hmin.cli
        self.work = work
        self.spec_dir = str(work / "specs")
        self.ops = workloads.generate(workload, seed)
        self.warmup = workloads.WARMUP[workload]
        workloads.write_specs(self.ops + [self.warmup], self.spec_dir)

    def run(self, op: workloads.Op, out_dir: str) -> tuple[speed.Meter, list[str]]:
        """Time one op and gate its outputs (untimed).  An exception ends
        the op, not the run."""
        sink = io.StringIO()
        argv = op.argv(self.spec_dir, out_dir)
        rc, error = -1, ""
        with speed.Meter() as meter:
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = self.cli.main(argv)
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
        problems = [error] if error else workloads.gate(op, rc, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return meter, problems


class Samples:
    """Op and pass times of a run, raw and scaled to the reference speed."""

    def __init__(self):
        self.ops: list[float] = []
        self.ops_raw: list[float] = []
        self.passes: list[float] = []
        self.passes_raw: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def add_pass(self, session: Session, index: int) -> None:
        """Run every op once; a pass's time is the sum of its op times."""
        scaled = raw = 0.0
        for i, op in enumerate(session.ops):
            meter, problems = session.run(op, str(session.work / f"out-{index}-{i}"))
            self.ops.append(meter.seconds)
            self.ops_raw.append(meter.raw)
            scaled += meter.seconds
            raw += meter.raw
            if problems:
                self.failed += 1
                self.problems += [f"{op.name}: {p}" for p in problems]
        self.passes.append(scaled)
        self.passes_raw.append(raw)


def _work_dir() -> Path:
    work = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def probe_setup(workload: str, seed: int) -> int:
    """Fresh-interpreter set-up: import hmin, write inputs, one warm-up op."""
    work = _work_dir()
    try:
        with speed.Meter() as meter:
            session = Session(workload, seed, work)
            _, problems = session.run(session.warmup, str(work / "warmup"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": meter.seconds, "raw_s": meter.raw, "problems": problems}))
    return 0


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[str]]:
    scaled, raw, problems = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        scaled.append(out["setup_s"])
        raw.append(out["raw_s"])
        problems += [f"set-up warm-up: {p}" for p in out["problems"]]
    return scaled, raw, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest order statistic
    with at least TAIL_BEYOND samples above it, or the maximum when
    there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def layer_metrics(deltas: list[dict], passes: Samples,
                  untraced_pass_s: float) -> dict[str, float | None]:
    """Per-pass medians of the traced counters; None where a hook is missing.

    Self times are raw, so the shares divide them by the raw pass time.
    """
    def median_of(key, counter):
        if not all(key in d and counter in d[key] for d in deltas):
            return None
        return statistics.median(d[key][counter] for d in deltas)

    out = {name: median_of(key, counter) for name, (key, counter) in HOOK_METRICS.items()}
    visited, evaluated = out["surface.horizontal_data.calls"], out["surface.h_mean_curvature.calls"]
    out["surface.eval_ratio"] = evaluated / visited if visited and evaluated is not None else None
    for name in layers.LAYERS:
        keys = {key for key, _, _, _ in layers.HOOKS if key.startswith(name + ".")}
        if name == "expr":
            keys.add(layers.EVAL_KEY)
        out[f"layer.{name}.self_s"] = statistics.median(
            sum(d[k]["s"] for k in keys if k in d) for d in deltas)
    raw = statistics.median(passes.passes_raw)
    out["share.expr_fields_surface"] = sum(
        out[f"layer.{n}.self_s"] for n in ("expr", "fields", "surface")) / raw
    out["share.meshes_seed_ruled"] = sum(
        out[f"layer.{n}.self_s"] for n in ("meshes", "seed", "ruled")) / raw
    out["traced_pass_s"] = statistics.median(passes.passes)
    out["trace_overhead_ratio"] = out["traced_pass_s"] / untraced_pass_s
    return out


def _delta(after: dict, before: dict) -> dict:
    return {key: {c: v - before.get(key, {}).get(c, 0) for c, v in counters.items()}
            for key, counters in after.items()}


def _git_revision() -> str:
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
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
            "loadavg_start": list(os.getloadavg()), "git_revision": _git_revision(),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "jsonschema": _version("jsonschema"), "clients": 1,
            "ref_nominal_s": speed.REF_NOMINAL_S}
    setup, setup_raw, setup_problems = measure_setup(workload, seed)
    passes = max(1, int(seconds // workloads.NOMINAL_PASS_S[workload]))
    untraced, traced_samples = Samples(), Samples()
    work = _work_dir()
    try:
        session = Session(workload, seed, work)
        _, problems = session.run(session.warmup, str(work / "warmup"))
        setup_problems += [f"warm-up: {p}" for p in problems]
        for i in range(max(1, passes // 2) if traced else passes):
            untraced.add_pass(session, i)
        if traced:
            tracer = layers.Tracer()
            tracer.install()
            deltas = []
            for i in range(len(untraced.passes)):
                before = tracer.snapshot()
                traced_samples.add_pass(session, len(untraced.passes) + i)
                deltas.append(_delta(tracer.snapshot(), before))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    runs = [untraced, traced_samples] if traced else [untraced]
    attempted = sum(len(s.ops) for s in runs)
    failed = sum(s.failed for s in runs)
    problems = setup_problems + [p for s in runs for p in s.problems]
    if traced:
        metrics = layer_metrics(deltas, traced_samples, statistics.median(untraced.passes))
        meta.update(missing_hooks=tracer.missing, traced_passes=len(traced_samples.passes),
                    traced_pass_raw_s=traced_samples.passes_raw)
        tracer.write_spans(str(out_dir / f"spans-{workload}-seed{seed}.jsonl"))
    else:
        value, pct, beyond = tail(untraced.ops)
        metrics = {"setup_s": statistics.median(setup),
                   "pass_s": statistics.median(untraced.passes),
                   "op_p50_s": statistics.median(untraced.ops),
                   "op_tail_s": value,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        meta.update(op_tail_percentile=pct, op_tail_beyond=beyond)
    meta.update(ops_per_pass=len(session.ops), passes=len(untraced.passes),
                op_samples=len(untraced.ops), pass_samples=len(untraced.passes),
                setup_samples=len(setup), setup_s=setup, setup_raw_s=setup_raw,
                pass_s=untraced.passes, pass_raw_s=untraced.passes_raw,
                attempted=attempted, failed=failed,
                fail_ratio={"value": failed / attempted, "unit": "ratio"},
                problems=problems[:20])
    units = per_layer_units() if traced else END_TO_END_UNITS
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    record = out_dir / f"{workload}-seed{seed}-trace{int(traced)}.json"
    record.write_text(json.dumps({"meta": meta, "result": result,
                                  "op_s": untraced.ops, "op_raw_s": untraced.ops_raw},
                                 indent=1) + "\n")
    return {"meta": meta, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hmin benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.pop("HMIN_THREADS", None)
    if not (SRC / "hmin" / "__init__.py").is_file():
        print(f"error: no hmin sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
