"""Digests of hmin's outputs on the benchmark's inputs: a manifest that
shows whether a change keeps every output byte for byte.

    python3 tools/golden.py --write   # record tools/golden.json
    python3 tools/golden.py --check   # compare with it

The runs are every op of the three workloads of ``bench/workloads.py`` at
seeds 1 to 3, each seed's warm-up op, ``hmin gallery all``,
``verify``, ``seed``, ``classify``, ``loci`` and ``build`` on the
counterexample gallery spec, ``verify`` of a graph spec, of its
``fd_only`` form and of an implicit spec, ``hmin gallery gencurve-2`` and
``build`` on the iso-profile gallery spec, ``seed`` from a
characteristic start and from a start where W is NaN, ``verify`` of
the plane t = 1e200 x as a graph and as a level set, ``hmin gallery
general-plane`` with its characteristic point off its verify window, and
``verify`` of three graph specs that fail before any check runs: a
height that does not parse, one in a variable a graph does not take, and
a graph key the schema does not know.
Each op runs in this process through ``hmin.cli.main``, as the benchmark runs it, from the sources of
``--src`` (the repository's ``src/`` by default); ``bench/`` is only read.

One digest per run covers its exit code, its stdout and stderr with the
scratch directory of its spec and outputs masked, its ``report.json`` without ``wall_time_s`` and
``outputs``, and the bytes of every other file it writes (CSV and OBJ).
The manifest's header records the Python, numpy and glibc versions, as
the floats of the C library and of numpy may differ between them.

``--check`` exits 0 when every digest matches, 1 when some differ (it
names each changed, missing or new key), and 2 when the manifest comes
from another platform, whose digests it lists but does not compare.
``--only KEY`` (repeatable; a key or a prefix of keys) restricts either
mode to those runs; ``--manifest PATH`` reads or writes another file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "golden.json"
SEEDS = (1, 2, 3)
MASK = "<OUT>"

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/workloads.py, read only)

_COUNTEREXAMPLE = {"kind": "gallery", "gallery": {"name": "counterexample"}}
_CUBIC = {"h": "x*y/2 + x^3/6", "domain": {"xmin": -2, "xmax": 2, "ymin": -2, "ymax": 2}}
_ROOT_X = {"h": "x*y/2 + sqrt(x)", "domain": {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1}}


def _extra_ops() -> list:
    """``gallery all``, the five spec commands on the counterexample,
    ``verify`` of a graph spec, of its ``fd_only`` form and of an implicit
    spec, the even-n GSC of ``gencurve-2``, a graph build over a domain
    that is not a box, ``seed`` from a start where W is 0 and from one
    where it is NaN, ``verify`` of a plane so steep that p*p overflows,
    as a graph and as a level set, and general-plane with its
    characteristic point (-3.9, 0) off its verify window (exit 4) and with
    its default coefficients negated (the same graph), and three graph
    specs that exit 2 with one ``error:`` line (a parse error, an unknown
    variable and a schema error), which no workload op runs."""
    op = workloads.Op
    return [op("all", "gallery", args=("all",)),
            op("counterexample-verify", "verify", _COUNTEREXAMPLE),
            op("counterexample-seed", "seed", _COUNTEREXAMPLE,
               ("--z0", "1.0", "0.0", "--span", "0.85")),
            op("counterexample-classify", "classify", _COUNTEREXAMPLE),
            op("counterexample-loci", "loci", _COUNTEREXAMPLE),
            op("counterexample-build", "build", _COUNTEREXAMPLE),
            op("graph-verify", "verify", {"kind": "graph", "graph": _CUBIC}),
            op("graph-fd-verify", "verify", {"kind": "graph", "graph": {**_CUBIC, "fd_only": True}}),
            op("implicit-verify", "verify",
               {"kind": "implicit", "implicit": {"phi": "-(t - x*y/2 - 0.3*x)"}}),
            op("gencurve-2", "gallery", args=("gencurve-2",)),
            op("iso-profile-build", "build",
               {"kind": "gallery", "gallery": {"name": "iso-profile"}}),
            op("seed-characteristic-start", "seed", {"kind": "graph", "graph": {"h": "x*y/2"}},
               ("--z0", "1.0", "0.0")),
            op("seed-undefined-w-start", "seed", {"kind": "graph", "graph": _ROOT_X},
               ("--z0", "-0.5", "1.0")),
            op("steep-plane-verify", "verify", {"kind": "graph", "graph": {"h": "1e200*x"}}),
            op("steep-implicit-verify", "verify",
               {"kind": "implicit", "implicit": {"phi": "t - 1e200*x"}}),
            op("general-plane-off-window", "gallery",
               args=("general-plane", "--a", "0", "--b", "3.9", "--c", "2")),
            op("general-plane-negated", "gallery",
               args=("general-plane", "--a", "-1", "--b", "-2", "--c", "-2", "--d", "-4")),
            op("verify-parse-error", "verify", {"kind": "graph", "graph": {"h": "x*"}}),
            op("verify-unknown-variable", "verify", {"kind": "graph", "graph": {"h": "x*t"}}),
            op("verify-schema-error", "verify",
               {"kind": "graph", "graph": {"h": "x*y/2", "orientation": 1}})]


def runs() -> list[tuple[str, object]]:
    """(key, op) of every run, in the order they are made."""
    out = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            prefix = f"{workload}/seed{seed}/"
            out.append((prefix + "warmup", workloads.WARMUP[workload]))
            out += [(prefix + op.name, op) for op in workloads.generate(workload, seed)]
    out += [(f"extra/{op.name}", op) for op in _extra_ops()]
    return out


def platform_header() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "glibc": " ".join(platform.libc_ver()) or "none", "machine": platform.machine()}


def _run_digest(cli, op, work: Path, key: str) -> str:
    spec_dir, out_dir = work / "specs", work / key.replace("/", "_")
    workloads.write_specs([op], str(spec_dir))
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        try:
            rc = cli.main(op.argv(str(spec_dir), str(out_dir)))
        except SystemExit as stop:
            rc = stop.code
    record = {"exit": rc}
    for name, sink in (("stdout", sink_out), ("stderr", sink_err)):
        record[name] = sink.getvalue().replace(str(work), MASK)
    files = {}
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        if path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop("wall_time_s", None)
            report.pop("outputs", None)
            record["report"] = report
        else:
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    record["files"] = files
    shutil.rmtree(out_dir, ignore_errors=True)
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def digests(src: Path, only: list[str]) -> dict[str, str]:
    """The digest of every run whose key starts with one of ``only`` (all if empty)."""
    sys.path.insert(0, str(src))
    import hmin.cli
    if Path(hmin.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"hmin was imported from {hmin.cli.__file__}, not from {src}")
    selected = [(k, op) for k, op in runs() if not only or any(k.startswith(p) for p in only)]
    work = Path(tempfile.mkdtemp(prefix="hmin-golden-"))
    try:
        return {key: _run_digest(hmin.cli, op, work, key) for key, op in selected}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def compare(recorded: dict, now: dict) -> list[str]:
    """One line per key whose digest changed, went missing or is new."""
    lines = []
    for key in sorted(set(recorded) | set(now)):
        if key not in now:
            lines.append(f"missing: {key}")
        elif key not in recorded:
            lines.append(f"new: {key}")
        elif recorded[key] != now[key]:
            lines.append(f"changed: {key}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    parser.add_argument("--manifest", type=Path, default=MANIFEST)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--only", action="append", default=[])
    args = parser.parse_args(argv)

    now = digests(args.src, args.only)
    if args.write:
        args.manifest.write_text(json.dumps({"platform": platform_header(), "digests": now},
                                            indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(now)} digests to {args.manifest}")
        return 0
    manifest = json.loads(args.manifest.read_text())
    recorded = {k: v for k, v in manifest["digests"].items()
                if not args.only or any(k.startswith(p) for p in args.only)}
    lines = compare(recorded, now)
    same = sum(recorded.get(k) == v for k, v in now.items())
    print("\n".join(lines + [f"{same} of {len(recorded)} recorded digests match"]))
    here = platform_header()
    if manifest["platform"] != here:
        print(f"different platform: the manifest is of {manifest['platform']}, this is {here}; "
              "its digests are not comparable")
        return 2
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
