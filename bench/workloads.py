"""Seeded inputs and per-op correctness gates for the hmin benchmark.

A workload is a list of ops; an op is one ``hmin`` command.  The inputs
come only from families whose outcome is known in closed form, so every
op has an expected exit code and, where the command reports one, an
expected verdict:

* planes ``(a + b*x + c*y)/2`` classify as ``class1``;
* ``x*y/2 + a*x + c`` classifies as ``class2`` (and is minimal, so it
  also builds and verifies);
* ``x*y/2 + a*y + c`` with ``a != 0`` has H = a*y/(y^2 + a^2)^(3/2), so
  it classifies as ``not-minimal``;
* ruled cylinder-family specs (seed ``(s, 0)``, ``h0 = sqrt(1 - s^2)``)
  with ``s_range`` inside ``(-1, 1)``;
* gallery seeds started at the ``z0`` values the test suite already
  extracts from.

Left out on purpose: ruled specs whose ``s_range`` leaves ``(-1, 1)``
(NaN heights) and graphs such as ``x*y/2 + 0*sqrt(x)``.  The exit codes
hmin should give for them are not settled yet, so they have no expected
outcome to gate on.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("gallery-all", "mesh-build", "cli-mix")

GALLERY = ("char-plane", "general-plane", "hyperbolic", "catenoid",
           "counterexample", "cylinder", "gencurve-n", "optreg2", "iso-profile")

# Wall time of one pass on a 2-CPU shared x86-64 box at the commit that
# added this benchmark, with headroom for the box's slow phases.  A run
# makes ``seconds // NOMINAL_PASS_S`` passes (at least one), so every run
# of a workload times the same ops and the median and tail always land on
# the same ranks.
NOMINAL_PASS_S = {"gallery-all": 12.0, "mesh-build": 7.0, "cli-mix": 3.0}


@dataclass(frozen=True)
class Expect:
    exit: int = 0
    kind: Optional[str] = None                 # classify verdict
    labels: Optional[frozenset] = None         # loci branch labels, singular excluded
    grid: Optional[tuple[int, int]] = None     # build (ns, nr)


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    spec: Optional[dict] = None
    args: tuple[str, ...] = ()
    expect: Expect = field(default_factory=Expect)

    def argv(self, spec_dir: str, out_dir: str) -> list[str]:
        argv = [self.command]
        if self.spec is not None:
            argv += ["--spec", os.path.join(spec_dir, self.name + ".json")]
        return argv + list(self.args) + ["--out", out_dir]


def _num(v: float) -> str:
    return f"({v!r})"


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _gallery_spec(name: str) -> dict:
    return {"kind": "gallery", "gallery": {"name": name}}


def _graph_spec(h: str) -> dict:
    return {"kind": "graph", "graph": {"h": h}}


def _cylinder_spec(rng: random.Random) -> dict:
    s_lo, s_hi = -_coef(rng, 0.8, 0.95), _coef(rng, 0.8, 0.95)
    r = _coef(rng, 0.8, 1.0)
    return {"kind": "ruled",
            "ruled": {"seed": {"kind": "expression", "x": "s", "y": "0"},
                      "h0": "sqrt(1 - s^2)",
                      "s_range": [s_lo, s_hi], "r_range": [-r, r]}}


def _plane(rng: random.Random) -> str:
    # One of the eight symmetric images of (b, c) = (0.2, 0.3): the square
    # window maps to itself, so classify does the same work for each.  The
    # characteristic point (c, -b) stays well inside the [-2, 2]^2 window.
    b, c = rng.choice(((0.2, 0.3), (0.3, 0.2)))
    b, c = b * rng.choice((-1, 1)), c * rng.choice((-1, 1))
    return f"({_num(_coef(rng, -2, 2))} + {_num(b)}*x + {_num(c)}*y)/2"


def _shear(rng: random.Random, a_lo: float = -1.0, a_hi: float = 1.0) -> str:
    return f"x*y/2 + {_num(_coef(rng, a_lo, a_hi))}*x + {_num(_coef(rng, -1, 1))}"


def _not_minimal(rng: random.Random) -> str:
    a = _coef(rng, 0.25, 1.0) * rng.choice((-1, 1))
    return f"x*y/2 + {_num(a)}*y + {_num(_coef(rng, -1, 1))}"


def _gallery_all(rng: random.Random) -> list[Op]:
    names = list(GALLERY)
    rng.shuffle(names)
    return [Op(f"gallery-{n}", "gallery", args=(n,)) for n in names]


def _mesh_build(rng: random.Random) -> list[Op]:
    ops = [
        Op("build-cylinder", "build", _cylinder_spec(rng), ("--grid", "200", "200"),
           Expect(grid=(200, 200))),
        Op("build-catenoid", "build", _gallery_spec("catenoid"), ("--grid", "100", "100"),
           Expect(grid=(100, 100))),
        Op("build-shear", "build", _graph_spec(_shear(rng)), ("--grid", "100", "100"),
           Expect(grid=(100, 100))),
    ]
    rng.shuffle(ops)
    return ops


def _cli_mix(rng: random.Random) -> list[Op]:
    # Seeded values stay in narrow ranges, so an op costs about the same
    # on every seed and the medians over a run land on the same ops.
    char_z0 = rng.choice(((1.0, 0.0), (2.0, 0.0)))
    seeds = (("hyperbolic", (0.0, 1.0), _coef(rng, 1.4, 1.5)),
             ("catenoid", (2.0, 0.0), _coef(rng, 0.9, 1.0)),
             ("char-plane", char_z0, _coef(rng, 1.5, 1.6)))
    ops = [Op(f"seed-{name}", "seed", _gallery_spec(name),
              ("--z0", repr(z0[0]), repr(z0[1]), "--span", repr(span)))
           for name, z0, span in seeds]
    loci = {"cylinder": {"kappa-zero"}, "catenoid": set(), "counterexample": set(),
            "optreg2": {"two-roots", "kappa-zero"}}
    ops += [Op(f"loci-{name}", "loci", _gallery_spec(name),
               expect=Expect(labels=frozenset(labels)))
            for name, labels in loci.items()]
    for i, a in enumerate((-0.5, 0.5)):
        ops += [Op(f"classify-plane-{i}", "classify", _graph_spec(_plane(rng)),
                   expect=Expect(kind="class1")),
                Op(f"classify-shear-{i}", "classify",
                   _graph_spec(_shear(rng, a - 0.05, a + 0.05)), expect=Expect(kind="class2")),
                Op(f"classify-nonmin-{i}", "classify", _graph_spec(_not_minimal(rng)),
                   expect=Expect(kind="not-minimal"))]
    a, c = _coef(rng, 0.0, 0.5), _coef(rng, -1, 1)
    implicit = {"kind": "implicit",
                "implicit": {"phi": f"t - x*y/2 - {_num(a)}*x - {_num(c)}",
                             "window": {"xmin": 0.5, "xmax": 2, "ymin": 0.5, "ymax": 2}}}
    ops += [Op("verify-cylinder", "verify", _cylinder_spec(rng)),
            Op("verify-implicit", "verify", implicit, ("--grid", "11", "11"))]
    rng.shuffle(ops)
    return ops


_GENERATORS = {"gallery-all": _gallery_all, "mesh-build": _mesh_build, "cli-mix": _cli_mix}

# One fixed op per workload, run once before timing; its inputs do not
# depend on the seed, so set-up time does not either.
WARMUP = {
    "gallery-all": Op("warmup", "gallery", args=("optreg2",)),
    "mesh-build": Op("warmup", "build", _graph_spec("x*y/2"), ("--grid", "50", "50"),
                     Expect(grid=(50, 50))),
    "cli-mix": Op("warmup", "classify", _graph_spec("(4 - x - 2*y)/2"),
                  expect=Expect(kind="class1")),
}


def generate(workload: str, seed: int) -> list[Op]:
    """The ops of one pass of ``workload``, in seeded order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def write_specs(ops: list[Op], spec_dir: str) -> None:
    os.makedirs(spec_dir, exist_ok=True)
    for op in ops:
        if op.spec is not None:
            with open(os.path.join(spec_dir, op.name + ".json"), "w") as fh:
                json.dump(op.spec, fh)


def _obj_counts(path: str) -> tuple[int, int]:
    nv = nf = 0
    with open(path, "rb") as fh:
        for line in fh:
            if line.startswith(b"v "):
                nv += 1
            elif line.startswith(b"f "):
                nf += 1
    return nv, nf


def gate(op: Op, rc: int, out_dir: str) -> list[str]:
    """Problems with one op's outcome; an empty list means correct.

    Values are not compared bit for bit, so a backend that changes the
    last digit of a float still passes.
    """
    want = op.expect
    if rc != want.exit:
        return [f"exit code {rc}, expected {want.exit}"]
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"no readable report.json: {err}"]
    problems = [f"check {c['name']} failed" for c in report["checks"] if not c["pass"]]
    if not report["checks"]:
        problems.append("report has no checks")
    if want.kind is not None:
        kind = (report.get("result") or {}).get("kind")
        if kind != want.kind:
            problems.append(f"classified {kind!r}, expected {want.kind!r}")
    if want.labels is not None:
        with open(os.path.join(out_dir, "loci.csv")) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        labels = {r[7] for r in rows} - {"singular"}
        if labels != want.labels:
            problems.append(f"locus labels {sorted(labels)}, expected {sorted(want.labels)}")
    if want.grid is not None:
        ns, nr = want.grid
        nv, nf = _obj_counts(os.path.join(out_dir, "mesh.obj"))
        if (nv, nf) != (ns * nr, 2 * (ns - 1) * (nr - 1)):
            problems.append(f"mesh has {nv} vertices and {nf} faces for a {ns}x{nr} grid")
        if not any(c["name"] == "obj_lint" for c in report["checks"]):
            problems.append("build report has no obj_lint check")
    return problems
