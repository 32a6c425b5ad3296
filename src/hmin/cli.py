"""Command-line front end.

    hmin verify   --spec FILE [--grid NX NY] [--out DIR] [--tol NAME VALUE]
    hmin seed     --spec FILE --z0 X Y [--span S] [--out DIR]
    hmin build    --spec FILE [--grid NS NR] [--out DIR]
    hmin loci     --spec FILE [--out DIR]
    hmin classify --spec FILE [--out DIR]
    hmin gallery  NAME... | all [--a A] [--u0 U0] [--n N] [--R R] [--out DIR]

Specs are JSON files validated against the shipped schema
(src/hmin/spec.schema.json); field-valued entries use the expression
language of docs/grammar.md.  Outputs (report.json plus seed.csv,
loci.csv or mesh.obj depending on the command) are deterministic.

Exit codes: 0 all checks pass, 1 a check failed, 2 spec or input error
(including a surface undefined on its domain, or --z0 outside it),
3 characteristic start point, 4 unknown gallery name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from importlib import resources
from typing import Optional

import numpy as np

from . import gallery as gal
from .errors import (CharacteristicStart, HminError, OutOfRange, ParseError,
                     SpecError, UnknownName)
from .fields import Grid2, PlanarDomain, Profile
from .heis import HPoint
from .meshes import lint_obj, mesh_graph, mesh_ruled, write_obj
from .report import Report, check_flag, check_leq, digest_of, worst_abs
from .ruled import (RuledPatch, build_surface, characteristic_locus, chart_samples,
                    classify_entire_graph, curvature_on_patch)
from .seed import SeedCurve, curvature, extract_seed
from .surface import (GraphPatch, ImplicitSurface, characteristic_scan,
                      horizontal_data)

CSV_COLUMNS = ["s", "r", "x", "y", "t", "kappa", "W", "branch"]

DEFAULTS = {
    "fd_step": 1e-5,
    "hess_step": 5e-5,
    "rk4_step": 1e-3,
    "eps_char": 1e-9,
    "tol_h_analytic": 1e-8,
    "tol_h_fd": 1e-4,
    "w_margin": 1e-3,
}


# ---------------------------------------------------------------------------
# Spec loading
# ---------------------------------------------------------------------------


def load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as err:
        raise SpecError(f"cannot read spec file: {err}") from None
    except json.JSONDecodeError as err:
        raise SpecError(f"invalid JSON in {path}: {err}") from None
    import jsonschema
    schema = json.loads(resources.files("hmin").joinpath("spec.schema.json").read_text())
    try:
        jsonschema.validate(spec, schema)
    except jsonschema.ValidationError as err:
        raise SpecError(f"spec validation failed: {err.message}") from None
    kind = spec["kind"]
    if kind not in spec:
        raise SpecError(f"spec kind is {kind!r} but no {kind!r} section is present")
    return spec


def numeric_of(spec: dict) -> dict:
    num = dict(DEFAULTS)
    num.update(spec.get("numeric", {}))
    return num


def _domain_of(d: Optional[dict], default_half: float = 2.0) -> PlanarDomain:
    if d is None:
        return PlanarDomain(-default_half, default_half, -default_half, default_half)
    return PlanarDomain(d["xmin"], d["xmax"], d["ymin"], d["ymax"])


def graph_from_spec(spec: dict, num: dict) -> GraphPatch:
    g = spec["graph"]
    dom = _domain_of(g.get("domain"))
    try:
        patch = GraphPatch.from_expr(g["h"], dom)
    except ParseError as err:
        raise SpecError(f"bad height expression: {err}") from None
    patch.h.fd_step = num["fd_step"]
    patch.h.hess_step = num["hess_step"]
    if g.get("fd_only"):
        patch = patch.fd_only()
    return patch


def implicit_from_spec(spec: dict) -> ImplicitSurface:
    imp = spec["implicit"]
    try:
        return ImplicitSurface.from_expr(imp["phi"], imp.get("orientation", 1))
    except ParseError as err:
        raise SpecError(f"bad level-set expression: {err}") from None


def ruled_from_spec(spec: dict, num: dict) -> RuledPatch:
    ru = spec["ruled"]
    s_range = tuple(ru["s_range"])
    r_range = tuple(ru["r_range"]) if "r_range" in ru else (-1.0, 1.0)
    seed_spec = ru["seed"]
    try:
        if seed_spec["kind"] == "expression":
            px, py = Profile.from_expr(seed_spec["x"]), Profile.from_expr(seed_spec["y"])
            curve = SeedCurve.from_callables(
                lambda s: (px.f(s), py.f(s)),
                lambda s: (px.d1(s), py.d1(s)),
                lambda s: (px.d2(s), py.d2(s)),
                s_range)
        else:
            curve = _seed_from_csv(seed_spec["path"], s_range)
        h0 = Profile.from_expr(ru["h0"])
    except ParseError as err:
        raise SpecError(f"bad ruled-spec expression: {err}") from None
    try:
        return build_surface(curve, h0, s_range, r_range)
    except HminError as err:
        raise SpecError(str(err)) from None


def _seed_from_csv(path: str, s_range: tuple[float, float]) -> SeedCurve:
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
    except OSError as err:
        raise SpecError(f"cannot read seed samples: {err}") from None
    if rows.ndim != 2 or rows.shape[1] < 5:
        raise SpecError("seed sample file needs columns s,x,y,dx,dy")
    s = rows[:, 0]
    g = rows[:, 1:3]
    dg = rows[:, 3:5]
    ddg = np.gradient(dg, s, axis=0)
    return SeedCurve(s, g, dg, ddg, provenance="extracted")


def _gallery_entry(spec: dict) -> gal.GalleryEntry:
    gs = spec["gallery"]
    return gal.gallery_get(gs["name"], **gs.get("params", {}))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_csv(path: str, rows: list[dict], extra_columns: tuple[str, ...] = ()):
    cols = CSV_COLUMNS + list(extra_columns)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            out = []
            for c in cols:
                v = row.get(c, "")
                out.append(v if isinstance(v, str) else repr(float(v)))
            fh.write(",".join(out) + "\n")


def _emit(report: Report, out_dir: str, quiet: bool = False) -> int:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write(report.to_json() + "\n")
    report.outputs.append(path)
    if not quiet:
        for c in report.checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: "
                  f"measured {c.measured:.6e}, threshold {c.threshold:.1e}"
                  + (f"  ({c.note})" if c.note else ""))
        print(f"{'OK' if report.passed else 'CHECKS FAILED'}: {report.command}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    num = numeric_of(spec)
    report = Report("verify", digest_of(spec), defaults=num)
    t0 = time.time()
    nx, ny = args.grid
    tol_overrides = dict(args.tol or [])

    if spec["kind"] == "gallery":
        gs = spec["gallery"]
        for c in gal.gallery_verify(gs["name"], tolerances=tol_overrides or None,
                                    **gs.get("params", {})):
            report.add(c)
    elif spec["kind"] == "graph":
        patch = graph_from_spec(spec, num)
        tol = float(tol_overrides.get(
            "h", num["tol_h_analytic"] if patch.analytic else num["tol_h_fd"]))
        dev = gal.max_curvature_deviation(patch, patch.domain, nx, ny,
                                          w_margin=num["w_margin"])
        report.add(check_leq("max_abs_h_curvature", dev, tol))
        scan = characteristic_scan(patch, Grid2(patch.domain, nx, ny), num["eps_char"])
        report.add(check_flag("characteristic_scan", True,
                              note=f"{len(scan.components)} component(s)"))
    elif spec["kind"] == "implicit":
        surf = implicit_from_spec(spec)
        imp = spec["implicit"]
        dom = _domain_of(imp.get("window"))
        t_guess = imp.get("t0", 0.0)
        tol = float(tol_overrides.get("h", num["tol_h_analytic"]))
        values, skipped = [], 0
        for x, y in Grid2(dom, nx, ny).nodes:
            try:
                g = HPoint(x, y, surf.solve_height(x, y, t_guess))
                if surf.horizontal_data(g).w <= num["w_margin"]:
                    skipped += 1
                    continue
                values.append(surf.h_mean_curvature(g))
            except HminError:
                skipped += 1
        report.add(check_leq("max_abs_h_curvature", worst_abs(values), tol,
                             note=f"{skipped} nodes skipped"))
    else:
        patch = ruled_from_spec(spec, num)
        worst = worst_abs(curvature_on_patch(patch, s, r) for s, r in chart_samples(patch, 9))
        report.add(check_leq("built_patch_minimal", worst, 1e-6))
    report.wall_time_s = time.time() - t0
    return _emit(report, args.out)


def cmd_seed(args) -> int:
    spec = load_spec(args.spec)
    num = numeric_of(spec)
    report = Report("seed", digest_of(spec), defaults=num)
    t0 = time.time()
    entry = None
    if spec["kind"] == "gallery":
        entry = _gallery_entry(spec)
        if entry.graph is None:
            raise SpecError(f"gallery entry {entry.name!r} has no graph form to trace on")
        patch = entry.graph
    elif spec["kind"] == "graph":
        patch = graph_from_spec(spec, num)
    else:
        raise SpecError("seed extraction needs a graph or gallery spec")

    z0 = tuple(args.z0)
    if not patch.domain.contains(*z0):
        raise OutOfRange(f"--z0 {z0} is outside the patch domain")
    curve = extract_seed(patch, z0, args.span, step=num["rk4_step"],
                         eps_char=num["eps_char"])
    rows = []
    for i, s in enumerate(curve.s):
        x, y = float(curve.g[i, 0]), float(curve.g[i, 1])
        rows.append({
            "s": float(s), "r": 0.0, "x": x, "y": y,
            "t": patch.h.value(x, y),
            "kappa": curvature(curve, float(s)),
            "W": horizontal_data(patch, (x, y)).w,
            "branch": "seed",
            "dx": float(curve.dg[i, 0]), "dy": float(curve.dg[i, 1]),
        })
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "seed.csv")
    _write_csv(csv_path, rows, extra_columns=("dx", "dy"))
    report.outputs.append(csv_path)

    unit_dev = worst_abs(math.hypot(*curve.tangent(float(s))) - 1.0 for s in curve.s)
    report.add(check_leq("arclength_unit_tangent", unit_dev, 1e-8))
    if entry is not None and entry.known_seed is not None:
        dev = gal.known_seed_deviation(curve, entry.known_seed(z0))
        report.add(check_leq("closed_form_seed", dev, 1e-6))
    if entry is not None and entry.radius_law is not None:
        dev = worst_abs(curve.point(float(s))[0] ** 2 + curve.point(float(s))[1] ** 2
                        - entry.radius_law(z0, float(s))
                        for s in np.linspace(curve.s_min, curve.s_max, 101))
        report.add(check_leq("radius_law", dev, 1e-6))
    report.wall_time_s = time.time() - t0
    return _emit(report, args.out)


def cmd_build(args) -> int:
    spec = load_spec(args.spec)
    num = numeric_of(spec)
    report = Report("build", digest_of(spec), defaults=num)
    t0 = time.time()
    ns, nr = args.grid
    patch = None
    graph = None
    if spec["kind"] == "ruled":
        patch = ruled_from_spec(spec, num)
    elif spec["kind"] == "gallery":
        entry = _gallery_entry(spec)
        if entry.ruled is not None:
            patch = entry.ruled()
        elif entry.graph is not None:
            graph = entry.graph
        else:
            raise SpecError(f"gallery entry {entry.name!r} has nothing to mesh")
    elif spec["kind"] == "graph":
        graph = graph_from_spec(spec, num)
    else:
        raise SpecError("build needs a ruled, graph or gallery spec")

    if patch is not None:
        mesh = mesh_ruled(patch, ns, nr)
        worst = worst_abs(curvature_on_patch(patch, s, r) for s, r in chart_samples(patch, 7))
        report.add(check_leq("post_build_minimal", worst, 1e-6))
        report.add(check_flag("clamped_samples", True, note=f"{mesh.clamped} moved"))
    else:
        mesh = mesh_graph(graph, ns, nr)
        dev = gal.max_curvature_deviation(graph, graph.domain, min(ns, 41), min(nr, 41),
                                          w_margin=num["w_margin"])
        tol = num["tol_h_analytic"] if graph.analytic else num["tol_h_fd"]
        report.add(check_leq("post_build_minimal", dev, tol))

    os.makedirs(args.out, exist_ok=True)
    obj_path = os.path.join(args.out, "mesh.obj")
    write_obj(mesh, obj_path)
    report.outputs.append(obj_path)
    problems = lint_obj(obj_path)
    report.add(check_flag("obj_lint", not problems,
                          note="; ".join(problems[:3]) if problems else "clean"))
    report.wall_time_s = time.time() - t0
    return _emit(report, args.out)


def cmd_loci(args) -> int:
    spec = load_spec(args.spec)
    num = numeric_of(spec)
    report = Report("loci", digest_of(spec), defaults=num)
    t0 = time.time()
    if spec["kind"] == "ruled":
        patch = ruled_from_spec(spec, num)
    elif spec["kind"] == "gallery":
        entry = _gallery_entry(spec)
        if entry.ruled is None:
            raise SpecError(f"gallery entry {entry.name!r} has no ruled construction")
        patch = entry.ruled()
    else:
        raise SpecError("loci needs a ruled or gallery spec")

    rep = characteristic_locus(patch)
    rows = []
    for root in rep.roots:
        rows.append({
            "s": root.s, "r": root.r,
            "x": root.image.x, "y": root.image.y, "t": root.image.t,
            "kappa": curvature(patch.seed, root.s),
            "W": root.w_formula, "branch": root.label,
        })
    for s_arr, r_arr in rep.singular.branches:
        for s, r in zip(s_arr, r_arr):
            g = patch.embed(float(s), float(r))
            rows.append({
                "s": float(s), "r": float(r), "x": g.x, "y": g.y, "t": g.t,
                "kappa": curvature(patch.seed, float(s)),
                "W": float("nan"), "branch": "singular",
            })
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "loci.csv")
    _write_csv(csv_path, rows)
    report.outputs.append(csv_path)
    report.add(check_flag("roots_verified",
                          all(r.verified for r in rep.roots),
                          note=f"{len(rep.roots)} root(s)"))
    corners = _branch_corners(rep)
    report.add(check_flag("branch_corners", True,
                          note=("slope jump at s = " + ", ".join(f"{s:.6g}" for s in corners))
                          if corners else "none detected"))
    report.wall_time_s = time.time() - t0
    return _emit(report, args.out)


def _branch_corners(rep, jump_tol: float = 0.5) -> list[float]:
    """s-locations where a characteristic branch has a slope jump.

    The bounded branch (largest root per sampled s) is differenced; a
    second-difference of the slopes beyond ``jump_tol`` marks a corner.
    """
    by_s: dict[float, float] = {}
    for root in rep.roots:
        if root.s not in by_s or root.r > by_s[root.s]:
            by_s[root.s] = root.r
    svals = sorted(by_s)
    corners = []
    for i in range(1, len(svals) - 1):
        s0, s1, s2 = svals[i - 1], svals[i], svals[i + 1]
        left = (by_s[s1] - by_s[s0]) / (s1 - s0)
        right = (by_s[s2] - by_s[s1]) / (s2 - s1)
        if abs(right - left) > jump_tol:
            corners.append(s1)
    return corners


def cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    num = numeric_of(spec)
    report = Report("classify", digest_of(spec), defaults=num)
    t0 = time.time()
    if spec["kind"] == "graph":
        patch = graph_from_spec(spec, num)
    elif spec["kind"] == "gallery":
        entry = _gallery_entry(spec)
        if entry.graph is None:
            raise SpecError(f"gallery entry {entry.name!r} has no graph form")
        patch = entry.graph
    else:
        raise SpecError("classify needs a graph or gallery spec")

    verdict = classify_entire_graph(patch)
    detail: dict = {"kind": verdict.kind}
    if verdict.kind == "class1":
        detail.update(plane=[verdict.a, verdict.b, verdict.c, verdict.d],
                      sigma=list(verdict.sigma), residual=verdict.residual)
    elif verdict.kind == "class2":
        detail.update(direction=list(verdict.direction), base=list(verdict.base),
                      alpha=verdict.alpha, rebuild_error=verdict.rebuild_error)
    elif verdict.kind == "not-minimal":
        detail.update(max_curvature=verdict.max_curvature, at=list(verdict.at))
    else:
        detail.update(reason=verdict.reason)
    report.result = detail
    report.add(check_flag(f"classified_{verdict.kind}", True, note=json.dumps(detail)))
    print(f"classification: {verdict.kind}  {detail}")
    report.wall_time_s = time.time() - t0
    return _emit(report, args.out, quiet=True)


def cmd_gallery(args) -> int:
    names = args.names
    if names == ["all"]:
        names = gal.gallery_names()
    params = {}
    for key in ("a", "u0", "R", "b", "c", "d", "n"):
        v = getattr(args, key)
        if v is not None:
            params[key] = v

    report = Report("gallery", digest_of({"names": names, "params": params}),
                    defaults=dict(DEFAULTS))
    t0 = time.time()
    for name in names:
        for c in gal.gallery_verify(name, **_params_for(name, params)):
            c.name = f"{name}.{c.name}"
            report.add(c)
    report.wall_time_s = time.time() - t0
    return _emit(report, args.out)


def _params_for(name: str, params: dict) -> dict:
    allowed = {
        "char-plane": set(), "hyperbolic": set(), "counterexample": set(),
        "cylinder": set(), "optreg2": set(),
        "general-plane": {"a", "b", "c", "d"},
        "catenoid": {"a", "u0"},
        "iso-profile": {"R"},
        "gencurve-n": {"n"},
    }
    key = "gencurve-n" if name.startswith("gencurve-") else name
    ok = allowed.get(key, set())
    return {k: v for k, v in params.items() if k in ok}


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hmin", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_default=None):
        p.add_argument("--spec", required=True, help="JSON surface specification")
        p.add_argument("--out", default=".", help="output directory")
        if grid_default:
            p.add_argument("--grid", nargs=2, type=int, default=grid_default,
                           metavar=("NX", "NY"))

    p = sub.add_parser("verify", help="curvature and characteristic scans")
    common(p, grid_default=[101, 101])
    p.add_argument("--tol", nargs=2, action="append", metavar=("NAME", "VALUE"),
                   type=str, help="tolerance override, e.g. --tol h 1e-6")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("seed", help="extract a seed curve to CSV")
    common(p)
    p.add_argument("--z0", nargs=2, type=float, required=True, metavar=("X", "Y"))
    p.add_argument("--span", type=float, default=1.0, help="arclength half-span")
    p.set_defaults(fn=cmd_seed)

    p = sub.add_parser("build", help="mesh a surface to OBJ")
    common(p, grid_default=[50, 50])
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("loci", help="characteristic and singular loci to CSV")
    common(p)
    p.set_defaults(fn=cmd_loci)

    p = sub.add_parser("classify", help="classify an entire minimal graph")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("gallery", help="verify built-in gallery entries")
    p.add_argument("names", nargs="+", help="entry names or 'all'")
    p.add_argument("--out", default=".")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--u0", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--R", type=float, default=None)
    p.set_defaults(fn=cmd_gallery)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol", None):
        args.tol = [(name, float(val)) for name, val in args.tol]
    try:
        return args.fn(args)
    except CharacteristicStart as err:
        print(f"error: characteristic start point: {err}", file=sys.stderr)
        return 3
    except UnknownName as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except HminError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
