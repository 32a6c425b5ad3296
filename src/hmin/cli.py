"""Command-line front end.

    hmin verify   --spec FILE [--grid NX NY] [--out DIR]
    hmin seed     --spec FILE --z0 X Y [--span S] [--out DIR]
    hmin build    --spec FILE [--grid NS NR] [--out DIR]
    hmin loci     --spec FILE [--out DIR]
    hmin classify --spec FILE [--out DIR]
    hmin gallery  NAME... | all [--a A] [--u0 U0] [--n N] [--R R] [--out DIR]

Specs are JSON files validated by hmin.schema against the shipped schema
(src/hmin/spec.schema.json); field-valued entries use the expression
language of docs/grammar.md.  Outputs (report.json plus seed.csv,
loci.csv or mesh.obj depending on the command) are deterministic.  verify
reads --grid for graph and implicit specs only: a ruled spec is checked on
a 9x9 chart and a gallery spec on its battery's own grids.

Exit codes: 0 all checks pass, 1 a check failed (a height that is not
finite fails the check that reads it), 2 spec or input error (including
a flagged characteristic-scan node, mesh vertex or loci row whose height
is not finite, a loci s where W0 or kappa is not finite, a domain,
window, s_range or r_range that is not finite and ordered, an implicit
t0 that is not finite, an expression using a variable its field does not
take or nested too deeply to evaluate, --z0 outside it or where W is NaN,
a --span that is not positive or is longer than MAX_SEED_STEPS RK4 steps
(a span of 1000), a --grid value below 2 or a --grid of more than
MAX_GRID_NODES nodes (a 2000x2000 lattice), a spec or seed sample file
that cannot be decoded, or a seed sample file with fewer than two rows or
whose s is not strictly increasing), 3 characteristic start point, 4
unknown gallery name or bad gallery parameter (including one that no
named entry takes, and a gencurve-<k> suffix that differs from --n), a
gallery name given twice, or all next to another name.  A spec
validation message is cut after 200 characters.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import warnings
from typing import TYPE_CHECKING, Optional

import numpy as np

# What every command runs; the gallery, the ruled chart, the seed tracer and
# the mesh writer are imported by the code that runs them.
from .errors import (CharacteristicStart, HminError, OutOfRange, ParseError,
                     SpecError, UnknownName)
from .expr import pointwise
from .fields import FD_STEP, HESS_STEP, RK4_STEP, Grid2, PlanarDomain, Profile, chunks, finite
from .report import Report, check_flag, check_leq, digest_of, worst_abs
from .surface import (EPS_CHAR, TOL_H_ANALYTIC, TOL_H_FD, W_MARGIN, GraphPatch, ImplicitSurface,
                      ScanLattice, characteristic_scan, horizontal_data, max_curvature_deviation)

if TYPE_CHECKING:
    from .gallery import GalleryEntry
    from .ruled import LociReport, RuledPatch
    from .seed import SeedCurve

# gallery command options; each entry takes the ones gallery.gallery_params names
GALLERY_OPTIONS = {"a": float, "u0": float, "b": float, "c": float, "d": float,
                   "n": int, "R": float}

# the most RK4 steps seed traces in each direction: --span / rk4_step
MAX_SEED_STEPS = 100_000
# the most lattice nodes a --grid may ask for: NX * NY (a 2000x2000 mesh)
MAX_GRID_NODES = 4_000_000

# The fixed numerical settings, echoed into every report.
DEFAULTS = {
    "fd_step": FD_STEP,
    "hess_step": HESS_STEP,
    "rk4_step": RK4_STEP,
    "eps_char": EPS_CHAR,
    "tol_h_analytic": TOL_H_ANALYTIC,
    "tol_h_fd": TOL_H_FD,
    "w_margin": W_MARGIN,
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
    # ValueError covers JSONDecodeError, UnicodeDecodeError and int()'s digit limit
    except (ValueError, RecursionError) as err:
        raise SpecError(f"invalid JSON in {path}: {err}") from None
    from .schema import spec_error
    message = spec_error(spec)
    if message is not None:
        # the message quotes the offending value, which may be as long as the spec
        raise SpecError(f"spec validation failed: {message[:200]}"
                        + ("..." if len(message) > 200 else ""))
    kind = spec["kind"]
    if kind not in spec:
        raise SpecError(f"spec kind is {kind!r} but no {kind!r} section is present")
    return spec


def _interval(name: str, lo: float, hi: float, *, strict: bool) -> tuple[float, float]:
    """A spec interval: finite bounds and width, lo <= hi (lo < hi when strict)."""
    if not (finite(lo) and finite(hi) and finite(hi - lo)):
        raise SpecError(f"{name} [{lo!r}, {hi!r}] needs finite bounds and a finite width")
    if not (lo < hi if strict else lo <= hi):
        raise SpecError(f"{name} [{lo!r}, {hi!r}] needs min {'<' if strict else '<='} max")
    return (lo, hi)


def _domain_of(d: Optional[dict]) -> PlanarDomain:
    if d is None:
        return PlanarDomain(-2.0, 2.0, -2.0, 2.0)
    return PlanarDomain(*_interval("domain x range", d["xmin"], d["xmax"], strict=False),
                        *_interval("domain y range", d["ymin"], d["ymax"], strict=False))


def graph_from_spec(spec: dict) -> GraphPatch:
    g = spec["graph"]
    dom = _domain_of(g.get("domain"))
    try:
        patch = GraphPatch.from_expr(g["h"], dom)
    except ParseError as err:
        raise SpecError(f"bad height expression: {err}") from None
    if not g.get("fd_only"):
        return patch
    # the finite-difference stencils of a node must stay in the declared
    # domain, so the patch (and every grid over it) is inset by two steps:
    # one step alone would leave the outermost stencil points to rounding
    field = patch.h.fd_only()
    m = 2.0 * max(FD_STEP, HESS_STEP)
    xs = _interval("fd_only inset x range", dom.xmin + m, dom.xmax - m, strict=False)
    ys = _interval("fd_only inset y range", dom.ymin + m, dom.ymax - m, strict=False)
    return GraphPatch(PlanarDomain(*xs, *ys), field)


def implicit_from_spec(spec: dict) -> ImplicitSurface:
    imp = spec["implicit"]
    try:
        return ImplicitSurface.from_expr(imp["phi"])
    except ParseError as err:
        raise SpecError(f"bad level-set expression: {err}") from None


def ruled_from_spec(spec: dict) -> RuledPatch:
    from .ruled import build_surface
    from .seed import SeedCurve
    ru = spec["ruled"]
    s_range = _interval("s_range", *ru["s_range"], strict=True)
    r_range = _interval("r_range", *ru["r_range"], strict=False) if "r_range" in ru else (-1.0, 1.0)
    seed_spec = ru["seed"]
    try:
        if seed_spec["kind"] == "expression":
            px, py = Profile.from_expr(seed_spec["x"]), Profile.from_expr(seed_spec["y"])
            curve = SeedCurve.from_callables(
                lambda s: (px(s), py(s)),
                lambda s: (px.d(s), py.d(s)),
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
    from .seed import SeedCurve
    try:
        with warnings.catch_warnings():   # an empty file is refused below, not warned of
            warnings.simplefilter("ignore")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as err:
        raise SpecError(f"cannot read seed samples: {err}") from None
    if len(rows) < 2:
        raise SpecError("seed sample file needs at least two rows of samples")
    if rows.shape[1] < 5:
        raise SpecError("seed sample file needs columns s,x,y,dx,dy")
    s = rows[:, 0]
    if not np.all(np.diff(s) > 0):
        raise SpecError("seed sample s must be strictly increasing")
    g = rows[:, 1:3]
    dg = rows[:, 3:5]
    ddg = np.gradient(dg, s, axis=0)
    return SeedCurve(s, g, dg, ddg)


def _gallery_entry(spec: dict) -> Optional[GalleryEntry]:
    """The entry a gallery spec names; None for the other kinds."""
    if spec["kind"] != "gallery":
        return None
    from .gallery import gallery_get
    gs = spec["gallery"]
    return gallery_get(gs["name"], **gs.get("params", {}))


def _graph_of(spec: dict, entry: Optional[GalleryEntry]) -> Optional[GraphPatch]:
    """A graph spec's patch, or the graph form of the spec's gallery entry."""
    if spec["kind"] == "graph":
        return graph_from_spec(spec)
    return entry.graph if entry is not None else None


def _ruled_of(spec: dict, entry: Optional[GalleryEntry]) -> Optional[RuledPatch]:
    """A ruled spec's patch, or the ruled construction of the spec's gallery entry."""
    if spec["kind"] == "ruled":
        return ruled_from_spec(spec)
    return entry.ruled() if entry is not None and entry.ruled is not None else None


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_csv(path: str, columns: dict):
    """A CSV file of ``columns``, in their order: name -> equally long float
    arrays, written with ``repr``, or lists of strings."""
    cells = [c if isinstance(c, list) else list(map(repr, c.tolist())) for c in columns.values()]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _output_path(report: Report, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    report.outputs.append(path)
    return path


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
# Commands: each adds its checks and outputs to the report main() made
# ---------------------------------------------------------------------------


def cmd_verify(args, spec: dict, report: Report) -> None:
    nx, ny = args.grid
    if spec["kind"] == "gallery":
        from .gallery import gallery_verify
        gs = spec["gallery"]
        for c in gallery_verify(gs["name"], **gs.get("params", {})):
            report.add(c)
    elif spec["kind"] == "graph":
        patch = graph_from_spec(spec)
        tol = TOL_H_ANALYTIC if patch.analytic else TOL_H_FD
        # one read of the lattice for both checks
        lattice = ScanLattice(Grid2(patch.domain, nx, ny))
        dev = max_curvature_deviation(patch, patch.domain, nx, ny, lattice=lattice)
        report.add(check_leq("max_abs_h_curvature", dev, tol))
        scan = characteristic_scan(lattice)
        note = f"{len(scan.components)} component(s)"
        if scan.undefined_w:
            note += f", {scan.undefined_w} node(s) where W is not finite"
        # a node where W is not finite may hide a characteristic point
        report.add(check_flag("characteristic_scan", not scan.undefined_w, note=note))
    elif spec["kind"] == "implicit":
        surf = implicit_from_spec(spec)
        imp = spec["implicit"]
        window, t0 = _domain_of(imp.get("window")), imp.get("t0", 0.0)
        if not finite(t0):
            raise SpecError(f"implicit t0 {t0!r} needs to be finite")
        values, near, no_height = [], 0, 0
        for x, y in chunks(*Grid2(window, nx, ny).points()):
            t = surf.solve_height(x, y, t0)
            solved = np.isfinite(t)
            no_height += len(t) - int(solved.sum())
            x, y, t = x[solved], y[solved], t[solved]
            far = ~(surf.horizontal_data(x, y, t) <= W_MARGIN)
            near += len(t) - int(far.sum())
            values.append(surf.h_mean_curvature(x[far], y[far], t[far]))
        report.add(check_leq("max_abs_h_curvature", worst_abs(np.concatenate(values)),
                             TOL_H_ANALYTIC,
                             note=f"{sum(map(len, values))} nodes evaluated, {near} near the "
                                  f"characteristic set, {no_height} without a height"))
    else:
        from .ruled import chart_samples, curvature_on_patch
        patch = ruled_from_spec(spec)
        worst = worst_abs(curvature_on_patch(patch, *chart_samples(patch, 9)))
        report.add(check_leq("built_patch_minimal", worst, 1e-6))


def cmd_seed(args, spec: dict, report: Report) -> None:
    from .seed import curvature, extract_seed
    entry = _gallery_entry(spec)
    patch = _graph_of(spec, entry)
    if patch is None:
        raise SpecError("seed needs a graph spec or a gallery entry with a graph form")
    # NaN, inf and a span too long to trace fail it
    if not (0.0 < args.span and args.span / RK4_STEP <= MAX_SEED_STEPS):
        raise OutOfRange(f"--span {args.span!r}: the arclength half-span must be positive and "
                         f"at most {MAX_SEED_STEPS * RK4_STEP:g} ({MAX_SEED_STEPS} RK4 steps "
                         f"of {RK4_STEP:g})")
    z0 = tuple(args.z0)
    if not patch.domain.contains(*z0):
        raise OutOfRange(f"--z0 {z0} is outside the patch domain")
    curve = extract_seed(patch, z0, args.span)
    t, w = [], []
    for x, y in chunks(*curve.g.T):
        jet = patch.h.jet(x, y)
        t.append(jet[0])
        w.append(horizontal_data(patch, (x, y), jet=jet))
    n = len(curve.s)
    _write_csv(_output_path(report, args.out, "seed.csv"), {
        "s": curve.s, "r": np.zeros(n), "x": curve.g[:, 0], "y": curve.g[:, 1],
        "t": np.concatenate(t), "kappa": curvature(curve, curve.s), "W": np.concatenate(w),
        "branch": ["seed"] * n, "dx": curve.dg[:, 0], "dy": curve.dg[:, 1]})

    unit_dev = worst_abs(pointwise(math.hypot, *curve.tangent(curve.s)) - 1.0)
    report.add(check_leq("arclength_unit_tangent", unit_dev, 1e-8))
    if entry is None:
        return
    from .gallery import known_seed_deviation, radius_law_deviation
    if entry.known_seed is not None:
        dev = known_seed_deviation(curve, entry.known_seed(z0))
        report.add(check_leq("closed_form_seed", dev, 1e-6))
    if entry.radius_law is not None:
        dev = radius_law_deviation(curve, entry.radius_law, z0,
                                   np.linspace(curve.s_min, curve.s_max, 101))
        report.add(check_leq("radius_law", dev, 1e-6))


def cmd_build(args, spec: dict, report: Report) -> None:
    from .meshes import lint_obj, mesh_graph, mesh_ruled, write_obj
    ns, nr = args.grid
    entry = _gallery_entry(spec)
    patch = _ruled_of(spec, entry)
    if patch is not None:
        from .ruled import chart_samples, curvature_on_patch
        mesh = mesh_ruled(patch, ns, nr)
        worst = worst_abs(curvature_on_patch(patch, *chart_samples(patch, 7)))
        report.add(check_leq("post_build_minimal", worst, 1e-6))
        report.add(check_flag("clamped_samples", True, note=f"{mesh.clamped} moved"))
    else:
        graph = _graph_of(spec, entry)
        if graph is None:
            raise SpecError("build needs a ruled or graph spec, or a gallery entry with either")
        mesh = mesh_graph(graph, ns, nr)
        dev = max_curvature_deviation(graph, graph.domain, min(ns, 41), min(nr, 41))
        tol = TOL_H_ANALYTIC if graph.analytic else TOL_H_FD
        report.add(check_leq("post_build_minimal", dev, tol))

    obj_path = _output_path(report, args.out, "mesh.obj")
    write_obj(mesh, obj_path)
    del mesh    # the lint reads only the file, so the mesh need not outlive the write
    problems = lint_obj(obj_path)
    report.add(check_flag("obj_lint", not problems,
                          note="; ".join(problems[:3]) if problems else "clean"))


def cmd_loci(args, spec: dict, report: Report) -> None:
    from .ruled import characteristic_locus
    from .seed import curvature
    patch = _ruled_of(spec, _gallery_entry(spec))
    if patch is None:
        raise SpecError("loci needs a ruled spec or a gallery entry with a ruled construction")
    rep = characteristic_locus(patch)
    s = np.concatenate([np.empty(0)] + [b for b, _ in rep.singular])
    r = np.concatenate([np.empty(0)] + [b for _, b in rep.singular])
    singular = (s, r, *patch.embed(s, r), np.full(len(s), math.nan))
    roots = (rep.s, rep.r, rep.x, rep.y, rep.t, rep.w)
    # the rows of the roots, then those of the singular branches
    s, r, x, y, t, w = (np.concatenate(pair) for pair in zip(roots, singular))
    _write_csv(_output_path(report, args.out, "loci.csv"), {
        "s": s, "r": r, "x": x, "y": y, "t": t, "kappa": curvature(patch.seed, s), "W": w,
        "branch": rep.label + ["singular"] * len(singular[0])})
    report.add(check_flag("roots_verified", rep.verified.all(),
                          note=f"{len(rep.s)} root(s)"))
    corners = _branch_corners(rep)
    report.add(check_flag("branch_corners", True,
                          note=("slope jump at s = " + ", ".join(f"{s:.6g}" for s in corners))
                          if corners else "none detected"))


def _branch_corners(rep: LociReport) -> list[float]:
    """s-locations where the bounded characteristic branch has a corner.

    The branch is the largest root at each sampled s.  Its slope between
    neighbouring samples is differenced, and s is a corner where that jump
    is above 0.5 and more than 4 times the jump at each neighbouring s: a
    steep but smooth branch changes its slope gradually.
    """
    last = np.diff(rep.s, append=np.inf) != 0.0
    s, r = rep.s[last], rep.r[last]
    jump = abs(np.diff(np.diff(r) / np.diff(s)))
    beside = np.pad(jump, 1)
    corner = (jump > 0.5) & (jump > 4.0 * beside[:-2]) & (jump > 4.0 * beside[2:])
    return s[1:-1][corner].tolist()


def cmd_classify(args, spec: dict, report: Report) -> None:
    from .ruled import classify_entire_graph
    patch = _graph_of(spec, _gallery_entry(spec))
    if patch is None:
        raise SpecError("classify needs a graph spec or a gallery entry with a graph form")
    report.result = verdict = classify_entire_graph(patch)
    report.add(check_flag(f"classified_{verdict['kind']}", True, note=json.dumps(verdict)))
    print(f"classification: {verdict['kind']}  {verdict}")


def _entry_params(name: str, params: dict) -> dict:
    """The parameters of a gallery request that entry ``name`` takes."""
    from .gallery import gallery_params
    accepted = gallery_params(name)
    return {k: v for k, v in params.items() if k in accepted}


def _gallery_request(args) -> dict:
    """The gallery command's input: entry names and the parameters given.

    ``all`` stands alone, no name is given twice, some entry takes each
    parameter, every name resolves to an entry, and no two names spell one
    entry (``gencurve-n`` and ``gencurve-3``).
    """
    from .gallery import gallery_key, gallery_names, gallery_params
    if "all" in args.names and args.names != ["all"]:
        raise UnknownName(f"'all' names every entry, so it takes no other name: {args.names}")
    repeated = sorted({n for n in args.names if args.names.count(n) > 1})
    if repeated:
        raise UnknownName(f"a gallery entry is named once; named more than once: "
                          f"{', '.join(map(repr, repeated))}")
    names = gallery_names() if args.names == ["all"] else args.names
    params = {k: getattr(args, k) for k in GALLERY_OPTIONS if getattr(args, k) is not None}
    accepted_by_any = set().union(*map(gallery_params, names))
    for k in params:
        if k not in accepted_by_any:
            raise UnknownName(f"--{k}: no entry of {names} takes this parameter")
    spelled: dict[tuple, str] = {}
    for name in names:   # a name that does not resolve is reported before any battery runs
        key = gallery_key(name, **_entry_params(name, params))
        if key in spelled:
            builder, arguments = key
            given = ", ".join(f"{k} = {v!r}" for k, v in arguments) or "no parameters"
            raise UnknownName(f"a gallery entry is named once; {spelled[key]!r} and {name!r} "
                              f"both name {builder} with {given}")
        spelled[key] = name
    return {"names": names, "params": params}


def cmd_gallery(args, request: dict, report: Report) -> None:
    from .gallery import gallery_verify
    for name in request["names"]:
        for c in gallery_verify(name, **_entry_params(name, request["params"])):
            c.name = f"{name}.{c.name}"
            report.add(c)


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one.  It holds no mutable default and no command function, so one parse
    carries nothing into the next."""
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
    common(p, grid_default=(101, 101))

    p = sub.add_parser("seed", help="extract a seed curve to CSV")
    common(p)
    p.add_argument("--z0", nargs=2, type=float, required=True, metavar=("X", "Y"))
    p.add_argument("--span", type=float, default=1.0, help="arclength half-span")

    p = sub.add_parser("build", help="mesh a surface to OBJ")
    common(p, grid_default=(50, 50))

    p = sub.add_parser("loci", help="characteristic and singular loci to CSV")
    common(p)

    p = sub.add_parser("classify", help="classify an entire minimal graph")
    common(p)

    p = sub.add_parser("gallery", help="verify built-in gallery entries")
    p.add_argument("names", nargs="+", help="entry names or 'all'")
    p.add_argument("--out", default=".")
    for key, kind in GALLERY_OPTIONS.items():
        p.add_argument(f"--{key}", type=kind, default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        grid = getattr(args, "grid", None)
        if grid is not None and (min(grid) < 2 or grid[0] * grid[1] > MAX_GRID_NODES):
            raise OutOfRange(f"--grid {grid[0]} {grid[1]}: every value must be at least 2 "
                             f"and their product at most {MAX_GRID_NODES}")
        spec = _gallery_request(args) if args.command == "gallery" else load_spec(args.spec)
        report = Report(args.command, digest_of(spec), defaults=dict(DEFAULTS))
        command = {"verify": cmd_verify, "seed": cmd_seed, "build": cmd_build, "loci": cmd_loci,
                   "classify": cmd_classify, "gallery": cmd_gallery}[args.command]
        t0 = time.time()
        command(args, spec, report)
        report.wall_time_s = time.time() - t0
        return _emit(report, args.out, quiet=args.command == "classify")
    except CharacteristicStart as err:
        print(f"error: characteristic start point: {err}", file=sys.stderr)
        return 3
    except UnknownName as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except HminError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # expression trees are the only unbounded recursion a command runs (the
        # parser, differentiate and the tree walks); load_spec catches JSON nesting
        print("error: expression nested too deeply to evaluate", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
