"""Triangulated meshes of surface patches and the OBJ text format.

The OBJ subset written here is: comment lines starting with ``#``,
vertex records ``v x y t`` and 1-based triangular face records
``f i j k``.  Floats are printed with ``repr`` (shortest round-trip
form) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import PlanarDomain
from .ruled import RuledPatch
from .seed import curvature
from .surface import GraphPatch


@dataclass
class Mesh:
    vertices: list[tuple[float, float, float]]
    faces: list[tuple[int, int, int]]          # 0-based triples
    comments: list[str] = field(default_factory=list)
    clamped: int = 0                           # chart samples moved off the fold


def _grid_faces(nu: int, nv: int) -> list[tuple[int, int, int]]:
    faces = []
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j
            b = (i + 1) * nv + j
            faces.append((a, b, a + 1))
            faces.append((a + 1, b, b + 1))
    return faces


def mesh_ruled(patch: RuledPatch, ns: int, nr: int,
               r_range: Optional[tuple[float, float]] = None,
               det_clamp: float = 0.02) -> Mesh:
    """Sample the (s, r) chart; r is nudged off the singular fold.

    Samples with |det DF| < det_clamp slide along their rule to the nearest
    admissible r (the fold r = 1/kappa is a parameterization artifact, not
    a feature of the surface); the number of moved samples is recorded.
    """
    ss = np.linspace(patch.s_range[0], patch.s_range[1], ns)
    verts = []
    clamped = 0
    for s in ss:
        s = float(s)
        lo, hi = r_range if r_range is not None else patch.r_at(s)
        rs = np.linspace(lo, hi, nr)
        kap = curvature(patch.seed, s)
        for r in rs:
            r = float(r)
            det = -1.0 + r * kap
            if abs(det) < det_clamp and abs(kap) > 1e-12:
                fold = 1.0 / kap
                side = 1.0 if r >= fold else -1.0
                r = fold + side * det_clamp / abs(kap)
                clamped += 1
            g = patch.embed(s, r)
            verts.append((g.x, g.y, g.t))
    mesh = Mesh(verts, _grid_faces(ns, nr),
                comments=[f"ruled patch mesh {ns}x{nr}"], clamped=clamped)
    return mesh


def mesh_graph(patch: GraphPatch, nx: int, ny: int,
               domain: Optional[PlanarDomain] = None) -> Mesh:
    dom = domain or patch.domain
    xs = np.linspace(dom.xmin, dom.xmax, nx)
    ys = np.linspace(dom.ymin, dom.ymax, ny)
    verts = [patch.point(float(x), float(y)).as_tuple() for x in xs for y in ys]
    return Mesh(verts, _grid_faces(nx, ny), comments=[f"graph patch mesh {nx}x{ny}"])


def write_obj(mesh: Mesh, path: str):
    with open(path, "w") as fh:
        for line in mesh.comments:
            fh.write(f"# {line}\n")
        for x, y, t in mesh.vertices:
            fh.write(f"v {x!r} {y!r} {t!r}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def lint_obj(path: str, degenerate_tol: float = 1e-12) -> list[str]:
    """Structural check: parseable records, indices in range, non-degenerate faces."""
    problems = []
    verts = []
    faces = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v" and len(parts) == 4:
                try:
                    verts.append(tuple(float(p) for p in parts[1:]))
                except ValueError:
                    problems.append(f"line {ln}: bad vertex record")
            elif parts[0] == "f" and len(parts) == 4:
                try:
                    faces.append(tuple(int(p) for p in parts[1:]))
                except ValueError:
                    problems.append(f"line {ln}: bad face record")
            else:
                problems.append(f"line {ln}: unsupported record {parts[0]!r}")
    nv = len(verts)
    for i, f in enumerate(faces):
        if any(idx < 1 or idx > nv for idx in f):
            problems.append(f"face {i}: vertex index out of range")
            continue
        if len(set(f)) != 3:
            problems.append(f"face {i}: repeated vertex index")
            continue
        a, b, c = (np.array(verts[idx - 1]) for idx in f)
        area = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
        if area <= degenerate_tol:
            problems.append(f"face {i}: degenerate (area {area:.3e})")
    return problems

