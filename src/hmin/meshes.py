"""Triangulated meshes of surface patches and the OBJ text format.

The OBJ subset written here is: comment lines starting with ``#``,
vertex records ``v x y t`` and 1-based triangular face records
``f i j k``.  Floats are printed with ``repr`` (shortest round-trip
form) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import FieldUndefined
from .fields import PlanarDomain
from .ruled import RuledPatch
from .seed import curvature, rule_point
from .surface import GraphPatch


@dataclass
class Mesh:
    vertices: np.ndarray                       # (n, 3) float rows x, y, t
    faces: np.ndarray                          # (m, 3) 0-based int triples
    comments: list[str] = field(default_factory=list)
    clamped: int = 0                           # chart samples moved off the fold


def _grid_faces(nu: int, nv: int) -> np.ndarray:
    a = (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1)).ravel()
    return np.stack([a, a + nv, a + 1, a + 1, a + nv, a + nv + 1], axis=1).reshape(-1, 3)


def mesh_ruled(patch: RuledPatch, ns: int, nr: int,
               r_range: Optional[tuple[float, float]] = None,
               det_clamp: float = 0.02) -> Mesh:
    """Sample the (s, r) chart; r is nudged off the singular fold.

    Samples with |det DF| < det_clamp slide along their rule to the nearest
    admissible r (the fold r = 1/kappa is a parameterization artifact, not
    a feature of the surface); the number of moved samples is recorded.
    Each s row is embedded at once, with the arithmetic of ``RuledPatch.embed``.
    """
    ss = np.linspace(patch.s_range[0], patch.s_range[1], ns)
    verts = np.empty((ns, nr, 3))
    clamped = 0
    for i, s in enumerate(ss.tolist()):
        lo, hi = r_range if r_range is not None else patch.r_at(s)
        rs = np.linspace(lo, hi, nr)
        kap = curvature(patch.seed, s)
        if abs(kap) > 1e-12:
            fold = 1.0 / kap
            near = np.abs(-1.0 + rs * kap) < det_clamp
            rs = np.where(near, fold + np.where(rs >= fold, 1.0, -1.0) * det_clamp / abs(kap), rs)
            clamped += int(near.sum())
        verts[i, :, 0], verts[i, :, 1] = rule_point(patch.seed, s, rs)
        verts[i, :, 2] = patch.height(s, rs)
        bad = np.flatnonzero(~np.isfinite(verts[i]).all(axis=1))
        if bad.size:
            raise FieldUndefined(f"height not finite at (s={s}, r={float(rs[bad[0]])})")
    return Mesh(verts.reshape(-1, 3), _grid_faces(ns, nr),
                comments=[f"ruled patch mesh {ns}x{nr}"], clamped=clamped)


def mesh_graph(patch: GraphPatch, nx: int, ny: int,
               domain: Optional[PlanarDomain] = None) -> Mesh:
    dom = domain or patch.domain
    xs = np.linspace(dom.xmin, dom.xmax, nx)
    ys = np.linspace(dom.ymin, dom.ymax, ny)
    verts = [patch.point(float(x), float(y)).as_tuple() for x in xs for y in ys]
    return Mesh(np.array(verts, dtype=float).reshape(-1, 3), _grid_faces(nx, ny),
                comments=[f"graph patch mesh {nx}x{ny}"])


def write_obj(mesh: Mesh, path: str):
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in mesh.comments)
        for tag, rows in (("v", mesh.vertices), ("f", mesh.faces + 1)):
            for i in range(0, len(rows), 4096):    # one %-format (%r is repr) per block
                block = rows[i:i + 4096].ravel().tolist()
                fh.write(f"{tag} %r %r %r\n" * (len(block) // 3) % tuple(block))


def lint_obj(path: str, degenerate_tol: float = 1e-12) -> list[str]:
    """Structural check: parseable finite records, indices in range, non-degenerate faces."""
    problems = []
    verts, faces = array("d"), array("q")
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v" and len(parts) == 4:
                try:
                    verts.fromlist([float(p) for p in parts[1:]])
                except ValueError:
                    problems.append(f"line {ln}: bad vertex record")
                    continue
                if not all(map(math.isfinite, verts[-3:])):
                    problems.append(f"line {ln}: non-finite vertex record")
            elif parts[0] == "f" and len(parts) == 4:
                try:
                    faces.fromlist([int(p) for p in parts[1:]])
                except ValueError:
                    problems.append(f"line {ln}: bad face record")
                except OverflowError:                   # beyond int64, so out of range
                    faces.fromlist([0, 0, 0])
            else:
                problems.append(f"line {ln}: unsupported record {parts[0]!r}")
    v = np.frombuffer(verts).reshape(-1, 3)
    f = np.frombuffer(faces, dtype=np.int64).reshape(-1, 3)
    out_of_range = ((f < 1) | (f > len(v))).any(axis=1)
    repeated = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
    good = ~(out_of_range | repeated)
    a, b, c = v[f[good] - 1].transpose(1, 0, 2)
    area = np.full(len(f), np.inf)
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf area is not degenerate
        cross = np.cross(b - a, c - a)
        area[good] = 0.5 * np.sqrt(np.vecdot(cross, cross))  # rounds as norm() of one face
    for i in np.flatnonzero(~good | (area <= degenerate_tol)).tolist():
        problems.append(f"face {i}: vertex index out of range" if out_of_range[i] else
                        f"face {i}: repeated vertex index" if repeated[i] else
                        f"face {i}: degenerate (area {area[i]:.3e})")
    return problems
