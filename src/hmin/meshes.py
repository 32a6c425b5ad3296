"""Triangulated meshes of surface patches and the OBJ text format.

The OBJ subset written here is: comment lines starting with ``#``,
vertex records ``v x y t`` and 1-based triangular face records
``f i j k``.  Floats are printed with ``repr`` (shortest round-trip
form) so identical inputs produce byte-identical files.  The writer
formats the vertices in blocks of rows and, since lattice meshes repeat
their coordinates, each distinct float of a block's column only once.
On a file in the writer's layout the linter keeps the vertex column and
one block of text: it checks each block of face records as it parses it,
so the file's faces are never held.  Lattice faces are int32.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import FieldUndefined
from .fields import CHUNK, Grid2, PlanarDomain
from .surface import GraphPatch

if TYPE_CHECKING:
    from .ruled import RuledPatch

DET_CLAMP = 0.02    # chart samples keep |det DF| at or above this
BLOCK = 1 << 16     # characters per block of lines that lint_obj parses at once
ROWS = 4096         # rows per block that write_obj formats and lint_obj checks
# face records that numpy's int64 parse reads exactly as int() does
_DIGIT_FACES = re.compile(r"(?:f [0-9]{1,18} [0-9]{1,18} [0-9]{1,18}\n)*")
# write_obj's layout: comment lines, then vertex lines, then face lines; the
# tokens of a record (what str.split gives) are joined by single spaces
_SECTIONS = (re.compile(r"(?:#[^\n]*\n)*"), re.compile(r"(?:v \S+ \S+ \S+\n)*"), _DIGIT_FACES)


@dataclass
class Mesh:
    vertices: np.ndarray                       # (n, 3) float rows x, y, t
    faces: np.ndarray                          # (m, 3) 0-based int triples; int32 on a lattice
    comments: list[str] = field(default_factory=list)
    clamped: int = 0                           # chart samples moved off the fold


def _grid_faces(nu: int, nv: int) -> np.ndarray:
    """The two triangles of each cell of an nu by nv lattice, row-major, as
    int32 rows filled in place.  The CLI's grid cap of 4,000,000 nodes keeps
    every index far inside int32."""
    faces = np.empty((nu - 1, nv - 1, 2, 3), dtype=np.int32)
    a = faces[:, :, 0, 0]
    rows = np.arange(nu - 1, dtype=np.int32)[:, None] * nv
    np.add(rows, np.arange(nv - 1, dtype=np.int32), out=a)
    for k, j, d in ((0, 1, nv), (0, 2, 1), (1, 0, 1), (1, 1, nv), (1, 2, nv + 1)):
        np.add(a, d, out=faces[:, :, k, j])
    return faces.reshape(-1, 3)


def mesh_ruled(patch: RuledPatch, ns: int, nr: int) -> Mesh:
    """Sample the (s, r) chart over the patch's ``s_range`` by its
    ``r_interval()``; r is nudged off the singular fold.

    Samples with |det DF| < DET_CLAMP slide along their rule to the nearest
    admissible r (the fold r = 1/kappa is a parameterization artifact, not
    a feature of the surface); the number of moved samples is recorded.
    Each s row is embedded at once, with the arithmetic of ``RuledPatch.embed``.
    """
    from .seed import curvature, rule_point   # a graph build loads no seed code
    ss, r_lattice = Grid2(PlanarDomain(*patch.s_range, *patch.r_interval()), ns, nr).lattice()
    verts = np.empty((ns, nr, 3))
    clamped = 0
    for i, s in enumerate(ss.tolist()):
        rs, kap = r_lattice, curvature(patch.seed, s)
        if abs(kap) > 1e-12:
            fold = 1.0 / kap
            near = np.abs(-1.0 + rs * kap) < DET_CLAMP
            rs = np.where(near, fold + np.where(rs >= fold, 1.0, -1.0) * DET_CLAMP / abs(kap), rs)
            clamped += int(near.sum())
        verts[i, :, 0], verts[i, :, 1] = rule_point(patch.seed, s, rs)
        verts[i, :, 2] = patch.height(s, rs)
        bad = np.flatnonzero(~np.isfinite(verts[i]).all(axis=1))
        if bad.size:
            raise FieldUndefined(f"height not finite at (s={s}, r={float(rs[bad[0]])})")
    return Mesh(verts.reshape(-1, 3), _grid_faces(ns, nr),
                comments=[f"ruled patch mesh {ns}x{nr}"], clamped=clamped)


def mesh_graph(patch: GraphPatch, nx: int, ny: int) -> Mesh:
    """The lattice nodes inside the patch's domain, x-major, at the height
    ``patch.point`` gives, read a chunk at a time, and the lattice faces
    whose three vertices are inside (on a box, every node and face); raises
    what ``patch.point`` raises at the first node it rejects."""
    xs, ys = Grid2(patch.domain, nx, ny).lattice()
    verts = np.empty((nx, ny, 3))
    verts[:, :, 0], verts[:, :, 1] = xs[:, None], ys
    verts = verts.reshape(-1, 3)
    faces = _grid_faces(nx, ny)
    inside = patch.domain.contains_all(verts[:, 0], verts[:, 1])
    if not inside.all():
        index = np.cumsum(inside, dtype=np.int32) - 1   # a kept node's row among the kept
        faces, verts = index[faces[inside[faces].all(axis=1)]], verts[inside]
    for i in range(0, len(verts), CHUNK):
        x, y, t = verts[i:i + CHUNK].T
        t[:] = patch.h.value(x, y)
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if bad.size:   # the scalar call raises there, as the per-node loop did
        patch.point(*verts[bad[0], :2].tolist())
    return Mesh(verts, faces, comments=[f"graph patch mesh {nx}x{ny}"])


def _vertex_text(block: np.ndarray) -> str:
    """The ``v`` lines of a block of rows.  A column's floats are grouped by
    bit pattern (so 0.0 and -0.0 stay apart) and each group is formatted
    once; a column with no repeats is left to the format's %r (repr), which
    keeps no string per value alive."""
    fmt, columns = "v", []
    for column in block.T:
        bits, where = np.unique(column.view(np.int64), return_inverse=True)
        if len(bits) == len(column):
            fmt, values = fmt + " %r", column.tolist()
        else:
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            fmt, values = fmt + " %s", text[where].tolist()
        columns.append(values)
    return (fmt + "\n") * len(block) % tuple(chain.from_iterable(zip(*columns)))


def write_obj(mesh: Mesh, path: str):
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in mesh.comments)
        for i in range(0, len(mesh.vertices), ROWS):   # one %-format per block
            fh.write(_vertex_text(mesh.vertices[i:i + ROWS]))
        for i in range(0, len(mesh.faces), ROWS):
            block = (mesh.faces[i:i + ROWS] + 1).ravel().tolist()
            fh.write("f %r %r %r\n" * (len(block) // 3) % tuple(block))


def _read_lines(path: str) -> tuple[list[str], array, array]:
    """The problems of each record, read one line at a time, and the
    vertex and face columns of the records that parse."""
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
    return problems, verts, faces


def _face_problems(v: np.ndarray, faces: np.ndarray, first: int = 0) -> list[str]:
    """The problems of the 1-based face rows ``faces`` over the vertex rows
    ``v``, ``ROWS`` at a time; the faces are numbered from ``first``."""
    problems = []
    for start in range(0, len(faces), ROWS):
        f = faces[start:start + ROWS]
        out_of_range = ((f < 1) | (f > len(v))).any(axis=1)
        repeated = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
        good = ~(out_of_range | repeated)
        a, b, c = v[f[good] - 1].transpose(1, 0, 2)
        area = np.full(len(f), np.inf)
        with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf area is not degenerate
            cross = np.cross(b - a, c - a)
            area[good] = 0.5 * np.sqrt(np.vecdot(cross, cross))  # rounds as norm() of one face
        for i in np.flatnonzero(~good | (area <= 1e-12)).tolist():
            k = first + start + i
            problems.append(f"face {k}: vertex index out of range" if out_of_range[i] else
                            f"face {k}: repeated vertex index" if repeated[i] else
                            f"face {k}: degenerate (area {area[i]:.3e})")
    return problems


def _tokens(records: str) -> list[str]:
    """The three values of each record, in order."""
    tokens = records.split()
    del tokens[::4]
    return tokens


def _read_layout(path: str) -> Optional[list[str]]:
    """The face problems of a file in the writer's layout, read a block of
    whole lines at a time; None for any other file, for one with a face
    index that is not 1 to 18 ASCII digits, and for one with a record that
    ``_read_lines`` would report.  Each block's vertices are checked finite
    and its faces checked as they are parsed; no face is kept.
    """
    verts, v, problems, first = array("d"), None, [], 0
    section = 0                 # where the last block ended, an index of _SECTIONS
    with open(path) as fh:
        for lines in iter(lambda: fh.readlines(BLOCK), []):
            text, pos = "".join(lines), 0
            for k in range(section, 3):
                end = _SECTIONS[k].match(text, pos).end()
                if end > pos:
                    section = k
                    if k == 1:
                        n = len(verts)
                        try:
                            verts.extend(map(float, _tokens(text[pos:end])))
                        except ValueError:
                            return None
                        if not np.isfinite(np.frombuffer(verts)[n:]).all():
                            return None
                    elif k == 2:
                        if v is None:   # no vertex follows a face, so the column is final
                            v = np.frombuffer(verts).reshape(-1, 3)
                        # base-10 strtoll of at most 18 ASCII digits is int()'s value
                        faces = np.fromstring(text[pos:end].replace("f", " "),
                                              np.int64, sep=" ").reshape(-1, 3)
                        problems += _face_problems(v, faces, first)
                        first += len(faces)
                pos = end
            if pos < len(text):
                return None
    return problems


def lint_obj(path: str) -> list[str]:
    """Structural check: parseable finite records, indices in range, non-degenerate faces.

    A file in the writer's layout is parsed a block at a time and each
    block's faces are checked as soon as they are parsed, so only the vertex
    column and one block of text are held.  Any other file, and one with a
    record to report, is read by the line loop, which writes the record
    messages and then checks the faces it collected.
    """
    problems = _read_layout(path)
    if problems is None:
        problems, verts, faces = _read_lines(path)
        problems += _face_problems(np.frombuffer(verts).reshape(-1, 3),
                                   np.frombuffer(faces, dtype=np.int64).reshape(-1, 3))
    return problems
