import contextlib
import io
import json
import math
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from hmin import meshes
from hmin.cli import main
from hmin.errors import FieldUndefined, HminError
from hmin.fields import CHUNK, Grid2, PlanarDomain, Profile, ScalarField2
from hmin.gallery import gallery_get, gallery_names, line_seed
from hmin.meshes import Mesh, lint_obj, mesh_graph, mesh_ruled, write_obj
from hmin.ruled import RuledPatch
from hmin.seed import SeedCurve, curvature
from hmin.surface import GraphPatch


def scalar_mesh_vertices(patch, ns, nr, r_range, det_clamp=0.02):
    """The chart sampling of mesh_ruled, one RuledPatch.embed call per vertex."""
    verts, clamped = [], 0
    for s in np.linspace(patch.s_range[0], patch.s_range[1], ns):
        s = float(s)
        lo, hi = r_range if r_range is not None else patch.r_interval()
        kap = curvature(patch.seed, s)
        for r in np.linspace(lo, hi, nr):
            r = float(r)
            if abs(-1.0 + r * kap) < det_clamp and abs(kap) > 1e-12:
                fold = 1.0 / kap
                side = 1.0 if r >= fold else -1.0
                r = fold + side * det_clamp / abs(kap)
                clamped += 1
            g = patch.embed(s, r)
            verts.append([g.x, g.y, g.t])
    return verts, clamped


def gallery_ruled_patches():
    for name in gallery_names():
        entry = gallery_get(name)
        if entry.ruled is not None:
            yield name, entry.ruled()
    for i, patch in enumerate(gallery_get("cylinder").ruled_pair()):
        yield f"cylinder-pair{i}", patch


@pytest.mark.parametrize("r_range", [None, (-2.0, 2.0), (-5.0, 5.0)])
def test_row_embedding_matches_scalar_embed(r_range):
    clamped = {}
    for name, patch in gallery_ruled_patches():
        mesh = mesh_ruled(patch if r_range is None else replace(patch, r_range=r_range), 37, 41)
        verts, clamped[name] = scalar_mesh_vertices(patch, 37, 41, r_range)
        assert np.asarray(mesh.vertices).tolist() == verts, name
        assert mesh.clamped == clamped[name], name
    # the fold clamp is exercised, not only the plain embedding
    assert {"char-plane": 0 if r_range is None else 37,
            "catenoid": {None: 0, (-2.0, 2.0): 7, (-5.0, 5.0): 12}[r_range],
            "optreg2": 12 if r_range == (-5.0, 5.0) else 14}.items() <= clamped.items()


def test_row_embedding_raises_at_the_first_undefined_sample():
    # h0 = sqrt(1 - s^2) is NaN for |s| > 1
    patch = RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), (-1.5, 1.5)),
                       Profile.from_expr("sqrt(1 - s^2)"), (-1.5, 1.5), (-1.0, 1.0))
    with pytest.raises(FieldUndefined) as scalar:
        scalar_mesh_vertices(patch, 9, 5, None)
    with pytest.raises(FieldUndefined) as rows:
        mesh_ruled(patch, 9, 5)
    assert str(rows.value) == str(scalar.value) == "height not finite at (s=-1.5, r=-1.0)"


@pytest.mark.parametrize("h0,error", [
    # row 0 is not finite, before the rows past the seed's end (s = 1.125, 1.5)
    ("sqrt(1 - s^2)", "height not finite at (s=-1.5, r=-1.0)"),
    ("sqrt(4 - s^2)", "s=1.125 outside sampled range [-1.5, 1.0]"),
])
def test_row_embedding_raises_what_the_first_failing_row_raises(h0, error):
    # the array lookups over all s raise, so the rows look their s up alone
    patch = RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), (-1.5, 1.0)),
                       Profile.from_expr(h0), (-1.5, 1.5), (-1.0, 1.0))
    with pytest.raises(HminError) as scalar:
        scalar_mesh_vertices(patch, 9, 5, None)
    with pytest.raises(HminError) as rows:
        mesh_ruled(patch, 9, 5)
    assert (type(rows.value), str(rows.value)) == (type(scalar.value), str(scalar.value))
    assert str(rows.value) == error


@pytest.mark.parametrize("grid", [(200, 200), (25, 30)])
def test_mesh_ruled_looks_each_seed_quantity_up_once(monkeypatch, grid):
    # one array lookup per quantity, however many rows; one scalar lookup
    # each per row would make 6 per row, 1,200 at 200 x 200
    lookups = []
    for name in ("point", "tangent", "second"):
        lookup = getattr(SeedCurve, name)
        monkeypatch.setattr(SeedCurve, name, lambda self, s, lookup=lookup, name=name:
                            lookups.append(name) or lookup(self, s))
    mesh = mesh_ruled(gallery_get("cylinder").ruled(), *grid)
    assert len(mesh.vertices) == grid[0] * grid[1]
    assert len(lookups) <= 6


def test_lint_messages(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("\n".join([
        "# one problem of each kind",
        "v 0 0 0",
        "v 1 0 0",
        "v 0 1 0",
        "v 2 0 0",
        "v 1 2 x",
        "vt 0.5 0.5",
        "f 1 2 3",
        "f 1 2 2",
        "f 1 2 7",
        "f 1 2 4",
        "f 1 2 x",
        "",
        "f 1 2",
        "f 3 0 1",
        "f 3 3 3",
        "f 2 3 4",
    ]) + "\n")
    assert lint_obj(str(path)) == [
        "line 6: bad vertex record",
        "line 7: unsupported record 'vt'",
        "line 12: bad face record",
        "line 14: unsupported record 'f'",
        "face 1: repeated vertex index",
        "face 2: vertex index out of range",
        "face 3: degenerate (area 0.000e+00)",
        "face 4: vertex index out of range",
        "face 5: repeated vertex index",
    ]


def test_lint_reports_non_finite_vertices(tmp_path):
    # a face on a NaN vertex has NaN area, which no "<= tol" test catches
    path = tmp_path / "nan.obj"
    path.write_text("v nan 1 0\nv 0 1 inf\nv 0 0 0\nv 1 0 0\nf 1 2 3\nf 2 3 4\n")
    assert lint_obj(str(path)) == ["line 1: non-finite vertex record",
                                   "line 2: non-finite vertex record"]


# -- mesh_graph over arrays against the per-vertex patch.point ------------------


def gallery_graph_patches():
    for name in gallery_names():
        entry = gallery_get(name)
        for side, patch in (("upper", entry.graph), ("lower", entry.graph_lower)):
            if patch is not None:
                yield f"{name}-{side}", patch
                yield f"{name}-{side}-fd", patch.fd_only()


def scalar_graph_mesh(patch, nx, ny):
    """The vertices of mesh_graph, one patch.point call per node inside the
    domain, x-major; or the message of the error the first rejected node raises."""
    x, y = Grid2(patch.domain, nx, ny).points()
    try:
        return [list(astuple(patch.point(a, b))) for a, b in zip(x.tolist(), y.tolist())]
    except FieldUndefined as err:
        return str(err)


def scalar_graph_faces(patch, nx, ny):
    """The faces of mesh_graph, one cell at a time: the two triangles of each
    lattice cell whose three corners ``contains`` accepts, numbered among them."""
    x, y = Grid2(patch.domain, nx, ny).mesh()
    number = {}
    for i in range(nx):
        for j in range(ny):
            if patch.domain.contains(float(x[i, j]), float(y[i, j])):
                number[i, j] = len(number)
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            for tri in (((i, j), (i + 1, j), (i, j + 1)),
                        ((i, j + 1), (i + 1, j), (i + 1, j + 1))):
                if all(c in number for c in tri):
                    faces.append([number[c] for c in tri])
    return faces


def test_mesh_graph_matches_the_per_vertex_point():
    meshed = 0
    for name, patch in gallery_graph_patches():
        expected = scalar_graph_mesh(patch, 60, 47)
        try:
            mesh = mesh_graph(patch, 60, 47)
        except FieldUndefined as err:
            assert str(err) == expected, name
            continue
        assert repr(mesh.vertices.tolist()) == repr(expected), name
        assert mesh.faces.dtype == np.int32
        assert mesh.faces.tolist() == scalar_graph_faces(patch, 60, 47), name
        meshed += 1
    assert meshed == 20   # every gallery graph, its lower sheet and their fd_only forms


def test_mesh_graph_reads_heights_a_chunk_at_a_time(monkeypatch):
    patch = GraphPatch.from_expr("x*y/2 + 0.437*x - 0.2", PlanarDomain(-2, 2, -2, 2))
    calls = []
    value = ScalarField2.value
    monkeypatch.setattr(ScalarField2, "value", lambda self, x, y: calls.append(len(x)) or value(self, x, y))
    mesh_graph(patch, 60, 47)
    assert calls == [CHUNK, CHUNK, 60 * 47 - 2 * CHUNK]


def test_build_of_an_undefined_height_names_the_first_node(tmp_path, capsys):
    spec = tmp_path / "sqrt.json"
    spec.write_text(json.dumps({"kind": "graph", "graph": {
        "h": "sqrt(x)", "domain": {"xmin": -2, "xmax": 2, "ymin": -2, "ymax": 2}}}))
    assert main(["build", "--spec", str(spec), "--grid", "60", "47", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: height not finite at (-2.0, -2.0)\n"


def test_build_of_a_graph_over_an_annulus_meshes_the_nodes_inside(tmp_path):
    # iso-profile's height is defined on its annulus alone, where H = 2/R:
    # the mesh is written and lints clean, and the minimality check fails
    spec = tmp_path / "iso.json"
    spec.write_text(json.dumps({"kind": "gallery", "gallery": {"name": "iso-profile"}}))
    assert main(["build", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["obj_lint"]["pass"] and checks["obj_lint"]["note"] == "clean"
    assert checks["post_build_minimal"]["measured"] == pytest.approx(2.0)
    records = [line[0] for line in (tmp_path / "o" / "mesh.obj").read_text().splitlines()]
    assert (records.count("v"), records.count("f")) == (1840, 3508)   # of 50 x 50 nodes


# -- write_obj: formatting each distinct float once gives the per-value text ---


def per_value_obj_text(mesh):
    """The OBJ text of a mesh with every value formatted by its own %r."""
    return "".join([*(f"# {line}\n" for line in mesh.comments),
                    *("v %r %r %r\n" % tuple(row) for row in mesh.vertices.tolist()),
                    *("f %r %r %r\n" % tuple(row) for row in (mesh.faces + 1).tolist())])


# both zeros, subnormals down to 5e-324, and values on both sides of repr's
# switch to exponent form
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, -1e16,
               9999999999999998.0, 1e-4, 1e-5, -1e-5, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize("n", [4095, 4096, 4097])   # the writer's blocks are 4096 rows
def test_writer_matches_the_per_value_repr(tmp_path, n):
    rng = np.random.default_rng(n)
    repeats = rng.choice(EDGE_FLOATS, n)
    distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    zero_signs = np.signbit(repeats[:4095][repeats[:4095] == 0.0])   # in the first block
    assert len(np.unique(distinct)) == n and zero_signs.any() and not zero_signs.all()
    for columns in ((repeats, distinct, np.full(n, 1e16)), (np.full(n, -0.0), repeats, distinct)):
        mesh = Mesh(np.column_stack(columns), rng.integers(0, n, (5, 3)), comments=["edges"])
        write_obj(mesh, str(tmp_path / "m.obj"))
        assert (tmp_path / "m.obj").read_text() == per_value_obj_text(mesh)


# -- lint_obj: the block-wise fast path against the line loop -------------------

# the three builds of a mesh-build pass: (spec, grid)
WORKLOAD_BUILDS = {
    "cylinder": ({"kind": "ruled", "ruled": {
        "seed": {"kind": "expression", "x": "s", "y": "0"}, "h0": "sqrt(1 - s^2)",
        "s_range": [-0.84, 0.81], "r_range": [-0.883, 0.883]}}, (200, 200)),
    "catenoid": ({"kind": "gallery", "gallery": {"name": "catenoid"}}, (100, 100)),
    "shear": ({"kind": "graph", "graph": {"h": "x*y/2 + (-0.543)*x + (0.486)"}}, (100, 100)),
}


def build_obj(tmp_path, name, grid) -> Path:
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(WORKLOAD_BUILDS[name][0]))
    out = tmp_path / f"{name}-{grid[0]}x{grid[1]}"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--spec", str(spec), "--grid", *map(str, grid), "--out", str(out)]) == 0
    return out / "mesh.obj"


def lint_paths(path):
    """(lint_obj's problems, the line loop's problems, whether the fast path parsed the file)."""
    fast = meshes._read_layout(str(path)) is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshes, "_read_layout", lambda p: None)
        loop = lint_obj(str(path))
    return lint_obj(str(path)), loop, fast


def test_a_build_holds_memory_proportional_to_its_vertices(tmp_path):
    # the lattice faces are int32 filled in place, the lint checks each block
    # of faces as it parses it, and the mesh is let go before the lint runs;
    # the first build compiles and imports what the traced one needs
    grid = WORKLOAD_BUILDS["cylinder"][1]
    build_obj(tmp_path, "cylinder", (20, 20))
    tracemalloc.start()
    try:
        build_obj(tmp_path, "cylinder", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 24 * grid[0] * grid[1]    # 4 times the float64 vertex rows


@pytest.mark.parametrize("name", sorted(WORKLOAD_BUILDS))
def test_lint_paths_agree_on_the_workload_meshes(tmp_path, name):
    path = build_obj(tmp_path, name, WORKLOAD_BUILDS[name][1])
    assert lint_paths(path) == ([], [], True)


def _nth(lines, tag, index):
    """The line number of the index-th record with this tag (-1: the last)."""
    return [k for k, line in enumerate(lines) if line.startswith(tag + " ")][index]


def _edit_line(tag, index, edit):
    def mutate(lines):
        k = _nth(lines, tag, index)
        lines[k] = edit(lines[k])
    return mutate


def _replace_token(tag, index, token):
    """Replace the record's second value."""
    def edit(line):
        parts = line.split(" ")
        parts[2] = token
        return " ".join(parts)
    return _edit_line(tag, index, edit)


def _face(i, j, k):
    return _edit_line("f", -1, lambda line: f"f {i} {j} {k}\n")


def _whole(edit):
    def mutate(lines):
        lines[:] = [edit("".join(lines))]
    return mutate


# each mutation: (edit of the file's lines, whether the fast path still
# parses the file, whether lint_obj reports a problem)
MUTATIONS = {
    **{f"{tag}-token-{token}": (_replace_token(tag, 300, token), False, True)
       for token in ("nan", "1e999", "inf", "x") for tag in ("v", "f")},
    # tokens that float() and int() read but the writer never writes: the
    # fast path parses such a vertex, and leaves such a face to the line loop
    **{f"{tag}-token-{token}": (_replace_token(tag, 300, token), tag == "v", False)
       for token in ("1_0", "+1", "١") for tag in ("v", "f")},
    "v-dropped-token": (_edit_line("v", 300, lambda line: line.rsplit(" ", 1)[0] + "\n"), False, True),
    "f-dropped-token": (_edit_line("f", 300, lambda line: line.rsplit(" ", 1)[0] + "\n"), False, True),
    "v-doubled-space": (_edit_line("v", 300, lambda line: line.replace(" ", "  ", 1)), False, False),
    "f-doubled-space": (_edit_line("f", -1, lambda line: line.replace(" ", "  ", 1)), False, False),
    "v-tab": (_edit_line("v", 300, lambda line: line.replace(" ", "\t", 1)), False, False),
    "f-unit-separator": (_edit_line("f", 300, lambda line: line.replace(" ", "\x1c", 1)), False, False),
    "crlf": (_whole(lambda text: text.replace("\n", "\r\n")), True, False),
    "no-final-newline": (_whole(lambda text: text[:-1]), False, False),
    "comment-between-faces": (lambda lines: lines.insert(_nth(lines, "f", 300), "# note\n"),
                              False, False),
    "face-index-0": (_face(1, 0, 2), True, True),
    "face-index-past-the-end": (lambda lines: _face(1, 2, sum(
        line.startswith("v ") for line in lines) + 1)(lines), True, True),
    "face-index-beyond-int64": (_face(1, 2, 2 ** 63), False, True),
    "face-index-repeated": (_face(1, 2, 1), True, True),
    # the fast path parses faces of up to 18 digits with numpy's int64 parse,
    # leading zeros included; one of 19 digits goes to the line loop
    "face-index-leading-zeros": (_edit_line("f", 300, lambda line: line.replace(" ", " 00", 1)),
                                 True, False),
    "face-index-18-digits": (_face(1, 2, "9" * 18), True, True),
    "face-index-19-digits": (_face(1, 2, 10 ** 18), False, True),
    "empty": (_whole(lambda text: ""), True, False),
}


@pytest.fixture(scope="module")
def small_workload_objs(tmp_path_factory):
    """The OBJ text of the workload's three surfaces on a smaller grid, so the line loop stays quick."""
    tmp_path = tmp_path_factory.mktemp("objs")
    return {name: build_obj(tmp_path, name, (23, 19)).read_text() for name in sorted(WORKLOAD_BUILDS)}


@pytest.mark.parametrize("block", [meshes.BLOCK, 300, 1])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_lint_paths_agree_on_mutated_workload_meshes(small_workload_objs, tmp_path, monkeypatch,
                                                     block, mutation):
    # with small blocks the mutation lands in a later block than the first,
    # and with 1 every line is a block of its own
    monkeypatch.setattr(meshes, "BLOCK", block)
    mutate, parses, reported = MUTATIONS[mutation]
    for name, text in small_workload_objs.items():
        lines = text.splitlines(keepends=True)
        mutate(lines)
        path = tmp_path / f"{name}.obj"
        path.write_bytes("".join(lines).encode())
        problems, loop, fast = lint_paths(path)
        assert problems == loop, name
        assert (fast, bool(problems)) == (parses, reported), name


def test_only_faces_of_up_to_18_ascii_digits_take_the_int64_parse():
    assert meshes._DIGIT_FACES.fullmatch("f 007 1 999999999999999999\nf 1 2 3\n")
    for record in ("f 1 2 1000000000000000000\n", "f +1 2 3\n", "f 1_0 2 3\n", "f ١ 2 3\n"):
        assert not meshes._DIGIT_FACES.fullmatch(record), record


@pytest.mark.parametrize("rows,block", [
    pytest.param(rows, block, id=str(rows) if block == meshes.BLOCK else f"{rows}-block{block}")
    for block in (meshes.BLOCK, 1000, 1) for rows in (meshes.ROWS, 1000, 1)])
def test_lint_checks_faces_a_block_at_a_time_in_face_order(tmp_path, monkeypatch, rows, block):
    # 2 * 47 * 37 = 3478 faces: with rows = 1000 the bad faces lie in three
    # blocks, and with 1 each face is a block of its own; with a parse block
    # of 1000 characters they are parsed in different blocks, and with 1
    # each line is parsed alone, so face numbers carry across parse blocks
    monkeypatch.setattr(meshes, "ROWS", rows)
    monkeypatch.setattr(meshes, "BLOCK", block)
    mesh = mesh_graph(GraphPatch.from_expr("x*y/2", PlanarDomain(-1, 1, -1, 1)), 48, 38)
    mesh.faces[[5, 1500, 3477]] = [[0, 0, 1], [0, 1, 48 * 38], [0, 1, 2]]
    path = str(tmp_path / "bad.obj")
    write_obj(mesh, path)
    assert lint_obj(path) == ["face 5: repeated vertex index",
                              "face 1500: vertex index out of range",
                              "face 3477: degenerate (area 0.000e+00)"]


class _ReadAndReadline:
    """A text file that offers only ``read`` and ``readline``, and records
    what each block's ``read`` returned."""

    def __init__(self, path):
        self._fh, self.reads = open(path), []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, size):
        self.reads.append(self._fh.read(size))
        return self.reads[-1]

    def readline(self):
        return self._fh.readline()


def test_lint_blocks_end_at_line_ends_without_a_string_per_line(tmp_path, monkeypatch):
    mesh = Mesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.5]]),
                np.array([[0, 1, 2], [1, 3, 2], [0, 0, 1], [2, 3, 1]]), comments=["blocks"])
    path = str(tmp_path / "m.obj")
    write_obj(mesh, path)
    files = []
    monkeypatch.setattr(meshes, "open", lambda path: files.append(_ReadAndReadline(path)) or files[-1],
                        raising=False)
    monkeypatch.setattr(meshes, "BLOCK", 7)
    fast = meshes._read_layout(path)
    # each read of 7 characters that stops inside a line: a v and an f record straddle
    cut = {text.rsplit("\n", 1)[-1][:1] for text in files[0].reads if text and text[-1] != "\n"}
    assert {"v", "f"} <= cut
    monkeypatch.undo()
    assert fast == lint_paths(path)[1] == ["face 2: repeated vertex index"]   # the line loop's


def test_lint_reads_every_written_layout_a_block_at_a_time(tmp_path, monkeypatch):
    loops = []
    monkeypatch.setattr(meshes, "_read_lines", lambda path: loops.append(path))
    monkeypatch.setattr(meshes, "BLOCK", 1000)   # several blocks, and sections that start mid-block
    graph = mesh_graph(GraphPatch.from_expr("x*y/2", PlanarDomain(-1, 1, -1, 1)), 30, 20)
    ruled = mesh_ruled(gallery_get("cylinder").ruled(), 25, 30)
    commented = Mesh(graph.vertices, graph.faces, comments=["first", "#second", "", "x " * 600])
    for i, mesh in enumerate((graph, ruled, commented)):
        path = str(tmp_path / f"{i}.obj")
        write_obj(mesh, path)
        assert lint_obj(path) == []
    assert loops == []
