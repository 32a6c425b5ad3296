import math

import numpy as np
import pytest

from hmin.errors import FieldUndefined
from hmin.fields import Profile
from hmin.gallery import gallery_get, gallery_names, line_seed
from hmin.meshes import lint_obj, mesh_ruled
from hmin.ruled import RuledPatch
from hmin.seed import curvature


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
        mesh = mesh_ruled(patch, 37, 41, r_range=r_range)
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
