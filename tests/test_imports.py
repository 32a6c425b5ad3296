"""Each command imports only the modules it runs, and ``import hmin`` none.

The commands run in fresh interpreters without a bytecode cache, as a
user's ``hmin`` process does; each prints the ``hmin`` modules it loaded.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hmin

SRC = Path(__file__).resolve().parent.parent / "src"

# what every command loads, and what a spec read adds
BASE = ["hmin", "hmin.cli", "hmin.errors", "hmin.expr", "hmin.fields", "hmin.heis",
        "hmin.report", "hmin.surface"]
SPEC = sorted(BASE + ["hmin.schema"])

GRAPH = {"kind": "graph", "graph": {"h": "x*y/2"}}
IMPLICIT = {"kind": "implicit", "implicit": {"phi": "t - x*y/2"}}

_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    exec(sys.argv[2])
else:
    from hmin.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m == "hmin" or m.startswith("hmin."))))
"""


def loaded(argv, statement: str = "") -> list[str]:
    """The sorted ``hmin`` modules a fresh interpreter holds after running
    ``hmin.cli.main(argv)``, or after ``statement`` when argv is None."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv), statement],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def spec_file(tmp_path, spec: dict) -> str:
    path = tmp_path / f"{spec['kind']}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_import_hmin_loads_no_submodule():
    assert loaded(None, "import hmin") == ["hmin"]


def test_a_package_name_loads_its_submodule_and_what_that_imports():
    assert loaded(None, "from hmin import GraphPatch") == [
        "hmin", "hmin.errors", "hmin.expr", "hmin.fields", "hmin.heis", "hmin.report",
        "hmin.surface"]


@pytest.mark.parametrize("command,extra", [
    (["build", "--grid", "5", "5"], ["hmin.meshes"]),
    (["verify", "--grid", "5", "5"], []),
])
def test_graph_build_and_verify_load_no_gallery_ruled_or_seed(tmp_path, command, extra):
    argv = command + ["--spec", spec_file(tmp_path, GRAPH), "--out", str(tmp_path)]
    assert loaded(argv) == sorted(SPEC + extra)


def test_graph_classify_loads_no_gallery_or_meshes(tmp_path):
    argv = ["classify", "--spec", spec_file(tmp_path, GRAPH), "--out", str(tmp_path)]
    assert loaded(argv) == sorted(SPEC + ["hmin.ruled", "hmin.seed"])


def test_implicit_verify_and_help_load_no_gallery_meshes_ruled_or_seed(tmp_path):
    argv = ["verify", "--spec", spec_file(tmp_path, IMPLICIT), "--grid", "5", "5",
            "--out", str(tmp_path)]
    assert loaded(argv) == SPEC
    assert loaded(["--help"]) == BASE


# -- the package namespace -----------------------------------------------------


def test_the_package_exports_the_names_it_always_has():
    assert hmin.__all__ == [
        "CharacteristicPoint", "CharacteristicStart", "FieldUndefined", "GSCJoin", "GSCPiece",
        "GalleryEntry", "GeneralizedSeedCurve", "GraphPatch", "Grid2", "HPoint", "HminError",
        "ImplicitSurface", "LociReport", "ORIGIN", "OutOfRange", "ParseError",
        "PlanarDomain", "Profile", "RuledPatch", "ScalarField2", "SeedCurve", "SingularRule",
        "SpecError", "StencilOutOfDomain", "UnknownName", "adaptive_simpson", "build_surface",
        "characteristic_locus", "characteristic_scan", "classify_entire_graph",
        "constant_curvature_test", "curvature", "dilate", "errors", "expr", "extract_seed",
        "fields", "gallery", "gallery_get", "gallery_names", "gallery_verify", "group_mul",
        "h_mean_curvature", "heis", "horizontal_data", "report", "rk4_integrate",
        "rotate_graph", "roundtrip", "rule", "rule_jacobian_det", "rule_point", "ruled", "seed",
        "singular_locus", "square", "surface", "translate_graph", "validate_gsc", "w_direct"]


@pytest.mark.parametrize("name", hmin.__all__)
def test_each_exported_name_is_the_object_its_submodule_defines(name):
    value = getattr(hmin, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"hmin.{name}"]
    else:   # an instance (ORIGIN) has its class's __module__
        assert value is getattr(sys.modules[value.__module__], name)


def test_a_submodule_imports_from_the_package():
    from hmin import gallery
    assert isinstance(gallery, types.ModuleType) and gallery is sys.modules["hmin.gallery"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'hmin' has no attribute 'no_such_name'"):
        hmin.no_such_name
    with pytest.raises(ImportError):
        from hmin import no_such_name  # noqa: F401
