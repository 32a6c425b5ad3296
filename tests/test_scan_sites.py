"""A graph lattice is read and scanned in one place, and an implicit
surface is sampled in one place.

``surface.scan_graph`` is the one function that builds a ``ScanLattice``
and calls ``characteristic_scan``, and ``ImplicitSurface.sample_curvature``
the one that calls ``solve_height``; ``hmin verify`` and the gallery call
those two, so a scan or sampling rule lands once.  The spy tests count
the scans each command makes.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from hmin import surface
from hmin.cli import main
from hmin.gallery import gallery_get, gallery_names, gallery_verify

SRC = Path(__file__).resolve().parent.parent / "src" / "hmin"

# callee -> the one function that may call it
OWNER = {"ScanLattice": "scan_graph", "characteristic_scan": "scan_graph",
         "solve_height": "sample_curvature"}


def stray_calls(source: str) -> list[tuple[str, int]]:
    """(callee, line) of each call of an ``OWNER`` name, bare or as an
    attribute, whose innermost enclosing function is not its owner."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in OWNER and fn != OWNER[name]:
                found.append((name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), None)
    return found


def test_lattices_scans_and_height_solves_are_made_only_by_their_owners():
    assert [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
            for name, line in stray_calls(path.read_text())] == []


def test_the_pattern_sees_a_stray_call():
    # the graph and implicit branches of cmd_verify and the gallery's scan
    # check as they were before the scans moved into surface
    for source, callee in (
            ("def cmd_verify(args, spec, report):\n"
             "    lattice = ScanLattice(Grid2(patch.domain, nx, ny))\n", "ScanLattice"),
            ("def _check_scan(entry, lattice):\n"
             "    scan = characteristic_scan(lattice)\n", "characteristic_scan"),
            ("def cmd_verify(args, spec, report):\n"
             "    t = surf.solve_height(x, y, t0)\n", "solve_height"),
            ("scan = surface.characteristic_scan(lattice)\n"
             "\n", "characteristic_scan"),
            ("def scan_graph(patch, grid):\n"
             "    return [solve_height(x, y, 0.0) for x, y in grid]\n", "solve_height")):
        assert [name for name, _ in stray_calls(source)] == [callee], source
    # the owners, and definitions that are no calls
    for source in ("def scan_graph(patch, grid):\n    lattice = surface.ScanLattice(grid)\n"
                   "    return characteristic_scan(lattice)\n",
                   "def sample_curvature(self, grid, t0):\n    t = self.solve_height(x, y, t0)\n",
                   "class ScanLattice:\n    pass\ndef characteristic_scan(lattice):\n    pass\n"):
        assert stray_calls(source) == [], source


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls of ``characteristic_scan`` and
    ``max_curvature_deviation``, under every alias in the hmin modules."""
    counts = {"characteristic_scan": 0, "max_curvature_deviation": 0}
    modules = [m for name, m in sys.modules.items() if name.startswith("hmin.")]
    for name in counts:
        original = getattr(surface, name)

        def spy(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    return counts


def test_graph_verify_reads_its_lattice_once(calls, tmp_path):
    spec = tmp_path / "graph.json"
    spec.write_text(json.dumps({"kind": "graph", "graph": {"h": "x*y/2 + x^3/6"}}))
    assert main(["verify", "--spec", str(spec), "--grid", "21", "21",
                 "--out", str(tmp_path / "v")]) == 0
    assert calls == {"characteristic_scan": 1, "max_curvature_deviation": 1}


@pytest.mark.parametrize("name", gallery_names())
def test_a_battery_scans_its_lattice_once_where_a_scan_is_expected(calls, name):
    entry = gallery_get(name)
    gallery_verify(name)
    # the analytic and FD curvature scans, and the lower sheet's if it has one
    scans = 0 if entry.graph is None else 2 + (entry.graph_lower is not None)
    assert calls == {"characteristic_scan": int(entry.expected_scan is not None),
                     "max_curvature_deviation": scans}
