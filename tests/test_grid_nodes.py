"""No module of ``src/hmin`` iterates a grid node by node.

``Grid2.points()`` gives a grid's nodes as arrays, which the array
evaluators take a chunk at a time.  ``Grid2`` keeps no list of float
pairs: the tests that loop over nodes as an oracle build one from
``points()``.  This test keeps a ``.nodes`` read of a grid out of the
library; ``tests/test_callers.py`` cannot flag one, because it matches
names by spelling and ``ScanComponent.nodes`` is spelled the same.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmin"


def _is_grid(node: ast.AST) -> bool:
    """Whether ``node`` is a call of ``Grid2``."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Grid2"


def grid_node_reads(source: str) -> list[int]:
    """The lines of ``source`` that read ``.nodes`` of a ``Grid2(...)`` call,
    or of a name that is assigned one."""
    tree = ast.parse(source)
    grids = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and _is_grid(node.value) for target in node.targets if isinstance(target, ast.Name)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "nodes"
            and (_is_grid(node.value) or isinstance(node.value, ast.Name) and node.value.id in grids)]


def test_no_module_reads_the_nodes_of_a_grid():
    assert [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in grid_node_reads(path.read_text())] == []


def test_the_pattern_sees_each_spelling():
    # the per-node loops the array route replaced, and a grid held in a name
    for source in ('for x, y in Grid2(_domain_of(imp.get("window")), nx, ny).nodes:\n    pass',
                   "worst = worst_abs(f(x, y) for x, y in Grid2(entry.verify_domain, 11, 11).nodes)",
                   "window = Grid2(square(3.0), 31, 31).nodes  # (x, t) nodes",
                   "pts = [sheet.point(x, y) for x, y in Grid2(PlanarDomain(0.2, 1.8, -1.0, 1.0), 9, 9).nodes\n"
                   "       for sheet in (entry.graph, entry.graph_lower)]",
                   "grid = Grid2(dom, 5, 5)\nfor x, y in grid.nodes:\n    pass"):
        assert grid_node_reads(source), source
    # a scan component's nodes, and a grid's points
    for source in ("ys = [y for comp in scan.components for _, y in comp.nodes]",
                   "c = np.array(self.nodes).mean(axis=0)",
                   "x, y = Grid2(entry.verify_domain, 11, 11).points()"):
        assert not grid_node_reads(source), source
