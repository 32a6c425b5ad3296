"""A graph's (p, q) and D(p, q) are written out in ``surface`` alone."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmin"

# p = -(h_x + y/2), q = -(h_y - x/2) and D(p, q) from the Hessian, as code spells them
CONVENTION = re.compile(r"\bh\w*\s*\+\s*0\.5\s*\*\s*y\b|\bh\w*\s*-\s*0\.5\s*\*\s*x\b"
                        r"|\bhxy\s*[+-]\s*0\.5\b")


def writers(src: Path = SRC) -> list[str]:
    """``file:line`` of each line of ``src/hmin`` outside surface.py that
    writes out a graph's (p, q) or D(p, q)."""
    return [f"{path.name}:{n}" for path in sorted(src.glob("*.py")) if path.name != "surface.py"
            for n, line in enumerate(path.read_text().splitlines(), 1) if CONVENTION.search(line)]


def test_only_surface_writes_out_a_graphs_p_q_and_its_jacobian():
    assert writers() == []
    # the pattern sees the formulas where they live
    assert len(CONVENTION.findall((SRC / "surface.py").read_text())) == 4


def test_the_pattern_sees_each_spelling():
    for line in ("p = -(hx + 0.5 * y)", "q = -(hy - 0.5 * x)", "ax = -hxx * nx - (hxy + 0.5) * ny",
                 "ay = -(hxy - 0.5) * nx", "-(h_x+0.5*y)"):
        assert CONVENTION.search(line), line
    for line in ("g.t + h.t - 0.5 * (h.x * g.y)", "self.h0(s) - 0.5 * r * w", "p_y + 0.5 * x * p_t"):
        assert not CONVENTION.search(line), line


def test_the_cylinder_gauss_check_reads_nu_from_the_ruled_chart():
    tree = ast.parse((SRC / "gallery.py").read_text())
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_cylinder_gauss_errors")
    names = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(body)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert "_chart_nu" in names
    assert not names & {"chart_height_gradient", "point", "seed", "hypot"}
