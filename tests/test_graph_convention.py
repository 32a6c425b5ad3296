"""A graph's (p, q), D(p, q) and W are written out in ``surface`` alone."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmin"

# p = -(h_x + y/2), q = -(h_y - x/2) and D(p, q) from the Hessian, as code spells them
CONVENTION = re.compile(r"\bh\w*\s*\+\s*0\.5\s*\*\s*y\b|\bh\w*\s*-\s*0\.5\s*\*\s*x\b"
                        r"|\bhxy\s*[+-]\s*0\.5\b")


# hypot over graph_pq(...) or over a pair p, q, called or mapped
HYPOT_OF_PQ = re.compile(r"\bhypot\s*[(,]\s*\*?\s*(graph_pq\s*\(|p\s*,\s*q\b)")


def writers(src: Path = SRC, pattern: re.Pattern = CONVENTION) -> list[str]:
    """``file:line`` of each line of ``src/hmin`` outside surface.py that
    ``pattern`` finds: by default, that writes out a graph's (p, q) or D(p, q)."""
    return [f"{path.name}:{n}" for path in sorted(src.glob("*.py")) if path.name != "surface.py"
            for n, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]


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


def _calls(module: str, function: str) -> set[str]:
    """The names that ``function`` of ``src/hmin/<module>.py`` calls."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            for node in ast.walk(body) if isinstance(node, ast.Call)}


def test_only_surface_forms_w_from_a_graphs_p_q():
    assert writers(pattern=HYPOT_OF_PQ) == []
    # the pattern sees the rule's fallback where it lives
    assert HYPOT_OF_PQ.search((SRC / "surface.py").read_text())
    for function in ("w_direct", "_chart_nu"):
        calls = _calls("ruled", function)
        assert "w_from_pq" in calls and "hypot" not in calls, function
    for line in ("return ex.pointwise(math.hypot, *graph_pq(hx, hy, x, y))",
                 "return math.hypot(*graph_pq(hx, hy, x, y))", "w = ex.pointwise(math.hypot, p, q)",
                 "w = math.hypot(p, q)", "w = hypot( p,q )"):
        assert HYPOT_OF_PQ.search(line), line
    for line in ("worst = worst_abs(ex.pointwise(math.hypot, *tangent) - 1.0)",
                 "if math.hypot(rx, ry) < 1e-13:", "w = w_from_pq(*graph_pq(hx, hy, x, y))",
                 "math.hypot(p_x, q_y)"):
        assert not HYPOT_OF_PQ.search(line), line
