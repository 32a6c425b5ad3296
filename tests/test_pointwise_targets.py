"""No module of ``src/hmin`` maps a package callable element by element.

Every callable the package stores takes arrays (see ``hmin.fields``), so
``expr.pointwise`` is left for the float functions of the C library that
numpy does not reproduce bit for bit: a ``math`` function or the builtin
``max``.  The two exceptions below are ``expr._mapped``'s C-library map
and the float fallback that retries a chunk where the bare function
raised.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmin"

# (module, enclosing function, mapped name) -> reason
EXCEPTIONS = {
    ("expr", "_mapped", "bare"): "the C-library function of an array operation",
    ("expr", "_mapped", "safe"): "its float fallback where the C-library function raises",
}


def _is_c_function(node: ast.AST) -> bool:
    """Whether ``node`` spells a ``math`` function or the builtin ``max``."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "math"
    return isinstance(node, ast.Name) and node.id == "max"


def mapped_callables(source: str, module: str = "") -> list[str]:
    """``function: callable`` for each ``pointwise`` call in ``source`` that
    maps anything but a C-library function, outside ``EXCEPTIONS``."""
    found = []

    def visit(node: ast.AST, function: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and node.args:
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            target = node.args[0]
            if (name == "pointwise" and not _is_c_function(target)
                    and (module, function, ast.unparse(target)) not in EXCEPTIONS):
                found.append(f"{function}: {ast.unparse(target)}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_no_module_maps_a_package_callable():
    assert [f"{path.stem}.{hit}" for path in sorted(SRC.glob("*.py"))
            for hit in mapped_callables(path.read_text(), path.stem)] == []


def test_each_exception_is_still_there():
    seen = {(path.stem, *hit.split(": ")) for path in sorted(SRC.glob("*.py"))
            for hit in mapped_callables(path.read_text())}
    assert set(EXCEPTIONS) <= seen


def test_the_pattern_sees_each_spelling():
    # the per-element maps the array route replaced
    for source in ("x = ex.pointwise(patch.h.value, x, y)",
                   "d2 = (pointwise(px.d2, s), pointwise(py.d2, s))",
                   "law = ex.pointwise(partial(entry.radius_law, entry.seed_base), s)",
                   "def d(self, s):\n    return ex.pointwise(self.d, s)",
                   "dev = pointwise(lambda x, y, sv: x ** 2 + y ** 2, *curve.point(s), s)"):
        assert mapped_callables(source), source
    # the C-library functions, and an exception only in its own function
    for source in ("w = ex.pointwise(math.hypot, p, q)",
                   "r = ex.pointwise(math.sqrt, ex.pointwise(max, r2 - 4.0 / a, 0.0))",
                   "y = pointwise(math.pow, x, 2.0)"):
        assert not mapped_callables(source), source
    assert not mapped_callables("def _mapped(bare, safe, *args):\n    return pointwise(safe, *args)",
                                "expr")
    assert mapped_callables("def _other(bare, safe, *args):\n    return pointwise(safe, *args)",
                            "expr")
    assert mapped_callables("def _cube(w):\n    return ex.pointwise(_cube, w)", "surface")
