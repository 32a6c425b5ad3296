"""Every evaluator of ``src/hmin`` is compiled on its first call.

The one compile rule (the ``fields`` module docstring): an evaluator is a
``functools.cached_property`` that returns a ``compile_fn`` call, so code
is compiled only when something calls it.  A ``compile_fn`` call anywhere
else, such as in a constructor, compiles code that a command may never run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmin"


def _is_compile(node: ast.AST) -> bool:
    """Whether ``node`` is a call of ``compile_fn``, bare or as ``ex.compile_fn``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "compile_fn"
            or isinstance(func, ast.Attribute) and func.attr == "compile_fn")


def _is_cached_property(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id == "cached_property"
        or isinstance(d, ast.Attribute) and d.attr == "cached_property"
        for d in node.decorator_list)


def eager_compiles(source: str) -> list[int]:
    """The lines of ``source`` with a ``compile_fn`` call that is not the
    returned value of a ``cached_property``."""
    tree = ast.parse(source)
    lazy = {id(stmt.value) for fn in ast.walk(tree) if _is_cached_property(fn)
            for stmt in fn.body if isinstance(stmt, ast.Return)}
    return sorted(node.lineno for node in ast.walk(tree) if _is_compile(node) and id(node) not in lazy)


def test_every_compile_is_the_value_of_a_cached_property():
    assert [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in eager_compiles(path.read_text())] == []


# The three compiles at construction that the rule replaced, each on its
# line 3: f of a field, f's float code in an expression profile, and phi
# of an implicit surface.
EAGER = [
    "class ScalarField2:\n"
    "    def __post_init__(self):\n"
    "        self.f = ex.compile_fn(self.exprs[0], (\"x\", \"y\"))\n",
    "def from_expr(src: str) -> \"Profile\":\n"
    "    f = _ProfileCode(lambda: tree)\n"
    "    f._float = ex.compile_fn(tree, (\"s\",))\n"
    "    return Profile(f, d1, d1.derivative())\n",
    "class ImplicitSurface:\n"
    "    def __post_init__(self):\n"
    "        self.phi = ex.compile_fn(self.tree, _XYT, array=True)\n",
]


def test_the_pattern_sees_each_eager_compile():
    for source in EAGER:
        assert eager_compiles(source) == [3], source
    # a compile that is not the returned value, or not in a cached_property
    for source in ("@cached_property\ndef f(self):\n    fn = compile_fn(self.tree, ('s',))\n"
                   "    return fn\n",
                   "@property\ndef f(self):\n    return ex.compile_fn(self.tree, ('s',))\n",
                   "@cached_property\ndef f(self):\n    return lambda: ex.compile_fn(self.tree, ('s',))\n"):
        assert eager_compiles(source), source
    # the lazy spellings
    for source in ("@cached_property\ndef f(self):\n    return ex.compile_fn(self.tree, ('s',))\n",
                   "@functools.cached_property\ndef f(self):\n    return compile_fn(self.tree, ('s',))\n",
                   "def compile_fn(e, var_order, array=False):\n    pass\n"):
        assert not eager_compiles(source), source
