"""Every function, class and method of the library has a caller in it."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmin"

# the definitions kept without a caller in src/hmin, each with its reason
KEPT = {
    "expr.evaluate": "oracle: walks a tree; compile_fn's generated code is tested against it",
    "expr.to_str": "oracle: prints a tree back for the parse round trip",
    "fields.adaptive_simpson": "oracle: the scalar recursion that cumulative_integral matches bit for bit",
    "ruled.rule": "oracle: RuledPatch.embed in group form",
    "seed.rule_jacobian_det_fd": "oracle: finite differences of rule_jacobian_det (criterion 05)",
    "surface.translate_graph": "acceptance criterion 11: left translation of a graph",
    "surface.rotate_graph": "acceptance criterion 11: rotation of a graph about the t-axis",
    "ruled.constant_curvature_test": "left for ROADMAP item 3 (generalized seed curves)",
}


def _references(tree: ast.AST) -> Counter:
    """How often each name is spelled by an ``ast.Name`` or ``ast.Attribute`` in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def uncalled(src: Path = SRC) -> list[str]:
    """``module.name`` of each definition that no ``ast.Name`` or
    ``ast.Attribute`` in ``src`` outside its own body refers to.

    Dunders are skipped.  Names are matched by spelling alone; a reference
    inside the definition's own body, such as a recursive call, does not
    count.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    referenced = sum((_references(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and referenced[node.name] == _references(node)[node.name]]


def test_every_definition_has_a_caller():
    names = uncalled()
    assert [name for name in names if name not in KEPT] == []
    # a kept name that gained a caller, or is gone, leaves the list
    assert sorted(KEPT) == sorted(name for name in names if name in KEPT)
