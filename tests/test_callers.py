"""Every function, class and method of the library has a caller in it, and
every field of its records has a reader."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmin"

# the definitions kept without a caller, and the record fields kept without a
# reader, in src/hmin, each with its reason
KEPT = {
    "expr.to_str": "oracle: prints a tree back for the parse round trip",
    "fields.adaptive_simpson": "oracle: the scalar recursion that cumulative_integral matches bit for bit",
    "ruled.rule": "oracle: RuledPatch.embed in group form",
    "ruled.w_direct_invert": "oracle: w_direct by Newton inversion of the chart",
    "seed.rule_jacobian_det_fd": "oracle: finite differences of rule_jacobian_det (criterion 05)",
    "surface.translate_graph": "acceptance criterion 11: left translation of a graph",
    "surface.rotate_graph": "acceptance criterion 11: rotation of a graph about the t-axis",
    "seed.SeedCurve.stop_lo": "why a traced seed's backward branch ended; the seed tests pin it",
    "seed.SeedCurve.stop_hi": "why a traced seed's forward branch ended; the seed tests pin it",
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


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a ``@dataclass`` (with or without arguments) or a ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases))


def unread(src: Path = SRC) -> list[str]:
    """``module.Class.field`` of each annotated field of a record in ``src``
    whose name no ``ast.Attribute`` in ``src`` spells.

    Names are matched by spelling alone, so a field is read if any
    attribute of that name is.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"{module}.{cls.name}.{item.target.id}" for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_record(cls)
            for item in cls.body if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name) and item.target.id not in read]


def _assert_kept(names: list[str], dots: int):
    """Every name is in KEPT, and every KEPT name with ``dots`` dots is found."""
    assert [name for name in names if name not in KEPT] == []
    # a kept name that gained a caller or a reader, or is gone, leaves the list
    assert (sorted(name for name in KEPT if name.count(".") == dots)
            == sorted(name for name in names if name in KEPT))


def test_every_definition_has_a_caller():
    _assert_kept(uncalled(), 1)


def test_every_record_field_has_a_reader():
    _assert_kept(unread(), 2)


def test_an_unread_field_is_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n\n"
        "@dataclass(frozen=True)\nclass A:\n    used: int\n    spare: int = 0\n\n"
        "class B(NamedTuple):\n    other: int\n\n"
        "def f(a):\n    return a.used\n")
    assert unread(tmp_path) == ["m.A.spare", "m.B.other"]
