"""H-minimal surfaces in the first Heisenberg group.

Construction, verification, analysis and classification of H-minimal
surfaces via the seed-curve / height-function representation: a library
(`hmin.heis`, `hmin.fields`, `hmin.expr`, `hmin.surface`, `hmin.seed`,
`hmin.ruled`, `hmin.gallery`) plus a command-line tool (`hmin`).

`import hmin` loads no submodule.  A name of ``__all__`` is imported from
its submodule on first use (PEP 562), so ``from hmin import GraphPatch``
loads `hmin.surface` and what it imports, and no more.  Each command of
`hmin.cli` likewise loads only the modules it runs:

* every command: `cli`, `errors`, `expr`, `fields`, `heis`, `report` and
  `surface`, plus `schema` when it reads a spec;
* `build`: `meshes`;
* `seed`: `seed`;
* `loci`, `classify` and any command on a ruled spec: `ruled` and `seed`;
* the `gallery` command and any gallery spec: `gallery`, which imports
  `ruled` and `seed`.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": "CharacteristicPoint CharacteristicStart FieldUndefined HminError OutOfRange "
              "ParseError SingularRule SpecError StencilOutOfDomain UnknownName",
    "heis": "HPoint ORIGIN dilate group_mul",
    "fields": "Grid2 PlanarDomain Profile ScalarField2 adaptive_simpson rk4_integrate square",
    "surface": "GraphPatch ImplicitSurface characteristic_scan h_mean_curvature horizontal_data "
               "rotate_graph translate_graph",
    "seed": "SeedCurve curvature extract_seed rule_jacobian_det rule_point singular_locus",
    "ruled": "GeneralizedSeedCurve GSCJoin GSCPiece LociReport RuledPatch build_surface "
             "characteristic_locus classify_entire_graph constant_curvature_test roundtrip "
             "rule validate_gsc w_direct",
    "gallery": "GalleryEntry gallery_get gallery_names gallery_verify",
    "expr": "",
    "report": "",
}
# public name -> its submodule; a submodule's own name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{_HOME[name]}")
    if name != _HOME[name]:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
