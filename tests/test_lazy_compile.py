"""A field, surface or expression profile compiles nothing when it is
built, and each evaluator the first time it is called."""

import json

import numpy as np
import pytest

from hmin import expr as ex
from hmin.cli import main
from hmin.errors import SpecError
from hmin.fields import Profile, ScalarField2, square
from hmin.surface import GraphPatch, ImplicitSurface


@pytest.fixture
def compiled(monkeypatch):
    """The trees of every ``expr.compile_fn`` call, with its ``array`` flag."""
    calls = []
    original = ex.compile_fn

    def spy(e, var_order, array=False):
        calls.append((e, array))
        return original(e, var_order, array)

    monkeypatch.setattr(ex, "compile_fn", spy)
    return calls


def test_building_compiles_nothing(compiled):
    patch = GraphPatch.from_expr("x*y/2 + sin(x)", square(2.0))
    surf = ImplicitSurface.from_expr("t - x*y/2")
    # h0 of the README's ruled cylinder, and its seed's x and y
    profiles = [Profile.from_expr(src) for src in ("sqrt(1 - s^2)", "s", "0")]
    assert compiled == []
    assert patch.h.value(0.5, 0.5) == 0.125 + np.sin(0.5)
    assert compiled == [(patch.h.exprs[0], False)]
    compiled.clear()
    assert surf.phi(*(np.array([v]) for v in (1.0, 0.5, 0.25))).tolist() == [0.0]
    assert compiled == [(surf.tree, True)]
    compiled.clear()
    assert [p(0.6) for p in profiles] == [0.8, 0.6, 0.0]
    # the constant "0" compiles nothing
    assert compiled == [(ex.parse(src), False) for src in ("sqrt(1 - s^2)", "s")]


def test_fd_only_compiles_nothing_and_shares_f(compiled):
    field = ScalarField2.from_expr("x*y/2 + sin(x)", square(2.0))
    fresh = field.fd_only()
    assert compiled == [] and "f" not in vars(fresh)
    # once the field's f is compiled, fd_only takes it over
    field.value(0.5, 0.5)
    compiled.clear()
    fd = field.fd_only()
    assert compiled == [] and fd.f is field.f
    assert fd.exprs == field.exprs[:1] and fd.domain is field.domain
    # its gradient differences the shared f
    assert fd.gradient(0.5, 0.5) == pytest.approx(field.gradient(0.5, 0.5), abs=1e-8)
    # the one made before compiles its own f on its first call
    compiled.clear()
    assert fresh.gradient(0.5, 0.5) == fd.gradient(0.5, 0.5)
    assert compiled == [(field.exprs[0], False)] and fresh.f is not field.f


def _compiles_once(compiled, call) -> int:
    compiled.clear()
    first = call()
    n = len(compiled)
    assert repr(call()) == repr(first) and len(compiled) == n
    return n


def test_first_array_gradient_or_hessian_call_compiles_once(compiled):
    field = ScalarField2.from_expr("x*y/2 + sin(x)", square(2.0))
    x, y = np.array([0.1, 0.2]), np.array([0.3, -0.4])
    assert _compiles_once(compiled, lambda: field.gradient(0.1, 0.3)) == 1
    assert _compiles_once(compiled, lambda: field.hessian(0.1, 0.3)) == 1
    assert _compiles_once(compiled, lambda: field.value(x, y)) == 1
    assert compiled[0][1] is True
    # the array code serves every chunk call: the jet compiles nothing more
    assert _compiles_once(compiled, lambda: field.jet(x, y)) == 0
    # a stencil field differences its f on floats: the field's f was never
    # called, so this one compiles its own on the first call
    fd = field.fd_only()
    assert _compiles_once(compiled, lambda: fd.gradient(0.1, 0.3)) == 1
    assert _compiles_once(compiled, lambda: fd.hessian(0.1, 0.3)) == 0
    assert _compiles_once(compiled, lambda: fd.jet(x, y)) == 1

    # an implicit surface's evaluators are array code
    surf = ImplicitSurface.from_expr("t - x*y/2")
    t = np.array([0.25, -0.03])
    assert _compiles_once(compiled, lambda: surf.horizontal_data(x, y, t)) == 1
    assert _compiles_once(compiled, lambda: surf.h_mean_curvature(x, y, t)) == 1
    # Newton reads phi and phi_t
    assert _compiles_once(compiled, lambda: surf.solve_height(x, y, 0.0)) == 2
    assert compiled == [(surf.tree, True), (surf.trees[1], True)]


def test_implicit_surface_derives_its_trees_on_first_use(monkeypatch):
    derived = []
    original = ex.differentiate
    monkeypatch.setattr(ex, "differentiate", lambda e, var: derived.append(var) or original(e, var))
    surf = ImplicitSurface.from_expr("t - x*y/2")
    assert derived == []
    x, y, t = np.array([1.0]), np.array([0.5]), np.array([0.25])
    surf.horizontal_data(x, y, t)
    n = len(derived)
    assert n > 0 and surf.trees[0] is surf.tree
    surf.h_mean_curvature(x, y, t)
    surf.solve_height(x, y, 0.0)
    assert len(derived) == n


def test_expression_profile_compiles_each_code_on_its_first_call(compiled, monkeypatch):
    derived = []
    original = ex.differentiate
    monkeypatch.setattr(ex, "differentiate", lambda e, var: derived.append(var) or original(e, var))
    h0 = Profile.from_expr("sqrt(1 - s^2)")
    assert compiled == [] and derived == []
    s = np.array([0.1, -0.5])
    assert _compiles_once(compiled, lambda: h0(0.3)) == 1
    assert compiled == [(ex.parse("sqrt(1 - s^2)"), False)]
    assert _compiles_once(compiled, lambda: h0(s)) == 1 and compiled[0][1] is True
    # f' is derived on its first call, and its float and array code compiled apart
    assert _compiles_once(compiled, lambda: h0.d(0.3)) == 1 and derived
    n = len(derived)
    assert _compiles_once(compiled, lambda: h0.d(s)) == 1 and compiled[0][1] is True
    assert len(derived) == n
    assert _compiles_once(compiled, lambda: h0.d2(s)) == 1 and len(derived) > n


@pytest.mark.parametrize("src", ["0", "1", "-2.5", "pi/2", "log(-1)", "2^2000", "1/0", "-0*0"])
def test_a_constant_profile_compiles_nothing_and_gives_the_compiled_floats(compiled, src):
    tree = ex.parse(src)
    want_float = ex.compile_fn(tree, ("s",))(0.3)
    want_array = ex.compile_fn(tree, ("s",), array=True)(np.array([0.3, -1.0]))
    compiled.clear()
    f = Profile.from_expr(src)
    got_float, got_array = f(0.3), f(np.array([0.3, -1.0]))
    assert compiled == []
    assert repr(got_float) == repr(want_float)
    assert isinstance(got_array, np.ndarray) and got_array.tobytes() == want_array.tobytes()
    # f' and f'' of a constant are 0.0, and compile nothing either
    assert (f.d(0.3), f.d2(0.3)) == (0.0, 0.0) and compiled == []


def test_verify_of_the_readme_cylinder_compiles_no_constant_tree(tmp_path, compiled):
    # the seed's x = s and the curvature's h0' are compiled; x' = 1, and y = 0
    # with its derivatives, are constants
    spec = tmp_path / "in.json"
    spec.write_text(json.dumps({"kind": "ruled", "ruled": CYLINDER}))
    assert main(["verify", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    d1 = ex.differentiate(ex.parse("sqrt(1 - s^2)"), "s")
    assert [e for e, _ in compiled] == [ex.parse("s"), d1]


def test_verify_of_a_ruled_spec_compiles_no_second_derivative_of_h0(tmp_path, compiled):
    # the expression seed reads gamma'' from its profiles' f''; the curvature
    # reads h0' alone, so neither h0 nor h0'' is compiled
    spec = tmp_path / "in.json"
    spec.write_text(json.dumps({"kind": "ruled", "ruled": {
        "seed": {"kind": "expression", "x": "s", "y": "0"}, "h0": "sqrt(1 - s^2)",
        "s_range": [-0.9, 0.9], "r_range": [-1, 1]}}))
    assert main(["verify", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    h0 = ex.parse("sqrt(1 - s^2)")
    d1 = ex.differentiate(h0, "s")
    trees = [e for e, _ in compiled]
    assert d1 in trees and h0 not in trees and ex.differentiate(d1, "s") not in trees


@pytest.mark.parametrize("src", ["sin(x*r) + t", "t*s - x", "pi*e*x", "exp(r)^y / s"])
@pytest.mark.parametrize("var_order", [("x", "y"), ("x", "y", "t"), ("s",), ()])
def test_check_variables_raises_what_compile_fn_raises(src, var_order):
    tree = ex.parse(src)
    # derivative trees share subtrees, as compile_fn's memo expects
    for e in (tree, ex.differentiate(tree, "x")):
        try:
            ex.compile_fn(e, var_order)
            want = None
        except SpecError as err:
            want = str(err)
        try:
            ex.check_variables(e, var_order)
            got = None
        except SpecError as err:
            got = str(err)
        assert got == want


IN_GRAPH = "unknown variable 't': this field takes x, y"
IN_PROFILE = "unknown variable %r: this field takes s"
CYLINDER = {"seed": {"kind": "expression", "x": "s", "y": "0"}, "h0": "sqrt(1 - s^2)",
            "s_range": [-0.9, 0.9], "r_range": [-1, 1]}


@pytest.mark.parametrize("command,payload,message", [
    ("verify", {"kind": "graph", "graph": {"h": "x*t"}}, IN_GRAPH),
    ("classify", {"kind": "graph", "graph": {"h": "x*t"}}, IN_GRAPH),
    ("verify", {"kind": "graph", "graph": {"h": "x*t", "fd_only": True}}, IN_GRAPH),
    # phi is checked when the surface is built, before any node is solved
    ("verify", {"kind": "implicit", "implicit": {"phi": "t - s*x"}},
     "unknown variable 's': this field takes x, y, t"),
    ("verify", {"kind": "ruled", "ruled": {**CYLINDER, "h0": "sqrt(1 - x^2)"}}, IN_PROFILE % "x"),
    ("loci", {"kind": "ruled", "ruled": {**CYLINDER, "seed": {
        "kind": "expression", "x": "t", "y": "0"}}}, IN_PROFILE % "t"),
    ("verify", {"kind": "ruled", "ruled": {**CYLINDER, "seed": {
        "kind": "expression", "x": "s", "y": "r*0"}}}, IN_PROFILE % "r"),
    # the first unknown variable in compile_fn's order is the one named
    ("verify", {"kind": "graph", "graph": {"h": "sin(x*r) + t"}},
     "unknown variable 'r': this field takes x, y"),
])
def test_unknown_variable_exits_2_when_the_field_is_built(tmp_path, capsys, command, payload,
                                                          message):
    spec = tmp_path / "in.json"
    spec.write_text(json.dumps(payload))
    assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: " + message]
