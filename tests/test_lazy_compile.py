"""A field, surface or expression profile compiles f or phi when it is
built, and every other evaluator the first time it is called."""

import json

import numpy as np
import pytest

from hmin import expr as ex
from hmin.cli import main
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


def test_building_compiles_only_f_or_phi(compiled):
    patch = GraphPatch.from_expr("x*y/2 + sin(x)", square(2.0))
    assert compiled == [(patch.h.exprs[0], False)]
    compiled.clear()
    surf = ImplicitSurface.from_expr("t - x*y/2")
    assert compiled == [(surf.trees[0], True)]


def test_fd_only_compiles_nothing_and_shares_f(compiled):
    field = ScalarField2.from_expr("x*y/2 + sin(x)", square(2.0))
    compiled.clear()
    fd = field.fd_only()
    assert compiled == [] and fd.f is field.f
    assert fd.exprs == field.exprs[:1] and fd.domain is field.domain
    # its gradient differences the shared f
    assert fd.gradient(0.5, 0.5) == pytest.approx(field.gradient(0.5, 0.5), abs=1e-8)


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
    # a stencil field differences its f on floats
    fd = field.fd_only()
    assert _compiles_once(compiled, lambda: fd.gradient(0.1, 0.3)) == 0
    assert _compiles_once(compiled, lambda: fd.hessian(0.1, 0.3)) == 0
    assert _compiles_once(compiled, lambda: fd.jet(x, y)) == 1

    # an implicit surface's evaluators are array code
    surf = ImplicitSurface.from_expr("t - x*y/2")
    t = np.array([0.25, -0.03])
    assert _compiles_once(compiled, lambda: surf.horizontal_data(x, y, t)) == 1
    assert _compiles_once(compiled, lambda: surf.h_mean_curvature(x, y, t)) == 1
    assert _compiles_once(compiled, lambda: surf.solve_height(x, y, 0.0)) == 1
    assert compiled[0][1] is True


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


def test_expression_profile_compiles_f_when_built_and_the_rest_on_first_call(compiled,
                                                                            monkeypatch):
    derived = []
    original = ex.differentiate
    monkeypatch.setattr(ex, "differentiate", lambda e, var: derived.append(var) or original(e, var))
    h0 = Profile.from_expr("sqrt(1 - s^2)")
    assert compiled == [(ex.parse("sqrt(1 - s^2)"), False)] and derived == []
    s = np.array([0.1, -0.5])
    assert _compiles_once(compiled, lambda: h0(0.3)) == 0
    assert _compiles_once(compiled, lambda: h0(s)) == 1 and compiled[0][1] is True
    # f' is derived on its first call, and its float and array code compiled apart
    assert _compiles_once(compiled, lambda: h0.d(0.3)) == 1 and derived
    n = len(derived)
    assert _compiles_once(compiled, lambda: h0.d(s)) == 1 and compiled[0][1] is True
    assert len(derived) == n
    assert _compiles_once(compiled, lambda: h0.d2(s)) == 1 and len(derived) > n


def test_verify_of_a_ruled_spec_compiles_no_second_derivative_of_h0(tmp_path, compiled):
    # the expression seed reads gamma'' from its profiles' f''; nothing reads h0's
    spec = tmp_path / "in.json"
    spec.write_text(json.dumps({"kind": "ruled", "ruled": {
        "seed": {"kind": "expression", "x": "s", "y": "0"}, "h0": "sqrt(1 - s^2)",
        "s_range": [-0.9, 0.9], "r_range": [-1, 1]}}))
    assert main(["verify", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    h0 = ex.parse("sqrt(1 - s^2)")
    d1 = ex.differentiate(h0, "s")
    trees = [e for e, _ in compiled]
    assert h0 in trees and d1 in trees and ex.differentiate(d1, "s") not in trees


IN_GRAPH = "unknown variable 't': this field takes x, y"


@pytest.mark.parametrize("command,payload,message", [
    ("verify", {"kind": "graph", "graph": {"h": "x*t"}}, IN_GRAPH),
    ("classify", {"kind": "graph", "graph": {"h": "x*t"}}, IN_GRAPH),
    ("verify", {"kind": "graph", "graph": {"h": "x*t", "fd_only": True}}, IN_GRAPH),
    # the implicit loop catches HminError per node: phi is compiled before it
    ("verify", {"kind": "implicit", "implicit": {"phi": "t - s*x"}},
     "unknown variable 's': this field takes x, y, t"),
])
def test_unknown_variable_exits_2_when_the_field_is_built(tmp_path, capsys, command, payload,
                                                          message):
    spec = tmp_path / "in.json"
    spec.write_text(json.dumps(payload))
    assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: " + message]
