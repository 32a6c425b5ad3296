import math

import numpy as np
import pytest

from hmin import expr as ex
from hmin.errors import UnknownName
from hmin.fields import Grid2, PlanarDomain
from hmin.gallery import (_counterexample_triple, gallery_get, gallery_names,
                          gallery_verify, max_curvature_deviation)
from hmin.seed import curvature
from hmin.surface import GraphPatch, ImplicitSurface


def test_catalog_names():
    names = gallery_names()
    assert len(names) == 9
    assert set(names) == {"char-plane", "general-plane", "hyperbolic", "catenoid",
                          "counterexample", "cylinder", "gencurve-n", "optreg2",
                          "iso-profile"}


def test_unknown_name():
    with pytest.raises(UnknownName):
        gallery_get("nope")
    with pytest.raises(UnknownName):
        gallery_get("catenoid", bogus=3)


def test_gencurve_suffix_parsing():
    assert gallery_get("gencurve-3").params["n"] == 3
    assert gallery_get("gencurve-4").params["n"] == 4
    assert gallery_get("gencurve-n").params["n"] == 3
    with pytest.raises(UnknownName):
        gallery_get("gencurve-x")


def test_hyperbolic_entry_data():
    entry = gallery_get("hyperbolic")
    seed = entry.known_seed((0.0, 1.0))
    assert seed.point(1.0) == pytest.approx((-1.0, 1.0))
    assert entry.known_kappa((0.0, 1.0)) == 0.0
    h0 = entry.known_h0((0.0, 1.0))
    assert h0(0.4) == pytest.approx(-0.2)


def test_counterexample_entry_data():
    entry = gallery_get("counterexample")
    assert entry.known_kappa((1.0, 0.0)) == -1.0
    h0 = entry.known_h0((1.0, 0.0))
    assert h0(0.5) == pytest.approx(-math.atanh(0.5))
    assert h0.d(0.0) == pytest.approx(-1.0)


def test_catenoid_radius_law_constant():
    entry = gallery_get("catenoid")
    assert entry.radius_law((2.0, 0.0), 1.0) == pytest.approx(4.0 - 2.0 * math.sqrt(2))


def test_closed_forms_are_mutually_consistent():
    for name in ("char-plane", "hyperbolic", "catenoid", "cylinder",
                 "counterexample", "gencurve-3", "general-plane"):
        entry = gallery_get(name)
        if entry.implicit is None or entry.graph is None:
            continue
        from hmin.fields import Grid2
        worst = 0.0
        for x, y in Grid2(entry.verify_domain, 9, 9).nodes:
            t = entry.graph.h.value(x, y)
            worst = max(worst, abs(entry.implicit.phi(x, y, t)))
        assert worst <= 1e-10, name


def test_every_entry_passes_its_battery():
    for name in gallery_names():
        checks = gallery_verify(name)
        bad = [c.name for c in checks if not c.passed]
        assert not bad, f"{name}: {bad}"


def test_char_plane_singular_image_is_the_origin():
    # the fold r = -|z| of the plane's chart maps to the group origin
    entry = gallery_get("char-plane")
    patch = entry.ruled()
    for s in np.linspace(-3.0, 3.0, 13):
        g = patch.embed(float(s), -1.0)
        assert math.hypot(g.x, g.y) <= 1e-12 and g.t == 0.0


def test_iso_profile_scaling_with_radius():
    entry = gallery_get("iso-profile", R=2.0)
    dev = max_curvature_deviation(entry.graph, entry.verify_domain, 41, 41,
                                  expect=1.0)
    assert dev <= 1e-8


def test_catenoid_seed_is_arclength():
    from hmin.gallery import catenoid_seed
    c = catenoid_seed(2.0, (2.0, 0.0), (-1.0, 0.5))
    for s in np.linspace(-0.9, 0.4, 21):
        assert math.hypot(*c.tangent(float(s))) == pytest.approx(1.0, abs=1e-8)
        k = curvature(c, float(s))
        assert k < 0.0   # spiral bends the same way as the circle seeds


def test_optreg2_branch_jump_numbers():
    entry = gallery_get("optreg2")
    from hmin.ruled import locus_branch_slope
    patch = entry.ruled()
    sp = locus_branch_slope(patch, 0.0, +1, which="max")
    sm = locus_branch_slope(patch, 0.0, -1, which="max")
    assert sp == pytest.approx(-0.5, abs=1e-5)
    assert sm == pytest.approx(+0.5, abs=1e-5)
    assert abs(sp - sm) == pytest.approx(1.0, abs=1e-3)


# -- generated evaluators against the tree-walking oracle ---------------------


def _graph_cases():
    for name in gallery_names():
        entry = gallery_get(name)
        for which, patch in (("upper", entry.graph), ("lower", entry.graph_lower)):
            if patch is not None:
                yield pytest.param(patch, entry.verify_domain, id=f"{name}-{which}")


@pytest.mark.parametrize("patch,domain", list(_graph_cases()))
def test_generated_derivatives_equal_evaluate_on_gallery_graphs(patch, domain):
    tree = ex.parse(patch.h.source)
    dx, dy = ex.differentiate(tree, "x"), ex.differentiate(tree, "y")
    trees = (tree, dx, dy, ex.differentiate(dx, "x"), ex.differentiate(dx, "y"),
             ex.differentiate(dy, "y"))
    for x, y in Grid2(domain, 21, 21).nodes:
        (fxx, fxy), (_, fyy) = patch.h.hessian(x, y)
        got = (patch.h.value(x, y), *patch.h.gradient(x, y), fxx, fxy, fyy)
        assert [repr(v) for v in got] == [repr(ex.evaluate(t, {"x": x, "y": y})) for t in trees]


def test_scan_of_a_surface_undefined_on_part_of_its_domain_is_nan():
    # 0*sqrt(x) differentiates to 0, so only the height shows the hole at x < 0
    patch = GraphPatch.from_expr("x*y/2 + 0*sqrt(x)", PlanarDomain(-1, 1, -1, 1))
    assert math.isnan(max_curvature_deviation(patch, patch.domain, 21, 21))


def test_counterexample_locus_check_fails_where_w_is_undefined():
    entry = gallery_get("counterexample")
    # W is NaN for x <= 0, where sqrt(x) has no derivative
    entry.implicit = ImplicitSurface.from_expr("y + x*tan(tanh(t)) + 1e-12*sqrt(x)")
    check = next(c for c in _counterexample_triple(entry)
                 if c.name == "empty_characteristic_locus")
    assert check.passed is False and check.note == "min W = nan"
