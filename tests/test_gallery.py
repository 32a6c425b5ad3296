import math

import numpy as np
import pytest

from hmin import expr as ex
from hmin.errors import UnknownName
from hmin.fields import Grid2, PlanarDomain
from hmin.gallery import (_check_scan, _counterexample_triple, gallery_get, gallery_names,
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


# every curvature scan of the battery, as measured before the scans read
# one jet per node; the per-node jet must not move a single bit
H_SCANS = {
    "catenoid": {"h_scan_analytic": 1.0379568939429788e-15, "h_scan_fd": 1.253418704776496e-06,
                 "h_scan_lower": 1.0379568939429788e-15},
    "char-plane": {"h_scan_analytic": 0.0, "h_scan_fd": 0.0},
    "counterexample": {"h_scan_analytic": 2.4601139247497076e-15,
                       "h_scan_fd": 6.570260119370484e-06},
    "cylinder": {"h_scan_analytic": 0.0, "h_scan_fd": 6.602608598659013e-05, "h_scan_lower": 0.0},
    "gencurve-n": {"h_scan_analytic": 0.0, "h_scan_fd": 1.4696791982641377e-05},
    "general-plane": {"h_scan_analytic": 0.0, "h_scan_fd": 6.280369839878302e-06},
    "hyperbolic": {"h_scan_analytic": 0.0, "h_scan_fd": 8.881684188078267e-08},
    "iso-profile": {"h_scan_analytic": 5.084821452783217e-14,
                    "h_scan_fd": 1.7029496157672241e-06},
    "optreg2": {},
}


def test_every_entry_passes_its_battery():
    for name in gallery_names():
        checks = gallery_verify(name)
        bad = [c.name for c in checks if not c.passed]
        assert not bad, f"{name}: {bad}"
        scans = {c.name: repr(c.measured) for c in checks if c.name.startswith("h_scan_")}
        assert scans == {k: repr(v) for k, v in H_SCANS[name].items()}, name


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
    tree = patch.h.exprs[0]
    dx, dy = ex.differentiate(tree, "x"), ex.differentiate(tree, "y")
    trees = (tree, dx, dy, ex.differentiate(dx, "x"), ex.differentiate(dx, "y"),
             ex.differentiate(dy, "y"))
    for x, y in Grid2(domain, 21, 21).nodes:
        want = [repr(ex.evaluate(t, {"x": x, "y": y})) for t in trees]
        (fxx, fxy), (_, fyy) = patch.h.hessian(x, y)
        got = (patch.h.value(x, y), *patch.h.gradient(x, y), fxx, fxy, fyy)
        assert [repr(v) for v in got] == want
        assert [repr(v) for v in patch.h.jet(x, y)] == want


def test_scan_decides_the_w_filter_before_the_hessian_stencil():
    # the scan's nodes with |x| >= 0.9 lie on y = 0, where W = 0; only their
    # Hessian stencil (step 5e-5) leaves the field's domain, so checking it
    # before the W filter would raise StencilOutOfDomain
    patch = GraphPatch.from_expr("x*y/2", PlanarDomain(-1, 1, -1, 1)).fd_only()
    domain = PlanarDomain(-1 + 3e-5, 1 - 3e-5, -0.5, 0.5,
                          lambda x, y: y == 0.0 or abs(x) < 0.9)
    assert repr(max_curvature_deviation(patch, domain, 101, 101)) == "3.9716144205577354e-08"


def test_scan_without_an_evaluated_node_is_nan():
    patch = GraphPatch.from_expr("x*y/2", PlanarDomain(-1, 1, -1, 1))
    # every node of the x-axis is characteristic
    assert math.isnan(max_curvature_deviation(patch, PlanarDomain(-1, 1, 0, 0), 5, 5))
    assert math.isnan(max_curvature_deviation(patch, PlanarDomain(1, -1, -1, 1), 5, 5))


def test_scan_of_a_surface_undefined_on_part_of_its_domain_is_nan():
    # 0*sqrt(x) differentiates to 0, so only the height shows the hole at x < 0
    patch = GraphPatch.from_expr("x*y/2 + 0*sqrt(x)", PlanarDomain(-1, 1, -1, 1))
    assert math.isnan(max_curvature_deviation(patch, patch.domain, 21, 21))


def test_scan_empty_check_fails_where_w_is_undefined():
    entry = gallery_get("counterexample")
    assert _check_scan(entry).passed
    # a scan domain that reaches x = 0, where y/x and so W are NaN; no node
    # of it is characteristic
    entry.scan_domain = PlanarDomain(-1.0, 3.0, -3.0, 3.0)
    check = _check_scan(entry)
    assert check.name == "scan_empty" and check.passed is False
    assert check.note == "101 node(s) where W is not finite"


def test_counterexample_locus_check_fails_where_w_is_undefined():
    entry = gallery_get("counterexample")
    # W is NaN for x <= 0, where sqrt(x) has no derivative
    entry.implicit = ImplicitSurface.from_expr("y + x*tan(tanh(t)) + 1e-12*sqrt(x)")
    check = next(c for c in _counterexample_triple(entry)
                 if c.name == "empty_characteristic_locus")
    assert check.passed is False and check.note == "min W = nan"
