import dataclasses
import math
import warnings

import numpy as np
import pytest

from hmin import expr as ex, gallery
from hmin.cli import main
from hmin.errors import UnknownName
from hmin.fields import Grid2, PlanarDomain, Profile, square
from hmin.gallery import (_check_scan, _counterexample_triple, gallery_get, gallery_key,
                          gallery_names, gallery_verify, max_curvature_deviation)
from hmin.report import worst_abs
from hmin.ruled import chart_samples
from hmin.seed import curvature
from hmin.surface import GraphPatch, ImplicitSurface, scan_graph


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
    assert gallery_key("gencurve-3") == ("gencurve-n", (("n", 3),))
    assert gallery_key("gencurve-4") == ("gencurve-n", (("n", 4),))
    assert gallery_key("gencurve-n") == ("gencurve-n", (("n", 3),))
    # n may be a float that is a whole number
    assert gallery_get("gencurve-n", n=4.0).graph_lower is not None
    with pytest.raises(UnknownName):
        gallery_get("gencurve-x")


def test_hyperbolic_entry_data():
    entry = gallery_get("hyperbolic")
    seed = entry.known_seed((0.0, 1.0))
    assert seed.point(1.0) == pytest.approx((-1.0, 1.0))
    assert entry.known_kappa((0.0, 1.0)) == 0.0


def test_counterexample_entry_data():
    entry = gallery_get("counterexample")
    assert entry.known_kappa((1.0, 0.0)) == -1.0


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
        x, y = Grid2(entry.verify_domain, 9, 9).points()
        t = [entry.graph.h.value(u, v) for u, v in zip(x.tolist(), y.tolist())]
        residual = entry.implicit.phi(x, y, np.array(t))
        assert np.abs(residual).max() <= 1e-10, name


# every curvature scan of the battery, pinned bit for bit
H_SCANS = {
    "catenoid": {"h_scan_analytic": 7.803363587432815e-16, "h_scan_fd": 1.2534187051155132e-06,
                 "h_scan_lower": 7.803363587432815e-16},
    "char-plane": {"h_scan_analytic": 0.0, "h_scan_fd": 0.0},
    "counterexample": {"h_scan_analytic": 1.8605515386816453e-15,
                       "h_scan_fd": 6.570260119151944e-06},
    "cylinder": {"h_scan_analytic": 0.0, "h_scan_fd": 6.602608598659014e-05, "h_scan_lower": 0.0},
    "gencurve-n": {"h_scan_analytic": 0.0, "h_scan_fd": 1.4696791982641379e-05},
    "general-plane": {"h_scan_analytic": 0.0, "h_scan_fd": 5.921189463374465e-06},
    "hyperbolic": {"h_scan_analytic": 0.0, "h_scan_fd": 8.881684188078268e-08},
    "iso-profile": {"h_scan_analytic": 5.040412531798211e-14,
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



@pytest.mark.parametrize("a,b,c,d", [(1.0, 2.0, 2.0, 4.0), (2.95, -2.0, 2.0, 4.0),
                                     # over [-3, 3]², whose nearest node is 1.5e-3 off this
                                     # point in y, h_scan_fd reads 1.1e-4 > TOL_H_FD
                                     (-2.4614796127141205, 1.626322833831383, 2.0, 4.0),
                                     # c < 0: the default plane negated, and another; the
                                     # seed still turns counterclockwise
                                     (-1.0, -2.0, -2.0, -4.0), (0.9, -1.2, -1.5, 0.5)])
def test_general_plane_verify_lattice_has_a_node_on_its_characteristic_point(a, b, c, d):
    entry = gallery_get("general-plane", a=a, b=b, c=c, d=d)
    xs, ys = Grid2(entry.verify_domain, 101, 101).lattice()
    cx, cy = entry.expected_scan["at"]
    assert min(abs(xs - cx)) <= 1e-12 and min(abs(ys - cy)) <= 1e-12
    checks = gallery_verify("general-plane", a=a, b=b, c=c, d=d)
    assert [check.name for check in checks if not check.passed] == []


# the names of each entry's checks, in report order: the standard battery,
# then the entry's own checks before graph_vs_implicit
CHECK_NAMES = {
    "char-plane": ["h_scan_analytic", "h_scan_fd", "seed_extraction", "seed_kappa",
                   "locus_label_double-root", "locus_root_value", "locus_verified",
                   "built_patch_minimal", "w_ode_residual", "w_formula_vs_direct", "scan_point",
                   "roundtrip", "graph_vs_implicit"],
    "general-plane": ["h_scan_analytic", "h_scan_fd", "seed_extraction", "seed_kappa",
                      "scan_point", "graph_vs_implicit"],
    "hyperbolic": ["h_scan_analytic", "h_scan_fd", "seed_extraction", "seed_kappa",
                   "locus_label_kappa-zero", "locus_root_value", "locus_verified",
                   "built_patch_minimal", "w_ode_residual", "w_formula_vs_direct",
                   "scan_on_x_axis", "roundtrip", "graph_vs_implicit"],
    "catenoid": ["h_scan_analytic", "h_scan_fd", "h_scan_lower", "seed_extraction",
                 "locus_empty", "built_patch_minimal", "w_ode_residual", "w_formula_vs_direct",
                 "scan_empty", "gsc_joins", "graph_vs_implicit"],
    "counterexample": ["h_scan_analytic", "h_scan_fd", "seed_extraction", "seed_kappa",
                       "locus_empty", "built_patch_minimal", "w_ode_residual",
                       "w_formula_vs_direct", "scan_empty", "roundtrip", "entire_xt_graph",
                       "empty_characteristic_locus", "not_vertical_plane", "graph_vs_implicit"],
    "cylinder": ["h_scan_analytic", "h_scan_fd", "h_scan_lower", "seed_kappa",
                 "locus_label_kappa-zero", "locus_root_value", "locus_verified",
                 "built_patch_minimal", "w_ode_residual", "w_formula_vs_direct", "gsc_joins",
                 "cylinder_implicit_residual", "cylinder_gauss_piecewise", "graph_vs_implicit"],
    "gencurve-n": ["h_scan_analytic", "h_scan_fd", "seed_kappa", "built_patch_minimal",
                   "w_ode_residual", "w_formula_vs_direct", "gsc_joins", "graph_vs_implicit"],
    "gencurve-2": ["h_scan_analytic", "h_scan_fd", "h_scan_lower", "seed_kappa",
                   "built_patch_minimal", "w_ode_residual", "w_formula_vs_direct", "gsc_joins",
                   "gencurve_even_two_sheets", "graph_vs_implicit"],
    "optreg2": ["built_patch_minimal", "w_ode_residual", "w_formula_vs_direct",
                "optreg2_branch_values", "optreg2_branch_at_0", "optreg2_slope_jump"],
    "iso-profile": ["h_scan_analytic", "h_scan_fd"],
}


@pytest.mark.parametrize("name", list(CHECK_NAMES))
def test_battery_check_names_in_report_order(name):
    assert [c.name for c in gallery_verify(name)] == CHECK_NAMES[name]


def test_cylinder_battery_builds_its_ruled_pair_once(monkeypatch):
    sources = []
    from_expr = Profile.from_expr

    def counting(src):
        sources.append(src)
        return from_expr(src)

    monkeypatch.setattr(Profile, "from_expr", staticmethod(counting))
    gallery_verify("cylinder")
    # the two heights of the pair that ruled, ruled_pair and gsc share
    assert sources == ["sqrt(1 - s^2)", "-sqrt(1 - s^2)"]


def test_battery_solves_the_locus_only_where_a_check_reads_it(monkeypatch):
    n_s = []
    locus = gallery.characteristic_locus

    def counting(patch, **kwargs):
        n_s.append(kwargs.get("n_s"))
        return locus(patch, **kwargs)

    monkeypatch.setattr(gallery, "characteristic_locus", counting)
    gallery_verify("optreg2")
    assert n_s == [41]   # the corner checks' own solve; no locus label is expected
    n_s.clear()
    gallery_verify("gencurve-n")
    assert n_s == []


@pytest.mark.parametrize("damage", ["shifted", "missing"])
def test_optreg2_branch_at_0_reads_the_locus_root_there(monkeypatch, damage):
    # the kappa-zero root at s = 0 is r = 1 exactly; moved by 1e-9 (inside
    # optreg2_branch_values' 1e-8) or gone, it fails the 1e-12 check
    locus = gallery.characteristic_locus

    def damaged(patch, **kwargs):
        rep = locus(patch, **kwargs)
        at0 = rep.s == 0.0
        assert rep.r[at0].tolist() == [1.0]
        if damage == "shifted":
            return dataclasses.replace(rep, r=np.where(at0, rep.r + 1e-9, rep.r))
        return dataclasses.replace(rep, s=rep.s[~at0], r=rep.r[~at0])

    checks = {c.name: c for c in gallery_verify("optreg2")}
    assert checks["optreg2_branch_at_0"].passed and checks["optreg2_branch_at_0"].measured == 0.0
    monkeypatch.setattr(gallery, "characteristic_locus", damaged)
    checks = {c.name: c for c in gallery_verify("optreg2")}
    assert checks["optreg2_branch_values"].passed
    assert not checks["optreg2_branch_at_0"].passed
    assert (checks["optreg2_branch_at_0"].measured == pytest.approx(1e-9, rel=1e-6)
            if damage == "shifted" else math.isnan(checks["optreg2_branch_at_0"].measured))


def test_optreg2_h0_is_its_sampled_hermite_over_floats_and_arrays():
    h0 = gallery_get("optreg2").ruled().h0
    # the values of the earlier float-only Hermite, at nodes, between them
    # and within the range slop past the ends
    want = {-1.0000000005: "-5.000000413701855e-10", -0.7654321: "0.23551525369968968",
            -0.0012: "1.03977719324223", 0.0: "1.0410754215301987",
            0.3337: "1.4056186454405848", 1.0000000005: "2.2418191385851567"}
    assert {s: repr(h0(s)) for s in want} == want
    s = np.linspace(-1.0, 1.0, 1201)
    assert [repr(v) for v in h0(s).tolist()] == [repr(h0(v)) for v in s.tolist()]


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
    # kappa = -1/sqrt(|gamma|^2 - 4/a) diverges like (s_rim - s)^(-1/2)
    up = gallery_get("catenoid").gsc().pieces[0].curve
    s_rim = up.s_max
    ratio = curvature(up, s_rim - 1e-4) / curvature(up, s_rim - 1e-2)
    assert ratio == pytest.approx(10.0, rel=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not all(map(math.isfinite, up.second(s_rim)))
        assert not np.isfinite(np.column_stack(up.second(np.array([s_rim])))).all()
    # a range that does not hold the base s = 0
    s = np.linspace(0.1, 0.5, 41)
    x, y = catenoid_seed(2.0, (2.0, 0.0), (0.1, 0.5)).point(s)
    assert worst_abs(x * x + y * y - (4.0 - 2.0 * math.sqrt(2.0) * s)) <= 1e-14


def test_optreg2_branch_jump_numbers():
    entry = gallery_get("optreg2")
    from hmin.ruled import locus_branch_slope
    patch = entry.ruled()
    sp = locus_branch_slope(patch, 0.0, +1)
    sm = locus_branch_slope(patch, 0.0, -1)
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
    for x, y in zip(*(a.tolist() for a in Grid2(domain, 21, 21).points())):
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
                          lambda x, y: (y == 0.0) | (abs(x) < 0.9))
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


def _scan(patch, domain):
    """The characteristic scan of the 101 x 101 lattice of ``domain``."""
    return scan_graph(patch, Grid2(domain, 101, 101))[1]


def test_scan_empty_check_fails_where_w_is_undefined():
    entry = gallery_get("counterexample")
    assert _check_scan(entry, _scan(entry.graph, entry.verify_domain)).passed
    # a lattice that reaches x = 0, where y/x and so W are NaN; no node of
    # it is characteristic
    check = _check_scan(entry, _scan(entry.graph, PlanarDomain(-1.0, 3.0, -3.0, 3.0)))
    assert check.name == "scan_empty" and check.passed is False
    assert check.note == "101 node(s) where W is not finite"


@pytest.mark.parametrize("name,height,check_name", [
    ("char-plane", "1e-12*sqrt(x + 1.5)", "scan_point"),
    ("hyperbolic", "x*y/2 + 1e-12*sqrt(x + 1.5)", "scan_on_x_axis"),
])
def test_scan_point_and_line_checks_fail_where_w_is_undefined(name, height, check_name):
    # W is NaN on the 13 lattice columns with x < -1.5, and the one component
    # the scan finds is the entry's own; such a node may hide another
    entry = gallery_get(name)
    assert _check_scan(entry, _scan(entry.graph, entry.verify_domain)).passed
    scan = _scan(GraphPatch.from_expr(height, entry.graph.domain), entry.verify_domain)
    assert len(scan.components) == 1 and scan.undefined_w == 1313
    check = _check_scan(entry, scan)
    assert (check.name, check.passed) == (check_name, False)
    assert check.note == "1313 node(s) where W is not finite"


def test_a_characteristic_node_without_a_height_is_reported_before_the_seed_checks(tmp_path,
                                                                                  capsys):
    # h = 1e300/1e-10 is inf everywhere and W is 0 at (0, 0), a node of the
    # verify lattice; the analytic scan that finds it runs before the seed tracer
    assert main(["gallery", "general-plane", "--a", "0", "--b", "0", "--c", "1e-10",
                 "--d", "1e300", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: height not finite at (0.0, 0.0)\n"


def test_counterexample_locus_check_fails_where_w_is_undefined():
    entry = gallery_get("counterexample")
    # W is NaN for x <= 0, where sqrt(x) has no derivative
    entry.implicit = ImplicitSurface.from_expr("y + x*tan(tanh(t)) + 1e-12*sqrt(x)")
    check = next(c for c in _counterexample_triple(entry)
                 if c.name == "empty_characteristic_locus")
    assert check.passed is False and check.note == "min W = nan"


_CLOSED_FORM_SEEDS = {
    "line-hyperbolic": lambda: gallery.line_seed((0.0, 1.0), (-1.0, 0.0), (-1.5, 1.5)),
    "line-slanted": lambda: gallery.line_seed((0.3, -1.2), (3.0, -4.0), (-2.0, 0.5)),
    "circle-counterexample": lambda: gallery.circle_seed((0.0, 0.0), (1.0, 0.0), (-0.9, 0.9)),
    "circle-offset": lambda: gallery.circle_seed((0.4, -0.2), (1.1, 0.7), (-2.5, 1.0)),
    # its last sample is the rim, where gamma'' is not finite
    "catenoid-upper": lambda: gallery_get("catenoid").gsc().pieces[0].curve,
}


def _spy_on_closed_forms(curve) -> list:
    """Record each call of the curve's closed forms."""
    calls = []
    for name in ("gamma_fn", "dgamma_fn", "ddgamma_fn"):
        fn = getattr(curve, name)

        def spy(s, fn=fn, name=name):
            calls.append(name)
            return fn(s)
        setattr(curve, name, spy)
    return calls


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_SEEDS))
def test_line_and_circle_seed_array_lookups_are_their_scalar_lookups(name):
    curve = _CLOSED_FORM_SEEDS[name]()
    rng = np.random.default_rng(11)
    s = np.concatenate([[curve.s_min, curve.s_max], rng.uniform(curve.s_min, curve.s_max, 300)])
    calls = _spy_on_closed_forms(curve)
    for lookup, fn in ((curve.point, "gamma_fn"), (curve.tangent, "dgamma_fn"),
                       (curve.second, "ddgamma_fn")):
        calls.clear()
        cols = lookup(s)
        assert calls == [fn]   # one call for the whole array
        assert all(isinstance(c, np.ndarray) and c.shape == s.shape for c in cols)
        for i, v in enumerate(s.tolist()):
            assert repr(lookup(v)) == repr((float(cols[0][i]), float(cols[1][i])))


def test_cylinder_gauss_map_errors_are_pinned():
    errors = gallery._cylinder_gauss_errors(*gallery_get("cylinder").ruled_pair())
    assert len(errors) == 656
    assert repr(worst_abs(errors)) == "0.0"


def _smallest_singular_value(points: np.ndarray) -> float:
    return float(np.linalg.svd(points, full_matrices=False)[1][-1])


@pytest.mark.parametrize("seed,n", [(1, 3), (2, 20), (3, 169), (4, 1000)])
def test_planar_residual_is_the_smallest_singular_value(seed, n):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=(n, 2)) @ rng.normal(size=(2, 2))
    arr -= arr.mean(axis=0)
    assert gallery._planar_residual(arr) == pytest.approx(_smallest_singular_value(arr), rel=1e-12)


def test_planar_residual_of_the_counterexample_sample():
    x, t = Grid2(square(3.0), 13, 13).points()
    arr = np.column_stack((x, -x * ex.pointwise(math.tan, ex.pointwise(math.tanh, t))))
    arr -= arr.mean(axis=0)
    residual = gallery._planar_residual(arr)
    assert residual == pytest.approx(_smallest_singular_value(arr), rel=1e-12)
    assert f"{residual:.3e}" == "2.432e+01"


def test_planar_residual_of_collinear_points_is_finite_and_not_negative():
    # on a line the radicand is zero, and rounding can take it below zero
    t = np.random.default_rng(4).normal(size=50)
    arr = np.column_stack((0.3 * t, -1.7 * t))
    arr -= arr.mean(axis=0)
    residual = gallery._planar_residual(arr)
    assert math.isfinite(residual) and 0.0 <= residual <= 1e-6 * np.linalg.norm(arr)


def test_counterexample_battery_runs_no_svd(monkeypatch):
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)
    checks = {c.name: c for c in gallery_verify("counterexample")}
    assert all(c.passed for c in checks.values())
    assert checks["not_vertical_plane"].note == "planar residual 2.432e+01"


def test_ruled_battery_samples_each_chart_once_per_size(monkeypatch):
    # built_patch_minimal and w_ode_residual reduce over one 9x9 sample set
    sizes = []

    def spy(patch, n, **kwargs):
        sizes.append(n)
        return chart_samples(patch, n, **kwargs)

    monkeypatch.setattr(gallery, "chart_samples", spy)
    ruled = [name for name in gallery_names() if gallery_get(name).ruled is not None]
    assert len(ruled) == 7
    for name in ruled:
        sizes.clear()
        gallery_verify(name)
        assert sizes == [9, 7], name

