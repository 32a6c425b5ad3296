import math
from dataclasses import replace

import numpy as np
import pytest

from hmin.errors import CharacteristicPoint, HminError
from hmin.fields import Grid2, PlanarDomain, ScalarField2, over_arrays, square
from hmin.gallery import gallery_get
from hmin.heis import HPoint, group_mul
from hmin.surface import (W_MARGIN, GraphPatch, ImplicitSurface, characteristic_scan,
                          h_mean_curvature, horizontal_data, rotate_graph,
                          translate_graph)

HYP = GraphPatch.from_expr("x*y/2", square(3.0))
FLAT = GraphPatch.from_expr("0", square(3.0))
PARAB = GraphPatch.from_expr("(x^2+y^2)/4", square(3.0))
CATENOID = GraphPatch.from_expr(
    "sqrt((x^2+y^2)/2 - 1)",
    PlanarDomain(-4, 4, -4, 4, lambda x, y: x * x + y * y > 2.05))


def test_horizontal_data_hyperbolic():
    hd = horizontal_data(HYP, (1.0, 2.0))
    assert (hd.p, hd.q, hd.w) == (-2.0, 0.0, 2.0)
    assert hd.nu == (-1.0, 0.0)


def test_horizontal_data_flat_plane():
    hd = horizontal_data(FLAT, (1.0, 0.0))
    assert hd.nu == pytest.approx((0.0, 0.5 / 0.5))
    assert hd.w == 0.5


def test_characteristic_point_has_no_gauss_map():
    hd = horizontal_data(HYP, (1.0, 0.0))
    assert hd.w == 0.0 and hd.nu is None


def test_horizontal_data_and_curvature_of_a_chunk_are_the_scalar_ones():
    x, y = Grid2(square(2.0), 9, 11).points()
    jet = PARAB.h.jet(x, y)
    hd = horizontal_data(PARAB, (x, y), jet=jet)
    # (0, 0) is characteristic: no Gauss map there, and no curvature
    at = int(np.flatnonzero((x == 0.0) & (y == 0.0))[0])
    keep = np.arange(len(x)) != at
    h = iter(h_mean_curvature(PARAB, (x[keep], y[keep]), cross_check=False,
                              jet=tuple(a[keep] for a in jet)).tolist())
    for i, (px, py) in enumerate(zip(x.tolist(), y.tolist())):
        one = horizontal_data(PARAB, (px, py))
        assert [repr(float(a[i])) for a in hd[:3]] == [repr(v) for v in one[:3]]
        if i != at:
            assert [float(a[i]) for a in hd.nu] == list(one.nu)
            assert repr(next(h)) == repr(h_mean_curvature(PARAB, (px, py), False))
    assert math.isnan(hd.nu[0][at]) and math.isnan(hd.nu[1][at])
    with pytest.raises(CharacteristicPoint, match=r"^W=0.0 at \(0.0, 0.0\)$"):
        h_mean_curvature(PARAB, (x, y), cross_check=False, jet=jet)


def test_h_curvature_plane_zero():
    assert abs(h_mean_curvature(FLAT, (1.0, 1.0))) <= 1e-12


def test_h_curvature_catenoid_zero():
    assert abs(h_mean_curvature(CATENOID, (2.0, 0.0))) <= 1e-10


def test_h_curvature_paraboloid_value():
    # hand evaluation with p = -(x+y)/2, q = (x-y)/2 gives -sqrt(2)/2 at (1, 0)
    assert h_mean_curvature(PARAB, (1.0, 0.0)) == pytest.approx(
        -math.sqrt(2) / 2, abs=1e-6)


def test_h_curvature_raises_at_characteristic_point():
    with pytest.raises(CharacteristicPoint):
        h_mean_curvature(HYP, (1.0, 0.0))


def test_both_curvature_forms_agree_on_random_smooth_fields():
    rng = np.random.default_rng(7)
    for _ in range(12):
        c = [float(v) for v in rng.uniform(-0.6, 0.6, size=6)]
        src = (f"({c[0]!r})*x^2 + ({c[1]!r})*x*y + ({c[2]!r})*y^2"
               f" + ({c[3]!r})*sin(x) + ({c[4]!r})*cos(y) + ({c[5]!r})*x")
        patch = GraphPatch.from_expr(src, square(3.0))
        for _ in range(8):
            z = tuple(rng.uniform(-1.5, 1.5, size=2))
            if horizontal_data(patch, z).w < 0.3:
                continue
            h_mean_curvature(patch, z)  # raises CurvatureMismatch beyond 1e-8


def test_both_forms_agree_in_fd_mode():
    patch = CATENOID.fd_only()
    for z in [(2.0, 0.0), (2.2, 0.7), (-1.8, 1.2)]:
        h_mean_curvature(patch, z)  # 1e-4 tolerance internally


def test_curvature_reads_the_jet_and_without_one_not_the_height():
    # a graph whose height is costly (a chart inversion) or undefined still
    # has its curvature from the derivatives alone
    def no_height(x, y):
        raise AssertionError("height read")

    patch = GraphPatch(square(3.0), replace(PARAB.h, f=no_height))
    z = (1.0, 0.5)
    want = h_mean_curvature(PARAB, z)
    assert h_mean_curvature(patch, z) == want
    jet = PARAB.h.jet(*z)
    assert h_mean_curvature(patch, z, jet=jet) == want
    assert horizontal_data(patch, z, jet=jet) == horizontal_data(PARAB, z)


# -- symmetries ---------------------------------------------------------------


def test_translate_flat_plane_gives_general_plane():
    a, b, c, d = 1.0, 2.0, 2.0, 4.0
    moved = translate_graph(FLAT, HPoint(-2 * b / c, 2 * a / c, d / c))
    for x in np.linspace(-1, 1, 7):
        for y in np.linspace(-1, 1, 7):
            want = (d - a * x - b * y) / c
            assert moved.h.value(float(x), float(y)) == pytest.approx(want, abs=1e-12)


def test_translate_by_origin_is_identity():
    moved = translate_graph(HYP, HPoint(0, 0, 0))
    assert moved.h.value(0.7, -0.3) == HYP.h.value(0.7, -0.3)


def test_translation_preserves_curvature():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g0 = HPoint(*rng.uniform(-1.5, 1.5, size=3))
        moved = translate_graph(HYP, g0)
        for _ in range(10):
            z = tuple(rng.uniform(-1.0, 1.0, size=2))
            if horizontal_data(HYP, z).w < 1e-2:
                continue
            before = h_mean_curvature(HYP, z, cross_check=False)
            after = h_mean_curvature(moved, (z[0] + g0.x, z[1] + g0.y),
                                     cross_check=False)
            assert abs(after - before) <= 1e-6


def test_rotation_equivariance_of_gauss_map():
    for patch in (FLAT, CATENOID):
        for theta in (0.4, 1.3, -2.2):
            rot = rotate_graph(patch, theta)
            c, s = math.cos(theta), math.sin(theta)
            for z in [(1.8, 0.3), (-1.7, 0.9)]:
                hd = horizontal_data(patch, z)
                rz = (c * z[0] - s * z[1], s * z[0] + c * z[1])
                hd2 = horizontal_data(rot, rz)
                want = (c * hd.nu[0] - s * hd.nu[1], s * hd.nu[0] + c * hd.nu[1])
                assert hd2.nu == pytest.approx(want, abs=1e-8)


WAVY = GraphPatch.from_expr("sin(x)*y^2 + x^3/3", square(2.0))
G0, THETA = HPoint(0.3, -0.4, 0.7), 0.9
C, S = math.cos(THETA), math.sin(THETA)


def test_moved_graphs_keep_the_derivative_mode():
    for patch in (WAVY, WAVY.fd_only(), CATENOID, CATENOID.fd_only()):
        for moved in (translate_graph(patch, G0), rotate_graph(patch, THETA)):
            # six trees and a gradient, or one tree and differences
            assert len(moved.h.exprs) == len(patch.h.exprs) in (1, 6)
            assert (moved.h.grad is None) == (patch.h.grad is None)


def test_translated_graph_has_the_translated_derivatives():
    moved = translate_graph(WAVY, G0)
    for x, y in [(0.5, 0.1), (-0.3, -0.3), (0.7, -1.1)]:
        at = (x - G0.x, y - G0.y)
        assert np.array(moved.h.hessian(x, y)) == pytest.approx(np.array(WAVY.h.hessian(*at)),
                                                                abs=1e-12)
        gx, gy = WAVY.h.gradient(*at)
        assert moved.h.gradient(x, y) == pytest.approx((gx - G0.y / 2, gy + G0.x / 2), abs=1e-12)


def test_rotated_graph_has_the_rotated_derivatives():
    moved = rotate_graph(WAVY, THETA)
    r = np.array([[C, -S], [S, C]])
    for x, y in [(0.2, 0.5), (-0.6, 0.1), (0.4, -0.7)]:
        at = (C * x + S * y, -S * x + C * y)
        want = r @ np.array(WAVY.h.hessian(*at)) @ r.T
        assert np.array(moved.h.hessian(x, y)) == pytest.approx(want, abs=1e-12)
        assert moved.h.gradient(x, y) == pytest.approx(r @ WAVY.h.gradient(*at), abs=1e-12)


def test_moved_membership_takes_arrays_when_it_can():
    marked = GraphPatch(replace(CATENOID.domain,
                                membership=over_arrays(lambda x, y: x * x + y * y > 2.05)),
                        CATENOID.h)
    x, y = Grid2(PlanarDomain(-3.0, 3.0, -3.0, 3.0), 41, 41).points()
    for patch in (CATENOID, marked):
        # a rotation maps through contains_all, which takes any membership
        for moved, over in ((translate_graph(patch, G0), patch is marked),
                            (rotate_graph(patch, THETA), True)):
            dom = moved.domain
            assert getattr(dom.membership, "over_arrays", False) == over
            assert dom.contains_all(x, y).tolist() == [
                dom.contains(a, b) for a, b in zip(x.tolist(), y.tolist())]


def test_a_graph_without_trees_cannot_be_moved():
    closure = GraphPatch(square(1.0), ScalarField2(lambda x, y: x * y / 2))
    with pytest.raises(HminError):
        translate_graph(closure, HPoint(0.1, 0.2, 0.3))
    with pytest.raises(HminError):
        rotate_graph(closure, 0.5)


def test_point_set_translation_and_vertical_line_test():
    from hmin.errors import NotAGraphAfterTransform
    from hmin.surface import points_to_graph_samples
    pts = [HYP.point(x, y) for x in np.linspace(-1, 1, 5)
           for y in np.linspace(0.5, 1.5, 5)]
    moved = [group_mul(HPoint(0.3, -0.2, 0.7), g) for g in pts]
    heights = points_to_graph_samples(moved, tol=1e-9)   # still a graph
    assert len(heights) == len(pts)
    # two sheets over the same planar points fail the vertical-line test
    two = pts + [HPoint(g.x, g.y, g.t + 1.0) for g in pts]
    with pytest.raises(NotAGraphAfterTransform):
        points_to_graph_samples(two, tol=1e-9)


def test_orientation_flip_negates_curvature():
    surf = ImplicitSurface.from_expr("t - (x^2+y^2)/4")
    g = HPoint(1.0, 0.0, 0.25)
    val = surf.h_mean_curvature(g)
    flipped = ImplicitSurface.from_expr("t - (x^2+y^2)/4", orientation=-1)
    assert flipped.h_mean_curvature(g) == pytest.approx(-val, abs=1e-12)
    assert val == pytest.approx(-math.sqrt(2) / 2, abs=1e-10)


# the level sets of the gallery entries with both forms, at default parameters
LEVEL_SETS = {
    "char-plane": "t",
    "general-plane": "(1.0)*x + (2.0)*y + (2.0)*t - (4.0)",
    "hyperbolic": "t - x*y/2",
    "catenoid": "(t - (0.0))^2 - (4/(4.0))*((2.0)*(x^2+y^2)/4 - 1)",
    "counterexample": "y + x*tan(tanh(t))",
    "cylinder": "(t - x*y/2)^2 - (1 - x^2)",
    "gencurve-n": "(t - x*y/2)^(3.0) - x",
}


def test_implicit_matches_graph_curvature():
    surf = ImplicitSurface.from_expr("t - x*y/2")
    assert abs(surf.h_mean_curvature(HPoint(1.0, 2.0, 1.0))) <= 1e-12
    # each entry's level set against its graph, one independent formula
    # against the other; orientation -1 negates the value exactly
    for name, src in LEVEL_SETS.items():
        entry = gallery_get(name)
        flipped = ImplicitSurface.from_expr(src, orientation=-1)
        evaluated = 0
        for x, y in Grid2(entry.verify_domain, 11, 11).nodes:
            if horizontal_data(entry.graph, (x, y)).w <= W_MARGIN:
                continue
            g = entry.graph.point(x, y)
            assert flipped.phi(g.x, g.y, g.t) == entry.implicit.phi(g.x, g.y, g.t)
            value = entry.implicit.h_mean_curvature(g)
            want = h_mean_curvature(entry.graph, (x, y), cross_check=False)
            assert abs(value - want) <= 1e-12, (name, x, y)
            assert flipped.h_mean_curvature(g) == -value
            evaluated += 1
        assert evaluated > 0, name


# -- characteristic scan ------------------------------------------------------


def test_scan_hyperbolic_finds_the_x_axis():
    scan = characteristic_scan(HYP, Grid2(square(2.0), 41, 41), 1e-9)
    assert len(scan.components) == 1
    assert all(abs(y) <= 1e-12 for _, y in scan.components[0].nodes)


def test_scan_flat_plane_single_point():
    scan = characteristic_scan(FLAT, Grid2(square(1.0), 41, 41), 1e-9)
    assert len(scan.components) == 1
    assert scan.components[0].representative == pytest.approx((0.0, 0.0), abs=1e-9)
    img = scan.components[0].images[0]
    assert (img.x, img.y, img.t) == (0.0, 0.0, 0.0)


def test_scan_counterexample_patch_is_empty():
    dom = PlanarDomain(0.25, 3.0, -3.0, 3.0,
                       lambda x, y: abs(math.atan2(y, x)) <= 0.9)
    patch = GraphPatch.from_expr("-atanh(atan(y/x))", dom)
    scan = characteristic_scan(patch, Grid2(dom, 41, 41), 1e-9)
    assert scan.empty
