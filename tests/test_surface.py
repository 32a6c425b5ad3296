import math

import numpy as np
import pytest

from hmin.errors import CharacteristicPoint, NonPositiveRadius
from hmin.fields import Grid2, PlanarDomain, Profile, ScalarField2, square
from hmin.heis import HPoint
from hmin.surface import (GraphPatch, ImplicitSurface, catenoid_profile,
                          characteristic_scan, h_mean_curvature,
                          horizontal_data, rotate_graph, rotational_curvature,
                          shape_matrix, translate_graph)

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


def test_shape_matrix_plane():
    m = shape_matrix(FLAT, (1.0, 0.0))
    assert abs(m.trace) <= 1e-12
    hd = horizontal_data(FLAT, (1.0, 0.0))
    img = m.apply((hd.p, hd.q))
    assert max(map(abs, img)) <= 1e-12


def test_shape_matrix_hyperbolic_vanishes():
    m = shape_matrix(HYP, (1.0, 2.0))
    assert max(abs(v) for row in m.entries for v in row) <= 1e-12


def test_shape_matrix_paraboloid_eigenvalues():
    m = shape_matrix(PARAB, (1.0, 0.0))
    lo, hi = m.eigenvalues()
    assert lo == pytest.approx(-math.sqrt(2) / 2, abs=1e-8)
    assert hi == pytest.approx(0.0, abs=1e-8)
    assert m.trace == pytest.approx(h_mean_curvature(PARAB, (1.0, 0.0)), abs=1e-8)


def test_curvature_reads_the_jet_and_without_one_not_the_height():
    # a graph whose height is costly (a chart inversion) or undefined still
    # has its curvature from the derivatives alone
    def no_height(x, y):
        raise AssertionError("height read")

    field = ScalarField2(f=no_height, grad=PARAB.h.grad, hess=PARAB.h.hess, domain=square(3.0))
    patch = GraphPatch(square(3.0), field)
    z = (1.0, 0.5)
    want = h_mean_curvature(PARAB, z)
    assert h_mean_curvature(patch, z) == want
    assert shape_matrix(patch, z) == shape_matrix(PARAB, z)
    jet = PARAB.h.jet(*z)
    assert h_mean_curvature(patch, z, jet=jet) == want
    assert horizontal_data(patch, z, jet=jet) == horizontal_data(PARAB, z)
    assert shape_matrix(patch, z, jet=jet) == shape_matrix(PARAB, z)


def test_shape_matrix_kernel_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = tuple(rng.uniform(0.3, 2.0, size=2))
        hd = horizontal_data(PARAB, z)
        if hd.w < 1e-3:
            continue
        m = shape_matrix(PARAB, z)
        img = m.apply((hd.p, hd.q))
        norm = max(abs(v) for row in m.entries for v in row)
        assert math.hypot(*img) <= 1e-8 * max(norm, 1e-30) * hd.w + 1e-14


# -- rotationally invariant profiles ----------------------------------------


def test_rotational_curvature_of_catenoid_profile_vanishes():
    u = catenoid_profile(2.0, 0.0)
    for s in (0.6, 1.0, 2.5, 7.0):
        assert abs(rotational_curvature(u, s)) <= 1e-10


def test_rotational_curvature_linear_profile():
    u = Profile(f=lambda s: s, d1=lambda s: 1.0, d2=lambda s: 0.0)
    assert rotational_curvature(u, 0.25) == pytest.approx(1 / math.sqrt(2), abs=1e-10)


def test_rotational_curvature_constant_profile():
    u = Profile.constant(3.0)
    assert rotational_curvature(u, 1.0) == 0.0


def test_rotational_curvature_rejects_nonpositive_radius():
    with pytest.raises(NonPositiveRadius):
        rotational_curvature(Profile.constant(0.0), 0.0)


def test_catenoid_profile_values():
    u = catenoid_profile(2.0, 0.0)
    assert u(0.5) == 0.0                       # waist
    assert u(1.5) == pytest.approx(math.sqrt(2))
    u = catenoid_profile(4.0, 1.0)
    assert u(1.0) == pytest.approx(1.0 + 0.5 * math.sqrt(3))


def test_paraboloid_magnitude_matches_rotational_form():
    # graph and rotational conventions have opposite orientations
    u = Profile(f=lambda s: s, d1=lambda s: 1.0, d2=lambda s: 0.0)
    graph_val = h_mean_curvature(PARAB, (1.0, 0.0))
    rot_val = rotational_curvature(u, 0.25)
    assert graph_val == pytest.approx(-rot_val, abs=1e-6)


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


def test_point_set_translation_and_vertical_line_test():
    from hmin.errors import NotAGraphAfterTransform
    from hmin.surface import left_translate_points, points_to_graph_samples
    pts = [HYP.point(x, y) for x in np.linspace(-1, 1, 5)
           for y in np.linspace(0.5, 1.5, 5)]
    moved = left_translate_points(pts, HPoint(0.3, -0.2, 0.7))
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
    assert surf.flipped().h_mean_curvature(g) == pytest.approx(-val, abs=1e-12)
    assert val == pytest.approx(-math.sqrt(2) / 2, abs=1e-10)


def test_implicit_matches_graph_curvature():
    surf = ImplicitSurface.from_expr("t - x*y/2")
    g = HPoint(1.0, 2.0, 1.0)
    assert abs(surf.h_mean_curvature(g)) <= 1e-12
    fd_surf = ImplicitSurface(phi=lambda x, y, t: t - (x * x + y * y) / 4)
    assert fd_surf.h_mean_curvature(HPoint(1.0, 0.0, 0.25)) == pytest.approx(
        -math.sqrt(2) / 2, abs=1e-5)


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
