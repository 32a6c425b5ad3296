import math

import numpy as np
import pytest

from hmin.errors import FieldUndefined, StencilOutOfDomain
from hmin.fields import (TURN_BACK, Grid2, PlanarDomain, Profile, ScalarField2,
                         adaptive_simpson, cumulative_integral, rk4_integrate, square)


def test_fd_gradient_of_product():
    f = ScalarField2(f=lambda x, y: x * y / 2)
    assert f.gradient(1.0, 2.0) == pytest.approx((1.0, 0.5), abs=1e-10)


def test_gradient_of_constant():
    f = ScalarField2(f=lambda x, y: 4.25)
    assert f.gradient(0.3, -0.7) == (0.0, 0.0)


def test_fd_gradient_matches_analytic():
    f = ScalarField2(f=lambda x, y: x * x + y * y, fd_step=1e-5)
    gx, gy = f.gradient(1.0, 1.0)
    assert abs(gx - 2.0) <= 1e-8 and abs(gy - 2.0) <= 1e-8


def test_fd_gradient_error_bound_on_gallery_fields():
    # max-norm error <= 10 * fd_step^2 over a grid, for smooth test fields
    fields = [
        (lambda x, y: math.sin(x) * math.cos(y),
         lambda x, y: (math.cos(x) * math.cos(y), -math.sin(x) * math.sin(y))),
        (lambda x, y: math.exp(0.3 * x - 0.2 * y),
         lambda x, y: (0.3 * math.exp(0.3 * x - 0.2 * y),
                       -0.2 * math.exp(0.3 * x - 0.2 * y))),
        (lambda x, y: x * y / 2, lambda x, y: (y / 2, x / 2)),
    ]
    step = 1e-5
    for f, grad in fields:
        fld = ScalarField2(f=f, fd_step=step)
        worst = 0.0
        for x in np.linspace(-1, 1, 11):
            for y in np.linspace(-1, 1, 11):
                gx, gy = fld.gradient(float(x), float(y))
                ex, ey = grad(float(x), float(y))
                worst = max(worst, abs(gx - ex), abs(gy - ey))
        assert worst <= 10 * step ** 2


def test_hessian_is_symmetric_by_construction():
    f = ScalarField2(f=lambda x, y: math.sin(x * y) + x ** 3)
    (hxx, hxy), (hyx, hyy) = f.hessian(0.4, -0.2)
    assert hxy == hyx
    assert abs(hxy - (math.cos(0.4 * -0.2) - 0.4 * -0.2 * math.sin(0.4 * -0.2))) <= 1e-5


def test_stencil_domain_guard():
    dom = PlanarDomain(-1, 1, -1, 1)
    f = ScalarField2(f=lambda x, y: x + y, domain=dom)
    with pytest.raises(StencilOutOfDomain):
        f.gradient(1.0, 0.0)
    assert f.gradient(0.99, 0.0) == pytest.approx((1.0, 1.0))


def _stencil_by_loop(dom, x, y, h):
    """The point-by-point stencil check, as the oracle of the fast path."""
    for px, py in ((x + h, y), (x - h, y), (x, y + h), (x, y - h),
                   (x + h, y + h), (x + h, y - h), (x - h, y + h), (x - h, y - h)):
        if not dom.contains(px, py):
            return f"stencil point ({px}, {py}) outside domain"
    return None


@pytest.mark.parametrize("dom", [
    PlanarDomain(-1.0, 1.0, -1.0, 1.0),
    PlanarDomain(-1.0, 1.0, -1.0, 1.0, membership=lambda x, y: x + y <= 1.0),
], ids=["rectangle", "membership"])
def test_stencil_fast_path_agrees_with_the_loop(dom):
    h = 0.25
    edge = -1.0 + h                           # exactly h inside the lower edges
    nodes = [(edge, 0.0), (0.0, edge), (edge, edge), (1.0 - h, 0.0), (0.0, 1.0 - h),
             (0.5, 0.5), (0.5, 0.25), (0.375, 0.375),  # on and off the membership line
             (math.nextafter(edge, -2.0), 0.0), (0.0, math.nextafter(edge, -2.0)),
             (math.nextafter(1.0 - h, 2.0), 0.0), (math.nan, 0.0), (0.0, math.nan)]
    field = ScalarField2(f=lambda x, y: x + y, domain=dom)
    seen = set()
    for x, y in nodes:
        want = _stencil_by_loop(dom, x, y, h)
        if want is None:
            field._check_stencil(x, y, h)
        else:
            with pytest.raises(StencilOutOfDomain) as err:
                field._check_stencil(x, y, h)
            assert str(err.value) == want
        seen.add(want is None)
    assert seen == {True, False}


def test_jet_of_a_stencil_field_comes_in_two_steps():
    dom = PlanarDomain(-1.0, 1.0, -1.0, 1.0)
    fd = ScalarField2.from_expr("x^2*y - y^3/3", dom).fd_only()
    first = fd.jet(0.5, 0.25)
    assert first == (fd.value(0.5, 0.25), *fd.gradient(0.5, 0.25))
    (hxx, hxy), (_, hyy) = fd.hessian(0.5, 0.25)
    assert fd.jet(0.5, 0.25, first) == (*first, hxx, hxy, hyy)
    # the gradient stencil fits at x = 1 - 2e-5, the Hessian stencil does not
    first = fd.jet(1.0 - 2e-5, 0.0)
    with pytest.raises(StencilOutOfDomain):
        fd.jet(1.0 - 2e-5, 0.0, first)
    grad_only = ScalarField2(f=fd.f, grad=ScalarField2.from_expr("x^2*y - y^3/3").grad,
                             domain=dom)
    first = grad_only.jet(0.5, 0.25)
    (hxx, hxy), (_, hyy) = grad_only.hessian(0.5, 0.25)
    assert grad_only.jet(0.5, 0.25, first) == (*first, hxx, hxy, hyy)


def test_expr_backed_field_has_exact_derivatives():
    f = ScalarField2.from_expr("x^2*y - y^3/3")
    assert f.gradient(1.5, 2.0) == pytest.approx((6.0, 1.5 ** 2 - 4.0))
    (hxx, hxy), (_, hyy) = f.hessian(1.5, 2.0)
    assert (hxx, hxy, hyy) == pytest.approx((4.0, 3.0, -4.0))
    fd = f.fd_only()
    assert fd.grad is None and fd.exprs == f.exprs[:1]
    assert fd.gradient(1.5, 2.0) == pytest.approx((6.0, 1.5 ** 2 - 4.0), abs=1e-8)


def test_grid_respects_membership():
    dom = PlanarDomain(-1, 1, -1, 1, membership=lambda x, y: x * x + y * y <= 1)
    nodes = Grid2(dom, 21, 21).nodes
    assert all(x * x + y * y <= 1 for x, y in nodes)
    assert (0.0, 0.0) in nodes


def test_grid_points_are_its_nodes_in_lattice_order():
    dom = PlanarDomain(-1, 1, -1, 1, membership=lambda x, y: x * x + y * y <= 1)
    grid = Grid2(dom, 21, 17)
    xs, ys = (a.tolist() for a in grid.lattice())
    want = [(x, y) for x in xs for y in ys if dom.contains(x, y)]
    assert grid.nodes == want
    assert list(zip(*(a.tolist() for a in grid.points()))) == want


def test_jet_of_a_chunk_is_the_scalar_jet_at_each_node():
    dom = PlanarDomain(-1.0, 1.0, -1.0, 1.0, membership=lambda x, y: x * x + y * y <= 0.9)
    # NaN for x < 0 and a division by zero at x = 0
    analytic = ScalarField2.from_expr("sqrt(x) + x^2*y - atanh(y/2) + 1/x", dom)
    closure = ScalarField2(f=analytic.f, grad=analytic.grad, domain=dom)
    x, y = Grid2(PlanarDomain(-0.6, 0.6, -0.6, 0.6), 17, 13).points()
    for field in (analytic, analytic.fd_only(), closure, closure.fd_only()):
        first = field.jet(x, y)
        second = field.jet(x, y, first)
        assert all(isinstance(a, np.ndarray) and a.shape == x.shape for a in second)
        for i, (px, py) in enumerate(zip(x.tolist(), y.tolist())):
            want = field.jet(px, py)
            assert [repr(float(a[i])) for a in first] == [repr(v) for v in want]
            want = field.jet(px, py, want)
            assert [repr(float(a[i])) for a in second] == [repr(v) for v in want]


# -- RK4 ---------------------------------------------------------------------


def test_rk4_constant_field_is_exact():
    out = rk4_integrate(lambda x, y: (0.0, 1.0), (0.0, 0.0), 0.1, 10)
    assert out.stop_reason is None
    assert out.points[-1].tolist() == [0.0, pytest.approx(1.0, abs=1e-15)]


def circle_field(x, y):
    r = math.hypot(x, y)
    if r == 0.0:
        raise FieldUndefined("origin")
    return (-y / r, x / r)


def test_rk4_circle_closes():
    step = 2 * math.pi * 1e-3
    out = rk4_integrate(circle_field, (1.0, 0.0), step, 1000)
    ex, ey = out.points[-1]
    assert math.hypot(ex - 1.0, ey) <= 1e-9


def test_rk4_fourth_order_convergence():
    # halving the step cuts the endpoint error by at least 8x across the
    # whole measurable step range (the fine end sits just above the
    # double-precision rounding floor)
    errors = []
    for n in (125, 250, 500, 1000, 2000, 4000):
        step = 2 * math.pi / n
        out = rk4_integrate(circle_field, (1.0, 0.0), step, n)
        ex, ey = out.points[-1]
        errors.append(math.hypot(ex - 1.0, ey))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 8.0


def test_rk4_early_stop_on_undefined_field():
    def v(x, y):
        if x > 0.5:
            raise FieldUndefined("wall at x=0.5")
        return (1.0, 0.0)

    out = rk4_integrate(v, (0.0, 0.0), 0.1, 100)
    assert out.stop_reason is not None and "FieldUndefined" in out.stop_reason
    assert out.points[-1, 0] <= 0.55


@pytest.mark.parametrize("wall,stage", [(0.27, "0.30000000000000004"), (0.22, "0.25000000000000006")])
def test_rk4_ends_where_the_field_is_not_finite(wall, stage):
    # the field is NaN from x = wall on: the step from x = 0.2 reads its k4
    # at x = 0.3 and its k2 at x = 0.25, so the trace ends at x = 0.2,
    # naming the first stage point beyond the wall
    out = rk4_integrate(lambda x, y: (1.0 if x < wall else math.nan, 0.0), (0.0, 0.0), 0.1, 100)
    assert out.stop_reason == f"FieldUndefined: vector field not finite at ({stage}, 0.0)"
    assert len(out.points) == 3 and out.stages.shape == (2, 4)


def test_rk4_stages_are_k1_and_k2_of_each_step():
    step = 0.05
    out = rk4_integrate(circle_field, (1.0, 0.0), step, 40)
    assert out.stages.shape == (len(out.points) - 1, 4)
    for (x, y), (k1x, k1y, k2x, k2y) in zip(out.points[:-1].tolist(), out.stages.tolist()):
        assert (k1x, k1y) == circle_field(x, y)
        assert (k2x, k2y) == circle_field(x + 0.5 * step * k1x, y + 0.5 * step * k1y)
    assert rk4_integrate(circle_field, (0.0, 0.0), step, 10).stages.shape == (0, 4)


def test_rk4_ends_where_the_field_turns_back():
    # the unit field flips at x = 0.35: the step from x = 0.3 reads k2 there
    # beyond the flip, so the trace ends at x = 0.3 before taking that step
    out = rk4_integrate(lambda x, y: (1.0 if x < 0.35 else -1.0, 0.0), (0.0, 0.0), 0.1, 100)
    assert out.stop_reason == TURN_BACK
    assert len(out.points) == 4 and out.stages.shape == (3, 4)
    assert out.points[-1].tolist() == [pytest.approx(0.3), 0.0]


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_integrate(lambda x, y: (1.0, 0.0), (0.0, 0.0), -0.1, 10)


# -- quadrature and profiles -------------------------------------------------


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert adaptive_simpson(lambda t: math.exp(-t * t), -3, 3) == pytest.approx(
        math.erf(3.0) * math.sqrt(math.pi), abs=5e-9)
    assert adaptive_simpson(lambda t: 1 / (1 + t * t), 0, 1) == pytest.approx(
        math.pi / 4, abs=1e-10)


def test_cumulative_integral_matches_antiderivative():
    grid = np.linspace(0.0, 2.0, 41)
    vals = cumulative_integral(math.cos, grid)
    assert np.max(np.abs(vals - np.sin(grid))) <= 1e-10


def test_profile_derivatives():
    p = Profile.from_expr("sqrt(1 - s^2)")
    assert p(0.6) == pytest.approx(0.8)
    assert p.d(0.6) == pytest.approx(-0.75)
    fd = Profile(f=lambda s: math.sqrt(1 - s * s))
    assert fd.d(0.6) == pytest.approx(-0.75, abs=1e-8)
    assert square(2.0).contains(1.5, -1.5)
