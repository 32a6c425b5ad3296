import math

import numpy as np
import pytest

from hmin import expr as ex
from hmin import gallery
from hmin.errors import FieldUndefined, StencilOutOfDomain
from hmin.fields import (CHUNK, CLOSE_TOL, CLOSED, FD_STEP, HESS_STEP, RK4_STEP, SIMPSON_TOL,
                         TURN_BACK, Grid2, PlanarDomain, Profile, ScalarField2, adaptive_simpson,
                         cumulative_integral, rk4_integrate, square)


PLANE = PlanarDomain(-math.inf, math.inf, -math.inf, math.inf)


def fd_field(src, domain=PLANE):
    """The stencil field of the expression ``src``: f alone, no derivative trees."""
    return ScalarField2((ex.parse(src),), domain)


def test_fd_gradient_of_product():
    f = fd_field("x*y/2")
    assert f.gradient(1.0, 2.0) == pytest.approx((1.0, 0.5), abs=1e-10)


def test_gradient_of_constant():
    f = fd_field("4.25")
    assert f.gradient(0.3, -0.7) == (0.0, 0.0)


def test_fd_gradient_matches_analytic():
    f = fd_field("x*x + y*y")
    gx, gy = f.gradient(1.0, 1.0)
    assert abs(gx - 2.0) <= 1e-8 and abs(gy - 2.0) <= 1e-8


def test_fd_gradient_error_bound_on_gallery_fields():
    # max-norm error <= 10 * FD_STEP^2 over a grid, for smooth test fields
    fields = [
        ("sin(x)*cos(y)",
         lambda x, y: (math.cos(x) * math.cos(y), -math.sin(x) * math.sin(y))),
        ("exp(0.3*x - 0.2*y)",
         lambda x, y: (0.3 * math.exp(0.3 * x - 0.2 * y),
                       -0.2 * math.exp(0.3 * x - 0.2 * y))),
        ("x*y/2", lambda x, y: (y / 2, x / 2)),
    ]
    step = FD_STEP
    for src, grad in fields:
        fld = fd_field(src)
        worst = 0.0
        for x in np.linspace(-1, 1, 11):
            for y in np.linspace(-1, 1, 11):
                gx, gy = fld.gradient(float(x), float(y))
                ex, ey = grad(float(x), float(y))
                worst = max(worst, abs(gx - ex), abs(gy - ey))
        assert worst <= 10 * step ** 2


def test_hessian_is_symmetric_by_construction():
    f = fd_field("sin(x*y) + x^3")
    (hxx, hxy), (hyx, hyy) = f.hessian(0.4, -0.2)
    assert hxy == hyx
    assert abs(hxy - (math.cos(0.4 * -0.2) - 0.4 * -0.2 * math.sin(0.4 * -0.2))) <= 1e-5


def test_stencil_domain_guard():
    dom = PlanarDomain(-1, 1, -1, 1)
    f = fd_field("x + y", dom)
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
    field = fd_field("x + y", dom)
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


def _ulps(v: float, k: int = 2) -> list[float]:
    """v and its k nearest floats on either side."""
    lo = hi = v
    out = [v]
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("h", [FD_STEP, HESS_STEP], ids=["fd", "hessian"])
@pytest.mark.parametrize("dom", [
    PlanarDomain(-1.3, 0.7, -0.9, 1.1),
    PlanarDomain(-1.3, 0.7, -0.9, 1.1, membership=lambda x, y: x + y <= 1.0),
], ids=["rectangle", "membership"])
def test_array_stencil_check_is_the_scalar_check_at_the_box_edges(dom, h):
    field = fd_field("x + y", dom)
    mid = (-0.3, 0.1)
    edges = {"xmin": [(x, mid[1]) for x in _ulps(dom.xmin + h)],
             "xmax": [(x, mid[1]) for x in _ulps(dom.xmax - h)],
             "ymin": [(mid[0], y) for y in _ulps(dom.ymin + h)],
             "ymax": [(mid[0], y) for y in _ulps(dom.ymax - h)]}

    def scalar(x, y):
        try:
            field._check_stencil(x, y, h)
        except StencilOutOfDomain as err:
            return str(err)
        return None

    for edge, nodes in edges.items():
        outcomes = set()
        for node in nodes + [(math.nan, mid[1]), (mid[0], math.nan)]:
            want = scalar(*node)
            outcomes.add(want is None)
            # the node between two that pass, as the second node of a chunk
            x, y = (np.array(c) for c in zip(mid, node, mid))
            if want is None:
                field._check_stencil(x, y, h)
                continue
            with pytest.raises(StencilOutOfDomain) as err:
                field._check_stencil(x, y, h)
            assert (err.value.node, str(err.value)) == (1, want), edge
        # the nodes one ulp apart fall on either side of the edge
        assert outcomes == {True, False}, edge
        # all of them in one chunk: the first node the scalar check fails
        x, y = (np.array(c) for c in zip(*nodes))
        first = next(i for i, node in enumerate(nodes) if scalar(*node) is not None)
        with pytest.raises(StencilOutOfDomain) as err:
            field._check_stencil(x, y, h)
        assert (err.value.node, str(err.value)) == (first, scalar(*nodes[first]))


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


def test_expr_backed_field_has_exact_derivatives():
    f = ScalarField2.from_expr("x^2*y - y^3/3", PLANE)
    assert f.gradient(1.5, 2.0) == pytest.approx((6.0, 1.5 ** 2 - 4.0))
    (hxx, hxy), (_, hyy) = f.hessian(1.5, 2.0)
    assert (hxx, hxy, hyy) == pytest.approx((4.0, 3.0, -4.0))
    fd = f.fd_only()
    assert fd.exprs == f.exprs[:1] and fd.domain is f.domain and len(f.jet(1.5, 2.0)) == 6
    # fd compiles its own f
    assert fd.f(1.5, 2.0) == f.f(1.5, 2.0) and fd.f is not f.f
    assert fd.gradient(1.5, 2.0) == pytest.approx((6.0, 1.5 ** 2 - 4.0), abs=1e-8)


def test_grid_respects_membership():
    dom = PlanarDomain(-1, 1, -1, 1, membership=lambda x, y: x * x + y * y <= 1)
    nodes = list(zip(*(a.tolist() for a in Grid2(dom, 21, 21).points())))
    assert all(x * x + y * y <= 1 for x, y in nodes)
    assert (0.0, 0.0) in nodes


def test_grid_points_are_its_nodes_in_lattice_order():
    dom = PlanarDomain(-1, 1, -1, 1, membership=lambda x, y: x * x + y * y <= 1)
    grid = Grid2(dom, 21, 17)
    xs, ys = (a.tolist() for a in grid.lattice())
    want = [(x, y) for x in xs for y in ys if dom.contains(x, y)]
    assert list(zip(*(a.tolist() for a in grid.points()))) == want


@pytest.mark.parametrize("n, m", [(101, 101), (3, 2000), (40, 7)])
def test_node_chunks_are_the_points_with_axes_that_read_them(n, m):
    dom = PlanarDomain(-1, 1, -1, 1, membership=lambda x, y: x * x + y * y <= 1)
    grid = Grid2(dom, n, m)
    chunks = list(grid.node_chunks())
    gx, gy = grid.mesh()
    k, x, y = (np.concatenate([c[i] for c in chunks]) for i in range(3))
    assert k.tolist() == np.flatnonzero(dom.contains_all(gx, gy)).tolist()
    assert [x.tobytes(), y.tobytes()] == [a.tobytes() for a in grid.points()]
    # NaN for x < 0 and a division by zero at x = 0
    analytic = ScalarField2.from_expr("sqrt(x) + x^2*y - atanh(y/2) + 1/x", PLANE)
    for _, cx, cy, axes in chunks:
        assert len(cx) <= CHUNK
        # an axis reads the chunk's coordinates, and is no longer than the chunk
        for nodes, (u, i) in zip((cx, cy), axes):
            assert u[i].tobytes() == nodes.tobytes() and len(u) <= len(nodes)
        for field in (analytic, analytic.fd_only()):
            first, on_axes = field.jet(cx, cy), field.jet(cx, cy, axes=axes)
            want, got = field.jet(cx, cy, first), field.jet(cx, cy, on_axes, axes)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("box, n, m", [
    ((-3.0, 3.0, -3.0, 3.0), 31, 31),
    ((-0.9, 0.9, -1.5, 1.5), 13, 13),
    ((0.2, 1.8, -1.0, 1.0), 9, 9),
    ((-math.pi, 0.7 * math.pi, -0.3, 2.0), 17, 5),
    ((-0.98, 0.6, -6.0, 0.25), 3, 11),
])
def test_grid_of_a_plain_box_is_the_repeat_and_tile_product(box, n, m):
    # the (s, r) and (x, t) sample sets of ruled, meshes and gallery rely on this
    a, b, c, d = box
    grid = Grid2(PlanarDomain(*box), n, m)
    xs, ys = np.linspace(a, b, n), np.linspace(c, d, m)
    x, y = grid.points()
    assert x.tobytes() == np.repeat(xs, m).tobytes()
    assert y.tobytes() == np.tile(ys, n).tobytes()
    # the interior rows, s-major, as the chart samples take them
    s, r = (v[1:-1] for v in grid.mesh())
    assert s.ravel().tobytes() == np.repeat(xs[1:-1], m).tobytes()
    assert r.ravel().tobytes() == np.tile(ys, n - 2).tobytes()


def test_jet_of_a_chunk_is_the_scalar_jet_at_each_node():
    dom = PlanarDomain(-1.0, 1.0, -1.0, 1.0, membership=lambda x, y: x * x + y * y <= 0.9)
    # NaN for x < 0 and a division by zero at x = 0
    analytic = ScalarField2.from_expr("sqrt(x) + x^2*y - atanh(y/2) + 1/x", dom)
    x, y = Grid2(PlanarDomain(-0.6, 0.6, -0.6, 0.6), 17, 13).points()
    for field in (analytic, analytic.fd_only()):
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
    assert len(out.points) == 3


def test_rk4_ends_where_the_field_turns_back():
    # the unit field flips at x = 0.35: the step from x = 0.3 reads k2 there
    # beyond the flip, so the trace ends at x = 0.3 before taking that step
    out = rk4_integrate(lambda x, y: (1.0 if x < 0.35 else -1.0, 0.0), (0.0, 0.0), 0.1, 100)
    assert out.stop_reason == TURN_BACK
    assert len(out.points) == 4
    assert out.points[-1].tolist() == [pytest.approx(0.3), 0.0]


def test_rk4_ends_a_closed_curve_after_one_turn():
    # 2 pi / RK4_STEP = 628.3 steps: step 629 passes the start point, within
    # the chord's sagitta (1.1e-5) of it
    out = rk4_integrate(circle_field, (1.0, 0.0), RK4_STEP, 1000)
    assert out.stop_reason == CLOSED
    assert len(out.points) == 630
    assert 2 * math.pi < 629 * RK4_STEP < 2 * math.pi + RK4_STEP


def test_rk4_goes_on_past_a_start_point_it_only_passes_near():
    # a slowly opening spiral comes back 6e-3 from its start after a turn:
    # closer than one step, but not within CLOSE_TOL
    def spiral_field(x, y):
        vx, vy = -y + 1e-3 * x, x + 1e-3 * y
        n = math.hypot(vx, vy)
        return (vx / n, vy / n)

    out = rk4_integrate(spiral_field, (1.0, 0.0), RK4_STEP, 1000)
    assert out.stop_reason is None and len(out.points) == 1001
    gaps = np.hypot(out.points[600:, 0] - 1.0, out.points[600:, 1])
    assert CLOSE_TOL < gaps.min() < RK4_STEP


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
    vals = cumulative_integral(_cos, grid)
    assert np.max(np.abs(vals - np.sin(grid))) <= 1e-10


def _running_simpson(f, grid, tol=SIMPSON_TOL) -> list[float]:
    """The oracle of cumulative_integral: adaptive_simpson per interval, summed in order."""
    nodes, out = grid.tolist(), [0.0] * len(grid)
    for i in range(1, len(nodes)):
        out[i] = out[i - 1] + adaptive_simpson(f, nodes[i - 1], nodes[i], tol)
    return out


def _counted(f, calls: list):
    """f, recording the length of each array it is called with."""
    def g(t):
        assert isinstance(t, np.ndarray)
        calls.append(len(t))
        return f(t)
    return g


def _root_abs(t):
    return ex.pointwise(math.sqrt, abs(t))


def _sin_inverse(t):
    return ex.pointwise(math.sin, 1.0 / t)


def _cos(t):
    return ex.pointwise(math.cos, t)


def _sin(t):
    return ex.pointwise(math.sin, t)


QUADRATURE_CASES = {
    "float-lambda-tight": (lambda t: 1.0 / (1.0 + t * t), np.linspace(0.0, 3.0, 7), 1e-13),
    "zero-widths": (_cos, np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.25, 2.0, 2.0]), 1e-10),
    "depth-capped": (_root_abs, np.array([-1.0, 0.3, 1.0]), 1e-10),
    "depth-capped-float": (_root_abs, np.array([-0.7, 0.2]), 1e-10),
    "sin-inverse-near-0": (_sin_inverse, np.linspace(0.01, 0.1, 5), 1e-10),
    "one-interval": (_sin, np.array([0.25, 2.0]), 1e-11),
    "one-point": (_sin, np.array([0.25]), 1e-10),
    "no-point": (_sin, np.array([]), 1e-10),
}


@pytest.mark.parametrize("case", QUADRATURE_CASES)
def test_cumulative_integral_is_the_running_adaptive_simpson_sum(case):
    f, grid, tol = QUADRATURE_CASES[case]
    assert repr(cumulative_integral(f, grid, tol).tolist()) == repr(_running_simpson(f, grid, tol))


def test_quadrature_calls_a_marked_integrand_once_per_depth():
    # the nodes, the midpoints, then the quarter points of each depth
    calls = []
    cumulative_integral(_counted(lambda t: t * t * t - 2.0 * t, calls), np.linspace(0.0, 1.0, 11))
    assert calls == [11, 10, 20]           # Simpson is exact on a cubic: depth 0 only
    calls = []
    cumulative_integral(_counted(_root_abs, calls), np.array([-1.0, 0.3, 1.0]))
    assert len(calls) == 2 + 51            # the interval at 0 halves to the depth cap, 50
    calls = []
    cumulative_integral(_counted(_cos, calls), np.array([1.0]))
    assert calls == []


def _gallery_integrals(monkeypatch) -> list[tuple]:
    """(f, grid, tol) of every cumulative_integral call made while the
    gallery's spiral seeds (at two values of a, both sheets) and optreg2 are
    built; only optreg2's seed and profile have no closed form."""
    seen = []

    def spy(f, grid, tol=SIMPSON_TOL):
        seen.append((f, grid, tol))
        return cumulative_integral(f, grid, tol)

    monkeypatch.setattr(gallery, "cumulative_integral", spy)
    for a in (2.0, 3.0):
        entry = gallery.gallery_get("catenoid", a=a)
        entry.ruled()
        entry.gsc()
    gallery.gallery_get("optreg2")
    return seen


def test_gallery_integrals_are_the_running_adaptive_simpson_sums(monkeypatch):
    seen = _gallery_integrals(monkeypatch)
    # optreg2's cos Psi, sin Psi and h0'
    assert len(seen) == 3
    for f, grid, tol in seen:
        calls = []
        out = cumulative_integral(_counted(f, calls), grid, tol)
        assert repr(out.tolist()) == repr(_running_simpson(f, grid, tol))
        # the nodes, the midpoints, and one call per depth reached
        assert calls[:2] == [len(grid), len(grid) - 1] and len(calls) <= 2 + 51


def test_gallery_integrands_over_arrays_are_their_scalar_calls(monkeypatch):
    for f, grid, _ in _gallery_integrals(monkeypatch):
        t = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:]), 0.75 * grid[:-1] + 0.25 * grid[1:]])
        scalar = [f(v) for v in t.tolist()]
        assert all(type(v) is float for v in scalar)
        assert repr(f(t).tolist()) == repr(scalar)


@pytest.mark.parametrize("f,expected", [
    (lambda t: math.sqrt(t) if t >= 0.5 else math.nan, "nan"),
    (lambda t: math.inf if t == 0.0 else 1.0, "nan"),       # inf - inf in the error estimate
    (lambda t: math.inf if t == 0.25 else 1.0, "inf"),      # inf at a quarter point alone
], ids=["nan-below-half", "inf-at-0", "inf-at-a-quarter-point"])
def test_quadrature_ends_on_a_non_finite_integrand(f, expected):
    # a non-finite error estimate stops the halving: before, the first case
    # recursed 2^50 times
    assert repr(adaptive_simpson(f, 0.0, 1.0)) == expected
    calls = []
    out = cumulative_integral(_counted(lambda t: ex.pointwise(f, t), calls), np.array([0.0, 1.0]))
    assert repr(out.tolist()[1]) == expected and len(calls) <= 55


def test_profile_derivatives():
    p = Profile.from_expr("sqrt(1 - s^2)")
    assert p(0.6) == pytest.approx(0.8)
    assert p.d(0.6) == pytest.approx(-0.75)
    fd = Profile(f=lambda s: math.sqrt(1 - s * s))
    assert fd.d(0.6) == pytest.approx(-0.75, abs=1e-8)
    assert square(2.0).contains(1.5, -1.5)
