import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hmin import expr as ex
from hmin.cli import main
from hmin.errors import CharacteristicPoint, FieldUndefined
from hmin.fields import FD_STEP, Grid2, PlanarDomain, ScalarField2, square
from hmin.gallery import gallery_get
from hmin.heis import HPoint
from hmin.surface import (W_MARGIN, GraphPatch, ImplicitSurface, ScanLattice, characteristic_scan,
                          h_mean_curvature, horizontal_data, max_curvature_deviation,
                          rotate_graph, translate_graph, unit_horizontal_field)
from hmin.report import worst_abs
from hmin.surface import _pq, graph_dpq, graph_pq, nu_divergence, w_from_pq

HYP = GraphPatch.from_expr("x*y/2", square(3.0))
FLAT = GraphPatch.from_expr("0", square(3.0))
PARAB = GraphPatch.from_expr("(x^2+y^2)/4", square(3.0))
CATENOID = GraphPatch.from_expr(
    "sqrt((x^2+y^2)/2 - 1)",
    PlanarDomain(-4, 4, -4, 4, lambda x, y: x * x + y * y > 2.05))


def test_horizontal_data_hyperbolic():
    assert _pq(HYP, 1.0, 2.0) == (-2.0, 0.0)
    assert horizontal_data(HYP, (1.0, 2.0)) == 2.0
    assert unit_horizontal_field(HYP)(1.0, 2.0) == (-1.0, 0.0)


def test_horizontal_data_flat_plane():
    assert unit_horizontal_field(FLAT)(1.0, 0.0) == pytest.approx((0.0, 0.5 / 0.5))
    assert horizontal_data(FLAT, (1.0, 0.0)) == 0.5


def test_characteristic_point_has_no_gauss_map():
    assert horizontal_data(HYP, (1.0, 0.0)) == 0.0
    with pytest.raises(FieldUndefined, match=r"undefined at \(1.0, 0.0\), W=0.0$"):
        unit_horizontal_field(HYP)(1.0, 0.0)


def test_horizontal_data_and_curvature_of_a_chunk_are_the_scalar_ones():
    x, y = Grid2(square(2.0), 9, 11).points()
    jet = PARAB.h.jet(x, y)
    w = horizontal_data(PARAB, (x, y), jet=jet)
    # (0, 0) is characteristic: W is 0 there, and no curvature
    at = int(np.flatnonzero((x == 0.0) & (y == 0.0))[0])
    keep = np.arange(len(x)) != at
    h = iter(h_mean_curvature(PARAB, (x[keep], y[keep]),
                              jet=tuple(a[keep] for a in jet)).tolist())
    for i, (px, py) in enumerate(zip(x.tolist(), y.tolist())):
        assert repr(float(w[i])) == repr(horizontal_data(PARAB, (px, py)))
        if i != at:
            assert repr(next(h)) == repr(h_mean_curvature(PARAB, (px, py)))
    assert w[at] == 0.0
    with pytest.raises(CharacteristicPoint, match=r"^W=0.0 at \(0.0, 0.0\)$"):
        h_mean_curvature(PARAB, (x, y), jet=jet)


def test_curvature_where_w_cubed_overflows_is_the_same_on_floats_and_chunks():
    # W is about 1e120, where W^3 would overflow to inf; p ~ -1e120, q_y = -1
    # and q_x + p_y = 0, so H = p^2 q_y / W^3 ~ -1e-120
    patch = GraphPatch.from_expr("1e120*x + y^2/2", square(2.0))
    x, y = np.array([1.0, -0.5]), np.array([1.0, 0.25])
    chunk = h_mean_curvature(patch, (x, y), jet=patch.h.jet(x, y)).tolist()
    scalar = [h_mean_curvature(patch, z) for z in zip(x.tolist(), y.tolist())]
    assert list(map(repr, chunk)) == list(map(repr, scalar))
    assert scalar == [pytest.approx(-1e-120, rel=1e-15, abs=0.0)] * 2


def _pq_form(p, q, w, p_x, p_y, q_x, q_y):
    """H in the p/q form, (q^2 p_x + p^2 q_y - p q (q_x + p_y)) / W^3: the
    oracle of ``nu_divergence``, which is this form divided through by W^2."""
    return (q * q * p_x + p * p * q_y - p * q * (q_x + p_y)) / (w * w * w)


# the coefficients of the monomials x^i y^j with i + j <= 3
_MONOMIALS = [(i, d - i) for d in range(4) for i in range(d + 1)]
_coefficient = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_node = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@given(st.lists(_coefficient, min_size=len(_MONOMIALS), max_size=len(_MONOMIALS)), _node, _node)
@settings(max_examples=300, deadline=None)
def test_the_nu_form_is_the_pq_form_on_random_polynomial_graphs(coefs, x, y):
    src = " + ".join(f"({c!r})*x^{i}*y^{j}" for c, (i, j) in zip(coefs, _MONOMIALS))
    patch = GraphPatch.from_expr(src, square(3.0))
    p, q = _pq(patch, x, y)
    w = w_from_pq(p, q)
    assume(w > W_MARGIN)
    (hxx, hxy), (_, hyy) = patch.h.hessian(x, y)
    p_x, p_y, q_x, q_y = graph_dpq(hxx, hxy, hyy)
    want = _pq_form(p, q, w, p_x, p_y, q_x, q_y)
    # relative to the size of the numerator's terms, which may cancel
    scale = (abs(q * q * p_x) + abs(p * p * q_y) + abs(p * q * (q_x + p_y))) / (w * w * w)
    assert abs(h_mean_curvature(patch, (x, y)) - want) <= 1e-12 * scale


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


def _div_form(patch, z):
    """The divergence form of the curvature, the oracle of the p/q form:
    central differences of the unit field nu, at FD_STEP for analytic
    derivatives and at 1e-4 in pure finite-difference mode."""
    x, y = z
    step = FD_STEP if patch.analytic else max(FD_STEP, 1e-4)
    nu = unit_horizontal_field(patch)
    return ((nu(x + step, y)[0] - nu(x - step, y)[0]) / (2.0 * step)
            + (nu(x, y + step)[1] - nu(x, y - step)[1]) / (2.0 * step))


def _assert_forms_agree(patch, z):
    """The p/q form and the divergence form agree to 1e-8 with analytic
    derivatives and 1e-4 in pure finite-difference mode, relaxed like
    (0.05/W)^3 close to the characteristic set, where the unit field's
    derivatives blow up."""
    base_tol = 1e-8 if patch.analytic else 1e-4
    tol = base_tol * max(1.0, (0.05 / horizontal_data(patch, z)) ** 3)
    value, other = h_mean_curvature(patch, z), _div_form(patch, z)
    assert abs(value - other) <= tol, (value, other, z)


def test_both_curvature_forms_agree_on_random_smooth_fields():
    rng = np.random.default_rng(7)
    for _ in range(12):
        c = [float(v) for v in rng.uniform(-0.6, 0.6, size=6)]
        src = (f"({c[0]!r})*x^2 + ({c[1]!r})*x*y + ({c[2]!r})*y^2"
               f" + ({c[3]!r})*sin(x) + ({c[4]!r})*cos(y) + ({c[5]!r})*x")
        patch = GraphPatch.from_expr(src, square(3.0))
        for _ in range(8):
            z = tuple(rng.uniform(-1.5, 1.5, size=2))
            if horizontal_data(patch, z) < 0.3:
                continue
            _assert_forms_agree(patch, z)


def test_both_forms_agree_in_fd_mode():
    patch = CATENOID.fd_only()
    for z in [(2.0, 0.0), (2.2, 0.7), (-1.8, 1.2)]:
        _assert_forms_agree(patch, z)


def test_curvature_reads_the_jet_and_without_one_not_the_height():
    # the curvature comes from the derivatives alone, even where the
    # height cannot be read
    def no_height(x, y):
        raise AssertionError("height read")

    patch = GraphPatch(square(3.0), ScalarField2(PARAB.h.exprs, square(3.0)))
    patch.h.f = no_height
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
            if horizontal_data(HYP, z) < 1e-2:
                continue
            before = h_mean_curvature(HYP, z)
            after = h_mean_curvature(moved, (z[0] + g0.x, z[1] + g0.y))
            assert abs(after - before) <= 1e-6


def test_rotation_equivariance_of_gauss_map():
    for patch in (FLAT, CATENOID):
        for theta in (0.4, 1.3, -2.2):
            rot = rotate_graph(patch, theta)
            c, s = math.cos(theta), math.sin(theta)
            for z in [(1.8, 0.3), (-1.7, 0.9)]:
                nu = unit_horizontal_field(patch)(*z)
                rz = (c * z[0] - s * z[1], s * z[0] + c * z[1])
                want = (c * nu[0] - s * nu[1], s * nu[0] + c * nu[1])
                assert unit_horizontal_field(rot)(*rz) == pytest.approx(want, abs=1e-8)


WAVY = GraphPatch.from_expr("sin(x)*y^2 + x^3/3", square(2.0))
G0, THETA = HPoint(0.3, -0.4, 0.7), 0.9
C, S = math.cos(THETA), math.sin(THETA)


def test_moved_graphs_keep_the_derivative_mode():
    for patch in (WAVY, WAVY.fd_only(), CATENOID, CATENOID.fd_only()):
        for moved in (translate_graph(patch, G0), rotate_graph(patch, THETA)):
            # six trees, or one tree and differences
            assert len(moved.h.exprs) == len(patch.h.exprs) in (1, 6)
            assert moved.analytic == patch.analytic


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


def test_negating_phi_negates_h_and_keeps_w():
    surf = ImplicitSurface.from_expr("t - (x^2+y^2)/4")
    g = (np.array([1.0]), np.array([0.0]), np.array([0.25]))
    val = surf.h_mean_curvature(*g)[0]
    flipped = ImplicitSurface.from_expr("-(t - (x^2+y^2)/4)")
    assert flipped.h_mean_curvature(*g)[0] == pytest.approx(-val, abs=1e-12)
    assert flipped.horizontal_data(*g).tolist() == surf.horizontal_data(*g).tolist()
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
    assert abs(surf.h_mean_curvature(np.array([1.0]), np.array([2.0]), np.array([1.0]))[0]) <= 1e-12
    # each entry's level set against its graph, one independent formula
    # against the other; negating phi negates the value exactly
    for name, src in LEVEL_SETS.items():
        entry = gallery_get(name)
        flipped = ImplicitSurface.from_expr(f"-({src})")
        nodes = [z for z in zip(*(a.tolist() for a in Grid2(entry.verify_domain, 11, 11).points()))
                 if not horizontal_data(entry.graph, z) <= W_MARGIN]
        assert nodes, name
        x, y = (np.array(c) for c in zip(*nodes))
        t = np.array([entry.graph.point(*z).t for z in nodes])
        assert flipped.phi(x, y, t).tolist() == (-entry.implicit.phi(x, y, t)).tolist()
        value = entry.implicit.h_mean_curvature(x, y, t)
        want = np.array([h_mean_curvature(entry.graph, z) for z in nodes])
        off = np.flatnonzero(~(abs(value - want) <= 1e-12))
        assert not off.size, (name, [nodes[i] for i in off])
        assert flipped.h_mean_curvature(x, y, t).tolist() == (-value).tolist()


def _node_loop_verify(phi, n, window=(-2.0, 2.0, -2.0, 2.0), t0=0.0):
    """Implicit ``verify``'s measured value (its repr) and three counts, one
    node at a time on ``expr.evaluate`` over the surface's trees: the
    oracle of the array route."""
    trees = ImplicitSurface.from_expr(phi).trees

    def at(k, x, y, t):
        return ex.evaluate(trees[k], {"x": x, "y": y, "t": t})

    def solve(x, y):   # 1-D Newton from t0; None where it fails
        t = t0
        for _ in range(60):
            val = at(0, x, y, t)
            if abs(val) < 1e-12:
                return t
            dt = at(1, x, y, t)
            if dt == 0.0 or not math.isfinite(dt):
                break
            t -= val / dt
        return t if abs(at(0, x, y, t)) < 1e-9 else None

    values, near, no_height = [], 0, 0
    for x, y in zip(*(a.tolist() for a in Grid2(PlanarDomain(*window), n, n).points())):
        t = solve(x, y)
        if t is None or not math.isfinite(t):
            no_height += 1
            continue
        p, q, p_x, p_y, p_t, q_x, q_y, q_t = (at(k, x, y, t) for k in range(2, 10))
        w = w_from_pq(p, q)
        if w <= W_MARGIN:
            near += 1
            continue
        # the derivatives of p and q along X1 and X2
        values.append(nu_divergence(p, q, w, p_x - 0.5 * y * p_t, p_y + 0.5 * x * p_t,
                                    q_x - 0.5 * y * q_t, q_y + 0.5 * x * q_t))
    return repr(worst_abs(values)), len(values), near, no_height


def _verify_implicit(tmp_path, implicit: dict, n: int) -> tuple:
    """``hmin verify`` of an implicit spec on an n-by-n grid: the repr of
    its measured value and the three counts of its note."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "implicit", "implicit": implicit}))
    main(["verify", "--spec", str(spec), "--grid", str(n), str(n), "--out", str(tmp_path)])
    check = json.loads((tmp_path / "report.json").read_text())["checks"][0]
    counts = re.fullmatch(r"(\d+) nodes evaluated, (\d+) near the characteristic set, "
                          r"(\d+) without a height", check["note"])
    return (repr(check["measured"]), *map(int, counts.groups()))


# level sets with no height anywhere, with phi_t = 0 everywhere (a vertical
# plane) and with Newton runs of about 55 steps
EDGE_LEVEL_SETS = {"no-height": "t^2 + 1", "vertical": "x - 2*y",
                   "long-newton": "atan(t) - 1.5707963267948966"}


@pytest.mark.parametrize("negate,options", [(False, {}), (False, {"t0": 0.7}), (True, {})],
                         ids=["default", "t0", "flipped"])
@pytest.mark.parametrize("phi", [*LEVEL_SETS.values(), *EDGE_LEVEL_SETS.values()],
                         ids=[*LEVEL_SETS, *EDGE_LEVEL_SETS])
def test_implicit_verify_matches_the_node_loop(tmp_path, phi, negate, options):
    phi = f"-({phi})" if negate else phi
    want = _node_loop_verify(phi, 11, **options)
    assert _verify_implicit(tmp_path, {"phi": phi, **options}, 11) == want


def test_implicit_verify_matches_the_node_loop_across_chunks_and_the_margin(tmp_path):
    # 33 x 33 nodes are two chunks; the cylinder has heights on one part of the window
    phi = LEVEL_SETS["cylinder"]
    assert _verify_implicit(tmp_path, {"phi": phi, "t0": 0.5}, 33) == \
        _node_loop_verify(phi, 33, t0=0.5)
    # W = |y| on t = x y / 2: the window's rows lie on both sides of W_MARGIN
    window = (0.5, 2.0, -0.003, 0.003)
    want = _node_loop_verify("t - x*y/2", 11, window)
    assert want[1] > 0 and want[2] > 0
    spec = {"phi": "t - x*y/2", "window": dict(zip(("xmin", "xmax", "ymin", "ymax"), window))}
    assert _verify_implicit(tmp_path, spec, 11) == want


def test_implicit_verify_calls_each_evaluator_once_per_chunk_and_newton_step(tmp_path,
                                                                              monkeypatch):
    calls = []   # (evaluator, nodes) of each call
    names = iter(("phi", "phi_t", "pq", "curvature"))   # in the order verify compiles them
    original = ex.compile_fn

    def spy(e, var_order, array=False):
        fn, name = original(e, var_order, array), next(names)
        return lambda *args: calls.append((name, np.size(args[0]))) or fn(*args)

    monkeypatch.setattr(ex, "compile_fn", spy)
    assert _verify_implicit(tmp_path, {"phi": "t - x*y/2 - (0.25)*x - (0.5)"}, 101)[1:] == \
        (10201, 0, 0)
    # 10 chunks of at most 1024 nodes; Newton takes at most one step at a
    # node, and reads phi again after it
    assert Counter(name for name, _ in calls) == {"phi": 20, "phi_t": 10, "pq": 10, "curvature": 10}
    points = Counter()
    for name, n in calls:
        points[name] += n
    assert points["phi"] == 10201 + points["phi_t"] and points["pq"] == points["curvature"] == 10201


# -- characteristic scan ------------------------------------------------------


def _scan(patch, grid):
    """The characteristic scan of the lattice that a curvature scan of ``grid`` fills."""
    lattice = ScanLattice(grid)
    max_curvature_deviation(patch, grid.domain, grid.nx, grid.ny, lattice=lattice)
    return characteristic_scan(lattice)


def test_scan_hyperbolic_finds_the_x_axis():
    scan = _scan(HYP, Grid2(square(2.0), 41, 41))
    assert len(scan.components) == 1
    assert all(abs(y) <= 1e-12 for _, y in scan.components[0].nodes)


def test_scan_flat_plane_single_point():
    scan = _scan(FLAT, Grid2(square(1.0), 41, 41))
    assert len(scan.components) == 1
    assert scan.components[0].representative == pytest.approx((0.0, 0.0), abs=1e-9)


@pytest.mark.parametrize("f,at", [("sqrt(x)", "(-1.0, 0.0)"),
                                   ("sqrt(-x)", "(0.020000000000000018, 0.0)")])
def test_scan_names_the_first_flagged_node_without_a_height(f, at):
    # 0*f leaves W that of x*y/2, whose flagged nodes are the line y = 0;
    # f is undefined on one half of it, and the first such node in lattice
    # order is named, wherever it sits in its component
    patch = GraphPatch.from_expr(f"x*y/2 + 0*{f}", square(1.0))
    with pytest.raises(FieldUndefined, match=f"^height not finite at {re.escape(at)}$"):
        _scan(patch, Grid2(square(1.0), 101, 101))


def test_scan_counterexample_patch_is_empty():
    dom = PlanarDomain(0.25, 3.0, -3.0, 3.0,
                       lambda x, y: abs(ex.pointwise(math.atan2, y, x)) <= 0.9)
    patch = GraphPatch.from_expr("-atanh(atan(y/x))", dom)
    scan = _scan(patch, Grid2(dom, 41, 41))
    assert scan.empty


# W <= EPS_CHAR (zero, tiny, -0.0), W = NaN, W = inf (one or both infinite, and
# overflowing hypot), and ordinary values
_P = [0.0, 1e-10, -0.0, math.nan, 1.0, math.inf, math.inf, 1.5e308, 3.0, -0.7, 1e-300]
_Q = [0.0, 0.0, 0.0, 1.0, math.nan, 2.0, -math.inf, 1.5e308, -4.0, 0.25, 5e-301]


def test_horizontal_on_a_chunk_is_the_float_call_at_each_node():
    # at the origin, a gradient (-p, -q) gives p and q up to the sign of a zero
    zeros = np.zeros(len(_P))
    chunk = horizontal_data(HYP, (zeros, zeros), jet=(zeros, -np.array(_P), -np.array(_Q)))
    for i, (pi, qi) in enumerate(zip(_P, _Q)):
        assert repr(horizontal_data(HYP, (0.0, 0.0), jet=(0.0, -pi, -qi))) == repr(float(chunk[i]))


def _w_rule_pairs() -> tuple:
    """(p, q) columns: every pair of ordinary values, signed zeros,
    infinities and NaN; |p| or |q| from 1e154 to 1e308 (p*p + q*q
    overflows); both below 1e-154 (it is subnormal or 0); random ordinary
    pairs."""
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.5, 1e-300, 1e300]
    sign = rng.choice([-1.0, 1.0], (4, 300))
    huge = sign[0] * 10.0 ** rng.uniform(154, 308, 300)
    tiny = sign[1] * 10.0 ** rng.uniform(-323.5, -154, 300)
    ordinary = sign[2] * 10.0 ** rng.uniform(-5, 5, 300)
    p = np.concatenate([np.repeat(special, len(special)), huge, ordinary, huge, tiny, ordinary])
    q = np.concatenate([np.tile(special, len(special)), ordinary, huge, huge[::-1],
                        sign[3] * tiny[::-1], rng.normal(0, 3, 300)])
    return p, q


def test_w_of_a_chunk_is_the_float_w_of_each_pair():
    p, q = _w_rule_pairs()
    reprs = lambda w: list(map(repr, w.tolist()))  # noqa: E731
    assert reprs(w_from_pq(p, q)) == [repr(w_from_pq(a, b)) for a, b in zip(p.tolist(), q.tolist())]
    # a float on one side is the same at every element
    assert reprs(w_from_pq(p, 2.5)) == [repr(w_from_pq(a, 2.5)) for a in p.tolist()]
    assert reprs(w_from_pq(-0.0, q)) == [repr(w_from_pq(-0.0, b)) for b in q.tolist()]


def test_w_is_finite_wherever_hypot_is():
    p, q = _w_rule_pairs()
    w, hypot = w_from_pq(p, q), ex.pointwise(math.hypot, p, q)
    assert (np.isfinite(w) == np.isfinite(hypot)).all()
    # every finite pair with |p|, |q| <= 1e308 has a norm below the largest float
    finite = np.isfinite(p) & np.isfinite(q)
    assert finite.sum() > 1500 and np.isfinite(w[finite]).all()
    assert w_from_pq(1e308, -1e308) == math.hypot(1e308, -1e308) < math.inf
    assert w_from_pq(-1e-320, 5e-324) == math.hypot(-1e-320, 5e-324) > 0.0


def test_w_is_within_one_ulp_of_hypot():
    # p and q of one scale, from 1e-150 to 1e150
    rng = np.random.default_rng(3)
    scale = 10.0 ** rng.uniform(-150, 150, 100_000)
    p, q = scale * rng.normal(size=100_000), scale * rng.normal(size=100_000)
    hypot = ex.pointwise(math.hypot, p, q)
    assert (np.abs(w_from_pq(p, q) - hypot) <= np.spacing(hypot)).all()


def test_verify_of_a_steep_plane_sees_no_node_where_w_is_not_finite(tmp_path):
    # p*p overflows at every node of 1e200*x; W falls back to hypot there and stays 1e200
    for kind, spec in (("graph", {"h": "1e200*x"}), ("implicit", {"phi": "t - 1e200*x"})):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": kind, kind: spec}))
        assert main(["verify", "--spec", str(path), "--out", str(tmp_path)]) == 0, kind
        report = json.loads((tmp_path / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        # the plane has H = 0, and no term of its curvature overflows
        curvature = checks["max_abs_h_curvature"]
        assert curvature["pass"] and curvature["measured"] == 0.0, curvature
        if kind == "graph":
            scan = checks["characteristic_scan"]
            # a node where W is not finite would be counted in the note and fail the check
            assert scan["pass"] and scan["note"] == "0 component(s)", scan


def test_graph_pq_and_dpq_on_a_chunk_are_the_float_calls_at_each_node():
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324]
    cols = [np.concatenate([rng.permutation(special), rng.normal(0, 3, 40)]) for _ in range(4)]
    for fn, args in ((graph_pq, cols), (graph_dpq, cols[:3])):
        chunk = fn(*args)
        for i in range(len(args[0])):
            one = fn(*(float(a[i]) for a in args))
            assert repr(one) == repr(tuple(float(v[i]) for v in chunk))


def test_graph_pq_and_dpq_are_the_paper_convention():
    # p = -(h_x + y/2), q = -(h_y - x/2) and their derivatives
    assert graph_pq(1.0, 2.0, 4.0, 6.0) == (-4.0, 0.0)
    assert graph_dpq(1.0, 2.0, 3.0) == (-1.0, -2.5, -1.5, -3.0)
    hx, hy = PARAB.h.gradient(1.0, 2.0)
    assert _pq(PARAB, 1.0, 2.0) == graph_pq(hx, hy, 1.0, 2.0)
    assert horizontal_data(PARAB, (1.0, 2.0)) == w_from_pq(*graph_pq(hx, hy, 1.0, 2.0))


def test_curvature_on_a_chunk_raises_the_float_call_at_its_first_characteristic_node():
    x, y = np.array([1.0, 2.0, 0.5]), np.array([1.0, 0.0, 0.0])   # W = |y| on x*y/2
    with pytest.raises(CharacteristicPoint) as one:
        h_mean_curvature(HYP, (2.0, 0.0))
    with pytest.raises(CharacteristicPoint) as chunk:
        h_mean_curvature(HYP, (x, y), jet=HYP.h.jet(x, y))
    assert str(chunk.value) == str(one.value) == "W=0.0 at (2.0, 0.0)"
    # the level set of the same graph names its first characteristic node too
    with pytest.raises(CharacteristicPoint, match=r"^W=0.0 at \(2.0, 0.0, 0.0\)$"):
        ImplicitSurface.from_expr(LEVEL_SETS["hyperbolic"]).h_mean_curvature(x, y, x * y / 2)
