import math

import numpy as np
import pytest

from hmin import seed as seed_module
from hmin.errors import CharacteristicStart, FieldUndefined, OutOfRange
from hmin.fields import RK4_STEP, TURN_BACK, PlanarDomain, ScalarField2, square
from hmin.gallery import circle_seed, gallery_get, gallery_names, line_seed, optreg2_seed
from hmin.seed import (_RANGE_SLOP, SeedCurve, curvature, extract_seed, rule_jacobian_det,
                       rule_jacobian_det_fd, rule_point, singular_locus)
from hmin.surface import GraphPatch, unit_horizontal_field

FLAT = GraphPatch.from_expr("0", square(3.0))
HYP = GraphPatch.from_expr("x*y/2", square(3.0))
PARAB = GraphPatch.from_expr("(x^2+y^2)/4", square(3.0))  # characteristic at the origin
CATENOID = GraphPatch.from_expr(
    "sqrt((x^2+y^2)/2 - 1)",
    PlanarDomain(-4, 4, -4, 4, lambda x, y: x * x + y * y > 2.05))


def test_flat_seed_is_the_unit_circle():
    c = extract_seed(FLAT, (1.0, 0.0), math.pi)
    for s in np.linspace(c.s_min, c.s_max, 61):
        s = float(s)
        g = c.point(s)
        err = math.hypot(g[0] - math.cos(s), g[1] - math.sin(s))
        assert err <= 1e-8 * max(1.0, abs(s))


def test_hyperbolic_seed_is_a_line():
    c = extract_seed(HYP, (0.0, 1.0), 1.4)
    for s in (-1.0, -0.25, 0.5, 1.0):
        assert c.point(s) == pytest.approx((-s, 1.0), abs=1e-10)


def test_catenoid_seed_radius_law():
    z0 = (2.0, 0.0)
    c = extract_seed(CATENOID, z0, 1.0)
    for s in np.linspace(-1.0, 0.0, 41):
        g = c.point(float(s))
        want = 4.0 - 2.0 * math.sqrt(2.0) * float(s)
        assert abs(g[0] ** 2 + g[1] ** 2 - want) <= 1e-6


def test_extraction_rejects_characteristic_start():
    with pytest.raises(CharacteristicStart):
        extract_seed(FLAT, (0.0, 0.0), 1.0)
    with pytest.raises(CharacteristicStart):
        extract_seed(HYP, (1.0, 0.0), 1.0)


def test_extraction_rejects_a_start_outside_the_domain():
    with pytest.raises(FieldUndefined, match=r"z0=\(5\.0, 1\.0\)"):
        extract_seed(HYP, (5.0, 1.0), 1.0)


def test_extraction_stops_at_domain_boundary():
    c = extract_seed(HYP, (0.0, 1.0), 10.0)
    assert c.stop_lo is not None or c.stop_hi is not None
    assert c.s_max - c.s_min < 20.0


def test_seed_invariants():
    for c in (extract_seed(FLAT, (1.0, 0.0), 2.0),
              extract_seed(CATENOID, (2.0, 0.0), 1.0)):
        for i, s in enumerate(c.s):
            assert abs(math.hypot(*c.dg[i]) - 1.0) <= 1e-8
            dot = c.dg[i, 0] * c.ddg[i, 0] + c.dg[i, 1] * c.ddg[i, 1]
            assert abs(dot) <= 1e-6
            k = curvature(c, float(s))
            assert abs(k * k - (c.ddg[i, 0] ** 2 + c.ddg[i, 1] ** 2)) <= 1e-6


def test_out_of_range_query():
    c = extract_seed(FLAT, (1.0, 0.0), 0.5)
    with pytest.raises(OutOfRange):
        c.point(5.0)


def test_curvature_values():
    c = extract_seed(FLAT, (1.0, 0.0), 2.0)
    for s in np.linspace(-1.5, 1.5, 11):
        assert curvature(c, float(s)) == pytest.approx(-1.0, abs=1e-5)
    c = extract_seed(FLAT, (2.0, 0.0), 2.0)
    assert curvature(c, 0.3) == pytest.approx(-0.5, abs=1e-5)
    c = extract_seed(HYP, (0.0, 1.0), 1.0)
    assert curvature(c, 0.5) == pytest.approx(0.0, abs=1e-9)


def test_optreg_seed_curvature_is_minus_psi():
    c = optreg2_seed()
    for s in np.linspace(-0.9, 0.9, 19):
        assert curvature(c, float(s)) == pytest.approx(-abs(float(s)), abs=1e-9)


def test_extraction_order_of_accuracy():
    # halving the RK4 step cuts the circle-seed endpoint error by >= 8x
    errors = []
    for step in (4e-3, 2e-3, 1e-3):
        c = extract_seed(FLAT, (1.0, 0.0), 2.0, step=step)
        g = c.point(2.0)
        errors.append(math.hypot(g[0] - math.cos(2.0), g[1] - math.sin(2.0)))
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0


# -- the (s, r) chart ---------------------------------------------------------


def test_rule_point_at_r0_is_the_seed():
    c = extract_seed(CATENOID, (2.0, 0.0), 1.0)
    for s in (-0.5, 0.0, 0.4):
        assert rule_point(c, s, 0.0) == pytest.approx(c.point(s))


def test_rule_map_hyperbolic():
    c = line_seed((0.0, 1.0), (-1.0, 0.0), (-2.0, 2.0))
    assert rule_point(c, 0.7, 0.3) == pytest.approx((-0.7, 1.3))


def test_rule_map_flat_is_radial():
    c = circle_seed((0.0, 0.0), (1.0, 0.0), (-2.0, 2.0))
    for s, r in [(0.3, 0.2), (-1.0, -0.4)]:
        g = c.point(s)
        want = ((1 + r) * g[0], (1 + r) * g[1])
        assert rule_point(c, s, r) == pytest.approx(want, abs=1e-12)


def test_jacobian_determinant():
    circle = circle_seed((0.0, 0.0), (1.0, 0.0), (-2.0, 2.0))
    assert rule_jacobian_det(circle, 0.5, 0.0) == pytest.approx(-1.0)
    assert rule_jacobian_det(circle, 0.5, -1.0) == pytest.approx(0.0, abs=1e-12)
    line = line_seed((0.0, 1.0), (-1.0, 0.0), (-2.0, 2.0))
    for r in (-1.0, 0.0, 2.0):
        assert rule_jacobian_det(line, 0.1, r) == pytest.approx(-1.0)
        assert abs(rule_jacobian_det(line, 0.1, r)
                   - rule_jacobian_det_fd(line, 0.1, r)) <= 1e-8


def test_jacobian_formula_matches_fd_on_extracted_seeds():
    rng = np.random.default_rng(2)
    for patch, z0 in ((FLAT, (1.0, 0.0)), (HYP, (0.0, 1.0)), (CATENOID, (2.0, 0.0))):
        c = extract_seed(patch, z0, 0.8)
        for _ in range(200):
            s = float(rng.uniform(c.s_min + 0.05, c.s_max - 0.05))
            r = float(rng.uniform(-2.0, 2.0))
            assert abs(rule_jacobian_det(c, s, r)
                       - rule_jacobian_det_fd(c, s, r)) <= 1e-6


def test_singular_locus_circle_line_and_corner():
    circle = circle_seed((0.0, 0.0), (1.0, 0.0), (-2.0, 2.0))
    loc = singular_locus(circle)
    assert len(loc.branches) == 1
    _, rvals = loc.branches[0]
    assert np.allclose(rvals, -1.0, atol=1e-12)

    line = line_seed((0.0, 1.0), (-1.0, 0.0), (-2.0, 2.0))
    assert singular_locus(line).empty

    corner = optreg2_seed()
    loc = singular_locus(corner)
    assert not loc.empty
    for s_arr, r_arr in loc.branches:
        mask = np.abs(s_arr) > 1e-3
        assert np.allclose(r_arr[mask], -1.0 / np.abs(s_arr[mask]), atol=1e-9)
    # r = -1/|s| diverges toward s = 0 (resolution-limited by the sample grid)
    assert min(r_arr.min() for _, r_arr in loc.branches) < -100.0


# -- field-geometry invariants -----------------------------------------------


def test_gauss_map_is_constant_along_rules():
    for patch, z0 in ((FLAT, (1.0, 0.0)), (CATENOID, (2.0, 0.0))):
        c = extract_seed(patch, z0, 0.8)
        nu = unit_horizontal_field(patch)
        for s in np.linspace(c.s_min + 0.1, c.s_max - 0.1, 7):
            s = float(s)
            d = c.tangent(s)
            for r in (-0.4, -0.1, 0.2, 0.5):
                if abs(rule_jacobian_det(c, s, r)) <= 0.1:
                    continue
                z = rule_point(c, s, r)
                if not patch.domain.contains(*z):
                    continue
                v = nu(*z)
                sign = 1.0 if v[0] * d[0] + v[1] * d[1] > 0 else -1.0
                err = math.hypot(sign * v[0] - d[0], sign * v[1] - d[1])
                assert err <= 1e-6


def test_transverse_speed_is_one_minus_r_kappa():
    c = extract_seed(FLAT, (1.0, 0.0), 1.0)
    h = 1e-5
    for s in (-0.5, 0.2):
        for r in (-0.5, 0.3, 0.8):
            fp = rule_point(c, s + h, r)
            fm = rule_point(c, s - h, r)
            speed = math.hypot(fp[0] - fm[0], fp[1] - fm[1]) / (2 * h)
            assert abs(speed - abs(1.0 - r * curvature(c, s))) <= 1e-6


def test_perpendicular_integral_curves_are_straight():
    # trace nu-perp by RK4 and compare against the straight line z0 + r*nu_perp(z0)
    from hmin.fields import rk4_integrate
    for patch, z0 in ((FLAT, (1.0, 0.0)), (CATENOID, (2.2, 0.4))):
        nu = unit_horizontal_field(patch)

        def perp(x, y):
            v = nu(x, y)
            return (v[1], -v[0])

        v0 = perp(*z0)
        out = rk4_integrate(perp, z0, 1e-3, 800)
        for k, (x, y) in enumerate(out.points):
            r = k * 1e-3
            err = math.hypot(x - (z0[0] + r * v0[0]), y - (z0[1] + r * v0[1]))
            assert err <= 1e-8 * max(1.0, r)


# -- lookups and tracing against the numpy formulas they replaced -------------


def _numpy_hermite(sq, s0, s1, p0, p1, m0, m1, derivative=False):
    dt = s1 - s0
    t = (sq - s0) / dt
    t2, t3 = t * t, t * t * t
    if not derivative:
        return ((2 * t3 - 3 * t2 + 1) * p0 + (t3 - 2 * t2 + t) * dt * m0
                + (-2 * t3 + 3 * t2) * p1 + (t3 - t2) * dt * m1)
    return ((6 * t2 - 6 * t) * p0 / dt + (3 * t2 - 4 * t + 1) * m0
            + (-6 * t2 + 6 * t) * p1 / dt + (3 * t2 - 2 * t) * m1)


def _numpy_lookup(c, which, sq):
    """A SeedCurve lookup as a range check, np.searchsorted and numpy Hermite."""
    if len(c.s) < 2:
        raise OutOfRange("curve has fewer than two samples")
    if sq < c.s_min - _RANGE_SLOP or sq > c.s_max + _RANGE_SLOP:
        raise OutOfRange("outside sampled range")
    fn = {"point": c.gamma_fn, "tangent": c.dgamma_fn, "second": c.ddgamma_fn}[which]
    if fn is not None:
        return tuple(map(float, fn(sq)))
    i = min(max(int(np.searchsorted(c.s, sq)) - 1, 0), len(c.s) - 2)
    p, m = (c.g, c.dg) if which == "point" else (c.dg, c.ddg)
    v = _numpy_hermite(sq, c.s[i], c.s[i + 1], p[i], p[i + 1], m[i], m[i + 1],
                       derivative=which == "second")
    return (float(v[0]), float(v[1]))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except OutOfRange:
        return "OutOfRange"


def test_lookups_match_numpy_hermite():
    catenoid = gallery_get("catenoid")
    one = (np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))
    curves = [catenoid.ruled().seed, *(p.curve for p in catenoid.gsc().pieces), optreg2_seed(),
              extract_seed(FLAT, (1.0, 0.0), 1.0), extract_seed(CATENOID, (2.0, 0.0), 1.0),
              circle_seed((0.0, 0.0), (1.0, 0.0), (-2.0, 2.0)),
              line_seed((0.0, 1.0), (-1.0, 0.0), (-2.0, 2.0)),
              SeedCurve(*one), SeedCurve(*one, gamma_fn=lambda s: (s, 0.0))]
    for c in curves:
        lo, hi = c.s_min, c.s_max
        edges = [lo - _RANGE_SLOP, lo + _RANGE_SLOP, hi - _RANGE_SLOP, hi + _RANGE_SLOP,
                 lo - 4 * _RANGE_SLOP, hi + 4 * _RANGE_SLOP, -math.inf, math.inf, math.nan]
        queries = c.s.tolist() + (0.5 * (c.s[1:] + c.s[:-1])).tolist() + edges
        for which in ("point", "tangent", "second"):
            for sq in queries:
                assert (_outcome(getattr(c, which), sq)
                        == _outcome(_numpy_lookup, c, which, sq)), (c.provenance, which, sq)


def _two_sided_stencil(patch, c):
    """gamma'' as the unit field differenced at x +- (step/2) gamma', projected."""
    nu = unit_horizontal_field(patch)
    delta = 0.5 * RK4_STEP
    out = np.zeros_like(c.g)
    for i, ((x, y), (t1, t2)) in enumerate(zip(c.g, c.dg)):
        fp = nu(float(x) + delta * t1, float(y) + delta * t2)
        fm = nu(float(x) - delta * t1, float(y) - delta * t2)
        out[i] = ((fp[0] - fm[0]) / (2 * delta), (fp[1] - fm[1]) / (2 * delta))
    out -= np.einsum("ij,ij->i", out, c.dg)[:, None] * c.dg
    return out


# (first and last s in steps, stop_lo, stop_hi) of each trace, as extracted
# by the tracer that evaluated every tangent and stencil side itself; the
# cylinder and PARAB traces end where the unit field turns back across a
# characteristic point
EXTRACTED = {
    "char-plane": (-3142, 3142, None, None),
    "general-plane": (-1571, 1571, None, None),
    "hyperbolic": (-1500, 1500, None, None),
    "catenoid": (-1000, 1000, None, None),
    "counterexample": (-850, 850, None, None),
    "cylinder": (-707, 900, TURN_BACK, None),
    "gencurve-n": (-700, 700, None, None),
    "FLAT": (-3142, 3142, None, None),
    "HYP": (-1400, 1400, None, None),
    "PARAB": (-3000, 1414, None, TURN_BACK),
    "CATENOID": (-1000, 688, None,
                 "FieldUndefined: (1.3992626836893491, 0.30309023330021556) "
                 "outside the patch domain"),
    "HYP-fd": (-2999, 2999,
               "StencilOutOfDomain: stencil point (3.0000099999997807, 0.999999999996068) "
               "outside domain",
               "StencilOutOfDomain: stencil point (-3.0000099999997807, 0.999999999996068) "
               "outside domain"),
}
# a height without array code: its stencil sides are read point by point
EXTRACTED["HYP-closure"] = EXTRACTED["HYP-fd"]
# the last backward step ends at its k2, a point inside the domain whose
# gradient stencil is not: the chunk of stencil sides holding that point is
# read point by point
EXTRACTED["HYP-fd-edge"] = (
    -2998, 2999,
    "StencilOutOfDomain: stencil point (2.999509999999781, 0.9999999999960797) outside domain",
    EXTRACTED["HYP-fd"][3])


def test_extracted_tangents_and_seconds_match_direct_evaluation():
    cases = [(name, e.graph, e.seed_base, e.arc_span)
             for name, e in ((n, gallery_get(n)) for n in gallery_names())
             if e.graph is not None and e.seed_base is not None]
    cases += [("FLAT", FLAT, (1.0, 0.0), math.pi), ("HYP", HYP, (0.0, 1.0), 1.4),
              ("CATENOID", CATENOID, (2.0, 0.0), 1.0), ("PARAB", PARAB, (1.0, 0.0), 3.0),
              ("HYP-fd", HYP.fd_only(), (0.0, 1.0), 4.0),  # both ends at the domain edge
              ("HYP-closure", GraphPatch(square(3.0), ScalarField2(lambda x, y: x * y / 2)),
               (0.0, 1.0), 4.0),
              ("HYP-fd-edge", GraphPatch.from_expr(
                  "x*y/2", PlanarDomain(-3.0, 2.999505, -3.0, 3.0)).fd_only(), (0.0, 1.0), 4.0)]
    assert sorted(name for name, *_ in cases) == sorted(EXTRACTED)
    for name, patch, z0, span in cases:
        c = extract_seed(patch, z0, span)
        k_lo, k_hi, stop_lo, stop_hi = EXTRACTED[name]
        assert c.s.tobytes() == (np.arange(k_lo, k_hi + 1) * RK4_STEP).tobytes(), name
        assert (c.stop_lo, c.stop_hi) == (stop_lo, stop_hi), name
        assert np.hypot(*np.diff(c.g, axis=0).T).min() >= 0.5 * RK4_STEP, name
        nu = unit_horizontal_field(patch)
        for (x, y), d in zip(c.g.tolist(), c.dg.tolist()):
            assert repr(tuple(d)) == repr(nu(x, y)), name
        assert c.ddg.tobytes() == _two_sided_stencil(patch, c).tobytes(), name


def test_stencil_sides_are_nan_where_the_unit_field_raises():
    # W is inf at (1, 1), 0 at the origin, and (5, 0) is off the domain
    at = np.array([[1.0, 1.0], [0.0, 0.0], [5.0, 0.0], [0.5, 0.001], [1e-3, 2e-3]])
    for patch in (GraphPatch.from_expr("1.5e308*x*y", square(3.0)),
                  GraphPatch(square(3.0), ScalarField2(lambda x, y: 1.5e308 * x * y,
                                                       lambda x, y: (1.5e308 * y, 1.5e308 * x)))):
        nu = unit_horizontal_field(patch)
        want = []
        for x, y in at.tolist():
            try:
                want.append(nu(x, y))
            except FieldUndefined:
                want.append((math.nan, math.nan))
        assert seed_module._field_at(patch, nu, at).tobytes() == np.array(want).tobytes()


def test_undefined_stencil_side_falls_back_to_tangent_differences():
    c = extract_seed(FLAT, (1.0, 0.0), 0.1)
    # a hole at the - side of a forward point's stencil, the side the tracer
    # evaluates itself; the nearest RK4 stage point is 8e-11 away
    i = 130
    hx, hy = (c.g[i] - 0.5 * RK4_STEP * c.dg[i]).tolist()
    holed = GraphPatch.from_expr("0", PlanarDomain(
        -3, 3, -3, 3, lambda x, y: math.hypot(x - hx, y - hy) > 1e-12))
    d = extract_seed(holed, (1.0, 0.0), 0.1)
    assert d.g.tobytes() == c.g.tobytes() and d.dg.tobytes() == c.dg.tobytes()
    want = (d.dg[i + 1] - d.dg[i - 1]) / (2 * RK4_STEP)
    want -= (want[0] * d.dg[i, 0] + want[1] * d.dg[i, 1]) * d.dg[i]
    assert d.ddg[i].tobytes() == want.tobytes()
    others = np.arange(len(d.s)) != i
    assert d.ddg[others].tobytes() == c.ddg[others].tobytes()


def test_tracing_costs_at_most_four_gradients_per_step(monkeypatch):
    gradients, steps = [0], [0]
    gradient, rk4 = ScalarField2.gradient, seed_module.rk4_integrate

    def counted_gradient(x, y):
        gradients[0] += 1
        return gradient(HYP.h, x, y)

    def counted_rk4(*args):
        out = rk4(*args)
        steps[0] += len(out.stages)
        return out

    monkeypatch.setattr(HYP.h, "gradient", counted_gradient)
    monkeypatch.setattr(seed_module, "rk4_integrate", counted_rk4)
    extract_seed(HYP, (0.0, 1.0), 1.0)
    assert steps[0] == 2000
    # per step: four RK4 stages (the other stencil side is read by array
    # code); once per seed: the check at z0 and the tangent at each branch end
    assert gradients[0] <= 4 * steps[0] + 3
