import math

import numpy as np
import pytest

from hmin import expr as ex
from hmin import seed as seed_module
from hmin.errors import CharacteristicStart, FieldUndefined, OutOfRange, StencilOutOfDomain
from hmin.cli import main
from hmin.fields import (CLOSED, RK4_STEP, TURN_BACK, PlanarDomain, ScalarField2, full,
                         rk4_integrate, square)
from hmin.gallery import circle_seed, gallery_get, gallery_names, line_seed, optreg2_seed
from hmin.seed import (_RANGE_SLOP, SeedCurve, curvature, extract_seed, rule_jacobian_det,
                       rule_jacobian_det_fd, rule_point, singular_locus)
from hmin.surface import EPS_CHAR, GraphPatch, unit_horizontal_field, w_from_pq

FLAT = GraphPatch.from_expr("0", square(3.0))
HYP = GraphPatch.from_expr("x*y/2", square(3.0))
PARAB = GraphPatch.from_expr("(x^2+y^2)/4", square(3.0))  # characteristic at the origin
CATENOID = GraphPatch.from_expr(
    "sqrt((x^2+y^2)/2 - 1)",
    PlanarDomain(-4, 4, -4, 4, lambda x, y: x * x + y * y > 2.05))


def test_a_closed_seed_is_traced_once_each_way(tmp_path):
    # the longest span the CLI takes; each branch ends one step past z0
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "gallery", "gallery": {"name": "char-plane"}}')
    assert main(["seed", "--spec", str(spec), "--z0", "1", "0", "--span", "1000",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "seed.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 629 + 1
    c = extract_seed(gallery_get("char-plane").graph, (1.0, 0.0), 1000.0)
    assert (c.stop_lo, c.stop_hi) == (CLOSED, CLOSED)
    assert c.s_min == -c.s_max == -629 * RK4_STEP


def test_a_seed_has_no_row_without_a_height(tmp_path):
    # the forward branch from (0.5, 1) runs into x < 0, where the height is
    # NaN and its derivatives are not
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "graph", "graph": {"h": "x*y/2 + 0*sqrt(x)"}}')
    assert main(["seed", "--spec", str(spec), "--z0", "0.5", "1", "--span", "1",
                 "--out", str(tmp_path)]) == 0
    rows = [r.split(",") for r in (tmp_path / "seed.csv").read_text().splitlines()[1:]]
    assert len(rows) == 150 and all(math.isfinite(float(r[4])) for r in rows)


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


def test_extraction_rejects_a_start_where_w_is_nan():
    # sqrt(x) has no derivative at x < 0: W is NaN, so the start is not characteristic
    patch = GraphPatch.from_expr("x*y/2 + sqrt(x)", PlanarDomain(-1, 1, -1, 1))
    with pytest.raises(FieldUndefined,
                       match=r"^horizontal Gauss map undefined at z0=\(-0\.5, 1\.0\), W=nan$"):
        extract_seed(patch, (-0.5, 1.0), 1.0)


def test_extraction_rejects_a_start_outside_the_domain():
    with pytest.raises(FieldUndefined, match=r"z0=\(5\.0, 1\.0\)"):
        extract_seed(HYP, (5.0, 1.0), 1.0)
    # inside, with its gradient stencil, but the Hessian stencil leaves the domain
    with pytest.raises(FieldUndefined, match=r"gamma'' undefined at z0=\(2\.99997, 1\.0\)"):
        extract_seed(HYP.fd_only(), (2.99997, 1.0), 1.0)


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


def test_extraction_order_of_accuracy(monkeypatch):
    # halving the RK4 step cuts the circle-seed endpoint error by >= 8x
    errors = []
    for step in (4e-3, 2e-3, 1e-3):
        monkeypatch.setattr(seed_module, "RK4_STEP", step)
        c = extract_seed(FLAT, (1.0, 0.0), 2.0)
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
    branches = singular_locus(circle)
    assert len(branches) == 1
    _, rvals = branches[0]
    assert np.allclose(rvals, -1.0, atol=1e-12)

    line = line_seed((0.0, 1.0), (-1.0, 0.0), (-2.0, 2.0))
    assert singular_locus(line) == []

    corner = optreg2_seed()
    branches = singular_locus(corner)
    assert branches
    for s_arr, r_arr in branches:
        mask = np.abs(s_arr) > 1e-3
        assert np.allclose(r_arr[mask], -1.0 / np.abs(s_arr[mask]), atol=1e-9)
    # r = -1/|s| diverges toward s = 0 (resolution-limited by the sample grid)
    assert min(r_arr.min() for _, r_arr in branches) < -100.0


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
              SeedCurve(*one), SeedCurve(*one, gamma_fn=lambda s: (s, full(s, 0.0)))]
    for c in curves:
        lo, hi = c.s_min, c.s_max
        edges = [lo - _RANGE_SLOP, lo + _RANGE_SLOP, hi - _RANGE_SLOP, hi + _RANGE_SLOP,
                 lo - 4 * _RANGE_SLOP, hi + 4 * _RANGE_SLOP, -math.inf, math.inf, math.nan]
        queries = c.s.tolist() + (0.5 * (c.s[1:] + c.s[:-1])).tolist() + edges
        for which in ("point", "tangent", "second"):
            for sq in queries:
                assert (_outcome(getattr(c, which), sq)
                        == _outcome(_numpy_lookup, c, which, sq)), (which, sq)


# (first and last s in steps, stop_lo, stop_hi) of each trace; the cylinder
# and PARAB traces end where the unit field turns back across a
# characteristic point
EXTRACTED = {
    "char-plane": (-314, 314, None, None),
    "general-plane": (-157, 157, None, None),
    "hyperbolic": (-150, 150, None, None),
    "catenoid": (-100, 100, None, None),
    "counterexample": (-85, 85, None, None),
    "cylinder": (-71, 90, TURN_BACK, None),
    "gencurve-n": (-70, 70, None, None),
    "FLAT": (-314, 314, None, None),
    "HYP": (-140, 140, None, None),
    "PARAB": (-300, 141, None, TURN_BACK),
    "CATENOID": (-100, 68, None,
                 "FieldUndefined: (1.398762740318712, 0.30306448196355584) "
                 "outside the patch domain"),
    "HYP-fd": (-299, 299,
               "StencilOutOfDomain: stencil point (3.00000999999998, 0.9999999999962766) "
               "outside domain",
               "StencilOutOfDomain: stencil point (-3.00000999999998, 0.9999999999962766) "
               "outside domain"),
}
# the last backward point, x = 2.99, is inside the domain and so is its
# gradient stencil, but its Hessian stencil is not: the branch is cut before
# it, under the tracer's stop reason, or under "trimmed boundary sample"
# when the tracer took all its steps
EDGE = GraphPatch.from_expr("x*y/2", PlanarDomain(-3.0, 2.99003, -3.0, 3.0)).fd_only()
EXTRACTED["HYP-fd-edge"] = (
    -298, 299, "FieldUndefined: (2.99499999999998, 0.999999999996394) outside the patch domain",
    EXTRACTED["HYP-fd"][3])
EXTRACTED["HYP-fd-steps"] = (-298, 299, "trimmed boundary sample", None)
# 0*sqrt(x) differentiates to 0, so W and gamma'' stay finite where the
# height is NaN: the forward branch is cut before its first point at x < 0
ZERO_SQRT = GraphPatch.from_expr("x*y/2 + 0*sqrt(x)", square(3.0))
EXTRACTED["ZERO-SQRT"] = (-100, 49, None, "trimmed boundary sample")


def _extracted_cases():
    cases = [(name, e.graph, e.seed_base, e.arc_span)
             for name, e in ((n, gallery_get(n)) for n in gallery_names())
             if e.graph is not None and e.seed_base is not None]
    cases += [("FLAT", FLAT, (1.0, 0.0), math.pi), ("HYP", HYP, (0.0, 1.0), 1.4),
              ("CATENOID", CATENOID, (2.0, 0.0), 1.0), ("PARAB", PARAB, (1.0, 0.0), 3.0),
              ("HYP-fd", HYP.fd_only(), (0.0, 1.0), 4.0),  # both ends at the domain edge
              ("HYP-fd-edge", EDGE, (0.0, 1.0), 4.0), ("HYP-fd-steps", EDGE, (0.0, 1.0), 2.99),
              ("ZERO-SQRT", ZERO_SQRT, (0.5, 1.0), 1.0)]
    assert sorted(name for name, *_ in cases) == sorted(EXTRACTED)
    return cases


def _scalar_seed_jet(patch, x, y):
    """gamma' and gamma'' at (x, y) from the scalar 2-jet, or None where
    extract_seed cuts a branch (the scalar oracle of ``_seed_jet``)."""
    if not patch.domain.contains(x, y):
        return None
    try:
        t, hx, hy, hxx, hxy, hyy = patch.h.jet(x, y, patch.h.jet(x, y))
    except StencilOutOfDomain:
        return None
    p, q = -(hx + 0.5 * y), -(hy - 0.5 * x)
    w = w_from_pq(p, q)
    if not (math.isfinite(t) and math.isfinite(w) and w > EPS_CHAR):
        return None
    nx, ny = p / w, q / w
    ax = -hxx * nx - (hxy + 0.5) * ny
    ay = -(hxy - 0.5) * nx - hyy * ny
    dot = nx * ax + ny * ay
    sx, sy = (ax - dot * nx) / w, (ay - dot * ny) / w
    if not (math.isfinite(sx) and math.isfinite(sy)):
        return None
    return (nx, ny), (sx, sy)


def _scalar_prefix(patch, pts):
    """``_scalar_seed_jet`` at the leading points of ``pts`` where it is defined."""
    out = []
    for x, y in pts:
        rows = _scalar_seed_jet(patch, x, y)
        if rows is None:
            break
        out.append(rows)
    return out


def test_extracted_tangents_and_seconds_match_direct_evaluation():
    for name, patch, z0, span in _extracted_cases():
        c = extract_seed(patch, z0, span)
        k_lo, k_hi, stop_lo, stop_hi = EXTRACTED[name]
        assert c.s.tobytes() == (np.arange(k_lo, k_hi + 1) * RK4_STEP).tobytes(), name
        assert (c.stop_lo, c.stop_hi) == (stop_lo, stop_hi), name
        assert np.hypot(*np.diff(c.g, axis=0).T).min() >= 0.5 * RK4_STEP, name
        nu = unit_horizontal_field(patch)
        for (x, y), d in zip(c.g.tolist(), c.dg.tolist()):
            assert repr(tuple(d)) == repr(nu(x, y)), name
        # the traces rebuilt by RK4 and read by the scalar oracle, each up to
        # its first point where the oracle is undefined
        branches = []
        for reverse in (True, False):
            trace = rk4_integrate(unit_horizontal_field(patch, reverse), z0, RK4_STEP,
                                  max(1, int(round(span / RK4_STEP))))
            rows = _scalar_prefix(patch, trace.points.tolist())
            stop = trace.stop_reason
            if len(rows) < len(trace.points):
                stop = stop or "trimmed boundary sample"
            branches.append((trace.points[:len(rows)], rows, stop))
        (back, rows_b, stop_lo), (fwd, rows_f, stop_hi) = branches
        assert (c.stop_lo, c.stop_hi) == (stop_lo, stop_hi), name
        assert c.g.tobytes() == np.vstack([back[:0:-1], fwd]).tobytes(), name
        rows = rows_b[:0:-1] + rows_f
        assert c.dg.tobytes() == np.array([d for d, _ in rows]).tobytes(), name
        assert c.ddg.tobytes() == np.array([dd for _, dd in rows]).tobytes(), name


@pytest.mark.parametrize("fd", [False, True])
def test_seed_jet_stops_before_the_first_undefined_point(fd):
    # 1.5e308*x*y: W is inf at (1, 1), and the FD Hessian is NaN there;
    # W = 0 at the origin; (5, 0) is off the domain; the FD stencils of
    # (1.09997, 0.001) leave it (the Hessian's only), and so do those of
    # (1.099995, 0.001) (the gradient's too)
    patch = GraphPatch.from_expr("1.5e308*x*y", PlanarDomain(-3.0, 1.1, -3.0, 3.0))
    patch = patch.fd_only() if fd else patch
    good = [(0.5, 0.001), (1e-3, 2e-3), (-0.5, 0.25)]
    bad = [(1.0, 1.0), (0.0, 0.0), (5.0, 0.0), (1.09997, 0.001), (1.099995, 0.001)]
    # the long cases span two chunks, with the first undefined point in either
    runs = [good + bad + good, bad, good, good * 400 + bad[:1] + good, good + bad[:1] + good * 400,
            good + bad[3:4] + good * 400]
    runs += [good[:1] + [b] + good for b in bad]
    edge = [1204, 5, 5] if not fd else [3, 1, 1]
    assert ([len(_scalar_prefix(patch, pts)) for pts in runs]
            == [3, 0, 3, 1200, 3, edge[0], 1, 1, 1] + edge[1:])
    for pts in runs:
        want = _scalar_prefix(patch, pts)
        dg, ddg = seed_module._seed_jet(patch, np.array(pts))
        assert dg.shape == ddg.shape == (len(want), 2)
        assert dg.tobytes() == np.array([d for d, _ in want] or np.empty((0, 2))).tobytes()
        assert ddg.tobytes() == np.array([dd for _, dd in want] or np.empty((0, 2))).tobytes()


def test_the_tracer_and_the_seed_jet_share_one_w():
    # RK4's first stage k1 = nu(z) at each traced point of a gallery seed is
    # the gamma' row the chunked seed jet reads there (negated on the
    # backward branch), bit for bit, for analytic and difference derivatives
    names = set()
    for name in gallery_names():
        e = gallery_get(name)
        if e.graph is None or e.seed_base is None:
            continue
        names.add(name)
        for patch in (e.graph, e.graph.fd_only()):
            for reverse in (True, False):
                nu = unit_horizontal_field(patch, reverse)
                steps = max(1, int(round(e.arc_span / RK4_STEP)))
                trace = rk4_integrate(nu, e.seed_base, RK4_STEP, steps)
                dg, _ = seed_module._seed_jet(patch, trace.points)
                assert len(dg) >= 50, name
                k1 = np.array([nu(x, y) for x, y in trace.points[:len(dg)].tolist()])
                want = -dg if reverse else dg
                assert k1.tobytes() == want.tobytes(), (name, patch.analytic, reverse)
    assert {"char-plane", "general-plane", "counterexample", "hyperbolic"} <= names


def test_seconds_match_the_closed_form_seeds():
    # gamma'' = kappa gamma'_perp on the circles (kappa = -1/|z0 - c|) and
    # lines (kappa = 0) the gallery knows, at every sample, end samples too
    names = set()
    for name in gallery_names():
        e = gallery_get(name)
        if e.graph is None or e.seed_base is None or e.known_kappa is None:
            continue
        names.add(name)
        c = extract_seed(e.graph, e.seed_base, e.arc_span)
        k = e.known_kappa(e.seed_base)
        want = k * np.column_stack((c.dg[:, 1], -c.dg[:, 0]))
        assert np.abs(c.ddg - want).max() <= 1e-9, name
    assert {"char-plane", "general-plane", "counterexample", "hyperbolic"} <= names


def test_tracing_costs_at_most_four_gradients_per_step(monkeypatch):
    gradients, steps = [0], [0]
    gradient, rk4 = ScalarField2.gradient, seed_module.rk4_integrate

    def counted_gradient(x, y):
        gradients[0] += 1
        return gradient(HYP.h, x, y)

    def counted_rk4(*args):
        out = rk4(*args)
        steps[0] += len(out.points) - 1
        return out

    monkeypatch.setattr(HYP.h, "gradient", counted_gradient)
    monkeypatch.setattr(seed_module, "rk4_integrate", counted_rk4)
    extract_seed(HYP, (0.0, 1.0), 1.0)
    assert steps[0] == 200
    # per step: four RK4 stages (gamma' and gamma'' are read by array code);
    # once per seed: the check at z0
    assert gradients[0] <= 4 * steps[0] + 3


# -- lookups over arrays of s against the scalar lookups -----------------------


def _lookup_curves():
    catenoid = gallery_get("catenoid")
    one = (np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))
    return [catenoid.ruled().seed, optreg2_seed(), extract_seed(FLAT, (1.0, 0.0), 1.0),
            extract_seed(CATENOID, (2.0, 0.0), 1.0),
            circle_seed((0.0, 0.0), (1.0, 0.0), (-2.0, 2.0)),
            line_seed((0.0, 1.0), (-1.0, 0.0), (-2.0, 2.0)),
            SeedCurve(*one), SeedCurve(*one, gamma_fn=lambda s: (s, full(s, 0.0)))]


def _scalar_loop(fn, values):
    """fn at each value in turn: the reprs of the results, or the first error."""
    out = []
    for v in values:
        try:
            out.append(repr(fn(v)))
        except Exception as err:
            return (type(err), str(err))
    return out


def _array_call(fn, values):
    """fn over the array of values: the reprs of its elements, or its error."""
    try:
        x, y = fn(np.array(values, dtype=float))
    except Exception as err:
        return (type(err), str(err))
    assert isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
    return [repr(pair) for pair in zip(x.tolist(), y.tolist())]


def test_array_lookups_match_the_scalar_lookups():
    for c in _lookup_curves():
        if len(c.s) >= 2:
            lo, hi = c.s_min, c.s_max
            inside = (c.s.tolist() + (0.5 * (c.s[1:] + c.s[:-1])).tolist()
                      + [lo - _RANGE_SLOP, lo + _RANGE_SLOP, hi - _RANGE_SLOP, hi + _RANGE_SLOP,
                         math.nan])
            queries = [inside, inside[::-1], [], [hi + 4 * _RANGE_SLOP],
                       inside[:5] + [lo - 4 * _RANGE_SLOP, hi + 4 * _RANGE_SLOP],
                       [math.nan, math.inf, -math.inf]]
        else:
            queries = [[], [0.0], [math.nan, 1.0]]
        for which in ("point", "tangent", "second"):
            lookup = getattr(c, which)
            for values in queries:
                want = _scalar_loop(lookup, values)
                assert _array_call(lookup, values) == want, (which, values)


def test_array_lookup_names_the_first_s_out_of_range():
    c = extract_seed(FLAT, (1.0, 0.0), 1.0)
    for which in ("point", "tangent", "second"):
        with pytest.raises(OutOfRange, match=r"^s=2\.5 outside sampled range"):
            getattr(c, which)(np.array([0.0, 2.5, -3.0, 0.5]))


def test_closed_form_array_lookup_raises_what_the_scalar_loop_raises_first():
    # gamma_fn raises ValueError below s = -0.5, inside the range; s = 2 is out of it
    c = SeedCurve(np.linspace(-1.0, 1.0, 5), np.zeros((5, 2)), np.zeros((5, 2)),
                  np.zeros((5, 2)),
                  gamma_fn=lambda s: (ex.pointwise(math.sqrt, s + 0.5), full(s, 0.0)))
    for values, error in (([0.5, -0.75, 2.0], ValueError), ([0.5, 2.0, -0.75], OutOfRange),
                          ([0.25, 1.0], None)):
        got = _array_call(c.point, values)
        assert got == _scalar_loop(c.point, values), values
        assert got[0] is error if error else len(got) == 2
