"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one line: ``ACCEPTANCE <n> <PASS|FAIL> <name>: measured
<value> (tolerance <tol>)``.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines; the asserts carry the same numbers either way.
"""

import math
from dataclasses import replace

import numpy as np

from hmin import expr as ex
from hmin.fields import Profile, cumulative_integral, square
from hmin.gallery import gallery_get, max_curvature_deviation
from hmin.heis import HPoint
from hmin.ruled import (RuledPatch, _chart_nu, characteristic_locus, classify_entire_graph,
                        curvature_on_patch, locus_branch_slope, roundtrip, w_direct,
                        w_direct_invert)
from hmin.seed import SeedCurve, extract_seed, rule_jacobian_det, rule_jacobian_det_fd
from hmin.surface import GraphPatch, rotate_graph, translate_graph

MINIMAL_ENTRIES = ["char-plane", "general-plane", "hyperbolic", "catenoid",
                   "counterexample", "cylinder", "gencurve-3"]


def report(number: int, name: str, measured: float, tol: float) -> None:
    ok = measured <= tol
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'} {name}: "
          f"measured {measured:.3e} (tolerance {tol:.1e})")
    assert ok, f"criterion {number} ({name}): {measured} > {tol}"


def gallery_ruled_patches():
    patches = []
    for name in ("char-plane", "hyperbolic", "counterexample", "catenoid",
                 "gencurve-3", "optreg2"):
        patches.append((name, gallery_get(name).ruled()))
    s1, s2 = gallery_get("cylinder").ruled_pair()
    patches.append(("cylinder-upper", s1))
    patches.append(("cylinder-lower", s2))
    return patches


def chart_samples(patch, n_s=9, n_r=9, r_fallback=1.5):
    r_lo, r_hi = (-r_fallback, r_fallback) if patch.r_range is None else patch.r_range
    for s in np.linspace(*patch.s_range, n_s)[1:-1]:
        for r in np.linspace(r_lo, r_hi, n_r):
            s, r = float(s), float(r)
            if abs(rule_jacobian_det(patch.seed, s, r)) <= 0.15:
                continue
            try:
                if abs(patch.w(s, r)) < 1e-3:
                    continue
            except Exception:
                continue
            yield s, r


def test_criterion_01_gallery_minimality():
    worst_analytic, worst_fd = 0.0, 0.0
    for name in MINIMAL_ENTRIES:
        entry = gallery_get(name)
        dev = max_curvature_deviation(entry.graph, entry.verify_domain, 101, 101)
        worst_analytic = max(worst_analytic, dev)
        dev_fd = max_curvature_deviation(entry.graph.fd_only(), entry.verify_domain,
                                         101, 101)
        worst_fd = max(worst_fd, dev_fd)
    report(1, "gallery minimality (analytic)", worst_analytic, 1e-8)
    report(1, "gallery minimality (FD)", worst_fd, 1e-4)


def test_criterion_02_constant_curvature_profile():
    entry = gallery_get("iso-profile", R=1.0)
    dev_fd = max_curvature_deviation(entry.graph.fd_only(), entry.verify_domain,
                                     101, 101, expect=2.0)
    report(2, "iso-profile H = 2.0 (FD annulus)", dev_fd, 1e-4)
    dev = max_curvature_deviation(entry.graph, entry.verify_domain, 101, 101,
                                  expect=2.0)
    report(2, "iso-profile H = 2.0 (analytic)", dev, 1e-4)


def test_criterion_03_seed_extraction():
    flat = gallery_get("char-plane").graph
    c = extract_seed(flat, (1.0, 0.0), math.pi)
    worst = 0.0
    for s in np.linspace(c.s_min, c.s_max, 201):
        s = float(s)
        g = c.point(s)
        err = math.hypot(g[0] - math.cos(s), g[1] - math.sin(s)) / max(1.0, abs(s))
        worst = max(worst, err)
    report(3, "char-plane seed = unit circle", worst, 1e-8)

    entry = gallery_get("catenoid")
    c = extract_seed(entry.graph, (2.0, 0.0), 1.0)
    worst = 0.0
    for s in np.linspace(-1.0, 0.0, 101):
        g = c.point(float(s))
        worst = max(worst, abs(g[0] ** 2 + g[1] ** 2
                               - entry.radius_law((2.0, 0.0), float(s))))
    report(3, "catenoid radius law", worst, 1e-6)


def test_criterion_04_representation_roundtrip():
    worst = 0.0
    for name, z0, arc_span, r_span in (("hyperbolic", (0.0, 1.0), 1.0, 0.5),
                                       ("char-plane", (1.0, 0.0), 1.0, 0.5),
                                       ("counterexample", (1.0, 0.0), 0.8, 0.4)):
        graph = gallery_get(name).graph
        worst = max(worst, roundtrip(graph, extract_seed(graph, z0, arc_span), arc_span, r_span))
    report(4, "representation round-trip", worst, 1e-5)


def test_criterion_05_jacobian_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    seeds = []
    for name, z0, span in (("char-plane", (1.0, 0.0), 1.5),
                           ("hyperbolic", (0.0, 1.0), 1.2),
                           ("catenoid", (2.0, 0.0), 0.8),
                           ("counterexample", (1.0, 0.0), 0.7)):
        seeds.append(extract_seed(gallery_get(name).graph, z0, span))
    seeds.append(gallery_get("cylinder").ruled().seed)
    seeds.append(gallery_get("optreg2").ruled().seed)
    for c in seeds:
        lo, hi = c.s_min + 0.02, c.s_max - 0.02
        for _ in range(1000):
            s = float(rng.uniform(lo, hi))
            r = float(rng.uniform(-2.0, 2.0))
            worst = max(worst, abs(rule_jacobian_det(c, s, r)
                                   - rule_jacobian_det_fd(c, s, r)))
    report(5, "det DF = -1 + r kappa vs FD (6000 samples)", worst, 1e-6)


def test_criterion_06_w_formula_oracle():
    worst = 0.0
    for name, patch in gallery_ruled_patches():
        for s, r in chart_samples(patch):
            worst = max(worst, abs(abs(patch.w(s, r)) - w_direct(patch, s, r)))
    report(6, "W formula vs direct angle function", worst, 1e-6)
    # sanity: the fully independent inversion route agrees too
    patch = gallery_get("char-plane").ruled()
    dev = max(abs(abs(patch.w(s, r)) - w_direct_invert(patch, s, r))
              for s, r in list(chart_samples(patch, 5, 5))[:10])
    report(6, "W formula vs Newton-inverted heights", dev, 1e-6)


def test_criterion_07_characteristic_loci():
    rep = characteristic_locus(gallery_get("char-plane").ruled(), n_s=101)
    assert {lab for _, lab in rep.labels} == {"double-root"}
    worst_r = max(abs(rep.r + 1.0))
    worst_img = max(np.hypot(rep.x, rep.y) + abs(rep.t))
    report(7, "char-plane double root r = -|z|", worst_r, 1e-9)
    report(7, "char-plane locus image = origin", worst_img, 1e-9)

    rep = characteristic_locus(gallery_get("hyperbolic").ruled(), n_s=101)
    assert {lab for _, lab in rep.labels} == {"kappa-zero"}
    worst_r = max(abs(rep.r + 1.0))   # r = -y, y = 1
    worst_img = max(abs(rep.y) + abs(rep.t))
    report(7, "hyperbolic root r = -y", worst_r, 1e-9)
    report(7, "hyperbolic locus image on x-axis", worst_img, 1e-9)

    rep = characteristic_locus(gallery_get("counterexample").ruled(), n_s=101)
    report(7, "counterexample locus empty", float(len(rep.s)), 0.0)

    patch = gallery_get("optreg2").ruled()
    rep = characteristic_locus(patch, n_s=41)
    at0 = rep.r[rep.s == 0.0]
    report(7, "optreg2 branch value at s=0", abs(at0[0] - 1.0), 1e-9)
    sp = locus_branch_slope(patch, 0.0, +1)
    sm = locus_branch_slope(patch, 0.0, -1)
    report(7, "optreg2 one-sided slope jump = 1.0", abs(abs(sp - sm) - 1.0), 1e-3)


def test_criterion_08_frobenius_ode_residual():
    worst = 0.0
    for name, patch in gallery_ruled_patches():
        for s, r in chart_samples(patch):
            worst = max(worst, patch.w_ode_residual(s, r))
    report(8, "Frobenius ODE residual", worst, 1e-6)


def random_trig_seed(rng) -> tuple[SeedCurve, Profile]:
    a = rng.uniform(-0.7, 0.7, size=3)
    b = rng.uniform(-0.7, 0.7, size=3)
    a0 = rng.uniform(-1.0, 1.0)

    # a float s or an array of s, as every callable the package stores
    def cos(s):
        return ex.pointwise(math.cos, s)

    def sin(s):
        return ex.pointwise(math.sin, s)

    def theta(s):
        return a0 * s + sum(a[k] * cos((k + 1) * s) + b[k] * sin((k + 1) * s)
                            for k in range(3))

    def dtheta(s):
        return a0 + sum(-(k + 1) * a[k] * sin((k + 1) * s)
                        + (k + 1) * b[k] * cos((k + 1) * s) for k in range(3))

    def dgamma(s):
        return (cos(theta(s)), sin(theta(s)))

    def ddgamma(s):
        return (-sin(theta(s)) * dtheta(s), cos(theta(s)) * dtheta(s))

    grid = np.linspace(-1.0, 1.0, 201)
    gx = cumulative_integral(lambda v: cos(theta(v)), grid, tol=1e-11)
    gy = cumulative_integral(lambda v: sin(theta(v)), grid, tol=1e-11)
    g = np.column_stack([gx, gy])
    dg = np.array([dgamma(float(s)) for s in grid])
    ddg = np.array([ddgamma(float(s)) for s in grid])
    curve = SeedCurve(grid, g, dg, ddg, dgamma_fn=dgamma, ddgamma_fn=ddgamma)

    c = rng.uniform(-0.8, 0.8, size=3)

    def h0f(s):
        return c[0] * s + c[1] * sin(s) + c[2] * cos(2 * s)

    def h0d(s):
        return c[0] + c[1] * cos(s) - 2 * c[2] * sin(2 * s)

    return curve, Profile(f=h0f, d1=h0d)


def test_criterion_09_representation_sufficiency_randomized():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        curve, h0 = random_trig_seed(rng)
        patch = RuledPatch(curve, h0, (-1.0, 1.0), (-0.8, 0.8))
        for s, r in chart_samples(patch, 5, 5, r_fallback=0.8):
            worst = max(worst, abs(curvature_on_patch(patch, s, r)))
    report(9, "randomized seed/height minimality (50 builds)", worst, 1e-5)


def test_criterion_10_classifier():
    out = classify_entire_graph(GraphPatch.from_expr("(4 - x - 2*y)/2", square(3.0)))
    assert out["kind"] == "class1"
    a, b, c, d = out["plane"]
    scale = 1.0 / a
    plane_dev = max(abs(a * scale - 1), abs(b * scale - 2), abs(c * scale - 2), abs(d * scale - 4))
    sigma = out["sigma"]
    sigma_dev = max(abs(sigma[0] + 2), abs(sigma[1] - 1), abs(sigma[2] - 2))
    report(10, "classify plane -> Class1(1,2,2,4)", plane_dev, 1e-7)
    report(10, "classify plane Sigma = (-2,1,2)", sigma_dev, 1e-7)

    out = classify_entire_graph(GraphPatch.from_expr("x*y/2", square(3.0)))
    report(10, "classify t=xy/2 -> Class2", 0.0 if out["kind"] == "class2" else 1.0, 0.0)

    out = classify_entire_graph(GraphPatch.from_expr("(x^2+y^2)/4", square(3.0)))
    report(10, "classify paraboloid -> NotMinimal",
           0.0 if out["kind"] == "not-minimal" else 1.0, 0.0)


def test_criterion_11_symmetry_invariance():
    rng = np.random.default_rng(1)
    hyp = gallery_get("hyperbolic")
    cat = gallery_get("catenoid")
    worst = 0.0
    for _ in range(20):
        g0 = HPoint(*(float(v) for v in rng.uniform(-1.0, 1.0, size=3)))
        for entry in (hyp, cat):
            moved = translate_graph(entry.graph, g0)
            dom = entry.verify_domain
            from hmin.fields import PlanarDomain
            vdom = PlanarDomain(dom.xmin + g0.x, dom.xmax + g0.x,
                                dom.ymin + g0.y, dom.ymax + g0.y,
                                moved.domain.membership)
            worst = max(worst, max_curvature_deviation(moved, vdom, 21, 21))
    report(11, "left-translation invariance (20 elements)", worst, 1e-6)

    worst = 0.0
    for _ in range(20):
        theta = float(rng.uniform(0.0, 2 * math.pi))
        for entry in (hyp, cat):
            moved = rotate_graph(entry.graph, theta)
            worst = max(worst, max_curvature_deviation(moved, moved.domain, 21, 21))
    report(11, "rotation invariance (20 angles)", worst, 1e-6)


def test_criterion_12_cylinder_gluing():
    s1, s2 = gallery_get("cylinder").ruled_pair()
    from hmin.meshes import mesh_ruled
    worst = 0.0
    for patch in (s1, s2):
        mesh = mesh_ruled(replace(patch, r_range=(-2.0, 2.0)), 50, 50)
        for x, y, t in mesh.vertices:
            worst = max(worst, abs((t - x * y / 2) ** 2 - (1 - x * x)))
    report(12, "cylinder union satisfies (t - xy/2)^2 = 1 - x^2", worst, 1e-9)

    worst = 0.0
    for patch in (s1, s2):
        for s in np.linspace(-0.9, 0.9, 13):
            for r in np.linspace(-1.5, 1.5, 13):
                s, r = float(s), float(r)
                if abs(patch.w(s, r)) < 1e-2:   # skip near the characteristic set
                    continue
                nu1, nu2 = _chart_nu(patch, s, r)
                worst = max(worst, abs(abs(nu1) - 1.0), abs(nu2))
    report(12, "cylinder Gauss map piecewise (+-1, 0)", worst, 1e-9)
