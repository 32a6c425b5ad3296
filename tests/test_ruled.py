import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from hmin import expr as ex
from hmin import gallery as gallery_module
from hmin import ruled as ruled_module
from hmin import seed as seed_module
from hmin.errors import FieldUndefined, OutOfRange, SingularRule
from hmin.fields import PlanarDomain, Profile, full, square
from hmin.gallery import (circle_seed, gallery_get, gallery_names, gallery_verify, line_seed,
                          optreg2_seed)
from hmin.heis import HPoint, group_mul
from hmin.ruled import (GeneralizedSeedCurve, GSCJoin, GSCPiece, RuledPatch, build_surface,
                        characteristic_locus, chart_samples, classify_entire_graph,
                        constant_curvature_test, curvature_on_patch,
                        invert_chart, roundtrip, rule, validate_gsc, w_direct,
                        w_direct_invert)
from hmin.seed import SeedCurve, curvature, extract_seed
from hmin.surface import GraphPatch


def cylinder_patch(sign=1.0, r_range=(-2.0, 2.0)):
    s_range = (-0.95, 0.95)
    h0 = Profile(f=lambda s: sign * ex.pointwise(math.sqrt, 1 - s * s),
                 d1=lambda s: -sign * s / ex.pointwise(math.sqrt, 1 - s * s))
    return RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), s_range), h0, s_range, r_range)


def flat_patch():
    return RuledPatch(circle_seed((0.0, 0.0), (1.0, 0.0), (-math.pi, math.pi)),
                      Profile.from_expr("0"), (-math.pi, math.pi), (-0.5, 0.5))


def hyperbolic_patch():
    return RuledPatch(line_seed((0.0, 1.0), (-1.0, 0.0), (-1.5, 1.5)),
                      Profile.from_expr("-s/2"), (-1.5, 1.5), (-0.5, 0.5))


# -- construction -------------------------------------------------------------


def test_cylinder_points_satisfy_the_implicit_form():
    patch = cylinder_patch()
    for s in np.linspace(-0.9, 0.9, 21):
        for r in np.linspace(-2, 2, 21):
            g = patch.embed(float(s), float(r))
            assert g.x == pytest.approx(float(s))
            assert g.y == pytest.approx(-float(r))
            assert (g.t - g.x * g.y / 2) ** 2 == pytest.approx(1 - g.x ** 2, abs=1e-12)


def test_gencurve_points_satisfy_the_cubic_form():
    s_range = (0.05, 1.5)
    patch = RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), s_range),
                       Profile(f=lambda s: s ** (1.0 / 3.0)), s_range, (-1.0, 1.0))
    for s in np.linspace(0.1, 1.4, 11):
        for r in np.linspace(-1, 1, 11):
            g = patch.embed(float(s), float(r))
            assert (g.t - g.x * g.y / 2) ** 3 == pytest.approx(g.x, abs=1e-10)


def test_r_zero_is_the_lifted_seed():
    patch = cylinder_patch()
    g = patch.embed(0.3, 0.0)
    assert (g.x, g.y, g.t) == pytest.approx((0.3, 0.0, math.sqrt(1 - 0.09)))


def test_build_surface_rejects_non_arclength_seed():
    bad = line_seed((0.0, 0.0), (1.0, 0.0), (-1.0, 1.0))
    bad.dgamma_fn = lambda s: (full(s, 2.0), full(s, 0.0))   # deliberately not unit
    from hmin.errors import HminError
    with pytest.raises(HminError):
        build_surface(bad, Profile.from_expr("0"), (-1.0, 1.0), (-1.0, 1.0))


def test_representation_sufficiency_for_arbitrary_data():
    # any arclength seed + any C^1 height gives a minimal patch where graph-valid
    rng = np.random.default_rng(0)
    for _ in range(5):
        coef = rng.uniform(-0.5, 0.5, size=4)

        def theta(s):
            return (coef[0] * ex.pointwise(math.sin, s) + coef[1] * ex.pointwise(math.cos, 2 * s)
                    + coef[2] * s)

        def cos_sin(s):
            th = theta(s)
            return ex.pointwise(math.cos, th), ex.pointwise(math.sin, th)

        def gamma(s):
            from hmin.fields import adaptive_simpson
            # each coordinate an adaptive Simpson integral from 0, one per s
            return tuple(ex.pointwise(lambda v, i=i: adaptive_simpson(
                lambda u: cos_sin(u)[i], 0.0, v, 1e-11), s) for i in (0, 1))

        from hmin.seed import SeedCurve
        curve = SeedCurve.from_callables(
            gamma,
            cos_sin,
            lambda s: (-cos_sin(s)[1] * _dtheta(coef, s), cos_sin(s)[0] * _dtheta(coef, s)),
            (-1.0, 1.0), n_samples=101)
        h0 = Profile.from_expr(f"({float(coef[3])!r})*sin(s) + s/3")
        patch = build_surface(curve, h0, (-1.0, 1.0), (-0.8, 0.8))
        for s in np.linspace(-0.8, 0.8, 5):
            for r in np.linspace(-0.7, 0.7, 5):
                s, r = float(s), float(r)
                det = -1.0 + r * curvature(curve, s)
                if abs(det) <= 0.15 or abs(patch.w(s, r)) < 1e-2:
                    continue
                assert abs(curvature_on_patch(patch, s, r)) <= 1e-6


def _newton_curvature(patch, s, r):
    """H of the built patch through Newton inversion, the oracle of
    ``curvature_on_patch``: the chain-rule gradient at chart points
    inverted from planar points around F(s, r), differenced at 1e-6 for
    the Hessian, in p/q form."""
    x, y = seed_module.rule_point(patch.seed, s, r)
    step = 1e-6

    def grad(px, py):
        return ruled_module._chart_point_gradient(patch, *invert_chart(patch, (px, py), (s, r)))[1]

    gxp, gxm, gyp, gym = (grad(x + step, y), grad(x - step, y),
                          grad(x, y + step), grad(x, y - step))
    hxx = (gxp[0] - gxm[0]) / (2 * step)
    hyy = (gyp[1] - gym[1]) / (2 * step)
    hxy = 0.5 * ((gyp[0] - gym[0]) / (2 * step) + (gxp[1] - gxm[1]) / (2 * step))
    hx, hy = grad(x, y)
    p, q = -(hx + 0.5 * y), -(hy - 0.5 * x)
    p_x, p_y, q_x, q_y = -hxx, -(hxy + 0.5), -(hxy - 0.5), -hyy
    return (q * q * p_x + p * p * q_y - p * q * (q_x + p_y)) / math.hypot(p, q) ** 3


RULED_ENTRIES = [name for name in gallery_names() if gallery_get(name).ruled is not None]


def _chart_pairs(patch, n, **kwargs):
    """The samples of ``chart_samples``, as a list of (s, r) floats."""
    return list(zip(*(a.tolist() for a in chart_samples(patch, n, **kwargs))))


@pytest.mark.parametrize("name", RULED_ENTRIES)
def test_chart_curvature_agrees_with_the_newton_route(name):
    patch = gallery_get(name).ruled()
    samples = _chart_pairs(patch, 9)
    assert samples
    for s, r in samples:
        assert abs(curvature_on_patch(patch, s, r) - _newton_curvature(patch, s, r)) <= 1e-7


@pytest.mark.parametrize("name", RULED_ENTRIES)
def test_chart_curvature_sees_a_perturbed_height(monkeypatch, name):
    # dh/dr raised by 1e-3 r: grad h = J^-T (dh/ds, dh/dr) moves by J^-T (0, 1e-3 r)
    exact = ruled_module._chart_point_gradient

    def perturbed(patch, s, r):
        point, (hx, hy) = exact(patch, s, r)
        j = seed_module.rule_jacobian(patch.seed, s, r)
        det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
        return point, (hx - j[1][0] * 1e-3 * r / det, hy + j[0][0] * 1e-3 * r / det)

    monkeypatch.setattr(ruled_module, "_chart_point_gradient", perturbed)
    patch = gallery_get(name).ruled()
    samples = _chart_pairs(patch, 9)
    chart = max(abs(curvature_on_patch(patch, s, r)) for s, r in samples)
    newton = max(abs(_newton_curvature(patch, s, r)) for s, r in samples)
    assert chart > 1e-4 and newton > 1e-4, (chart, newton)


def _dtheta(coef, s):
    return (coef[0] * ex.pointwise(math.cos, s) - 2 * coef[1] * ex.pointwise(math.sin, 2 * s)
            + coef[2])


# -- angle function -----------------------------------------------------------


def test_w0_flat_plane():
    patch = flat_patch()
    for s in np.linspace(-3, 3, 13):
        assert patch.w0(float(s)) == pytest.approx(0.5, abs=1e-14)


def test_w0_hyperbolic():
    patch = hyperbolic_patch()
    assert patch.w0(0.4) == pytest.approx(1.0, abs=1e-12)


def test_w0_matches_direct_angle_function():
    for patch in (flat_patch(), hyperbolic_patch(), cylinder_patch()):
        for s in np.linspace(*patch.s_range, 9)[1:-1]:
            s = float(s)
            assert abs(abs(patch.w(s, 0.0)) - w_direct(patch, s, 0.0)) <= 1e-6


def test_optreg2_height_choice_gives_w0_minus_one():
    patch = gallery_get("optreg2").ruled()
    for s in np.linspace(-0.9, 0.9, 19):
        assert patch.w0(float(s)) == pytest.approx(-1.0, abs=1e-12)


def test_w_field_flat_plane():
    patch = flat_patch()
    for r in (-0.4, 0.0, 0.3):
        assert patch.w(0.2, r) == pytest.approx((1 + r) / 2, abs=1e-12)


def test_w_field_hyperbolic():
    patch = hyperbolic_patch()
    for r in (-0.5, 0.0, 0.5):
        assert patch.w(0.1, r) == pytest.approx(1.0 + r, abs=1e-12)


def test_w_field_singular_rule():
    patch = flat_patch()
    with pytest.raises(SingularRule):
        patch.w(0.0, -1.0)   # 1 - r*kappa = 0 exactly


def test_w_direct_invert_agrees_with_chain():
    patch = cylinder_patch()
    for s, r in [(0.2, 0.5), (-0.4, -1.2)]:
        assert w_direct(patch, s, r) == pytest.approx(w_direct_invert(patch, s, r), abs=1e-6)


def test_w_ode_residual():
    for patch in (flat_patch(), hyperbolic_patch(), cylinder_patch()):
        for s in np.linspace(*patch.s_range, 7)[1:-1]:
            for r in (-0.4, 0.0, 0.4):
                if abs(1 - r * curvature(patch.seed, float(s))) < 1e-6:
                    continue
                assert patch.w_ode_residual(float(s), r) <= 1e-8


# -- characteristic locus -----------------------------------------------------


def test_locus_flat_plane_double_root():
    rep = characteristic_locus(flat_patch(), n_s=31)
    assert {lab for _, lab in rep.labels} == {"double-root"}
    for r, x, y, verified in zip(rep.r, rep.x, rep.y, rep.verified):
        assert r == pytest.approx(-1.0, abs=1e-12)
        assert math.hypot(x, y) <= 1e-9
        assert verified


def test_locus_hyperbolic_single_root():
    rep = characteristic_locus(hyperbolic_patch(), n_s=31)
    assert {lab for _, lab in rep.labels} == {"kappa-zero"}
    for r, y, t, verified in zip(rep.r, rep.y, rep.t, rep.verified):
        assert r == pytest.approx(-1.0, abs=1e-12)   # r = -y with y = 1
        assert abs(y) <= 1e-12 and abs(t) <= 1e-12
        assert verified


def test_locus_counterexample_empty():
    patch = gallery_get("counterexample").ruled()
    rep = characteristic_locus(patch, n_s=31)
    assert rep.empty
    assert {lab for _, lab in rep.labels} == {"none"}


def test_locus_optreg2_case_split_and_corner():
    patch = gallery_get("optreg2").ruled()
    rep = characteristic_locus(patch, n_s=41)
    labels = dict(rep.labels)
    assert labels[0.0] == "kappa-zero"
    assert labels[1.0] == "two-roots"
    at0 = rep.r[rep.s == 0.0]
    assert len(at0) == 1 and at0[0] == pytest.approx(1.0, abs=1e-12)
    for s, r in zip(rep.s.tolist(), rep.r.tolist()):
        if s != 0.0 and r > 0:
            want = (math.sqrt(1 + 2 * abs(s)) - 1) / abs(s)
            assert r == pytest.approx(want, abs=1e-10)


def test_locus_double_root_case():
    # W0*kappa = -1/2 exactly: circle seed radius 2 (kappa=-1/2), W0 = 1
    seed_c = circle_seed((0.0, 0.0), (2.0, 0.0), (-2.0, 2.0))
    h0 = Profile(f=lambda s: -0.0, d1=lambda s: 0.0)
    patch = RuledPatch(seed_c, h0, (-2.0, 2.0), (-0.5, 0.5))
    assert patch.w0(0.1) == pytest.approx(1.0)
    rep = characteristic_locus(patch, n_s=11)
    assert {lab for _, lab in rep.labels} == {"double-root"}
    for r in rep.r:
        assert r == pytest.approx(-2.0, abs=1e-10)


def test_locus_no_root_case():
    # W0*kappa < -1/2: same circle but with a height slope pushing W0 up
    seed_c = circle_seed((0.0, 0.0), (2.0, 0.0), (-2.0, 2.0))
    h0 = Profile(f=lambda s: -s, d1=lambda s: -1.0)   # W0 = 1 + 1 = 2
    patch = RuledPatch(seed_c, h0, (-2.0, 2.0), (-0.5, 0.5))
    rep = characteristic_locus(patch, n_s=11)
    assert rep.empty and {lab for _, lab in rep.labels} == {"none"}


def test_locus_two_root_case_verified():
    # W0*kappa > -1/2: lower the angle function along the seed
    seed_c = circle_seed((0.0, 0.0), (2.0, 0.0), (-2.0, 2.0))
    h0 = Profile(f=lambda s: 0.25 * s, d1=lambda s: 0.25)  # W0 = 0.75
    patch = RuledPatch(seed_c, h0, (-2.0, 2.0), (-0.5, 0.5))
    rep = characteristic_locus(patch, n_s=11)
    assert {lab for _, lab in rep.labels} == {"two-roots"}
    disc = math.sqrt(1 + 2 * 0.75 * (-0.5))
    want = sorted([(1 - disc) / -0.5, (1 + disc) / -0.5])
    for r, verified in zip(rep.r, rep.verified):
        assert verified
        assert min(abs(r - want[0]), abs(r - want[1])) <= 1e-10


# -- rules as geodesics -------------------------------------------------------


def test_rule_group_form_matches_parameterization():
    rng = np.random.default_rng(4)
    for patch in (flat_patch(), cylinder_patch(), hyperbolic_patch()):
        for _ in range(20):
            s = float(rng.uniform(*patch.s_range))
            r = float(rng.uniform(-1.0, 1.0))
            ln = rule(patch, s)
            a, b = ln.point(r), patch.embed(s, r)
            assert max(abs(a.x - b.x), abs(a.y - b.y), abs(a.t - b.t)) <= 1e-12


def test_rule_base_and_direction():
    patch = cylinder_patch()
    ln = rule(patch, 0.0)
    assert (ln.base.x, ln.base.y, ln.base.t) == (0.0, 0.0, 1.0)
    assert (ln.direction.x, ln.direction.y, ln.direction.t) == (0.0, -1.0, 0.0)
    p = ln.point(0.7)
    assert (p.x, p.y, p.t) == pytest.approx((0.0, -0.7, 1.0))
    assert (p.t - p.x * p.y / 2) ** 2 == pytest.approx(1 - p.x ** 2)


def test_rule_direction_is_unit_horizontal():
    patch = hyperbolic_patch()
    ln = rule(patch, 0.3)
    assert ln.direction.t == 0.0
    assert math.hypot(ln.direction.x, ln.direction.y) == pytest.approx(1.0)


def test_rule_out_of_range():
    with pytest.raises(OutOfRange):
        rule(flat_patch(), 9.0)


# -- extension ----------------------------------------------------------------


def test_extend_hyperbolic_keeps_the_closed_form():
    patch = RuledPatch(line_seed((0.0, 1.0), (-1.0, 0.0), (-1.5, 1.5)),
                       Profile.from_expr("-s/2"), (-1.5, 1.5), (-0.5, 0.5))
    ext = replace(patch, r_range=None)
    assert ext.r_range is None
    for s in np.linspace(-1.4, 1.4, 7):
        for r in (-30.0, -3.0, 4.0, 50.0):
            g = ext.embed(float(s), r)
            assert abs(g.t - g.x * g.y / 2) <= 1e-10


def test_extend_cylinder_keeps_the_closed_form():
    ext = replace(cylinder_patch(), r_range=None)
    for s in (-0.9, 0.0, 0.5):
        for r in (-40.0, -2.0, 35.0):
            g = ext.embed(s, r)
            assert (g.t - g.x * g.y / 2) ** 2 == pytest.approx(1 - g.x ** 2, abs=1e-9)


def test_extend_flat_plane_across_the_fold():
    ext = replace(flat_patch(), r_range=None)
    for r in (-3.0, -1.5, 2.0):
        assert ext.embed(0.3, r).t == 0.0


# -- generalized seed curves --------------------------------------------------


def test_validate_gencurve_gsc():
    assert validate_gsc(gallery_get("gencurve-3").gsc()) == 0.0


def test_validate_catenoid_two_sheet_gsc():
    assert validate_gsc(gallery_get("catenoid").gsc()) <= 1e-9


def test_validate_gsc_detects_gap():
    p1 = GSCPiece(line_seed((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)), -1.0, 0.0)
    p2 = GSCPiece(line_seed((0.5, 0.0), (1.0, 0.0), (0.0, 1.0)), 0.0, 1.0)
    assert validate_gsc(GeneralizedSeedCurve([p1, p2], [GSCJoin("b", "a")])) == pytest.approx(0.5)


def test_validate_gsc_without_joins_measures_nothing():
    piece = GSCPiece(line_seed((0.0, 0.0), (1.0, 0.0), (-1.0, 1.0)), -1.0, 1.0)
    assert math.isnan(validate_gsc(GeneralizedSeedCurve([piece])))


@pytest.mark.parametrize("gaps", [(0.0, math.nan), (math.nan, 0.0)])
def test_max_gap_keeps_a_nan_gap(monkeypatch, gaps):
    # a closed chain of two pieces on the x-axis whose joins have these
    # gaps: one piece is undefined at its end s = 1
    def undefined_end(s):
        return (ex.pointwise(lambda t: math.nan if t >= 1.0 else t, s), full(s, 0.0))

    curve = SeedCurve.from_callables(undefined_end, lambda s: (full(s, 1.0), full(s, 0.0)),
                                     lambda s: (full(s, 0.0), full(s, 0.0)), (0.0, 1.0))
    pieces = [GSCPiece(curve, 0.0, 1.0),
              GSCPiece(line_seed((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)), -1.0, 0.0)]
    if math.isnan(gaps[1]):
        pieces.reverse()
    gsc = GeneralizedSeedCurve(pieces, [GSCJoin("b", "a")] * 2)
    assert math.isnan(validate_gsc(gsc))
    # the battery's join check on it fails
    get = gallery_module.gallery_get
    monkeypatch.setattr(gallery_module, "gallery_get",
                        lambda name, **params: replace(get(name, **params), gsc=lambda: gsc))
    [check] = [c for c in gallery_verify("gencurve-3") if c.name == "gsc_joins"]
    assert not check.passed and check.note == "max gap nan"


def test_constant_curvature_gencurve_and_flat():
    ok, summary = constant_curvature_test(gallery_get("gencurve-3").gsc(), 1e-9)
    assert ok and all(abs(p["kappa"]) <= 1e-12 for p in summary)
    piece = GSCPiece(circle_seed((0.0, 0.0), (1.0, 0.0), (-2.0, 2.0)), -2.0, 2.0)
    ok, summary = constant_curvature_test(GeneralizedSeedCurve([piece]), 1e-9)
    assert ok and summary[0]["kappa"] == pytest.approx(-1.0)


def test_constant_curvature_rejects_optreg_seed():
    piece = GSCPiece(optreg2_seed(), -1.0, 1.0)
    ok, summary = constant_curvature_test(GeneralizedSeedCurve([piece]), 1e-3)
    assert not ok
    assert summary[0]["max_dev"] > 0.3


def test_constant_curvature_nan_sample_fails():
    # a straight seed whose second derivative is undefined past s = 0.5
    def second(s):
        v = ex.pointwise(lambda t: math.nan if t > 0.5 else 0.0, s)
        return (v, v)

    curve = SeedCurve.from_callables(
        lambda s: (s, full(s, 0.0)), lambda s: (full(s, 1.0), full(s, 0.0)), second, (-1.0, 1.0))
    piece = GSCPiece(curve, -1.0, 1.0)
    ok, summary = constant_curvature_test(GeneralizedSeedCurve([piece]), 1e-6)
    assert ok is False and math.isnan(summary[0]["max_dev"])


def test_pieces_may_have_different_constants():
    line = GSCPiece(line_seed((1.0, 0.0), (0.0, 1.0), (0.0, 1.0)), 0.0, 1.0)
    circ = GSCPiece(circle_seed((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)), -1.0, 0.0, name="arc")
    gsc = GeneralizedSeedCurve([circ, line], [GSCJoin("b", "a")])
    assert validate_gsc(gsc) <= 1e-9
    ok, summary = constant_curvature_test(gsc, 1e-6)
    assert ok
    assert summary[0]["kappa"] == pytest.approx(-1.0)
    assert summary[1]["kappa"] == pytest.approx(0.0, abs=1e-12)


# -- round-trip and classification --------------------------------------------


def test_roundtrip_hyperbolic():
    patch = GraphPatch.from_expr("x*y/2", square(3.0))
    assert roundtrip(patch, extract_seed(patch, (0.0, 1.0), 1.0), 1.0, 0.5) <= 1e-6


def test_roundtrip_flat():
    patch = GraphPatch.from_expr("0", square(3.0))
    assert roundtrip(patch, extract_seed(patch, (1.0, 0.0), 1.0), 1.0, 0.5) <= 1e-6


def test_roundtrip_counterexample():
    entry = gallery_get("counterexample")
    assert roundtrip(entry.graph, extract_seed(entry.graph, (1.0, 0.0), 0.8), 0.8, 0.4) <= 1e-5


# the entries whose battery rebuilds the graph from the traced seed
ROUNDTRIP_ENTRIES = ("char-plane", "hyperbolic", "counterexample")


def count_seed_traces(monkeypatch) -> list:
    """Record the arguments of every extract_seed call of gallery and ruled."""
    calls, extract = [], seed_module.extract_seed

    def counted(*args, **kwargs):
        calls.append(args)
        return extract(*args, **kwargs)

    for module in (gallery_module, ruled_module):
        monkeypatch.setattr(module, "extract_seed", counted)
    return calls


@pytest.mark.parametrize("name", ROUNDTRIP_ENTRIES)
def test_gallery_battery_traces_each_seed_once(monkeypatch, name):
    calls = count_seed_traces(monkeypatch)
    checks = gallery_verify(name)
    assert "roundtrip" in {c.name for c in checks}
    assert len(calls) == 1


def test_roundtrip_entries_are_the_ones_that_check_it():
    assert tuple(n for n in gallery_names() if gallery_get(n).check_roundtrip) == ROUNDTRIP_ENTRIES


def test_classify_traces_the_seed_once(monkeypatch):
    calls = count_seed_traces(monkeypatch)
    out = classify_entire_graph(GraphPatch.from_expr("x*y/2 + 0.3*x + 0.1", square(3.0)))
    assert out["kind"] == "class2" and out["rebuild_error"] <= 1e-6
    assert len(calls) == 1


def test_invert_chart_roundtrip():
    patch = flat_patch()
    s0, r0 = 0.4, 0.2
    z = patch.embed(s0, r0)
    s, r = invert_chart(patch, (z.x, z.y), (0.3, 0.1))
    assert (s, r) == pytest.approx((s0, r0), abs=1e-10)


def test_classify_plane():
    patch = GraphPatch.from_expr("(4 - 1*x - 2*y)/2", square(3.0))
    out = classify_entire_graph(patch)
    assert out["kind"] == "class1"
    assert out["sigma"] == pytest.approx([-2.0, 1.0, 2.0], abs=1e-8)
    a, b, c, d = out["plane"]
    scale = 1.0 / a
    assert (a * scale, b * scale, c * scale, d * scale) == pytest.approx(
        (1.0, 2.0, 2.0, 4.0), abs=1e-8)


def test_classify_hyperbolic_is_class2():
    patch = GraphPatch.from_expr("x*y/2", square(3.0))
    out = classify_entire_graph(patch)
    assert out["kind"] == "class2"
    assert abs(out["direction"][0]) == pytest.approx(1.0, abs=1e-9)
    assert out["direction"][1] == pytest.approx(0.0, abs=1e-9)
    # h0 along a straight seed of t = xy/2, the line through the base point
    # in the reported direction, is linear in s
    (bx, by, _), (dx, dy) = out["base"], out["direction"]
    svals = np.linspace(-0.75, 0.75, 21)
    hvals = patch.h.value(bx + svals * dx, by + svals * dy)
    coef = np.polyfit(svals, hvals, 1)
    assert np.max(np.abs(np.polyval(coef, svals) - hvals)) <= 1e-9


def test_classify_quadratic_family_member():
    patch = GraphPatch.from_expr("x^2 - x*y/2", square(3.0))
    out = classify_entire_graph(patch)
    assert out["kind"] == "class2"
    assert out["alpha"] == pytest.approx(1.0, abs=1e-6)
    assert out["rebuild_error"] <= 1e-6


def test_classify_not_minimal():
    patch = GraphPatch.from_expr("(x^2+y^2)/4", square(3.0))
    out = classify_entire_graph(patch)
    assert out["kind"] == "not-minimal"
    assert out["max_curvature"] > 0.5


@pytest.mark.parametrize("ulps", [1, 4, 16])
def test_classify_names_the_first_of_nodes_tied_on_the_largest_curvature(monkeypatch, ulps):
    # the paraboloid's largest |H| is read at four mirror nodes, equal but for their last bits
    patch = GraphPatch.from_expr("(x^2+y^2)/4", square(3.0))
    read_nodes, first = ruled_module.read_nodes, []

    def nudged(patch, x, y, *args):
        t, w, h, error = read_nodes(patch, x, y, *args)
        tied = np.flatnonzero(abs(h) >= (1.0 - 1e-12) * np.nanmax(abs(h)))
        assert len(tied) == 4
        first.append([float(x[tied[0]]), float(y[tied[0]])])
        # each tied node a few ulp above the one before it, the first a few ulp down
        h[tied] *= 1.0 + ulps * np.finfo(float).eps * np.arange(-1, len(tied) - 1)
        nudged.peak = float(np.nanmax(abs(h)))
        return t, w, h, error

    monkeypatch.setattr(ruled_module, "read_nodes", nudged)
    out = classify_entire_graph(patch)
    assert out["at"] == first[0]
    # the largest |H| is still the one reported
    assert out["max_curvature"] == nudged.peak
    monkeypatch.undo()
    assert classify_entire_graph(patch)["at"] == first[0]


def test_classify_not_entire():
    dom = PlanarDomain(-3, 3, -3, 3, membership=lambda x, y: x > 0)
    patch = GraphPatch.from_expr("x*y/2", dom)
    out = classify_entire_graph(patch)
    assert out["kind"] == "not-entire"


@pytest.mark.parametrize("src,box,reason", [
    # every node of the window lies within 1e-7 of the characteristic line y = 0
    ("x*y/2", (-1.0, 1.0, -1e-7, 1e-7), "no usable non-characteristic base point"),
    # the counterexample: its t-graph seeds are circles, but it is no plane
    ("-atanh(atan(y/x))", (1.0, 2.0, -0.5, 0.5), "circular seed but non-planar heights"),
    # a catenoid sheet: its spiral seeds bend by a varying curvature
    ("(2/(2.0))*sqrt((2.0)*(x^2+y^2)/4 - 1)", (2.5, 3.5, -0.5, 0.5),
     "seed curve is neither a line nor a circle"),
    # a window narrower than one RK4 step: the seed is its base point alone
    ("x*y/2 + 0.3*x", (0.5, 0.51, 0.5, 0.51), "the seed traced from (0.5025, "),
], ids=["characteristic-window", "counterexample", "catenoid", "narrower-than-an-rk4-step"])
def test_classify_not_entire_branches(src, box, reason):
    out = classify_entire_graph(GraphPatch.from_expr(src, PlanarDomain(*box)))
    assert out["kind"] == "not-entire" and out["reason"].startswith(reason)


# -- symmetry of the construction ----------------------------------------------


def test_translate_and_rebuild_gives_the_same_point_set():
    # left-translating a built patch equals rebuilding from translated data:
    # the seed translates in the plane and the height picks up the group term
    rng = np.random.default_rng(9)
    for patch in (hyperbolic_patch(), cylinder_patch()):
        x0, y0, t0 = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))

        def moved_gamma(s):
            g = patch.seed.point(s)
            return (g[0] + x0, g[1] + y0)

        def moved_h0(s):
            g = patch.seed.point(s)
            return patch.h0(s) + t0 - 0.5 * (g[0] * y0 - x0 * g[1])

        from hmin.seed import SeedCurve
        moved_seed = SeedCurve.from_callables(
            moved_gamma, patch.seed.tangent, patch.seed.second,
            (patch.seed.s_min, patch.seed.s_max))
        moved = RuledPatch(moved_seed, Profile(f=moved_h0),
                           patch.s_range, patch.r_range)
        g0 = HPoint(x0, y0, t0)
        for s in np.linspace(*patch.s_range, 7)[1:-1]:
            for r in (-0.8, 0.0, 1.1):
                a = group_mul(g0, patch.embed(float(s), r))
                b = moved.embed(float(s), r)
                assert max(abs(a.x - b.x), abs(a.y - b.y), abs(a.t - b.t)) <= 1e-9


def test_locus_branch_is_smooth_on_smooth_data():
    # away from constructed defects the branch r(s) is C^1: one-sided slopes
    # agree, and match the closed form r = -s/sqrt(1-s^2) for the cylinder
    from hmin.ruled import locus_branch_slope
    patch = cylinder_patch()
    for s in (-0.5, 0.0, 0.4):
        sp = locus_branch_slope(patch, s, +1)
        sm = locus_branch_slope(patch, s, -1)
        want = -(1.0 - s * s) ** -1.5
        assert sp == pytest.approx(sm, abs=1e-5)
        assert sp == pytest.approx(want, abs=1e-4)


def test_w_oracle_on_random_patches():
    # the closed-form angle function matches reconstructed-graph derivatives
    # for arbitrary smooth data, on both sides of its zero set
    rng = np.random.default_rng(21)
    for _ in range(5):
        coef = [float(v) for v in rng.uniform(-0.5, 0.5, size=3)]

        def theta(s):
            return (coef[0] * s + coef[1] * ex.pointwise(math.sin, 2 * s)
                    + coef[2] * ex.pointwise(math.cos, s))

        def dtheta(s):
            return (coef[0] + 2 * coef[1] * ex.pointwise(math.cos, 2 * s)
                    - coef[2] * ex.pointwise(math.sin, s))

        def cos_sin(s):
            th = theta(s)
            return ex.pointwise(math.cos, th), ex.pointwise(math.sin, th)

        from hmin.fields import cumulative_integral
        import numpy as _np
        grid = _np.linspace(-1.0, 1.0, 161)
        gx = cumulative_integral(lambda v: cos_sin(v)[0], grid, tol=1e-11)
        gy = cumulative_integral(lambda v: cos_sin(v)[1], grid, tol=1e-11)
        from hmin.seed import SeedCurve
        curve = SeedCurve(
            grid, _np.column_stack([gx, gy]),
            _np.array([(math.cos(theta(float(s))), math.sin(theta(float(s))))
                       for s in grid]),
            _np.array([(-math.sin(theta(float(s))) * dtheta(float(s)),
                        math.cos(theta(float(s))) * dtheta(float(s)))
                       for s in grid]),
            dgamma_fn=cos_sin,
            ddgamma_fn=lambda s: (-cos_sin(s)[1] * dtheta(s), cos_sin(s)[0] * dtheta(s)))
        h0 = Profile(f=lambda s, c=coef: c[0] * ex.pointwise(math.cos, s) + 0.4 * s,
                     d1=lambda s, c=coef: -c[0] * ex.pointwise(math.sin, s) + 0.4)
        patch = RuledPatch(curve, h0, (-1.0, 1.0), (-0.9, 0.9))
        signs = set()
        for s in np.linspace(-0.8, 0.8, 7):
            for r in np.linspace(-0.9, 0.9, 7):
                s, r = float(s), float(r)
                if abs(-1.0 + r * curvature(curve, s)) <= 0.15:
                    continue
                w = patch.w(s, r)
                if abs(w) < 1e-3:
                    continue
                signs.add(w > 0)
                assert abs(abs(w) - w_direct(patch, s, r)) <= 1e-6
                assert patch.w_ode_residual(s, r) <= 1e-6


# -- chart sampling -------------------------------------------------------------


def _old_chart_loop(patch, n):
    """The hand-written 9x9 loop that chart_samples replaced."""
    out = []
    r_lo, r_hi = patch.r_interval()
    for s in np.linspace(*patch.s_range, n)[1:-1]:
        for r in np.linspace(r_lo, r_hi, n):
            s, r = float(s), float(r)
            if abs(-1.0 + r * curvature(patch.seed, s)) <= 0.15:
                continue
            if abs(patch.w(s, r)) < 1e-3:
                continue
            out.append((s, r))
    return out


def test_chart_samples_match_the_old_loop_on_the_readme_cylinder():
    patch = RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), (-0.9, 0.9)),
                       Profile.from_expr("sqrt(1 - s^2)"), (-0.9, 0.9), (-1.0, 1.0))
    samples = _chart_pairs(patch, 9)
    assert samples == _old_chart_loop(patch, 9)
    assert len(samples) == 62          # W = 0 at (s, r) = (0, 0)


def test_chart_samples_skip_the_fold():
    # kappa = -1, so the fold -1 + r kappa = 0 sits at r = -1
    patch = RuledPatch(circle_seed((0.0, 0.0), (1.0, 0.0), (-math.pi, math.pi)),
                       Profile.from_expr("0"), (-math.pi, math.pi), (-2.0, 0.0))
    samples = _chart_pairs(patch, 9, w_min=None)
    assert len(samples) == 7 * 8
    assert all(abs(-1.0 + r * curvature(patch.seed, s)) > 0.15 for s, r in samples)
    assert all(r != -1.0 for _, r in samples)


def test_chart_samples_w_guard():
    patch = cylinder_patch()           # W = s / sqrt(1 - s^2) + r, zero at (0, 0)
    guarded = _chart_pairs(patch, 9)
    unguarded = _chart_pairs(patch, 9, w_min=None)
    assert (0.0, 0.0) in unguarded and (0.0, 0.0) not in guarded
    assert len(guarded) == len(unguarded) - 1
    assert all(abs(patch.w(s, r)) >= 1e-3 for s, r in guarded)


def test_embed_undefined_height_raises():
    patch = RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), (-1.5, 1.5)),
                       Profile.from_expr("sqrt(1 - s^2)"), (-1.5, 1.5), (-1.0, 1.0))
    with pytest.raises(FieldUndefined):
        patch.embed(1.2, 0.0)


# -- the chart functions over arrays against their scalar calls ----------------


def _extracted_ruled_patch():
    # the unit circle as an interpolated seed: kappa = -1, so the fold is r = -1
    seed = extract_seed(GraphPatch.from_expr("0", square(3.0)), (1.0, 0.0), 1.0)
    return RuledPatch(seed, Profile.from_expr("0"), (-1.0, 1.0), (-0.5, 0.5))


CHART_FUNCTIONS = {
    "curvature": lambda p, s, r: curvature(p.seed, s),
    "rule_point": lambda p, s, r: seed_module.rule_point(p.seed, s, r),
    "rule_jacobian": lambda p, s, r: seed_module.rule_jacobian(p.seed, s, r),
    "rule_jacobian_det": lambda p, s, r: seed_module.rule_jacobian_det(p.seed, s, r),
    "_inner": lambda p, s, r: ruled_module._inner(p.seed, s),
    "height": lambda p, s, r: p.height(s, r),
    "embed": lambda p, s, r: p.embed(s, r),
    "w0": lambda p, s, r: p.w0(s),
    "w": lambda p, s, r: p.w(s, r),
    "w_ode_residual": lambda p, s, r: p.w_ode_residual(s, r),
    "_chart_nu": lambda p, s, r: ruled_module._chart_nu(p, s, r),
    "w_direct": lambda p, s, r: w_direct(p, s, r),
    "curvature_on_patch": lambda p, s, r: curvature_on_patch(p, s, r),
}


def _scalar_repr(value) -> str:
    if isinstance(value, HPoint):
        value = astuple(value)
    if isinstance(value, tuple) and isinstance(value[0], tuple):   # rule_jacobian's rows
        return repr(tuple(tuple(map(float, row)) for row in value))
    if isinstance(value, tuple):
        return repr(tuple(map(float, value)))
    return repr(float(value))


def _element_reprs(value) -> list[str]:
    """The reprs of the elements of an array call's result, as ``_scalar_repr`` gives them."""
    if isinstance(value, tuple) and isinstance(value[0], tuple):   # rule_jacobian's rows
        (a, b), (c, d) = ((x.tolist() for x in row) for row in value)
        return [repr(((ae, be), (ce, de))) for ae, be, ce, de in zip(a, b, c, d)]
    if isinstance(value, tuple):
        return [repr(t) for t in zip(*(a.tolist() for a in value))]
    return [repr(v) for v in value.tolist()]


def _outcomes(fn, patch, s, r):
    """(scalar loop, array call) of fn: the element reprs, or the error raised first.

    Neither the scalar loop nor the array call may raise a numpy warning.
    """
    scalar = []
    for sv, rv in zip(s.tolist(), r.tolist()):
        try:
            scalar.append(_scalar_repr(fn(patch, sv, rv)))
        except Exception as err:
            scalar = (type(err), str(err))
            break
    try:
        array = _element_reprs(fn(patch, s, r))
    except Exception as err:
        array = (type(err), str(err))
    return scalar, array


def _chart_cases(patch):
    lo, hi = patch.s_range
    r_lo, r_hi = patch.r_interval()
    s = np.repeat(np.linspace(lo, hi, 5), 3)
    r = np.tile([r_lo, 0.5 * (r_lo + r_hi), r_hi], 5)
    mid = 0.5 * (lo + hi)
    kap = curvature(patch.seed, mid)
    fold = (mid, 1.0 / kap if kap else 0.0)
    outside = (hi + 1.0, 0.0)
    yield s, r
    yield np.append(s, [math.nan, mid, mid]), np.append(r, [0.1, math.nan, math.inf])
    yield np.insert(s, 4, [fold[0], outside[0]]), np.insert(r, 4, [fold[1], outside[1]])
    yield np.insert(s, 4, [outside[0], fold[0]]), np.insert(r, 4, [outside[1], fold[1]])
    yield s[:0], r[:0]


@pytest.mark.parametrize("name", RULED_ENTRIES + ["extracted"])
def test_chart_functions_over_arrays_match_their_scalar_calls(name):
    patch = _extracted_ruled_patch() if name == "extracted" else gallery_get(name).ruled()
    raised = set()
    for s, r in _chart_cases(patch):
        for fn_name, fn in CHART_FUNCTIONS.items():
            scalar, array = _outcomes(fn, patch, s, r)
            assert array == scalar, (fn_name, s, r)
            if isinstance(scalar, tuple):
                raised.add(scalar[0])
    # the cases reach the range check, and the fold where it is on the chart
    assert OutOfRange in raised


def test_array_calls_raise_the_first_failing_elements_exception():
    patch = flat_patch()                          # kappa = -1: the fold is r = -1
    s, r = np.array([0.5, 0.2, 4.0]), np.array([0.0, -1.0, 0.0])
    with pytest.raises(SingularRule, match=r"at \(s=0\.2, r=-1\.0\)"):
        patch.w(s, r)
    with pytest.raises(OutOfRange, match=r"^s=4\.0 outside"):
        patch.w(s[::-1], r[::-1])
    with pytest.raises(FieldUndefined, match=r"^height not finite at \(s=0\.2, r=nan\)"):
        patch.embed(s[:2], np.array([0.0, math.nan]))


# -- the characteristic locus against the per-s loop it replaced --------------


def _scalar_roots(patch, s):
    kap = curvature(patch.seed, s)
    w0 = patch.w0(s)
    if abs(kap) <= seed_module.EPS_KAPPA:
        return ruled_module.LABEL_KAPPA_ZERO, [-w0]
    disc = 1.0 + 2.0 * w0 * kap
    if abs(disc) <= ruled_module.EPS_DELTA:
        return ruled_module.LABEL_DOUBLE, [1.0 / kap]
    if disc < 0.0:
        return ruled_module.LABEL_NONE, []
    root = math.sqrt(disc)
    return ruled_module.LABEL_TWO, sorted([(1.0 - root) / kap, (1.0 + root) / kap])


def _scalar_locus(patch, n_s):
    """characteristic_locus as one scalar pass per sampled s (the oracle)."""
    guard = ruled_module.DET_GUARD
    roots, labels = [], []
    for s in np.linspace(*patch.s_range, n_s):
        s = float(s)
        label, rs = _scalar_roots(patch, s)
        labels.append((s, label))
        for r in rs:
            try:
                wf = patch.w(s, r)
            except SingularRule:
                wf = patch.w0(s) + r - 0.5 * r * r * curvature(patch.seed, s)
            det = seed_module.rule_jacobian_det(patch.seed, s, r)
            x, y, t = astuple(patch.embed(s, r))
            wd = None
            ok = abs(wf) <= 1e-8
            if ok and abs(det) > guard:
                wd = w_direct(patch, s, r)
                ok = wd <= 1e-6
            elif ok:
                probe = r + (0.5 if det < 0 else -0.5) * 0.5
                for cand in (probe, r + 0.25, r - 0.25):
                    if abs(seed_module.rule_jacobian_det(patch.seed, s, cand)) > guard:
                        wd = w_direct(patch, s, cand)
                        ok = abs(wd - abs(patch.w(s, cand))) <= 1e-6
                        break
            roots.append((s, r, label, x, y, t, wf, ok))
    kap = np.array([curvature(patch.seed, float(v)) for v in patch.seed.s])
    mask = list(np.abs(kap) > seed_module.EPS_KAPPA) + [False]
    branches, start = [], None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            branches.append((patch.seed.s[start:i].copy(), 1.0 / kap[start:i]))
            start = None
    return roots, labels, branches


def _cylinder_family(s_lo, s_hi, r):
    from hmin.cli import ruled_from_spec
    return ruled_from_spec({"kind": "ruled",
                            "ruled": {"seed": {"kind": "expression", "x": "s", "y": "0"},
                                      "h0": "sqrt(1 - s^2)",
                                      "s_range": [s_lo, s_hi], "r_range": [-r, r]}})


LOCUS_CASES = ([(name, 201) for name in RULED_ENTRIES] + [("optreg2", 41)]
               + [(f"cylinder-family-{i}", 201) for i in range(3)])


@pytest.mark.parametrize("name,n_s", LOCUS_CASES)
def test_characteristic_locus_matches_the_scalar_loop(name, n_s):
    family = {"cylinder-family-0": (-0.9, 0.85, 0.9), "cylinder-family-1": (-0.8, 0.95, 1.0),
              "cylinder-family-2": (-0.93, 0.81, 0.8)}
    patch = _cylinder_family(*family[name]) if name in family else gallery_get(name).ruled()
    rep = characteristic_locus(patch, n_s)
    roots, labels, branches = _scalar_locus(patch, n_s)
    assert repr(rep.labels) == repr(labels)
    columns = (rep.s.tolist(), rep.r.tolist(), rep.label, rep.x.tolist(), rep.y.tolist(),
               rep.t.tolist(), rep.w.tolist(), rep.verified.tolist())
    assert [repr(row) for row in zip(*columns)] == [repr(row) for row in roots]
    assert ([(s.tobytes(), r.tobytes()) for s, r in rep.singular]
            == [(s.tobytes(), r.tobytes()) for s, r in branches])


def test_chart_gradient_reads_each_seed_lookup_once(monkeypatch):
    # gamma, gamma' and gamma'' once per chart point; curvature_on_patch
    # reads gamma' and gamma'' at s for J, then calls _chart_nu four times
    lookups = []
    for name in ("point", "tangent", "second"):
        original = getattr(SeedCurve, name)
        monkeypatch.setattr(SeedCurve, name, lambda self, s, _f=original, _n=name:
                            lookups.append(_n) or _f(self, s))
    patch = gallery_get("cylinder").ruled()
    s, r = np.array([-0.3, 0.1, 0.4]), np.array([0.2, -0.5, 0.3])
    for fn, count in ((w_direct, 3), (ruled_module._chart_nu, 3), (curvature_on_patch, 14)):
        lookups.clear()
        fn(patch, s, r)
        assert len(lookups) == count, fn.__name__
