"""Built-in catalog of reference H-minimal surfaces.

Every entry bundles closed-form data (graph and/or implicit form, known
seed curve, curvature, height function, expected loci) together with the
domains on which the numerical checks run.  ``gallery_verify`` replays
the standard battery against an entry: curvature scans in analytic and
pure-FD mode, seed extraction against the closed form, curvature values,
characteristic loci, and the representation round-trip.  A traced seed
is held to its closed form by ``known_seed_deviation`` or
``radius_law_deviation``, which ``hmin seed`` calls as well, and a ruled
patch's chart checks reduce over ``ruled.chart_samples``, one sample set
per size.  The checks that only one entry has live next to it: its
builder sets ``GalleryEntry.own_checks``, and the battery runs that hook
after the GSC joins.

Catalog names:

    char-plane          t = 0
    general-plane       a x + b y + c t = d          (params a, b, c, d)
    hyperbolic          t = x y / 2
    catenoid            (t - u0)^2 = (4/a^2)(a |z|^2/4 - 1)   (params a, u0)
    counterexample      y = -x tan(tanh t)  (entire graph, empty char. locus)
    cylinder            (t - x y/2)^2 = 1 - x^2
    gencurve-n          (t - x y/2)^n = x             (param n)
    optreg2             seed with curvature -|s|; locus has a corner
    iso-profile         constant-curvature profile, H = 2/R  (param R)
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .errors import StencilOutOfDomain, UnknownName
from .fields import Grid2, PlanarDomain, Profile, cumulative_integral, finite, full, square
from .report import Check, check_flag, check_leq, worst_abs
from .ruled import (GeneralizedSeedCurve, GSCJoin, GSCPiece, RuledPatch, _chart_nu,
                    characteristic_locus, chart_samples, curvature_on_patch, locus_branch_slope,
                    roundtrip, validate_gsc, w_direct)
from .seed import SeedCurve, curvature, extract_seed, takes_arrays
from .surface import (TOL_H_ANALYTIC, TOL_H_FD, GraphPatch, ImplicitSurface, ScanLattice,
                      characteristic_scan, max_curvature_deviation)


# ---------------------------------------------------------------------------
# Closed-form seed constructors
# ---------------------------------------------------------------------------

def circle_seed(center: tuple[float, float], z0: tuple[float, float],
                s_range: tuple[float, float]) -> SeedCurve:
    """Arclength circle through z0 around center, counterclockwise (signed
    curvature -1/radius), as is every circle seed: a plane's (p, q) =
    (-(y - y_c), x - x_c)/2 turns so about its characteristic point whatever
    the sign of c, as (a, b, c, d) and (-a, -b, -c, -d) give one graph."""
    cx, cy = center
    rho = math.hypot(z0[0] - cx, z0[1] - cy)
    phi0 = math.atan2(z0[1] - cy, z0[0] - cx)

    def cos_sin(s):
        th = phi0 + s / rho
        return ex.pointwise(math.cos, th), ex.pointwise(math.sin, th)

    def gamma(s):
        c, sn = cos_sin(s)
        return (cx + rho * c, cy + rho * sn)

    def dgamma(s):
        c, sn = cos_sin(s)
        return (-sn, c)

    def ddgamma(s):
        c, sn = cos_sin(s)
        return (-c / rho, -sn / rho)

    return SeedCurve.from_callables(gamma, dgamma, ddgamma, s_range)


def line_seed(z0: tuple[float, float], direction: tuple[float, float],
              s_range: tuple[float, float]) -> SeedCurve:
    norm = math.hypot(*direction)
    dx, dy = direction[0] / norm, direction[1] / norm
    return SeedCurve.from_callables(
        lambda s: (z0[0] + s * dx, z0[1] + s * dy),
        lambda s: (full(s, dx), full(s, dy)),
        lambda s: (full(s, 0.0), full(s, 0.0)),
        s_range,
    )


def catenoid_seed(a: float, z0: tuple[float, float], s_range: tuple[float, float],
                  sheet: float = 1.0) -> SeedCurve:
    """Spiral seed of the catenoid sheet t = u0 + sheet*(2/a) sqrt(a|z|^2/4 - 1), in closed form.

    With the rim |z|^2 = c = 4/a and k = sheet*4/sqrt(a), the seed through z0 (s = 0) has
    u = |gamma|^2 = |z0|^2 - k s, r = sqrt(u) and w = sqrt(u - c), 0 past the rim; theta' = w/u
    gives theta = theta(z0) - (F(u) - F(|z0|^2))/k, F = 2w - 2 sqrt(c) atan(w/sqrt(c)).  In the
    frame (e_r, e_theta), gamma' = (-k/2, w)/r and, as k^2 = 4c, gamma'' = (r'' - r theta'^2,
    2 r' theta' + r theta'') = (-1, -k/(2w))/r: kappa = -1/w, not finite at the rim."""
    c, k = 4.0 / a, sheet * 4.0 / math.sqrt(a)
    root_c, u0, th0 = math.sqrt(c), math.hypot(*z0) ** 2, math.atan2(z0[1], z0[0])

    def half_f(w):   # F/2
        return w - root_c * ex.pointwise(math.atan, w / root_c)

    f0 = half_f(math.sqrt(max(u0 - c, 0.0)))

    def polar(s):   # r, w, cos theta and sin theta
        u = u0 - k * s
        w = ex.pointwise(math.sqrt, ex.pointwise(max, u - c, 0.0))
        th = th0 - 2.0 * (half_f(w) - f0) / k
        return ex.pointwise(math.sqrt, u), w, ex.pointwise(math.cos, th), ex.pointwise(math.sin, th)

    def gamma(s):
        r, _, cs, sn = polar(s)
        return (r * cs, r * sn)

    def dgamma(s):
        r, w, cs, sn = polar(s)
        gr, gt = -0.5 * k / r, w / r
        return (gr * cs - gt * sn, gr * sn + gt * cs)

    @takes_arrays   # over arrays, the overflow to inf at the rim warns of nothing
    def ddgamma(s):
        r, w, cs, sn = polar(s)
        # w = 0 at the rim: a float division by ulp(0) overflows to inf, one by 0 raises
        gr, gt = -1.0 / r, -0.5 * k / r / ex.pointwise(max, w, math.ulp(0.0))
        return (gr * cs - gt * sn, gr * sn + gt * cs)

    return SeedCurve.from_callables(gamma, dgamma, ddgamma, s_range)


def optreg2_seed() -> SeedCurve:
    """Seed with signed curvature -|s|: gamma' = (cos Psi, sin Psi),
    Psi(s) = (1 + sign(s) s^2)/2, positions by quadrature from gamma(-1) = 0."""

    def psi(s):
        # s |s| is copysign(s * s, s): rounding is symmetric about 0
        return 0.5 * (1.0 + s * abs(s))

    def cos_psi(s):
        return ex.pointwise(math.cos, psi(s))

    def sin_psi(s):
        return ex.pointwise(math.sin, psi(s))

    def dgamma(s) -> tuple:
        return (cos_psi(s), sin_psi(s))

    def ddgamma(s) -> tuple:
        return (-abs(s) * sin_psi(s), abs(s) * cos_psi(s))

    s = np.linspace(-1.0, 1.0, 801)
    g = np.column_stack((cumulative_integral(cos_psi, s), cumulative_integral(sin_psi, s)))
    dg, ddg = np.column_stack(dgamma(s)), np.column_stack(ddgamma(s))
    return SeedCurve(s, g, dg, ddg, dgamma_fn=dgamma, ddgamma_fn=ddgamma)


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


@dataclass
class GalleryEntry:
    """One catalog entry: its closed forms, domains and expected results.

    The standard battery reads the fields below.  A check that only this
    entry has is made by ``own_checks(entry, patch)``, which its builder
    sets; ``patch`` is the battery's ``ruled()`` patch, or None.
    """

    graph: Optional[GraphPatch] = None
    graph_lower: Optional[GraphPatch] = None
    implicit: Optional[ImplicitSurface] = None
    verify_domain: Optional[PlanarDomain] = None
    expected_curvature: float = 0.0
    tol_h_analytic: float = TOL_H_ANALYTIC
    seed_base: Optional[tuple[float, float]] = None
    arc_span: float = 1.0
    known_seed: Optional[Callable[[tuple[float, float]], SeedCurve]] = None
    known_kappa: Optional[Callable[[tuple[float, float]], float]] = None
    radius_law: Optional[Callable[[tuple[float, float], float], float]] = None
    ruled: Optional[Callable[[], RuledPatch]] = None
    ruled_pair: Optional[Callable[[], tuple[RuledPatch, RuledPatch]]] = None
    gsc: Optional[Callable[[], GeneralizedSeedCurve]] = None
    expected_scan: Optional[dict] = None
    expected_chart_label: Optional[str] = None
    expected_chart_root: Optional[Callable[[np.ndarray], np.ndarray]] = None
    check_roundtrip: bool = False  # rebuild the graph from the seed through seed_base
    own_checks: Optional[Callable[["GalleryEntry", Optional[RuledPatch]], list[Check]]] = None


def _num(v: float) -> str:
    """v as expression text; a coefficient that is no finite float is a bad parameter."""
    if not finite(v):
        raise UnknownName(f"bad gallery parameter: coefficient {v!r} is not finite")
    return f"({v!r})"


def _char_plane() -> GalleryEntry:
    dom = PlanarDomain(-2.2, 2.2, -2.2, 2.2)
    entry = GalleryEntry(
        graph=GraphPatch.from_expr("0", dom),
        implicit=ImplicitSurface.from_expr("t"),
        verify_domain=PlanarDomain(-2.0, 2.0, -2.0, 2.0),
        seed_base=(1.0, 0.0),
        arc_span=math.pi,
        known_seed=lambda z0: circle_seed((0.0, 0.0), z0, (-math.pi, math.pi)),
        known_kappa=lambda z0: -1.0 / math.hypot(*z0),
        expected_scan={"kind": "point", "at": (0.0, 0.0)},
        expected_chart_label="double-root",
        expected_chart_root=lambda s: -1.0,
        check_roundtrip=True,
    )
    entry.ruled = lambda: RuledPatch(
        circle_seed((0.0, 0.0), (1.0, 0.0), (-math.pi, math.pi)),
        Profile.from_expr("0"), (-math.pi, math.pi), (-0.5, 0.5))
    return entry


def _general_plane(a: float = 1.0, b: float = 2.0, c: float = 2.0,
                   d: float = 4.0) -> GalleryEntry:
    if c == 0.0:
        raise UnknownName("general-plane requires c != 0 (vertical planes have no graph form)")
    src = f"({_num(d)} - {_num(a)}*x - {_num(b)}*y)/{_num(c)}"
    dom = PlanarDomain(-3.2, 3.2, -3.2, 3.2)
    center = (-2.0 * b / c, 2.0 * a / c)
    base = (center[0] + 1.0, center[1])
    # [-3, 3] moved by less than a node step (0.06), so that a node of the
    # verify lattice lands on each coordinate of the characteristic point
    lo_x, lo_y = (-3.0 + (v + 3.0) % 0.06 for v in center)

    def known_seed(z0):
        return circle_seed(center, z0, (-math.pi, math.pi))

    return GalleryEntry(
        graph=GraphPatch.from_expr(src, dom),
        implicit=ImplicitSurface.from_expr(
            f"{_num(a)}*x + {_num(b)}*y + {_num(c)}*t - {_num(d)}"),
        verify_domain=PlanarDomain(lo_x, lo_x + 6.0, lo_y, lo_y + 6.0),
        seed_base=base,
        arc_span=math.pi / 2,
        known_seed=known_seed,
        known_kappa=lambda z0: -1.0 / math.hypot(z0[0] - center[0], z0[1] - center[1]),
        expected_scan={"kind": "point", "at": center},
    )


def _hyperbolic() -> GalleryEntry:
    dom = PlanarDomain(-2.2, 2.2, -2.2, 2.2)

    def known_seed(z0):
        sgn = 1.0 if z0[1] > 0 else -1.0
        return line_seed(z0, (-sgn, 0.0), (-1.5, 1.5))

    entry = GalleryEntry(
        graph=GraphPatch.from_expr("x*y/2", dom),
        implicit=ImplicitSurface.from_expr("t - x*y/2"),
        verify_domain=PlanarDomain(-2.0, 2.0, -2.0, 2.0),
        seed_base=(0.0, 1.0),
        arc_span=1.5,
        known_seed=known_seed,
        known_kappa=lambda z0: 0.0,
        expected_scan={"kind": "line-y0"},
        expected_chart_label="kappa-zero",
        expected_chart_root=lambda s: -1.0,   # r = -y with y = 1 along the seed
        check_roundtrip=True,
    )
    entry.ruled = lambda: RuledPatch(
        line_seed((0.0, 1.0), (-1.0, 0.0), (-1.5, 1.5)),
        Profile.from_expr("-s/2"), (-1.5, 1.5), (-0.5, 0.5))
    return entry


def _catenoid(a: float = 2.0, u0: float = 0.0) -> GalleryEntry:
    if a <= 0.0:
        raise UnknownName(f"catenoid requires a > 0, got a = {a!r}")
    rim2 = 4.0 / a
    upper = f"{_num(u0)} + (2/{_num(a)})*sqrt({_num(a)}*(x^2+y^2)/4 - 1)"
    lower = f"{_num(u0)} - (2/{_num(a)})*sqrt({_num(a)}*(x^2+y^2)/4 - 1)"
    half = max(3.6, 2.2 * math.sqrt(rim2))

    def member(margin):
        return lambda x, y: x * x + y * y >= rim2 + margin

    dom = PlanarDomain(-half, half, -half, half, member(0.08))
    vdom = PlanarDomain(-half + 0.2, half - 0.2, -half + 0.2, half - 0.2, member(0.15))
    rho0 = 2.0 * math.sqrt(rim2)   # comfortably outside the rim
    base = (rho0, 0.0)
    rate = 4.0 / math.sqrt(a)
    rho0sq = rho0 * rho0
    s_rim = (rho0sq - rim2) / rate   # where the seed from base meets the rim

    def h0_up(s):   # the upper sheet along that seed
        return u0 + (2.0 / a) * ex.pointwise(
            math.sqrt, ex.pointwise(max, a * (rho0sq - rate * s) / 4.0 - 1.0, 0.0))

    def radius_law(z0, s):
        return math.hypot(*z0) ** 2 - rate * s

    entry = GalleryEntry(
        graph=GraphPatch.from_expr(upper, dom),
        graph_lower=GraphPatch.from_expr(lower, dom),
        implicit=ImplicitSurface.from_expr(
            f"(t - {_num(u0)})^2 - (4/{_num(a * a)})*({_num(a)}*(x^2+y^2)/4 - 1)"),
        verify_domain=vdom,
        seed_base=base,
        arc_span=1.0,
        radius_law=radius_law,
        expected_scan={"kind": "empty"},
        expected_chart_label="none",
    )

    def ruled():
        # s stays short of the rim, so h0_up is not clamped here
        s_range = (-1.0, 0.6 * s_rim)
        seed_c = catenoid_seed(a, base, s_range, sheet=1.0)

        def h0d(s):
            return (-(1.0 / math.sqrt(a))
                    / ex.pointwise(math.sqrt, a * (rho0sq - rate * s) / 4.0 - 1.0))

        return RuledPatch(seed_c, Profile(f=h0_up, d1=h0d), s_range, (-0.3, 0.3))

    entry.ruled = ruled

    def gsc():
        up = catenoid_seed(a, base, (-0.5, s_rim), sheet=1.0)
        low = catenoid_seed(a, up.point(s_rim), (0.0, s_rim + 0.5), sheet=-1.0)
        pieces = [GSCPiece(up, -0.5, s_rim, name="upper"),
                  GSCPiece(low, 0.0, s_rim + 0.5, name="lower")]
        return GeneralizedSeedCurve(pieces, [GSCJoin("b", "a")])

    entry.gsc = gsc
    return entry


def _sector(x_min: float, half_angle: float) -> Callable:
    """The membership x >= x_min and |y| <= x tan(half_angle): the sector
    |atan2(y, x)| <= half_angle of the half-plane x >= x_min > 0, up to
    rounding at its edge rays.  One expression serves floats and arrays."""
    slope = math.tan(half_angle)

    def inside(x, y):
        return (x >= x_min) & (abs(y) <= x * slope)

    return inside


def _counterexample() -> GalleryEntry:
    dom = PlanarDomain(0.1, 3.2, -3.2, 3.2, _sector(0.1, 0.95))
    vdom = PlanarDomain(0.25, 3.0, -3.0, 3.0, _sector(0.25, 0.9))

    def known_seed(z0):
        rho = math.hypot(*z0)
        th = math.atan2(z0[1], z0[0])
        lo = -(1.0 + th) * rho * 0.93
        hi = (1.0 - th) * rho * 0.93
        return circle_seed((0.0, 0.0), z0, (lo, hi))

    entry = GalleryEntry(
        graph=GraphPatch.from_expr("-atanh(atan(y/x))", dom),
        implicit=ImplicitSurface.from_expr("y + x*tan(tanh(t))"),
        verify_domain=vdom,
        seed_base=(1.0, 0.0),
        arc_span=0.85,
        known_seed=known_seed,
        known_kappa=lambda z0: -1.0 / math.hypot(*z0),
        expected_scan={"kind": "empty"},
        expected_chart_label="none",
        check_roundtrip=True,
        own_checks=_counterexample_triple,
    )
    entry.ruled = lambda: RuledPatch(
        circle_seed((0.0, 0.0), (1.0, 0.0), (-0.9, 0.9)),
        Profile.from_expr("-atanh(s)"), (-0.9, 0.9), (-0.4, 0.4))
    return entry


def _cylinder() -> GalleryEntry:
    dom = PlanarDomain(-0.99, 0.99, -2.2, 2.2)
    vdom = PlanarDomain(-0.95, 0.95, -2.0, 2.0)

    @cache   # one pair per entry, shared by ruled, ruled_pair and gsc
    def make_pair():
        s_range = (-0.98, 0.98)
        s1 = RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), s_range),
                        Profile.from_expr("sqrt(1 - s^2)"), s_range, None)
        s2 = RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), s_range),
                        Profile.from_expr("-sqrt(1 - s^2)"), s_range, None)
        return s1, s2

    def gsc():
        s1, s2 = make_pair()
        pieces = [GSCPiece(s1.seed, -0.98, 0.98, name="upper"),
                  GSCPiece(s2.seed, -0.98, 0.98, name="lower")]
        # the sheets close up along the vertical tangent lines x = +-1
        joins = [GSCJoin("b", "b"), GSCJoin("a", "a")]
        return GeneralizedSeedCurve(pieces, joins)

    entry = GalleryEntry(
        graph=GraphPatch.from_expr("sqrt(1 - x^2) + x*y/2", dom),
        graph_lower=GraphPatch.from_expr("-sqrt(1 - x^2) + x*y/2", dom),
        implicit=ImplicitSurface.from_expr("(t - x*y/2)^2 - (1 - x^2)"),
        verify_domain=vdom,
        seed_base=(0.0, 1.0),
        arc_span=0.9,
        known_kappa=lambda z0: 0.0,
        expected_chart_label="kappa-zero",
        expected_chart_root=lambda s: -s / np.sqrt(1.0 - s * s),
        own_checks=_cylinder_checks,
    )
    entry.ruled_pair = make_pair
    entry.ruled = lambda: make_pair()[0]
    entry.gsc = gsc
    return entry


def _gencurve(n: int = 3) -> GalleryEntry:
    if n == 0:
        raise UnknownName("gencurve requires a nonzero integer n")
    odd = n % 2 == 1
    if odd:
        src = f"sign(x)*abs(x)^(1/{_num(float(n))}) + x*y/2"
        dom = PlanarDomain(-2.1, 2.1, -2.1, 2.1, lambda x, y: abs(x) >= 0.05)
        vdom = PlanarDomain(-2.0, 2.0, -2.0, 2.0, lambda x, y: abs(x) >= 0.1)
        graph = GraphPatch.from_expr(src, dom)
        graph_lower = None
    else:
        dom = PlanarDomain(0.05, 2.1, -2.1, 2.1)
        vdom = PlanarDomain(0.1, 2.0, -2.0, 2.0)
        graph = GraphPatch.from_expr(f"x^(1/{_num(float(n))}) + x*y/2", dom)
        graph_lower = GraphPatch.from_expr(f"-(x^(1/{_num(float(n))})) + x*y/2", dom)

    # the height x^(1/n) along the seed (s, 0); an odd root is odd in s
    # (math.pow is the C pow of float **)
    root = ((lambda s: ex.pointwise(math.copysign, ex.pointwise(math.pow, abs(s), 1.0 / n), s))
            if odd else (lambda s: ex.pointwise(math.pow, s, 1.0 / n)))

    def piece(a: float, b: float, name: str) -> GSCPiece:
        return GSCPiece(line_seed((0.0, 0.0), (1.0, 0.0), (a, b)), a, b, name=name)

    def gsc():
        if odd:
            pieces = [piece(-2.0, 0.0, "x<0"), piece(0.0, 2.0, "x>0")]
            return GeneralizedSeedCurve(pieces, [GSCJoin("b", "a")])
        pieces = [piece(0.0, 2.0, "upper"), piece(0.0, 2.0, "lower")]
        return GeneralizedSeedCurve(pieces, [GSCJoin("a", "a")])

    entry = GalleryEntry(
        graph=graph,
        graph_lower=graph_lower,
        implicit=ImplicitSurface.from_expr(f"(t - x*y/2)^{_num(float(n))} - x"),
        verify_domain=vdom,
        seed_base=(1.0, 0.5),
        arc_span=0.7,
        known_kappa=lambda z0: 0.0,
        own_checks=None if odd else _gencurve_even_checks,
    )
    entry.gsc = gsc
    s_range = (0.05, 2.0)
    entry.ruled = lambda: RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), s_range),
                                     Profile(f=root), s_range, (-0.5, 0.5))
    return entry


def _optreg2() -> GalleryEntry:
    seed_c = optreg2_seed()

    def h0_rate(s):
        g = seed_c.point(s)
        d = seed_c.tangent(s)
        # chosen so that the angle function along the seed is identically -1
        return -0.5 * (d[0] * g[1] - d[1] * g[0]) + 1.0

    # h0 is the cubic Hermite through its samples and exact slopes, read
    # as the x of a SeedCurve lookup
    grid = np.linspace(-1.0, 1.0, 801)
    h0_vals, zeros = cumulative_integral(h0_rate, grid, tol=1e-11), np.zeros_like(grid)
    samples = SeedCurve(grid, np.column_stack((h0_vals, zeros)),
                        np.column_stack((h0_rate(grid), zeros)), np.zeros((len(grid), 2)))
    h0 = Profile(f=lambda s: samples.point(s)[0], d1=h0_rate)
    return GalleryEntry(ruled=lambda: RuledPatch(seed_c, h0, (-1.0, 1.0), (-6.0, 6.0)),
                        own_checks=_optreg2_corner)


def _iso_profile(R: float = 1.0) -> GalleryEntry:
    if R <= 0.0:
        raise UnknownName(f"iso-profile requires R > 0, got R = {R!r}")
    r2 = R * R
    src = (f"0.25*sqrt(x^2+y^2)*sqrt({_num(r2)} - x^2 - y^2)"
           f" - ({_num(r2)}/4)*atan(sqrt((x^2+y^2)/({_num(r2)} - x^2 - y^2)))"
           f" + pi*{_num(r2)}/8")

    def member(lo, hi):
        def inside(x, y):
            r2 = x * x + y * y
            return (lo * lo <= r2) & (r2 <= hi * hi)
        return inside

    dom = PlanarDomain(-0.97 * R, 0.97 * R, -0.97 * R, 0.97 * R,
                       member(0.04 * R, 0.96 * R))
    vdom = PlanarDomain(-0.96 * R, 0.96 * R, -0.96 * R, 0.96 * R,
                        member(0.05 * R, 0.95 * R))
    return GalleryEntry(
        graph=GraphPatch.from_expr(src, dom),
        verify_domain=vdom,
        expected_curvature=2.0 / R,
        tol_h_analytic=1e-4,
    )


_BUILDERS: dict[str, Callable[..., GalleryEntry]] = {
    "char-plane": _char_plane,
    "general-plane": _general_plane,
    "hyperbolic": _hyperbolic,
    "catenoid": _catenoid,
    "counterexample": _counterexample,
    "cylinder": _cylinder,
    "gencurve-n": _gencurve,
    "optreg2": _optreg2,
    "iso-profile": _iso_profile,
}


def gallery_names() -> list[str]:
    return list(_BUILDERS.keys())


def _builder_key(name: str) -> str:
    return "gencurve-n" if name.startswith("gencurve-") else name


def gallery_params(name: str) -> set[str]:
    """Names of the parameters entry ``name`` accepts (none for an unknown name)."""
    builder = _BUILDERS.get(_builder_key(name))
    return set(inspect.signature(builder).parameters) if builder else set()


def _resolve(name: str, params: dict) -> tuple[str, dict]:
    """The builder of entry ``name`` and its parameters, n taken from a gencurve suffix."""
    key = _builder_key(name)
    if key == "gencurve-n":
        suffix = name.split("-", 1)[1]
        if suffix != "n":
            try:
                n = int(suffix)
            except ValueError:
                raise UnknownName(f"bad gencurve suffix in {name!r}") from None
            if params.setdefault("n", n) != n:
                raise UnknownName(f"{name!r} has n = {n} but n = {params['n']!r} is given")
    if key not in _BUILDERS:
        raise UnknownName(f"unknown gallery entry {name!r}; known: {gallery_names()}")
    return key, params


def gallery_key(name: str, **params) -> tuple[str, tuple]:
    """What ``gallery_get(name, **params)`` builds: its builder, and the
    builder's arguments with their defaults filled in.  Two spellings of
    one entry, such as ``gencurve-n`` and ``gencurve-3``, have one key.
    ``params`` are ones the entry takes (``gallery_params``)."""
    key, params = _resolve(name, dict(params))
    bound = inspect.signature(_BUILDERS[key]).bind(**params)
    bound.apply_defaults()
    return key, tuple(bound.arguments.items())


def gallery_get(name: str, **params) -> GalleryEntry:
    """Entry ``name``; each parameter is a finite number, not a bool, and ``n`` a whole one."""
    key, params = _resolve(name, params)
    for k, v in params.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise UnknownName(f"bad parameters for {name!r}: {k} = {v!r} is not a number")
        if not finite(v):
            raise UnknownName(f"bad parameters for {name!r}: {k} is not a finite float")
        if k == "n" and not float(v).is_integer():
            raise UnknownName(f"bad parameters for {name!r}: n = {v!r} is not a whole number")
    try:
        return _BUILDERS[key](**params)
    except TypeError as err:
        raise UnknownName(f"bad parameters for {name!r}: {err}") from None


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------


def known_seed_deviation(extracted: SeedCurve, known: SeedCurve) -> float:
    """max |gamma_extracted(s) - gamma_known(s)| / max(1, |s|) over the common s range."""
    s = np.linspace(max(extracted.s_min, known.s_min), min(extracted.s_max, known.s_max), 101)
    (gx, gy), (kx, ky) = extracted.point(s), known.point(s)
    return worst_abs(ex.pointwise(math.hypot, gx - kx, gy - ky)
                     / np.where(abs(s) > 1.0, abs(s), 1.0))


def radius_law_deviation(curve: SeedCurve, law: Callable, z0: tuple[float, float],
                         s: np.ndarray) -> float:
    """max |x(s)^2 + y(s)^2 - law(z0, s)| over the samples s of ``curve``,
    a seed traced from z0, against its entry's ``radius_law``."""
    x, y = curve.point(s)
    # math.pow is the C pow of float **
    return worst_abs(ex.pointwise(math.pow, x, 2.0) + ex.pointwise(math.pow, y, 2.0) - law(z0, s))


def _seed_deviation(entry: GalleryEntry) -> tuple[float, SeedCurve]:
    extracted = extract_seed(entry.graph, entry.seed_base, entry.arc_span)
    worst = 0.0
    if entry.known_seed is not None:
        worst = known_seed_deviation(extracted, entry.known_seed(entry.seed_base))
    elif entry.radius_law is not None:
        worst = radius_law_deviation(
            extracted, entry.radius_law, entry.seed_base,
            np.linspace(max(extracted.s_min, -1.0), min(extracted.s_max, 0.0), 101))
    return worst, extracted


def _check_locus(entry: GalleryEntry, patch: RuledPatch, report_checks: list[Check]):
    if entry.expected_chart_label is None:
        return
    rep = characteristic_locus(patch)
    if entry.expected_chart_label == "none":
        report_checks.append(check_flag("locus_empty", rep.empty))
        return
    labels = {lab for _, lab in rep.labels}
    report_checks.append(check_flag(
        f"locus_label_{entry.expected_chart_label}",
        labels == {entry.expected_chart_label},
        note=f"labels seen: {sorted(labels)}"))
    if entry.expected_chart_root is not None:
        worst = worst_abs(rep.r - entry.expected_chart_root(rep.s))
        report_checks.append(check_leq("locus_root_value", worst, 1e-6))
    report_checks.append(check_flag("locus_verified", rep.verified.all()))


def gallery_verify(name: str, **params) -> list[Check]:
    """Run the standard checks for one entry; returns labeled pass/fail records."""
    entry = gallery_get(name, **params)
    # the battery traces a seed from seed_base; contains() alone accepts an
    # infinite point of an infinite box
    z0 = entry.seed_base
    if z0 is not None and not (all(map(math.isfinite, z0)) and entry.graph.domain.contains(*z0)):
        raise UnknownName(f"bad parameters for {name!r}: seed base point {z0} is not a "
                          "finite point of the graph's domain")
    at = (entry.expected_scan or {}).get("at")
    if at is not None and not entry.verify_domain.contains(*at):
        raise UnknownName(f"bad parameters for {name!r}: characteristic point {at} is not "
                          "a point of the verify window")
    checks: list[Check] = []

    lattice = None
    if entry.graph is not None:
        ta, expect = entry.tol_h_analytic, entry.expected_curvature
        scans = [("analytic", entry.graph, expect, ta), ("fd", entry.graph.fd_only(), expect, TOL_H_FD)]
        if entry.graph_lower is not None:
            scans.append(("lower", entry.graph_lower, -expect, ta))
        if entry.expected_scan is not None:
            # the characteristic scan clusters what the analytic scan reads
            lattice = ScanLattice(Grid2(entry.verify_domain, 101, 101))
        for label, graph, value, tol in scans:
            try:
                dev = max_curvature_deviation(graph, entry.verify_domain, expect=value,
                                              lattice=lattice if label == "analytic" else None)
            except StencilOutOfDomain as err:
                # the domains come from the parameters alone: too small for the stencils
                raise UnknownName(f"bad parameters for {name!r}: {err} in h_scan_{label}") from None
            checks.append(check_leq(f"h_scan_{label}", dev, tol))

    extracted = None
    if entry.graph is not None and entry.seed_base is not None:
        worst, extracted = _seed_deviation(entry)
        if entry.known_seed is not None or entry.radius_law is not None:
            checks.append(check_leq("seed_extraction", worst, 1e-6))
        if entry.known_kappa is not None:
            kk = entry.known_kappa(entry.seed_base)
            span = min(-extracted.s_min, extracted.s_max) * 0.9
            kdev = worst_abs(curvature(extracted, np.linspace(-span, span, 41)) - kk)
            checks.append(check_leq("seed_kappa", kdev, 1e-5))

    patch = entry.ruled() if entry.ruled is not None else None
    if patch is not None:
        _check_locus(entry, patch, checks)
        s, r = chart_samples(patch, 9)
        checks.append(check_leq("built_patch_minimal",
                                worst_abs(curvature_on_patch(patch, s, r)), 1e-6))
        checks.append(check_leq("w_ode_residual", worst_abs(patch.w_ode_residual(s, r)), 1e-6))
        s, r = chart_samples(patch, 7, w_min=None)
        checks.append(check_leq("w_formula_vs_direct",
                                worst_abs(abs(patch.w(s, r)) - w_direct(patch, s, r)), 1e-6))

    if lattice is not None:
        checks.append(_check_scan(entry, lattice))

    if entry.check_roundtrip:
        err = roundtrip(entry.graph, extracted, entry.arc_span, 0.4)
        checks.append(check_leq("roundtrip", err, 1e-5))

    if entry.gsc is not None:
        gap = validate_gsc(entry.gsc())
        checks.append(check_flag("gsc_joins", gap <= 1e-6, note=f"max gap {gap:.2e}"))

    if entry.own_checks is not None:
        checks.extend(entry.own_checks(entry, patch))
    if entry.graph is not None and entry.implicit is not None:
        x, y = Grid2(entry.verify_domain, 11, 11).points()
        worst = worst_abs(entry.implicit.phi(x, y, entry.graph.h.value(x, y)))
        checks.append(check_leq("graph_vs_implicit", worst, 1e-10))
    return checks


def _check_scan(entry: GalleryEntry, lattice: ScanLattice) -> Check:
    """The characteristic scan of the graph against ``expected_scan``, over
    ``lattice``: the verify lattice, as the analytic curvature scan read it."""
    scan = characteristic_scan(lattice)
    kind = entry.expected_scan["kind"]
    if kind == "empty":
        # a node where W is not finite may hide a characteristic point
        undefined = scan.undefined_w
        return check_flag("scan_empty", scan.empty and not undefined,
                          note=f"{undefined} node(s) where W is not finite" if undefined else "")
    if kind == "point":
        ok = len(scan.components) == 1
        if ok:
            cx, cy = scan.components[0].representative
            ax, ay = entry.expected_scan["at"]
            ok = math.hypot(cx - ax, cy - ay) <= 2e-2
        return check_flag("scan_point", ok)
    return check_flag("scan_on_x_axis", bool(scan.components) and all(  # "line-y0"
        abs(y) <= 1e-9 for comp in scan.components for _, y in comp.nodes))


def _counterexample_triple(entry: GalleryEntry,
                           patch: Optional[RuledPatch] = None) -> list[Check]:
    def xt_graph(x: np.ndarray, t: np.ndarray) -> np.ndarray:   # y over the xt-plane
        return -x * ex.pointwise(math.tan, ex.pointwise(math.tanh, t))

    # entire graph over the xt-plane: y(x, t) finite on a window
    x, t = Grid2(square(3.0), 31, 31).points()  # (x, t) nodes
    y = xt_graph(x, t)
    # empty characteristic locus: W > 0 on the surface sample; np.min keeps
    # a NaN W, so a sample where W is undefined fails the check
    wmin = float(np.min(entry.implicit.horizontal_data(x, y, t)))
    # not a vertical plane: fit a x + b y = c to surface points, residual large
    x, t = Grid2(square(3.0), 13, 13).points()
    arr = np.column_stack((x, xt_graph(x, t)))
    arr -= arr.mean(axis=0)
    residual = _planar_residual(arr)
    return [check_flag("entire_xt_graph", bool(np.isfinite(y).all())),
            check_flag("empty_characteristic_locus", wmin > 1e-6, note=f"min W = {wmin:.3e}"),
            check_flag("not_vertical_plane", residual > 1e-2,
                       note=f"planar residual {residual:.3e}")]


def _planar_residual(points: np.ndarray) -> float:
    """The smallest singular value of centred n x 2 ``points``.

    It is the root of the least eigenvalue of their 2 x 2 Gram matrix, in
    closed form, so no LAPACK (nor BLAS) routine runs.  On collinear points
    rounding can leave the radicand slightly negative, hence the guard.
    """
    u, v = points.T
    a, b, c = np.sum(u * u), np.sum(u * v), np.sum(v * v)
    return math.sqrt(max(0.0, (a + c) / 2 - math.hypot((a - c) / 2, b)))


def _optreg2_corner(entry: GalleryEntry, patch: RuledPatch) -> list[Check]:
    def branch(s):   # the bounded root r of the locus at s, over arrays
        with np.errstate(all="ignore"):
            return np.where(s != 0.0, (np.sqrt(1.0 + 2.0 * abs(s)) - 1.0) / abs(s), 1.0)

    rep = characteristic_locus(patch, n_s=41)
    bounded = rep.r > 0   # r > 0 picks the bounded branch
    worst = worst_abs(rep.r[bounded] - branch(rep.s[bounded]))
    sp = locus_branch_slope(patch, 0.0, +1)
    sm = locus_branch_slope(patch, 0.0, -1)
    return [check_leq("optreg2_branch_values", worst, 1e-8),
            # the locus's own root at the corner s = 0, where the branch is 1
            check_leq("optreg2_branch_at_0", worst_abs(rep.r[rep.s == 0.0] - 1.0), 1e-12),
            check_leq("optreg2_slope_jump", abs(abs(sp - sm) - 1.0), 1e-3,
                      note=f"slopes {sp:.6f} / {sm:.6f}")]


def _cylinder_checks(entry: GalleryEntry, patch: RuledPatch) -> list[Check]:
    s1, s2 = entry.ruled_pair()
    images = (half.embed(*Grid2(PlanarDomain(*half.s_range, -2.0, 2.0), 25, 25).points())
              for half in (s1, s2))
    worst = worst_abs(np.concatenate([entry.implicit.phi(*g) for g in images]))
    # piecewise-constant Gauss map (+-1, 0) off the characteristic locus
    return [check_leq("cylinder_implicit_residual", worst, 1e-9),
            check_leq("cylinder_gauss_piecewise", worst_abs(_cylinder_gauss_errors(s1, s2)), 1e-9)]


def _cylinder_gauss_errors(*patches: RuledPatch) -> np.ndarray:
    """|nu_1| - 1 and nu_2 of ``_chart_nu`` at (s, r) nodes off the characteristic locus."""
    errors = []
    s, r = Grid2(PlanarDomain(-0.9, 0.9, -1.5, 1.5), 13, 13).points()
    for patch in patches:
        keep = ~(abs(patch.w(s, r)) < 1e-2)
        nu1, nu2 = _chart_nu(patch, s[keep], r[keep])
        errors += [abs(nu1) - 1.0, nu2]
    return np.concatenate(errors)


def _gencurve_even_checks(entry: GalleryEntry, patch: RuledPatch) -> list[Check]:
    # two sheets over the same planar points: not globally a graph
    x, y = Grid2(PlanarDomain(0.2, 1.8, -1.0, 1.0), 9, 9).points()
    gap = entry.graph.h.value(x, y) - entry.graph_lower.h.value(x, y)
    return [check_flag("gencurve_even_two_sheets", bool((abs(gap) > 1e-6).any()))]
