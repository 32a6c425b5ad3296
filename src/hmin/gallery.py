"""Built-in catalog of reference H-minimal surfaces.

Every entry bundles closed-form data (graph and/or implicit form, known
seed curve, curvature, height function, expected loci) together with the
domains on which the numerical checks run.  ``gallery_verify`` replays
the standard battery against an entry: curvature scans in analytic and
pure-FD mode, seed extraction against the closed form, curvature values,
characteristic loci, and the representation round-trip.

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
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .errors import StencilOutOfDomain, UnknownName
from .fields import Grid2, PlanarDomain, Profile, chunks, cumulative_integral, over_arrays
from .heis import HPoint
from .report import Check, check_flag, check_leq, worst_abs
from .ruled import (GeneralizedSeedCurve, GSCJoin, GSCPiece, RuledPatch,
                    characteristic_locus, chart_height_gradient, curvature_on_patch,
                    locus_branch_slope, roundtrip, validate_gsc, w_direct,
                    worst_on_chart)
from .seed import SeedCurve, curvature, extract_seed
from .surface import (EPS_CHAR, W_MARGIN, GraphPatch, ImplicitSurface,
                      characteristic_scan, h_mean_curvature, horizontal_data)

TOL_H_ANALYTIC = 1e-8
TOL_H_FD = 1e-4


# ---------------------------------------------------------------------------
# Closed-form seed constructors
# ---------------------------------------------------------------------------


def circle_seed(center: tuple[float, float], z0: tuple[float, float],
                s_range: tuple[float, float], sense: float = 1.0) -> SeedCurve:
    """Arclength circle through z0 around center; sense=+1 is counterclockwise
    (signed curvature -sense/radius)."""
    cx, cy = center
    rho = math.hypot(z0[0] - cx, z0[1] - cy)
    phi0 = math.atan2(z0[1] - cy, z0[0] - cx)

    def gamma(s: float):
        th = phi0 + sense * s / rho
        return (cx + rho * math.cos(th), cy + rho * math.sin(th))

    def dgamma(s: float):
        th = phi0 + sense * s / rho
        return (-sense * math.sin(th), sense * math.cos(th))

    def ddgamma(s: float):
        th = phi0 + sense * s / rho
        return (-math.cos(th) / rho, -math.sin(th) / rho)

    return SeedCurve.from_callables(gamma, dgamma, ddgamma, s_range)


def line_seed(z0: tuple[float, float], direction: tuple[float, float],
              s_range: tuple[float, float]) -> SeedCurve:
    norm = math.hypot(*direction)
    dx, dy = direction[0] / norm, direction[1] / norm
    return SeedCurve.from_callables(
        lambda s: (z0[0] + s * dx, z0[1] + s * dy),
        lambda s: (dx, dy),
        lambda s: (0.0, 0.0),
        s_range,
    )


def catenoid_seed(a: float, z0: tuple[float, float], s_range: tuple[float, float],
                  sheet: float = 1.0) -> SeedCurve:
    """Spiral seed of the catenoid sheet t = u0 + sheet*(2/a) sqrt(a|z|^2/4 - 1).

    The radius obeys |gamma(s)|^2 = |z0|^2 - sheet*(4/sqrt(a)) s and the polar
    angle rate is theta' = sqrt(rho^2 - 4/a)/rho^2 (integrated by quadrature).
    The base point z0 sits at s = 0, which must lie inside s_range.
    """
    if not (s_range[0] <= 0.0 <= s_range[1]):
        raise ValueError("catenoid_seed expects s_range to contain the base s = 0")
    rho0 = math.hypot(*z0)
    th0 = math.atan2(z0[1], z0[0])
    rate = 4.0 / math.sqrt(a)

    @over_arrays
    def theta_rate(s):
        r2 = rho0 * rho0 - sheet * rate * s
        return ex.pointwise(math.sqrt, ex.pointwise(max, r2 - 4.0 / a, 0.0)) / r2

    # sample grid containing s = 0 exactly, so theta(0) = th0 needs no offset
    n = 801
    n_lo = max(2, int(round(n * (-s_range[0]) / (s_range[1] - s_range[0])))) if s_range[0] < 0 else 0
    n_hi = max(2, n - n_lo) if s_range[1] > 0 else 0
    parts = []
    if n_lo:
        parts.append(np.linspace(s_range[0], 0.0, n_lo + 1)[:-1])
    parts.append(np.array([0.0]))
    if n_hi:
        parts.append(np.linspace(0.0, s_range[1], n_hi + 1)[1:])
    s = np.concatenate(parts)
    i0 = int(np.argmin(np.abs(s)))
    theta = cumulative_integral(theta_rate, s)
    theta += th0 - theta[i0]
    r = ex.pointwise(math.sqrt, rho0 * rho0 - sheet * rate * s)
    c, sn = ex.pointwise(math.cos, theta), ex.pointwise(math.sin, theta)
    g = np.column_stack((r * c, r * sn))
    drho, dth = -sheet * rate / (2.0 * r), theta_rate(s)
    dg = np.column_stack((drho * c - r * dth * sn, drho * sn + r * dth * c))
    ddg = np.gradient(dg, s, axis=0)
    # arclength forces gamma'' _|_ gamma'; drop the differencing error's
    # tangential component
    ddg -= np.einsum("ij,ij->i", ddg, dg)[:, None] * dg
    return SeedCurve(s, g, dg, ddg, provenance="closed-form")


def optreg2_seed() -> SeedCurve:
    """Seed with signed curvature -|s|: gamma' = (cos Psi, sin Psi),
    Psi(s) = (1 + sign(s) s^2)/2, positions by quadrature from gamma(-1) = 0."""

    def psi(s):
        # s |s| is copysign(s * s, s): rounding is symmetric about 0
        return 0.5 * (1.0 + s * abs(s))

    @over_arrays
    def cos_psi(s):
        return ex.pointwise(math.cos, psi(s))

    @over_arrays
    def sin_psi(s):
        return ex.pointwise(math.sin, psi(s))

    @over_arrays
    def dgamma(s) -> tuple:
        return (cos_psi(s), sin_psi(s))

    @over_arrays
    def ddgamma(s) -> tuple:
        return (-abs(s) * sin_psi(s), abs(s) * cos_psi(s))

    s = np.linspace(-1.0, 1.0, 801)
    g = np.column_stack((cumulative_integral(cos_psi, s), cumulative_integral(sin_psi, s)))
    dg, ddg = np.column_stack(dgamma(s)), np.column_stack(ddgamma(s))
    return SeedCurve(s, g, dg, ddg, provenance="closed-form",
                     dgamma_fn=dgamma, ddgamma_fn=ddgamma)


def _profile_from_samples(s: np.ndarray, values: np.ndarray,
                          d1: Callable[[float], float]) -> Profile:
    """Cubic Hermite profile through (s, values) with the exact slope d1, a
    function marked by ``over_arrays``; the node slopes are read in one call."""

    nodes, vals, slopes = s.tolist(), values.tolist(), d1(s).tolist()

    def f(sq: float) -> float:
        i = min(max(bisect_left(nodes, sq) - 1, 0), len(nodes) - 2)
        s0, s1 = nodes[i], nodes[i + 1]
        dt = s1 - s0
        t = (sq - s0) / dt
        t2, t3 = t * t, t * t * t
        return float((2 * t3 - 3 * t2 + 1) * vals[i] + (t3 - 2 * t2 + t) * dt * slopes[i]
                     + (-2 * t3 + 3 * t2) * vals[i + 1] + (t3 - t2) * dt * slopes[i + 1])

    return Profile(f=f, d1=d1)


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


@dataclass
class GalleryEntry:
    name: str
    params: dict
    notes: str = ""
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
    known_h0: Optional[Callable[[tuple[float, float]], Profile]] = None
    scan_domain: Optional[PlanarDomain] = None
    radius_law: Optional[Callable[[tuple[float, float], float], float]] = None
    ruled: Optional[Callable[[], RuledPatch]] = None
    ruled_pair: Optional[Callable[[], tuple[RuledPatch, RuledPatch]]] = None
    gsc: Optional[Callable[[], GeneralizedSeedCurve]] = None
    expected_scan: Optional[dict] = None
    expected_chart_label: Optional[str] = None
    expected_chart_root: Optional[Callable[[float], float]] = None
    check_roundtrip: bool = False  # rebuild the graph from the seed through seed_base
    xt_graph: Optional[Callable[[float, float], float]] = None
    extra: dict = dc_field(default_factory=dict)


def _num(v: float) -> str:
    return f"({v!r})"


def _char_plane() -> GalleryEntry:
    dom = PlanarDomain(-2.2, 2.2, -2.2, 2.2)
    entry = GalleryEntry(
        name="char-plane",
        params={},
        notes="the plane t = 0; one characteristic point at the origin",
        graph=GraphPatch.from_expr("0", dom),
        implicit=ImplicitSurface.from_expr("t"),
        verify_domain=PlanarDomain(-2.0, 2.0, -2.0, 2.0),
        seed_base=(1.0, 0.0),
        arc_span=math.pi,
        known_seed=lambda z0: circle_seed((0.0, 0.0), z0, (-math.pi, math.pi)),
        known_kappa=lambda z0: -1.0 / math.hypot(*z0),
        known_h0=lambda z0: Profile.constant(0.0),
        expected_scan={"kind": "point", "at": (0.0, 0.0)},
        expected_chart_label="double-root",
        expected_chart_root=lambda s: -1.0,
        check_roundtrip=True,
    )
    entry.ruled = lambda: RuledPatch(
        circle_seed((0.0, 0.0), (1.0, 0.0), (-math.pi, math.pi)),
        Profile.constant(0.0), (-math.pi, math.pi), (-0.5, 0.5))
    return entry


def _general_plane(a: float = 1.0, b: float = 2.0, c: float = 2.0,
                   d: float = 4.0) -> GalleryEntry:
    if c == 0.0:
        raise UnknownName("general-plane requires c != 0 (vertical planes have no graph form)")
    src = f"({_num(d)} - {_num(a)}*x - {_num(b)}*y)/{_num(c)}"
    dom = PlanarDomain(-3.2, 3.2, -3.2, 3.2)
    center = (-2.0 * b / c, 2.0 * a / c)
    sense = 1.0 if c > 0 else -1.0
    base = (center[0] + 1.0, center[1])

    def known_seed(z0):
        return circle_seed(center, z0, (-math.pi, math.pi), sense=sense)

    return GalleryEntry(
        name="general-plane",
        params={"a": a, "b": b, "c": c, "d": d},
        notes="plane a x + b y + c t = d; characteristic point (-2b/c, 2a/c, d/c)",
        graph=GraphPatch.from_expr(src, dom),
        implicit=ImplicitSurface.from_expr(
            f"{_num(a)}*x + {_num(b)}*y + {_num(c)}*t - {_num(d)}"),
        verify_domain=PlanarDomain(-3.0, 3.0, -3.0, 3.0),
        seed_base=base,
        arc_span=math.pi / 2,
        known_seed=known_seed,
        known_kappa=lambda z0: -sense / math.hypot(z0[0] - center[0], z0[1] - center[1]),
        expected_scan={"kind": "point", "at": center},
        # scan lattice centered on the characteristic point so a node hits it
        scan_domain=PlanarDomain(center[0] - 1.1, center[0] + 1.1,
                                 center[1] - 1.1, center[1] + 1.1),
    )


def _hyperbolic() -> GalleryEntry:
    dom = PlanarDomain(-2.2, 2.2, -2.2, 2.2)

    def known_seed(z0):
        sgn = 1.0 if z0[1] > 0 else -1.0
        return line_seed(z0, (-sgn, 0.0), (-1.5, 1.5))

    def known_h0(z0):
        x, y = z0
        sgn = 1.0 if y > 0 else -1.0
        return Profile.from_expr(f"{_num(y)}*({_num(x)} - {_num(sgn)}*s)/2")

    entry = GalleryEntry(
        name="hyperbolic",
        params={},
        notes="t = x y/2; straight seeds, characteristic locus on the x-axis",
        graph=GraphPatch.from_expr("x*y/2", dom),
        implicit=ImplicitSurface.from_expr("t - x*y/2"),
        verify_domain=PlanarDomain(-2.0, 2.0, -2.0, 2.0),
        seed_base=(0.0, 1.0),
        arc_span=1.5,
        known_seed=known_seed,
        known_kappa=lambda z0: 0.0,
        known_h0=known_h0,
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
        return over_arrays(lambda x, y: x * x + y * y >= rim2 + margin)

    dom = PlanarDomain(-half, half, -half, half, member(0.08))
    vdom = PlanarDomain(-half + 0.2, half - 0.2, -half + 0.2, half - 0.2, member(0.15))
    rho0 = 2.0 * math.sqrt(rim2)   # comfortably outside the rim
    base = (rho0, 0.0)
    rate = 4.0 / math.sqrt(a)

    def radius_law(z0, s):
        return math.hypot(*z0) ** 2 - rate * s

    entry = GalleryEntry(
        name="catenoid",
        params={"a": a, "u0": u0},
        notes="catenoid-type surface; empty characteristic locus, two sheets",
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
        rho0sq = rho0 * rho0
        s_rim = (rho0sq - rim2) / rate
        s_range = (-1.0, 0.6 * s_rim)
        seed_c = catenoid_seed(a, base, s_range, sheet=1.0)

        def h0f(s: float) -> float:
            r2 = rho0sq - rate * s
            return u0 + (2.0 / a) * math.sqrt(a * r2 / 4.0 - 1.0)

        def h0d(s: float) -> float:
            r2 = rho0sq - rate * s
            return -(1.0 / math.sqrt(a)) / math.sqrt(a * r2 / 4.0 - 1.0)

        return RuledPatch(seed_c, Profile(f=h0f, d1=h0d), s_range, (-0.3, 0.3))

    entry.ruled = ruled

    def gsc():
        rho0sq = rho0 * rho0
        s_rim = (rho0sq - rim2) / rate
        up = catenoid_seed(a, base, (-0.5, s_rim), sheet=1.0)
        rim_pt = up.point(s_rim)

        def h0_up(s: float) -> float:
            return u0 + (2.0 / a) * math.sqrt(max(a * (rho0sq - rate * s) / 4.0 - 1.0, 0.0))

        low = catenoid_seed(a, rim_pt, (0.0, s_rim + 0.5), sheet=-1.0)

        def h0_low(s: float) -> float:
            return u0 - (2.0 / a) * math.sqrt(max(a * (rim2 + rate * s) / 4.0 - 1.0, 0.0))

        pieces = [GSCPiece(up, Profile(f=h0_up), -0.5, s_rim, name="upper"),
                  GSCPiece(low, Profile(f=h0_low), 0.0, s_rim + 0.5, name="lower")]
        return GeneralizedSeedCurve(pieces, [GSCJoin("b", "a")])

    entry.gsc = gsc
    return entry


def _sector(x_min: float, half_angle: float) -> Callable:
    """The membership x >= x_min and |atan2(y, x)| <= half_angle, at a point
    or over arrays (math.atan2 at each element: numpy's differs in the last bit)."""
    @over_arrays
    def inside(x, y):
        return (x >= x_min) & (abs(ex.pointwise(math.atan2, y, x)) <= half_angle)

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

    def known_h0(z0):
        rho = math.hypot(*z0)
        th = math.atan2(z0[1], z0[0])
        return Profile.from_expr(f"-atanh({_num(th)} + s/{_num(rho)})")

    entry = GalleryEntry(
        name="counterexample",
        params={},
        notes="y = -x tan(tanh t): entire graph over the xt-plane with empty "
              "characteristic locus that is not a vertical plane",
        graph=GraphPatch.from_expr("-atanh(atan(y/x))", dom),
        implicit=ImplicitSurface.from_expr("y + x*tan(tanh(t))"),
        verify_domain=vdom,
        seed_base=(1.0, 0.0),
        arc_span=0.85,
        known_seed=known_seed,
        known_kappa=lambda z0: -1.0 / math.hypot(*z0),
        known_h0=known_h0,
        expected_scan={"kind": "empty"},
        expected_chart_label="none",
        check_roundtrip=True,
        xt_graph=lambda x, t: -x * math.tan(math.tanh(t)),
    )
    entry.ruled = lambda: RuledPatch(
        circle_seed((0.0, 0.0), (1.0, 0.0), (-0.9, 0.9)),
        Profile.from_expr("-atanh(s)"), (-0.9, 0.9), (-0.4, 0.4))
    return entry


def _cylinder() -> GalleryEntry:
    dom = PlanarDomain(-0.99, 0.99, -2.2, 2.2)
    vdom = PlanarDomain(-0.95, 0.95, -2.0, 2.0)

    def make_pair():
        s_range = (-0.98, 0.98)
        s1 = RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), s_range),
                        Profile.from_expr("sqrt(1 - s^2)"), s_range, None)
        s2 = RuledPatch(line_seed((0.0, 0.0), (1.0, 0.0), s_range),
                        Profile.from_expr("-sqrt(1 - s^2)"), s_range, None)
        return s1, s2

    def gsc():
        s1, s2 = make_pair()
        pieces = [GSCPiece(s1.seed, s1.h0, -0.98, 0.98, name="upper"),
                  GSCPiece(s2.seed, s2.h0, -0.98, 0.98, name="lower")]
        # the sheets close up along the vertical tangent lines x = +-1
        joins = [GSCJoin("b", "b", plane_normal=(1.0, 0.0)),
                 GSCJoin("a", "a", plane_normal=(1.0, 0.0))]
        return GeneralizedSeedCurve(pieces, joins)

    entry = GalleryEntry(
        name="cylinder",
        params={},
        notes="(t - xy/2)^2 = 1 - x^2: topological cylinder with piecewise "
              "constant horizontal Gauss map (+-1, 0)",
        graph=GraphPatch.from_expr("sqrt(1 - x^2) + x*y/2", dom),
        graph_lower=GraphPatch.from_expr("-sqrt(1 - x^2) + x*y/2", dom),
        implicit=ImplicitSurface.from_expr("(t - x*y/2)^2 - (1 - x^2)"),
        verify_domain=vdom,
        seed_base=(0.0, 1.0),
        arc_span=0.9,
        known_kappa=lambda z0: 0.0,
        expected_chart_label="kappa-zero",
        expected_chart_root=lambda s: -s / math.sqrt(1.0 - s * s),
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
        dom = PlanarDomain(-2.1, 2.1, -2.1, 2.1, over_arrays(lambda x, y: abs(x) >= 0.05))
        vdom = PlanarDomain(-2.0, 2.0, -2.0, 2.0, over_arrays(lambda x, y: abs(x) >= 0.1))
        graph = GraphPatch.from_expr(src, dom)
        graph_lower = None
    else:
        dom = PlanarDomain(0.05, 2.1, -2.1, 2.1)
        vdom = PlanarDomain(0.1, 2.0, -2.0, 2.0)
        graph = GraphPatch.from_expr(f"x^(1/{_num(float(n))}) + x*y/2", dom)
        graph_lower = GraphPatch.from_expr(f"-(x^(1/{_num(float(n))})) + x*y/2", dom)

    def gsc():
        if odd:
            p1 = GSCPiece(line_seed((0.0, 0.0), (1.0, 0.0), (-2.0, 0.0)),
                          Profile(f=lambda s: math.copysign(abs(s) ** (1.0 / n), s)),
                          -2.0, 0.0, name="x<0")
            p2 = GSCPiece(line_seed((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)),
                          Profile(f=lambda s: math.copysign(abs(s) ** (1.0 / n), s)),
                          0.0, 2.0, name="x>0")
            joins = [GSCJoin("b", "a", plane_normal=(1.0, 0.0))]
        else:
            p1 = GSCPiece(line_seed((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)),
                          Profile(f=lambda s: s ** (1.0 / n)), 0.0, 2.0, name="upper")
            p2 = GSCPiece(line_seed((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)),
                          Profile(f=lambda s: -(s ** (1.0 / n))), 0.0, 2.0, name="lower")
            joins = [GSCJoin("a", "a", plane_normal=(1.0, 0.0))]
        return GeneralizedSeedCurve([p1, p2], joins)

    entry = GalleryEntry(
        name="gencurve-n",
        params={"n": n},
        notes="(t - xy/2)^n = x; needs a generalized seed curve (two pieces)",
        graph=graph,
        graph_lower=graph_lower,
        implicit=ImplicitSurface.from_expr(f"(t - x*y/2)^{_num(float(n))} - x"),
        verify_domain=vdom,
        seed_base=(1.0, 0.5),
        arc_span=0.7,
        known_kappa=lambda z0: 0.0,
    )
    entry.gsc = gsc
    s_range = (0.05, 2.0)
    entry.ruled = lambda: RuledPatch(
        line_seed((0.0, 0.0), (1.0, 0.0), s_range),
        Profile(f=lambda s: s ** (1.0 / n)), s_range, (-0.5, 0.5))
    return entry


def _optreg2() -> GalleryEntry:
    seed_c = optreg2_seed()

    @over_arrays
    def h0_rate(s):
        g = seed_c.point(s)
        d = seed_c.tangent(s)
        # chosen so that the angle function along the seed is identically -1
        return -0.5 * (d[0] * g[1] - d[1] * g[0]) + 1.0

    grid = np.linspace(-1.0, 1.0, 801)
    h0_vals = cumulative_integral(h0_rate, grid, tol=1e-11)
    h0 = _profile_from_samples(grid, h0_vals, h0_rate)

    def make_patch():
        return RuledPatch(seed_c, h0, (-1.0, 1.0), (-6.0, 6.0))

    entry = GalleryEntry(
        name="optreg2",
        params={},
        notes="seed curvature -|s|; characteristic branch with a corner at s=0",
        seed_base=None,
        extra={"branch": lambda s: (math.sqrt(1.0 + 2.0 * abs(s)) - 1.0) / abs(s)
               if s != 0.0 else 1.0},
    )
    entry.ruled = make_patch
    return entry


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
        return over_arrays(inside)

    dom = PlanarDomain(-0.97 * R, 0.97 * R, -0.97 * R, 0.97 * R,
                       member(0.04 * R, 0.96 * R))
    vdom = PlanarDomain(-0.96 * R, 0.96 * R, -0.96 * R, 0.96 * R,
                        member(0.05 * R, 0.95 * R))
    return GalleryEntry(
        name="iso-profile",
        params={"R": R},
        notes="isoperimetric-type profile: constant H-mean curvature 2/R "
              "(upper sheet, graph orientation)",
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


def gallery_get(name: str, **params) -> GalleryEntry:
    key = _builder_key(name)
    if key == "gencurve-n":
        suffix = name.split("-", 1)[1]
        if suffix != "n":
            try:
                params.setdefault("n", int(suffix))
            except ValueError:
                raise UnknownName(f"bad gencurve suffix in {name!r}") from None
    if key not in _BUILDERS:
        raise UnknownName(f"unknown gallery entry {name!r}; known: {gallery_names()}")
    for k, v in params.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise UnknownName(f"bad parameters for {name!r}: {k} = {v!r} is not finite")
    try:
        return _BUILDERS[key](**params)
    except TypeError as err:
        raise UnknownName(f"bad parameters for {name!r}: {err}") from None


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------


def max_curvature_deviation(patch: GraphPatch, domain: PlanarDomain,
                            nx: int = 101, ny: int = 101, expect: float = 0.0) -> float:
    """max |H - expect| over non-characteristic grid nodes (W > W_MARGIN).

    A node whose W is NaN is not skipped, and a node where the height is
    not finite counts as NaN, so either makes the result NaN.  So does a
    scan that evaluates no node at all.  The nodes are read through the
    height field's jet one chunk at a time, and every float, and the first
    StencilOutOfDomain, is the one a node-by-node scan gives.
    """
    worst = [worst_abs(dev) for x, y in chunks(*Grid2(domain, nx, ny).points())
             if (dev := _deviations(patch, x, y, expect)).size]
    return worst_abs(worst)


def _deviations(patch: GraphPatch, x: np.ndarray, y: np.ndarray, expect: float) -> np.ndarray:
    """H - expect at the nodes of a chunk with W > W_MARGIN."""
    try:
        jet = patch.h.jet(x, y)
    except StencilOutOfDomain as err:
        # node by node, the nodes before this one come first, and one of
        # them may fail its Hessian stencil
        if err.node:
            _deviations(patch, x[:err.node], y[:err.node], expect)
        raise
    keep = ~(horizontal_data(patch, (x, y), jet=jet).w <= W_MARGIN)
    if not keep.any():
        return np.empty(0)
    x, y, jet = x[keep], y[keep], tuple(a[keep] for a in jet)
    h = h_mean_curvature(patch, (x, y), jet=jet)
    # the derivatives can be finite where the height is not (see expr)
    return np.where(np.isfinite(jet[0]), h - expect, math.nan)


def known_seed_deviation(extracted: SeedCurve, known: SeedCurve) -> float:
    """max |gamma_extracted(s) - gamma_known(s)| / max(1, |s|) over the common s range."""
    s = np.linspace(max(extracted.s_min, known.s_min), min(extracted.s_max, known.s_max), 101)
    (gx, gy), (kx, ky) = extracted.point(s), known.point(s)
    return worst_abs(ex.pointwise(math.hypot, gx - kx, gy - ky)
                     / np.where(abs(s) > 1.0, abs(s), 1.0))


def _seed_deviation(entry: GalleryEntry) -> tuple[float, SeedCurve]:
    extracted = extract_seed(entry.graph, entry.seed_base, entry.arc_span)
    worst = 0.0
    if entry.known_seed is not None:
        worst = known_seed_deviation(extracted, entry.known_seed(entry.seed_base))
    elif entry.radius_law is not None:
        s = np.linspace(max(extracted.s_min, -1.0), min(extracted.s_max, 0.0), 101)
        gx, gy = extracted.point(s)
        worst = worst_abs(gx * gx + gy * gy
                          - ex.pointwise(partial(entry.radius_law, entry.seed_base), s))
    return worst, extracted


def _check_locus(entry: GalleryEntry, report_checks: list[Check]):
    patch = entry.ruled()
    rep = characteristic_locus(patch)
    if entry.expected_chart_label is None:
        return rep
    if entry.expected_chart_label == "none":
        report_checks.append(check_flag("locus_empty", rep.empty))
        return rep
    labels = {lab for _, lab in rep.labels}
    report_checks.append(check_flag(
        f"locus_label_{entry.expected_chart_label}",
        labels == {entry.expected_chart_label},
        note=f"labels seen: {sorted(labels)}"))
    if entry.expected_chart_root is not None:
        worst = worst_abs(r.r - entry.expected_chart_root(r.s) for r in rep.roots)
        report_checks.append(check_leq("locus_root_value", worst, 1e-6))
    report_checks.append(check_flag("locus_verified",
                                    all(r.verified for r in rep.roots)))
    return rep


def gallery_verify(name: str, **params) -> list[Check]:
    """Run the standard checks for one entry; returns labeled pass/fail records."""
    entry = gallery_get(name, **params)
    checks: list[Check] = []

    if entry.graph is not None:
        ta = entry.tol_h_analytic
        dev = max_curvature_deviation(entry.graph, entry.verify_domain,
                                      expect=entry.expected_curvature)
        checks.append(check_leq("h_scan_analytic", dev, ta))
        dev_fd = max_curvature_deviation(entry.graph.fd_only(), entry.verify_domain,
                                         expect=entry.expected_curvature)
        checks.append(check_leq("h_scan_fd", dev_fd, TOL_H_FD))
        if entry.graph_lower is not None:
            dev2 = max_curvature_deviation(entry.graph_lower, entry.verify_domain,
                                           expect=-entry.expected_curvature)
            checks.append(check_leq("h_scan_lower", dev2, ta))

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

    if entry.ruled is not None:
        _check_locus(entry, checks)
        patch = entry.ruled()
        checks.append(check_leq("built_patch_minimal", worst_on_chart(
            patch, 9, lambda s, r: curvature_on_patch(patch, s, r)), 1e-6))
        checks.append(check_leq("w_ode_residual", worst_on_chart(
            patch, 9, patch.w_ode_residual), 1e-6))
        checks.append(check_leq("w_formula_vs_direct", worst_on_chart(
            patch, 7, lambda s, r: abs(patch.w(s, r)) - w_direct(patch, s, r),
            w_min=None), 1e-6))

    if entry.expected_scan is not None and entry.graph is not None:
        checks.append(_check_scan(entry))

    if entry.check_roundtrip:
        err = roundtrip(entry.graph, extracted, entry.arc_span, 0.4)
        checks.append(check_leq("roundtrip", err, 1e-5))

    if entry.gsc is not None:
        validation = validate_gsc(entry.gsc(), 1e-6)
        checks.append(check_flag("gsc_joins", validation.valid,
                                 note=f"max gap {validation.max_gap:.2e}"))

    if entry.name == "counterexample":
        checks.extend(_counterexample_triple(entry))
    if entry.name == "optreg2":
        checks.extend(_optreg2_corner(entry))
    if entry.name == "cylinder":
        checks.extend(_cylinder_checks(entry))
    if entry.name == "gencurve-n" and entry.params["n"] % 2 == 0:
        checks.extend(_gencurve_even_checks(entry))
    if entry.graph is not None and entry.implicit is not None:
        worst = worst_abs(entry.implicit.phi(x, y, entry.graph.h.value(x, y))
                          for x, y in Grid2(entry.verify_domain, 11, 11).nodes)
        checks.append(check_leq("graph_vs_implicit", worst, 1e-10))
    return checks


def _check_scan(entry: GalleryEntry) -> Check:
    """The characteristic scan of the graph against ``expected_scan``."""
    scan = characteristic_scan(entry.graph,
                               Grid2(entry.scan_domain or entry.verify_domain, 101, 101),
                               EPS_CHAR)
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


def _counterexample_triple(entry: GalleryEntry) -> list[Check]:
    checks = []
    # entire graph over the xt-plane: y(x, t) finite on a window
    ok = True
    for x in np.linspace(-3.0, 3.0, 31):
        for t in np.linspace(-3.0, 3.0, 31):
            if not math.isfinite(entry.xt_graph(float(x), float(t))):
                ok = False
    checks.append(check_flag("entire_xt_graph", ok))
    # empty characteristic locus: W > 0 on the surface sample; np.min keeps
    # a NaN W, so a sample where W is undefined fails the check
    wmin = float(np.min([
        entry.implicit.horizontal_data(HPoint(float(x), entry.xt_graph(float(x), float(t)),
                                              float(t))).w
        for x in np.linspace(-3.0, 3.0, 31) for t in np.linspace(-3.0, 3.0, 31)]))
    checks.append(check_flag("empty_characteristic_locus", wmin > 1e-6,
                             note=f"min W = {wmin:.3e}"))
    # not a vertical plane: fit a x + b y = c to surface points, residual large
    pts = []
    for x in np.linspace(-3.0, 3.0, 13):
        for t in np.linspace(-3.0, 3.0, 13):
            pts.append((float(x), entry.xt_graph(float(x), float(t))))
    arr = np.array(pts)
    arr -= arr.mean(axis=0)
    _, sv, _ = np.linalg.svd(arr, full_matrices=False)
    checks.append(check_flag("not_vertical_plane", float(sv[-1]) > 1e-2,
                             note=f"planar residual {float(sv[-1]):.3e}"))
    return checks


def _optreg2_corner(entry: GalleryEntry) -> list[Check]:
    patch = entry.ruled()
    checks = []
    rep = characteristic_locus(patch, n_s=41)
    branch = entry.extra["branch"]
    # r > 0 picks the bounded branch
    worst = worst_abs(root.r - branch(root.s) for root in rep.roots if root.r > 0)
    checks.append(check_leq("optreg2_branch_values", worst, 1e-8))
    val0 = branch(0.0)
    checks.append(check_leq("optreg2_branch_at_0", abs(val0 - 1.0), 1e-12))
    sp = locus_branch_slope(patch, 0.0, +1, which="max")
    sm = locus_branch_slope(patch, 0.0, -1, which="max")
    checks.append(check_leq("optreg2_slope_jump", abs(abs(sp - sm) - 1.0), 1e-3,
                            note=f"slopes {sp:.6f} / {sm:.6f}"))
    return checks


def _cylinder_checks(entry: GalleryEntry) -> list[Check]:
    checks = []
    s1, s2 = entry.ruled_pair()
    r = np.tile(np.linspace(-2.0, 2.0, 25), 25)
    images = (patch.embed(np.repeat(np.linspace(*patch.s_range, 25), 25), r) for patch in (s1, s2))
    worst = worst_abs(np.concatenate([ex.pointwise(entry.implicit.phi, *g) for g in images]))
    checks.append(check_leq("cylinder_implicit_residual", worst, 1e-9))
    # piecewise-constant Gauss map (+-1, 0) off the characteristic locus
    checks.append(check_leq("cylinder_gauss_piecewise",
                            worst_abs(_cylinder_gauss_errors(s1, s2)), 1e-9))
    return checks


def _cylinder_gauss_errors(*patches: RuledPatch) -> np.ndarray:
    """|nu_1| - 1 and nu_2 of the horizontal Gauss map off the characteristic locus."""
    errors = []
    for patch in patches:
        s = np.repeat(np.linspace(-0.9, 0.9, 13), 13)
        r = np.tile(np.linspace(-1.5, 1.5, 13), 13)
        keep = ~(abs(patch.w(s, r)) < 1e-2)
        s, r = s[keep], r[keep]
        x, y = patch.seed.point(s)[0], -r
        hx, hy = chart_height_gradient(patch, s, r)
        p = -(hx + 0.5 * y)
        q = -(hy - 0.5 * x)
        w = ex.pointwise(math.hypot, p, q)
        errors += [abs(p / w) - 1.0, q / w]
    return np.concatenate(errors)


def _gencurve_even_checks(entry: GalleryEntry) -> list[Check]:
    # two sheets over the same planar points: not globally a graph
    from .errors import NotAGraphAfterTransform
    from .surface import points_to_graph_samples
    pts = []
    for x in np.linspace(0.2, 1.8, 9):
        for y in np.linspace(-1.0, 1.0, 9):
            pts.append(entry.graph.point(float(x), float(y)))
            pts.append(entry.graph_lower.point(float(x), float(y)))
    try:
        points_to_graph_samples(pts, tol=1e-6)
        two_sheets = False
    except NotAGraphAfterTransform:
        two_sheets = True
    return [check_flag("gencurve_even_two_sheets", two_sheets)]
