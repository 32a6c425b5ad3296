"""Horizontal-geometry operators on surfaces.

For a graph t = h(x, y) the defining function is phi = t - h, so

    p = X1 phi = -(h_x + y/2),   q = X2 phi = -(h_y - x/2),
    W = sqrt(p^2 + q^2)

and the projected horizontal Gauss map is nu = (p, q)/W, defined off the
characteristic set {W = 0}.  The H-mean curvature is the planar divergence
of nu; it is evaluated both in divergence form (differencing the unit
field) and in the equivalent p/q form

    H = (q^2 p_x + p^2 q_y - p q (q_x + p_y)) / W^3

and the two evaluations are required to agree (1e-8 with analytic
derivatives, 1e-4 in pure finite-difference mode).

Implicit surfaces phi(x, y, t) = 0 carry an orientation flag; negating the
orientation negates the curvature.  Curvature at characteristic points is
deliberately left undefined: the scan reports the locus instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import (CharacteristicPoint, FieldUndefined, HminError,
                     NonPositiveRadius, NotAGraphAfterTransform)
from .fields import FD_STEP, Grid2, PlanarDomain, Profile, ScalarField2
from .heis import HPoint, group_mul

EPS_CHAR = 1e-9
W_MARGIN = 1e-3      # curvature is read only where W exceeds this
HOMOGENEOUS_DIM = 4  # Q for the first Heisenberg group


class CurvatureMismatch(HminError):
    """Divergence-form and p/q-form curvature disagree beyond tolerance."""


@dataclass
class GraphPatch:
    """A surface patch t = h(x, y) over a planar domain."""

    domain: PlanarDomain
    h: ScalarField2

    def __post_init__(self):
        if self.h.domain is None:
            self.h.domain = self.domain

    @staticmethod
    def from_expr(src: str, domain: PlanarDomain) -> "GraphPatch":
        return GraphPatch(domain, ScalarField2.from_expr(src, domain))

    def fd_only(self) -> "GraphPatch":
        return GraphPatch(self.domain, self.h.fd_only())

    @property
    def analytic(self) -> bool:
        return self.h.grad is not None

    def point(self, x: float, y: float) -> HPoint:
        t = self.h.value(x, y)
        if not math.isfinite(t):
            raise FieldUndefined(f"height not finite at ({x}, {y})")
        return HPoint(x, y, t)


class HorizontalData(NamedTuple):
    p: float
    q: float
    w: float
    nu: Optional[tuple[float, float]]  # absent exactly at characteristic points


@dataclass(frozen=True)
class ShapeMatrix:
    entries: tuple[tuple[float, float], tuple[float, float]]

    @property
    def trace(self) -> float:
        return self.entries[0][0] + self.entries[1][1]

    def eigenvalues(self) -> tuple[float, float]:
        vals = np.linalg.eigvals(np.array(self.entries))
        vals = sorted(float(v.real) for v in vals)
        return (vals[0], vals[1])

    def apply(self, v: tuple[float, float]) -> tuple[float, float]:
        (a, b), (c, d) = self.entries
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def _pq(patch: GraphPatch, x: float, y: float, jet: Optional[tuple] = None) -> tuple[float, float]:
    hx, hy = patch.h.gradient(x, y) if jet is None else (jet[1], jet[2])
    return (-(hx + 0.5 * y), -(hy - 0.5 * x))


def horizontal_data(patch: GraphPatch, z: tuple[float, float],
                    jet: Optional[tuple] = None) -> HorizontalData:
    """p, q, W and nu at z; ``jet`` is the field's jet at z, if the caller has it."""
    p, q = _pq(patch, z[0], z[1], jet)
    w = math.hypot(p, q)
    nu = (p / w, q / w) if w > EPS_CHAR else None
    return HorizontalData(p, q, w, nu)


def unit_horizontal_field(patch: GraphPatch) -> Callable[[float, float], tuple[float, float]]:
    """The planar unit field nu = (p, q)/W on the patch domain.

    Raises FieldUndefined off the domain or where W <= EPS_CHAR (analytic
    evaluators would otherwise happily extend past the declared domain).
    """

    def nu(x: float, y: float) -> tuple[float, float]:
        if not patch.domain.contains(x, y):
            raise FieldUndefined(f"({x}, {y}) outside the patch domain")
        p, q = _pq(patch, x, y)
        w = math.hypot(p, q)
        if not math.isfinite(w) or w <= EPS_CHAR:
            raise FieldUndefined(f"horizontal Gauss map undefined at ({x}, {y}), W={w}")
        return (p / w, q / w)

    return nu


def _cube(w: float) -> float:
    """w ** 3, or inf where a float power would raise OverflowError."""
    try:
        return w ** 3
    except OverflowError:
        return math.inf


def _curvature_terms(patch: GraphPatch, x: float, y: float, jet: Optional[tuple]):
    """p, q, W and (p_x, p_y, q_x, q_y) at a non-characteristic point.

    W is tested before the Hessian is read (a 1-jet is completed only then).
    Without a jet the height is not read: on a chart-inverted graph it costs
    a Newton solve.
    """
    p, q = _pq(patch, x, y, jet)
    w = math.hypot(p, q)
    if w <= EPS_CHAR:
        raise CharacteristicPoint(f"W={w} at ({x}, {y})")
    if jet is None:
        (hxx, hxy), (_, hyy) = patch.h.hessian(x, y)
    else:
        _, _, _, hxx, hxy, hyy = patch.h.jet(x, y, jet)
    return p, q, w, -hxx, -(hxy + 0.5), -(hxy - 0.5), -hyy


def _curvature_div_form(patch: GraphPatch, x: float, y: float, step: float) -> float:
    nu = unit_horizontal_field(patch)
    dnu1 = (nu(x + step, y)[0] - nu(x - step, y)[0]) / (2.0 * step)
    dnu2 = (nu(x, y + step)[1] - nu(x, y - step)[1]) / (2.0 * step)
    return dnu1 + dnu2


def h_mean_curvature(patch: GraphPatch, z: tuple[float, float],
                     cross_check: bool = True, jet: Optional[tuple] = None) -> float:
    """H-mean curvature at a non-characteristic point of the patch.

    Returns the p/q-form value, read from ``jet`` (the field's jet at z)
    when given.  With ``cross_check`` the divergence form is evaluated
    independently and a disagreement beyond tolerance raises
    CurvatureMismatch.  The tolerance relaxes like (0.05/W)^3 close to the
    characteristic set, where the unit field's derivatives blow up.
    """
    x, y = z
    p, q, w, p_x, p_y, q_x, q_y = _curvature_terms(patch, x, y, jet)
    value = (q * q * p_x + p * p * q_y - p * q * (q_x + p_y)) / _cube(w)
    if cross_check:
        if patch.analytic:
            base_tol, step = 1e-8, patch.h.fd_step
        else:
            base_tol, step = 1e-4, max(patch.h.fd_step, 1e-4)
        other = _curvature_div_form(patch, x, y, step)
        tol = base_tol * max(1.0, (0.05 / w) ** 3)
        if abs(value - other) > tol:
            raise CurvatureMismatch(
                f"pq-form {value} vs divergence-form {other} at ({x}, {y}), tol {tol}")
    return value


def shape_matrix(patch: GraphPatch, z: tuple[float, float],
                 jet: Optional[tuple] = None) -> ShapeMatrix:
    """The 2x2 horizontal shape operator; trace = H, (p, q) in the kernel."""
    p, q, w, p_x, p_y, q_x, q_y = _curvature_terms(patch, z[0], z[1], jet)
    w3 = _cube(w)
    a11 = (q * q * p_x - p * q * q_x) / w3
    a12 = (p * p * q_x - p * q * p_x) / w3
    a21 = (q * q * p_y - p * q * q_y) / w3
    a22 = (p * p * q_y - p * q * p_y) / w3
    return ShapeMatrix(((a11, a12), (a21, a22)))


# ---------------------------------------------------------------------------
# Rotationally invariant surfaces t = u(|z|^2 / 4)
# ---------------------------------------------------------------------------


def rotational_curvature(u: Profile, s: float) -> float:
    """H-mean curvature of the level set u(|z|^2/4) - t = 0 at radius s = |z|^2/4.

    Note the orientation: this uses phi = u - t, opposite to the graph
    convention phi = t - h, so signs flip relative to h_mean_curvature.
    """
    if s <= 0.0:
        raise NonPositiveRadius(f"s={s} must be positive")
    up, upp = u.d(s), u.dd(s)
    one = 1.0 + up * up
    return (2.0 * s * upp + (HOMOGENEOUS_DIM - 3.0) * up * one) / (2.0 * math.sqrt(s) * one ** 1.5)


def catenoid_profile(a: float, u0: float) -> Profile:
    """The zero-curvature profile u(s) = u0 + (2/a) sqrt(a s - 1), s >= 1/a."""
    if a <= 0.0:
        raise ValueError("a must be positive")

    def f(s: float) -> float:
        return u0 + (2.0 / a) * math.sqrt(a * s - 1.0)

    def d1(s: float) -> float:
        return 1.0 / math.sqrt(a * s - 1.0)

    def d2(s: float) -> float:
        return -0.5 * a * (a * s - 1.0) ** -1.5

    return Profile(f=f, d1=d1, d2=d2)


# ---------------------------------------------------------------------------
# Symmetries: left translation and rotation about the t-axis
# ---------------------------------------------------------------------------


def translate_graph(patch: GraphPatch, g0: HPoint) -> GraphPatch:
    """Left-translate a graph patch; the image is again a graph.

    The planar part translates by (x0, y0) and the height becomes
    h(x - x0, y - y0) + t0 - ((x - x0) y0 - x0 (y - y0))/2, so p and q (and
    hence the curvature) are carried along exactly.
    """
    x0, y0, t0 = g0.x, g0.y, g0.t
    old = patch.h
    dom = patch.domain
    membership = None
    if dom.membership is not None:
        membership = lambda x, y, m=dom.membership: m(x - x0, y - y0)  # noqa: E731
    new_dom = PlanarDomain(dom.xmin + x0, dom.xmax + x0, dom.ymin + y0, dom.ymax + y0,
                           membership)

    def f(x: float, y: float) -> float:
        return old.value(x - x0, y - y0) + t0 - 0.5 * ((x - x0) * y0 - x0 * (y - y0))

    grad = None
    if old.grad is not None:
        def grad(x: float, y: float):
            gx, gy = old.gradient(x - x0, y - y0)
            return (gx - 0.5 * y0, gy + 0.5 * x0)

    hess = None
    if old.hess is not None:
        hess = lambda x, y: old.hessian(x - x0, y - y0)  # noqa: E731

    return GraphPatch(new_dom, ScalarField2(f=f, grad=grad, hess=hess,
                                            fd_step=old.fd_step, domain=new_dom))


def rotate_graph(patch: GraphPatch, theta: float) -> GraphPatch:
    """Rotate a graph patch about the t-axis; the image is again a graph."""
    c, s = math.cos(theta), math.sin(theta)
    old = patch.h
    dom = patch.domain

    def back(x: float, y: float) -> tuple[float, float]:
        return (c * x + s * y, -s * x + c * y)

    corners = [(dom.xmin, dom.ymin), (dom.xmin, dom.ymax), (dom.xmax, dom.ymin),
               (dom.xmax, dom.ymax)]
    rot = [(c * px - s * py, s * px + c * py) for px, py in corners]
    xs, ys = [p[0] for p in rot], [p[1] for p in rot]

    def membership(x: float, y: float) -> bool:
        bx, by = back(x, y)
        return dom.contains(bx, by)

    new_dom = PlanarDomain(min(xs), max(xs), min(ys), max(ys), membership)

    def f(x: float, y: float) -> float:
        return old.value(*back(x, y))

    grad = None
    if old.grad is not None:
        def grad(x: float, y: float):
            gx, gy = old.gradient(*back(x, y))
            return (c * gx - s * gy, s * gx + c * gy)

    hess = None
    if old.hess is not None:
        def hess(x: float, y: float):
            (axx, axy), (_, ayy) = old.hessian(*back(x, y))
            m = np.array([[axx, axy], [axy, ayy]])
            r = np.array([[c, -s], [s, c]])
            out = r @ m @ r.T
            return ((out[0, 0], out[0, 1]), (out[1, 0], out[1, 1]))

    return GraphPatch(new_dom, ScalarField2(f=f, grad=grad, hess=hess,
                                            fd_step=old.fd_step, domain=new_dom))


def left_translate_points(points: Sequence[HPoint], g0: HPoint) -> list[HPoint]:
    return [group_mul(g0, g) for g in points]


def points_to_graph_samples(points: Sequence[HPoint], tol: float = 1e-9) -> dict:
    """Vertical-line test for a transformed point set.

    Raises NotAGraphAfterTransform when two points share a planar position
    (within tol) but have different heights.
    """
    seen: dict[tuple[float, float], float] = {}
    for g in points:
        key = (round(g.x / tol) * tol, round(g.y / tol) * tol)
        if key in seen and abs(seen[key] - g.t) > tol:
            raise NotAGraphAfterTransform(
                f"two heights {seen[key]} and {g.t} over planar point {key}")
        seen[key] = g.t
    return seen


# ---------------------------------------------------------------------------
# Characteristic-locus scan on a planar grid
# ---------------------------------------------------------------------------


@dataclass
class ScanComponent:
    nodes: list[tuple[float, float]]          # grid nodes with W < eps
    refined: list[tuple[float, float]]        # sub-grid points from edge bisection
    images: list[HPoint]                      # lifted representatives on the surface

    @property
    def representative(self) -> tuple[float, float]:
        pts = self.refined or self.nodes
        arr = np.array(pts)
        c = arr.mean(axis=0)
        return (float(c[0]), float(c[1]))


@dataclass
class CharacteristicScan:
    components: list[ScanComponent]

    @property
    def empty(self) -> bool:
        return not self.components


def _edge_min(wfun: Callable[[float, float], float], a: tuple[float, float],
              b: tuple[float, float]) -> tuple[tuple[float, float], float]:
    """Golden-section minimum of W along the segment [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0

    def at(t: float) -> tuple[float, float]:
        return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))

    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = wfun(*at(c)), wfun(*at(d))
    for _ in range(60):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = wfun(*at(c))
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = wfun(*at(d))
    t = 0.5 * (lo + hi)
    return at(t), wfun(*at(t))


def characteristic_scan(patch: GraphPatch, grid: Grid2, eps: float) -> CharacteristicScan:
    """Grid nodes with W < eps, clustered, with sub-grid edge refinement."""
    def wfun(x: float, y: float) -> float:
        p, q = _pq(patch, x, y)
        return math.hypot(p, q)

    xs, ys = grid.lattice()
    ni, nj = len(xs), len(ys)
    w = np.full((ni, nj), np.inf)
    inside = np.zeros((ni, nj), dtype=bool)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if not grid.domain.contains(float(x), float(y)):
                continue
            inside[i, j] = True
            w[i, j] = wfun(float(x), float(y))
    flagged = inside & (w < eps)

    # cluster flagged nodes into 8-connected components
    comp = -np.ones((ni, nj), dtype=int)
    comps: list[list[tuple[int, int]]] = []
    for i in range(ni):
        for j in range(nj):
            if not flagged[i, j] or comp[i, j] >= 0:
                continue
            stack = [(i, j)]
            comp[i, j] = len(comps)
            members = []
            while stack:
                ci, cj = stack.pop()
                members.append((ci, cj))
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ai, aj = ci + di, cj + dj
                        if 0 <= ai < ni and 0 <= aj < nj and flagged[ai, aj] and comp[ai, aj] < 0:
                            comp[ai, aj] = len(comps)
                            stack.append((ai, aj))
            comps.append(members)

    out = []
    for members in comps:
        nodes = [(float(xs[i]), float(ys[j])) for i, j in members]
        refined = []
        for i, j in members:
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ai, aj = i + di, j + dj
                if 0 <= ai < ni and 0 <= aj < nj and inside[ai, aj] and not flagged[ai, aj]:
                    pt, wmin = _edge_min(wfun, (float(xs[i]), float(ys[j])),
                                         (float(xs[ai]), float(ys[aj])))
                    if wmin < eps:
                        refined.append(pt)
        images = [patch.point(x, y) for x, y in nodes[:8]]
        out.append(ScanComponent(nodes, refined, images))
    return CharacteristicScan(out)


# ---------------------------------------------------------------------------
# Implicit surfaces phi(x, y, t) = 0
# ---------------------------------------------------------------------------


class _Compiled(NamedTuple):
    """The evaluators ``ImplicitSurface.from_expr`` compiles, in (x, y, t)."""

    pq: Callable     # (p, q)
    dt: Callable     # phi_t
    curv: Callable   # (p, q, p_x, p_y, p_t, q_x, q_y, q_t)


@dataclass
class ImplicitSurface:
    """Level set phi = 0 with an orientation flag (+1 keeps phi, -1 negates it)."""

    phi: Callable[[float, float, float], float]
    orientation: int = 1
    _sym: Optional[_Compiled] = None  # without it, derivatives difference phi

    @staticmethod
    def from_expr(src: str, orientation: int = 1) -> "ImplicitSurface":
        tree = ex.parse(src)
        xyt = ("x", "y", "t")
        dt = ex.differentiate(tree, "t")
        half_y = ex.div(ex.Var("y"), ex.Num(2.0))
        half_x = ex.div(ex.Var("x"), ex.Num(2.0))
        p = ex.sub(ex.differentiate(tree, "x"), ex.mul(half_y, dt))   # X1 phi
        q = ex.add(ex.differentiate(tree, "y"), ex.mul(half_x, dt))   # X2 phi
        curv = [p, q] + [ex.differentiate(f, v) for f in (p, q) for v in xyt]
        compiled = _Compiled(ex.compile_fn([p, q], xyt), ex.compile_fn(dt, xyt),
                             ex.compile_fn(curv, xyt))
        return ImplicitSurface(phi=ex.compile_fn(tree, xyt), orientation=orientation,
                               _sym=compiled)

    def _pq(self, x: float, y: float, t: float) -> tuple[float, float]:
        o = float(self.orientation)
        if self._sym is not None:
            p, q = self._sym.pq(x, y, t)
            return (o * p, o * q)
        h = FD_STEP
        phix = (self.phi(x + h, y, t) - self.phi(x - h, y, t)) / (2.0 * h)
        phiy = (self.phi(x, y + h, t) - self.phi(x, y - h, t)) / (2.0 * h)
        phit = (self.phi(x, y, t + h) - self.phi(x, y, t - h)) / (2.0 * h)
        return (o * (phix - 0.5 * y * phit), o * (phiy + 0.5 * x * phit))

    def horizontal_data(self, g: HPoint) -> HorizontalData:
        p, q = self._pq(g.x, g.y, g.t)
        w = math.hypot(p, q)
        nu = (p / w, q / w) if w > EPS_CHAR else None
        return HorizontalData(p, q, w, nu)

    def _x_derivative(self, fn: Callable, g: HPoint, which: int) -> float:
        # directional derivative along X1 (which=1) or X2 (which=2)
        h = FD_STEP
        if which == 1:
            fp = fn(g.x + h, g.y, g.t - 0.5 * g.y * h)
            fm = fn(g.x - h, g.y, g.t + 0.5 * g.y * h)
        else:
            fp = fn(g.x, g.y + h, g.t + 0.5 * g.x * h)
            fm = fn(g.x, g.y - h, g.t - 0.5 * g.x * h)
        return (fp - fm) / (2.0 * h)

    def h_mean_curvature(self, g: HPoint) -> float:
        x, y, t = g.x, g.y, g.t
        if self._sym is not None:
            o = float(self.orientation)
            p, q, p_x, p_y, p_t, q_x, q_y, q_t = self._sym.curv(x, y, t)
            p, q = o * p, o * q
            x1p, x2p = o * (p_x - 0.5 * y * p_t), o * (p_y + 0.5 * x * p_t)
            x1q, x2q = o * (q_x - 0.5 * y * q_t), o * (q_y + 0.5 * x * q_t)
        else:
            p, q = self._pq(x, y, t)
            pf = lambda x, y, t: self._pq(x, y, t)[0]  # noqa: E731
            qf = lambda x, y, t: self._pq(x, y, t)[1]  # noqa: E731
            x1p, x2p = self._x_derivative(pf, g, 1), self._x_derivative(pf, g, 2)
            x1q, x2q = self._x_derivative(qf, g, 1), self._x_derivative(qf, g, 2)
        w = math.hypot(p, q)
        if w <= EPS_CHAR:
            raise CharacteristicPoint(f"W={w} at {g}")
        return (q * q * x1p + p * p * x2q - p * q * (x1q + x2p)) / _cube(w)

    def flipped(self) -> "ImplicitSurface":
        return replace(self, orientation=-self.orientation)

    def solve_height(self, x: float, y: float, t0: float) -> float:
        """1-D Newton for t with phi(x, y, t) = 0, starting from t0."""
        t = t0
        for _ in range(60):
            val = self.phi(x, y, t)
            if abs(val) < 1e-12:
                return t
            if self._sym is not None:
                dt = self._sym.dt(x, y, t)
            else:
                dt = (self.phi(x, y, t + FD_STEP) - self.phi(x, y, t - FD_STEP)) / (2.0 * FD_STEP)
            if dt == 0.0 or not math.isfinite(dt):
                break
            t -= val / dt
        if abs(self.phi(x, y, t)) < 1e-9:
            return t
        raise FieldUndefined(f"could not solve phi({x}, {y}, t) = 0 near t0={t0}")
