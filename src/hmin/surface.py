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

``horizontal_data`` and ``h_mean_curvature`` (without the cross-check)
also take a chunk of graph nodes, as 1-d arrays x and y together with
the height field's jet there (``ScalarField2.jet``); every element is
the float the same call gives at that node.  W = hypot(p, q) and W^3
are taken per element, as numpy's differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import CharacteristicPoint, FieldUndefined, HminError, NotAGraphAfterTransform
from .fields import Grid2, PlanarDomain, ScalarField2, chunks, over_arrays
from .heis import HPoint

EPS_CHAR = 1e-9
W_MARGIN = 1e-3  # curvature is read only where W exceeds this


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
    # absent exactly at characteristic points; on a chunk, NaN at those nodes
    nu: Optional[tuple[float, float]]


def _pq(patch: GraphPatch, x, y, jet: Optional[tuple] = None) -> tuple:
    hx, hy = patch.h.gradient(x, y) if jet is None else (jet[1], jet[2])
    return (-(hx + 0.5 * y), -(hy - 0.5 * x))


def _horizontal(p: float, q: float) -> HorizontalData:
    """W and nu from the scalars p, q of a graph or a level set."""
    w = math.hypot(p, q)
    return HorizontalData(p, q, w, (p / w, q / w) if w > EPS_CHAR else None)


def horizontal_data(patch: GraphPatch, z: tuple, jet: Optional[tuple] = None) -> HorizontalData:
    """p, q, W and nu at z; ``jet`` is the field's jet at z, if the caller has it.

    z may be a chunk of nodes (x, y), given with its jet.
    """
    p, q = _pq(patch, z[0], z[1], jet)
    if not isinstance(p, np.ndarray):
        return _horizontal(p, q)
    w = ex.pointwise(math.hypot, p, q)
    with np.errstate(all="ignore"):
        nu = tuple(np.where(w > EPS_CHAR, v / w, math.nan) for v in (p, q))
    return HorizontalData(p, q, w, nu)


def unit_horizontal_field(patch: GraphPatch,
                          reverse: bool = False) -> Callable[[float, float], tuple[float, float]]:
    """The planar unit field nu = (p, q)/W on the patch domain, or -nu with
    ``reverse`` (bit for bit the negated values).

    Raises FieldUndefined off the domain or where W <= EPS_CHAR (analytic
    evaluators would otherwise happily extend past the declared domain).
    """
    dom = patch.domain

    def nu(x: float, y: float) -> tuple[float, float]:
        if not dom.contains(x, y):
            raise FieldUndefined(f"({x}, {y}) outside the patch domain")
        p, q = _pq(patch, x, y)
        if reverse:
            # -(a / w) == (-a) / w exactly, so -nu flips the sign of p and q instead
            p, q = -p, -q
        w = math.hypot(p, q)
        if not math.isfinite(w) or w <= EPS_CHAR:
            raise FieldUndefined(f"horizontal Gauss map undefined at ({x}, {y}), W={w}")
        return (p / w, q / w)

    return nu


def _cube(w):
    """w ** 3, or inf where a float power would raise OverflowError.

    Over an array, math.pow(w, 3.0) at each element: the same C pow, and
    ``_cube`` at each element on a chunk where it overflows.
    """
    if isinstance(w, np.ndarray):
        try:
            return ex.pointwise(math.pow, w, 3.0)
        except OverflowError:
            return ex.pointwise(_cube, w)
    try:
        return w ** 3
    except OverflowError:
        return math.inf


def _curvature_terms(patch: GraphPatch, x, y, jet: Optional[tuple]):
    """p, q, W and (p_x, p_y, q_x, q_y) at a non-characteristic point, or
    at a chunk of them (given with its jet).

    W is tested before the Hessian is read (a 1-jet is completed only then).
    Without a jet the height is not read: on a chart-inverted graph it costs
    a Newton solve.
    """
    p, q = _pq(patch, x, y, jet)
    if isinstance(p, np.ndarray):
        w = ex.pointwise(math.hypot, p, q)
        at = np.flatnonzero(w <= EPS_CHAR)
        if at.size:
            i = at[0]
            raise CharacteristicPoint(f"W={float(w[i])} at ({float(x[i])}, {float(y[i])})")
    else:
        w = math.hypot(p, q)
        if w <= EPS_CHAR:
            raise CharacteristicPoint(f"W={w} at ({x}, {y})")
    if jet is None:
        (hxx, hxy), (_, hyy) = patch.h.hessian(x, y)
    else:
        _, _, _, hxx, hxy, hyy = patch.h.jet(x, y, jet)
    return p, q, w, -hxx, -(hxy + 0.5), -(hxy - 0.5), -hyy


def _pq_form(p, q, w, p_x, p_y, q_x, q_y):
    """The p/q-form curvature from the terms of ``_curvature_terms``; a level
    set gives the derivatives of its p and q along X1 and X2."""
    return (q * q * p_x + p * p * q_y - p * q * (q_x + p_y)) / _cube(w)


def _curvature_div_form(patch: GraphPatch, x: float, y: float, step: float) -> float:
    nu = unit_horizontal_field(patch)
    dnu1 = (nu(x + step, y)[0] - nu(x - step, y)[0]) / (2.0 * step)
    dnu2 = (nu(x, y + step)[1] - nu(x, y - step)[1]) / (2.0 * step)
    return dnu1 + dnu2


def h_mean_curvature(patch: GraphPatch, z: tuple, cross_check: bool = True,
                     jet: Optional[tuple] = None):
    """H-mean curvature at a non-characteristic point of the patch.

    Returns the p/q-form value, read from ``jet`` (the field's jet at z)
    when given.  With ``cross_check`` the divergence form is evaluated
    independently and a disagreement beyond tolerance raises
    CurvatureMismatch.  The tolerance relaxes like (0.05/W)^3 close to the
    characteristic set, where the unit field's derivatives blow up.
    Without the cross-check, z may be a chunk of nodes (x, y), given with
    its jet; the result is then an array.
    """
    x, y = z
    terms = _curvature_terms(patch, x, y, jet)
    if isinstance(x, np.ndarray) and not cross_check:
        with np.errstate(all="ignore"):
            return _pq_form(*terms)
    value = _pq_form(*terms)
    if cross_check:
        if patch.analytic:
            base_tol, step = 1e-8, patch.h.fd_step
        else:
            base_tol, step = 1e-4, max(patch.h.fd_step, 1e-4)
        other = _curvature_div_form(patch, x, y, step)
        tol = base_tol * max(1.0, (0.05 / terms[2]) ** 3)
        if abs(value - other) > tol:
            raise CurvatureMismatch(
                f"pq-form {value} vs divergence-form {other} at ({x}, {y}), tol {tol}")
    return value


# ---------------------------------------------------------------------------
# Symmetries: left translation and rotation about the t-axis
# ---------------------------------------------------------------------------


def _height(patch: GraphPatch) -> ex.Expr:
    """The height tree of a graph, which a symmetry substitutes into."""
    if not patch.h.exprs:
        raise HminError("only a graph with an expression-backed height can be moved")
    return patch.h.exprs[0]


def _moved(patch: GraphPatch, tree: ex.Expr, domain: PlanarDomain) -> GraphPatch:
    """The graph of the moved height ``tree`` over ``domain``; its derivatives
    are symbolic when those of ``patch`` are, and differences otherwise."""
    h = ScalarField2.from_tree(tree, domain)
    return GraphPatch(domain, h if patch.analytic else h.fd_only())


def translate_graph(patch: GraphPatch, g0: HPoint) -> GraphPatch:
    """Left-translate a graph patch; the image is again a graph.

    The planar part translates by (x0, y0) and the height becomes
    h(x - x0, y - y0) + t0 - ((x - x0) y0 - x0 (y - y0))/2, so p and q (and
    hence the curvature) are carried along exactly: acceptance criterion 11.
    The new height is that expression tree, so its derivatives are exact
    symbolic ones when those of h are, and central differences when h has
    none; h must be expression-backed.
    """
    # plain floats: the literals of a tree are compiled as their repr
    x0, y0, t0 = float(g0.x), float(g0.y), float(g0.t)
    dom = patch.domain
    m = dom.membership
    membership = None if m is None else lambda x, y: m(x - x0, y - y0)  # noqa: E731
    if getattr(m, "over_arrays", False):
        over_arrays(membership)
    new_dom = PlanarDomain(dom.xmin + x0, dom.xmax + x0, dom.ymin + y0, dom.ymax + y0,
                           membership)
    u, v = ex.sub(ex.Var("x"), ex.Num(x0)), ex.sub(ex.Var("y"), ex.Num(y0))
    shear = ex.mul(ex.Num(0.5), ex.sub(ex.mul(u, ex.Num(y0)), ex.mul(ex.Num(x0), v)))
    tree = ex.sub(ex.add(ex.substitute(_height(patch), {"x": u, "y": v}), ex.Num(t0)), shear)
    return _moved(patch, tree, new_dom)


def rotate_graph(patch: GraphPatch, theta: float) -> GraphPatch:
    """Rotate a graph patch about the t-axis; the image is again a graph
    with the rotated curvature (acceptance criterion 11).

    The new height is h(c x + s y, -s x + c y) (c = cos theta, s = sin
    theta) as an expression tree, so its derivatives are exact symbolic
    ones when those of h are, and central differences when h has none; h
    must be expression-backed.
    """
    c, s = math.cos(theta), math.sin(theta)
    dom = patch.domain
    xs, ys = zip(*((c * px - s * py, s * px + c * py)
                   for px in (dom.xmin, dom.xmax) for py in (dom.ymin, dom.ymax)))

    @over_arrays
    def membership(x, y):
        # the point rotated back, in the old domain
        bx, by = c * x + s * y, -s * x + c * y
        return dom.contains_all(bx, by) if isinstance(x, np.ndarray) else dom.contains(bx, by)

    new_dom = PlanarDomain(min(xs), max(xs), min(ys), max(ys), membership)
    x, y = ex.Var("x"), ex.Var("y")
    back = {"x": ex.add(ex.mul(ex.Num(c), x), ex.mul(ex.Num(s), y)),
            "y": ex.add(ex.mul(ex.Num(-s), x), ex.mul(ex.Num(c), y))}
    return _moved(patch, ex.substitute(_height(patch), back), new_dom)


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
    undefined_w: int = 0   # nodes where W is not finite: neither flagged nor clear

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
    """Grid nodes with W < eps, clustered, with sub-grid edge refinement.

    W is read through the height field's jet, one chunk of nodes at a time.
    """
    def wfun(x: float, y: float) -> float:
        p, q = _pq(patch, x, y)
        return math.hypot(p, q)

    xs, ys = grid.lattice()
    ni, nj = len(xs), len(ys)
    gx, gy = grid.mesh()
    inside = grid.domain.contains_all(gx, gy)
    w = np.full((ni, nj), np.inf)
    for (nodes,) in chunks(np.flatnonzero(inside)):
        x, y = gx.flat[nodes], gy.flat[nodes]
        w.flat[nodes] = horizontal_data(patch, (x, y), jet=patch.h.jet(x, y)).w
    flagged = inside & (w < eps)

    # cluster flagged nodes into 8-connected components
    comp = -np.ones((ni, nj), dtype=int)
    comps: list[list[tuple[int, int]]] = []
    for i, j in np.argwhere(flagged).tolist():
        if comp[i, j] < 0:
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
    return CharacteristicScan(out, int(np.count_nonzero(inside & ~np.isfinite(w))))


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
    orientation: int
    _sym: _Compiled

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
        return ImplicitSurface(ex.compile_fn(tree, xyt), orientation, compiled)

    def horizontal_data(self, g: HPoint) -> HorizontalData:
        o = float(self.orientation)
        p, q = self._sym.pq(g.x, g.y, g.t)
        return _horizontal(o * p, o * q)

    def h_mean_curvature(self, g: HPoint) -> float:
        x, y, t = g.x, g.y, g.t
        o = float(self.orientation)
        p, q, p_x, p_y, p_t, q_x, q_y, q_t = self._sym.curv(x, y, t)
        p, q = o * p, o * q
        # the derivatives of p and q along X1 and X2
        x1p, x2p = o * (p_x - 0.5 * y * p_t), o * (p_y + 0.5 * x * p_t)
        x1q, x2q = o * (q_x - 0.5 * y * q_t), o * (q_y + 0.5 * x * q_t)
        w = math.hypot(p, q)
        if w <= EPS_CHAR:
            raise CharacteristicPoint(f"W={w} at {g}")
        return _pq_form(p, q, w, x1p, x2p, x1q, x2q)

    def solve_height(self, x: float, y: float, t0: float) -> float:
        """1-D Newton for t with phi(x, y, t) = 0, starting from t0."""
        t = t0
        for _ in range(60):
            val = self.phi(x, y, t)
            if abs(val) < 1e-12:
                return t
            dt = self._sym.dt(x, y, t)
            if dt == 0.0 or not math.isfinite(dt):
                break
            t -= val / dt
        if abs(self.phi(x, y, t)) < 1e-9:
            return t
        raise FieldUndefined(f"could not solve phi({x}, {y}, t) = 0 near t0={t0}")
